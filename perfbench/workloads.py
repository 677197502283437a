"""The four workloads: their inputs, one operation, its traced form and its check.

Each workload builds a fixed round of items from the seed.  A run repeats
whole rounds, one operation at a time (a closed loop with one client).
An operation always starts from a fresh ``Hypergraph``, so the caches the
program keeps on an instance never carry over from one operation to the
next.

``children`` says whether an operation runs in a child process.  ``op``
calls the program the way a user would.  ``traced`` does the same
work through the public functions of each layer in turn, handing each
result to the next call, and wraps every call in a span named after the
module it belongs to.  ``reference`` computes, after the timed phase,
what ``check`` needs; ``check`` returns a list of problems.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import hyperchrom as hc
from hyperchrom import _kernels
from hyperchrom import listcolor as hc_listcolor

import checks
import inputs
import reference

__all__ = ["WORKLOADS", "InvalidInstance"]


class InvalidInstance(Exception):
    """The program's own validation rejected a generated instance."""


def _build(n: int, edges) -> "hc.Hypergraph":
    H = hc.Hypergraph(n, edges)
    problems = hc.validate(H)
    if problems:
        raise InvalidInstance(problems[0])
    return H


def _minimal_count(masks: list[int]) -> int:
    """Sets in the family with no other member of the family inside them."""
    return sum(
        1 for a in masks if not any(b != a and b & a == b for b in masks)
    )


def _traced_catalog(rec, item):
    """Build, catalog and encode one instance, each in its span; count the catalog."""
    with rec.span("hypercore.build"):
        H = _build(item["n"], item["edges"])
    with rec.span("cycles.catalog"):
        catalog = hc.enumerate_delta_cycles(H)
    with rec.span("kernels.encode"):
        _kernels.edges_csr(H)
        _kernels.broken_csr(catalog)
    masks = [b.mask for b in catalog.broken_family()]
    rec.count("cycles.delta_cycles", len(catalog))
    rec.count("cycles.broken_sets", len(masks))
    rec.defer(lambda: rec.count("cycles.broken_minimal", _minimal_count(masks)))
    return H, catalog


class Poly:
    """chromatic_polynomial on r-uniform rho >= 2 instances with m = 14.

    Per round, fifteen linear 3-uniform instances on 13 vertices and nine
    4-uniform instances with rho >= 2 on 12 vertices.  At fixed n and m the
    cost of one instance varies by about 15% with its structure, and it
    roughly doubles per added edge.  One size class with many instances
    keeps the mean operation steady from seed to seed, and the unequal
    split keeps the median operation inside the 3-uniform class rather
    than on the edge between the two.
    """

    name = "poly"
    children = False
    # (n, m, r, overlap cap, instances per round)
    SLOTS = [(13, 14, 3, 1, 15), (12, 14, 4, 2, 9)]
    REF_K = (2, 3)

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"poly:{seed}")
        self.items = [
            {"n": n, "edges": inputs.greedy_uniform(n, m, r, t, rng)}
            for (n, m, r, t, count) in self.SLOTS
            for _ in range(count)
        ]
        self.warmup = [self.items[0]]

    def op(self, item):
        H = _build(item["n"], item["edges"])
        return tuple(map(tuple, hc.chromatic_polynomial(H).to_pairs()))

    def traced(self, item, rec):
        H, catalog = _traced_catalog(rec, item)
        with rec.span("chromatic.expansion"):
            poly = hc.chromatic_polynomial(H, catalog=catalog)
        return tuple(map(tuple, poly.to_pairs()))

    def reference(self, item):
        return {k: reference.count_colorings(item["n"], item["edges"], k) for k in self.REF_K}

    def check(self, item, answer, ref):
        return checks.check_poly(item["n"], item["edges"], answer, ref)


class Lists:
    """P(H, L) by both routes plus prop1_rhs, on r-uniform instances with m = 12.

    Per round, instances for each (n, r, k) slot, each with two random
    k-assignments drawn from k + 2 colors and the constant assignment
    {1..k}.  All slots have m = 12, so operations cost about the same; the
    3-uniform slots hold three quarters of them, for the reason given in
    Poly.
    """

    name = "lists"
    children = False
    # (n, m, r, overlap cap, k, instances per round)
    SLOTS = [
        (10, 12, 3, 1, 3, 3), (11, 12, 3, 1, 2, 3), (11, 12, 4, 2, 2, 1), (10, 12, 4, 2, 3, 1),
    ]
    RANDOM_PER_INSTANCE = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"lists:{seed}")
        self.items = []
        for n, m, r, t, k, count in self.SLOTS:
            for _ in range(count):
                edges = inputs.greedy_uniform(n, m, r, t, rng)
                assignments = [inputs.random_lists(n, k, k + 2, rng) for _ in range(self.RANDOM_PER_INSTANCE)]
                assignments.append(inputs.constant_lists(n, k))
                for i, lists in enumerate(assignments):
                    self.items.append(
                        {"n": n, "edges": edges, "k": k, "lists": lists, "constant": i == len(assignments) - 1}
                    )
        self.warmup = [self.items[0]]
        self._ref_k: dict = {}

    def op(self, item):
        H = _build(item["n"], item["edges"])
        L = hc.ListAssignment(item["k"], item["lists"])
        return (
            hc.count_L_colorings(H, L),
            hc.count_L_colorings_expansion(H, L),
            hc.prop1_rhs(H, L),
        )

    def traced(self, item, rec):
        H, catalog = _traced_catalog(rec, item)
        L = hc.ListAssignment(item["k"], item["lists"])
        with rec.span("listcolor.brute"):
            brute = hc.count_L_colorings(H, L)
        # count_L_colorings_expansion draws NB(H) from listcolor's own
        # binding of nb_subsets; rebinding it spans the stream in place
        stream = hc_listcolor.nb_subsets
        hc_listcolor.nb_subsets = lambda *a, **kw: rec.wrap_stream(
            "cycles.nb_stream", stream(*a, **kw), "cycles.nb_members"
        )
        try:
            with rec.span("listcolor.expansion"):
                expansion = hc.count_L_colorings_expansion(H, L, catalog=catalog)
        finally:
            hc_listcolor.nb_subsets = stream
        with rec.span("bounds.prop1"):
            prop1 = hc.prop1_rhs(H, L, catalog=catalog)
        return brute, expansion, prop1

    def reference(self, item):
        key = (item["n"], tuple(item["edges"]), item["k"])
        if key not in self._ref_k:
            self._ref_k[key] = reference.count_colorings(item["n"], item["edges"], item["k"])
        return (
            reference.count_list_colorings(item["n"], item["edges"], item["lists"]),
            self._ref_k[key],
        )

    def check(self, item, answer, ref):
        brute, expansion, prop1 = answer
        ref_lists, ref_k = ref
        return checks.check_lists(brute, expansion, prop1, ref_lists, ref_k, item["constant"])


class Plk:
    """Whole-assignment-space searches on small 3-uniform instances.

    ``exact``: list_color_function_exact within the default exact_plk cap
    (n * k <= 12).  ``scan``: scan_assignments_one_extra_color on linear
    instances, n = 7..9, m = 5..6, k = 2..4; at k = 4 Theorem 2's threshold
    holds and its gap factor is passed in.
    """

    name = "plk"
    children = False
    # (kind, n, m, overlap cap, k)
    SLOTS = [
        ("exact", 5, 2, 1, 2), ("exact", 6, 3, 1, 2), ("exact", 6, 4, 1, 2),
        ("scan", 7, 5, 1, 4), ("scan", 8, 6, 1, 3), ("scan", 8, 6, 1, 4),
        ("scan", 9, 6, 1, 2), ("scan", 9, 6, 1, 3), ("scan", 9, 6, 1, 4),
    ]

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"plk:{seed}")
        self.items = []
        for kind, n, m, t, k in self.SLOTS:
            edges = inputs.greedy_uniform(n, m, 3, t, rng)
            gap = hc.thm2_gap_factor(m) if kind == "scan" and checks.gap_applies(edges, k) else 0.0
            self.items.append({"kind": kind, "n": n, "edges": edges, "k": k, "gap": gap})
        self.warmup = [self.items[0], self.items[3]]

    def op(self, item):
        H = _build(item["n"], item["edges"])
        if item["kind"] == "exact":
            value, witness = hc.list_color_function_exact(H, item["k"])
            return value, tuple(sorted(witness.lists.items()))
        res = hc.scan_assignments_one_extra_color(H, item["k"], gap_factor=item["gap"])
        return tuple(sorted(res.items()))

    def traced(self, item, rec):
        with rec.span("hypercore.build"):
            H = _build(item["n"], item["edges"])
        if item["kind"] == "exact":
            with rec.span("listcolor.plk_exact"):
                value, witness = hc.list_color_function_exact(H, item["k"])
            return value, tuple(sorted(witness.lists.items()))
        with rec.span("bounds.scan"):
            res = hc.scan_assignments_one_extra_color(H, item["k"], gap_factor=item["gap"])
        rec.count("bounds.patterns_checked", res["checked"])
        return tuple(sorted(res.items()))

    def reference(self, item):
        if item["kind"] == "exact":
            return reference.count_colorings(item["n"], item["edges"], item["k"])
        return None

    def check(self, item, answer, ref):
        n, edges, k = item["n"], item["edges"], item["k"]
        if item["kind"] == "exact":
            value, witness = answer
            return checks.check_plk_exact(n, edges, k, value, dict(witness), ref)
        return checks.check_scan(n, edges, k, dict(answer))


# Runs the CLI as ``python -m hyperchrom.cli`` would, and reports on stderr
# the process's CPU time when the imports and the command started and ended.
_TIMED_CLI = (
    "import sys, time, json\n"
    "t0 = time.process_time()\n"
    "import hyperchrom.cli as cli\n"
    "t1 = time.process_time()\n"
    "rc = cli.main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "t2 = time.process_time()\n"
    "sys.stderr.write('PERFBENCH ' + json.dumps([t0, t1, t2]) + '\\n')\n"
    "sys.exit(rc)\n"
)


class Cli:
    """One-shot ``python -m hyperchrom.cli ... --json`` calls on small files.

    Per round: chromatic --oracle, list-count, plk, delta-cycles and
    verify --theorem 1, on a linear 3-uniform n = 7, m = 5 instance (rho = 2,
    so Theorem 1's m >= rho^3/2 + 1 holds) and a 3-uniform n = 5 one for plk.
    """

    name = "cli"
    children = True

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"cli:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        big = {"n": 7, "edges": inputs.greedy_uniform(7, 5, 3, 1, rng)}
        small = {"n": 5, "edges": inputs.greedy_uniform(5, 2, 3, 1, rng)}
        lists = inputs.random_lists(7, 2, 4, rng)
        k_thm1 = math.ceil(reference.threshold_thm1(5, reference.rho(big["edges"])))
        files = {}
        for name, inst in (("big", big), ("small", small)):
            files[name] = workdir / f"{name}.json"
            files[name].write_text(json.dumps({"n": inst["n"], "edges": [list(e) for e in inst["edges"]]}))
        files["lists"] = workdir / "lists.json"
        files["lists"].write_text(json.dumps({"k": 2, "lists": {str(v): list(c) for v, c in lists.items()}}))
        big_f, small_f, lists_f = (str(files[x]) for x in ("big", "small", "lists"))
        self.items = [
            {"command": "chromatic", "argv": ["chromatic", big_f, "--k", "3", "--oracle", "--json"], "case": dict(big, k=3)},
            {"command": "list-count", "argv": ["list-count", big_f, lists_f, "--json"], "case": dict(big, k=2, lists=lists)},
            {"command": "plk", "argv": ["plk", small_f, "--k", "2", "--json"], "case": dict(small, k=2)},
            {"command": "delta-cycles", "argv": ["delta-cycles", big_f, "--json"], "case": dict(big)},
            {"command": "verify", "argv": ["verify", "--theorem", "1", "--k", str(k_thm1), big_f, "--json"], "case": dict(big, k=k_thm1)},
        ]
        self.warmup = [self.items[3]]
        # the calls import the same hyperchrom as this process
        src = str(Path(hc.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=src)

    def op(self, item):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperchrom.cli", *item["argv"]], capture_output=True, env=self.env
        )
        return proc.returncode, proc.stdout

    def traced(self, item, rec):
        with rec.span("cli.interpreter"):
            # the child's CPU clock starts near zero; place its readings
            # from this span's start on the recorder's clock
            base = rec.clock()
            proc = subprocess.run(
                [sys.executable, "-c", _TIMED_CLI, *item["argv"]], capture_output=True, env=self.env
            )
            lines = proc.stderr.decode(errors="replace").splitlines()
            if lines and lines[-1].startswith("PERFBENCH "):
                t0, t1, t2 = json.loads(lines[-1][len("PERFBENCH "):])
                rec.add("cli.import", base + t0, base + t1)
                rec.add("cli.command", base + t1, base + t2)
        return proc.returncode, proc.stdout

    def reference(self, item):
        case = item["case"]
        n, edges = case["n"], case["edges"]
        if item["command"] in ("chromatic", "plk"):
            return {"ref_k": reference.count_colorings(n, edges, case["k"])}
        if item["command"] == "list-count":
            return {"ref_lists": reference.count_list_colorings(n, edges, case["lists"])}
        return {}

    def check(self, item, answer, ref):
        returncode, stdout = answer
        if returncode != 0:
            return [f"{item['command']} exited {returncode}"]
        try:
            record = json.loads(stdout)
        except ValueError:
            return [f"{item['command']} printed no JSON: {stdout[:200]!r}"]
        return checks.check_cli(item["command"], record, dict(item["case"], **ref))


WORKLOADS = {w.name: w for w in (Poly, Lists, Plk, Cli)}
