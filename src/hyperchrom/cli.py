"""Command-line front end.

Subcommands wire the library into reproducible runs: chromatic,
delta-cycles, nb, list-count, plk, verify, gen.  Each subparser names its
handler with ``set_defaults(handler=...)``, and the handler reads the
parsed arguments directly, so every option and its default is declared
once, in ``build_parser``.  ``gen`` takes its families from the
``_FAMILIES`` table.  All outputs are deterministic for fixed arguments
and seed.  Every command but ``gen`` builds its result once, as a JSON
record and as text lines, and renders it through ``_emit``: the record
under --json, the lines otherwise.

Each command imports the library modules it runs when it runs, so a
call loads only what it needs.  This module loads ``errors`` and
``hypercore`` (to read and check the instance) and the standard library's
``argparse``, ``json`` and ``pathlib``.  ``delta-cycles`` and ``nb`` add
``cycles``; ``chromatic`` adds ``chromatic`` on top; ``list-count`` and
``plk`` add ``listcolor`` on top of that, and ``gen`` adds ``generators``
on top of ``listcolor``; only ``verify`` loads ``bounds``, and with it
``dataclasses`` and ``fractions``.  Only ``verify --grids`` imports mpmath,
and only the commands that run the exact list-color function or the float
grids import numpy (``plk`` without ``--heuristic``, ``verify --grids``,
and ``verify --theorem`` when its exact check fits the caps); the others,
the brute-force counts of ``chromatic --oracle`` and ``list-count``
included, start without either library.  ``plk`` counts P(H, k) by brute
force after its search, so it builds no delta-cycle catalog.

Exit codes: 0 success (and all verdicts hold), 1 verdict failure
(oracle or route mismatch, a failing bound), 2 input error (or a
missing library, such as numpy for the exact ``plk``), 3 budget
refusal, 4 generator failure (the random families fall back to one
greedy pass over the shuffled r-subsets when rejection sampling gives
up; 4 means that pass failed too).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import BudgetExceededError, GeneratorError, HyperchromError, InputError, read_text
from .hypercore import Hypergraph, validate

__all__ = ["main", "build_parser"]


def _parse_eta(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"--eta wants comma-separated integers: {exc}") from exc


def _load_hypergraph(path: str) -> Hypergraph:
    H = Hypergraph.load(path)
    problems = validate(H)
    if problems:
        raise InputError(f"{path}: {problems[0]}")
    return H


def _labels_text(labels) -> str:
    return "{" + ",".join(f"e{lab}" for lab in labels) + "}"


def _emit(args: argparse.Namespace, record, lines: list[str], rc: int = 0) -> int:
    """Print a command's result, its record under --json and its lines otherwise; return rc."""
    if args.json:
        print(json.dumps(record, sort_keys=True, default=float))
    else:
        print("\n".join(lines))
    return rc


def cmd_chromatic(args: argparse.Namespace) -> int:
    from .chromatic import chromatic_polynomial, count_proper_colorings

    eta = _parse_eta(args.eta)
    H = _load_hypergraph(args.input)
    poly = chromatic_polynomial(H, eta=eta)
    # P(H, k) may pass CPython's 4,300-digit int-to-str limit; lift it only
    # while the answer is written, so the JSON readers keep refusing such ints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rc = 0
        record: dict = {"poly": poly.to_pairs(), "text": str(poly)}
        lines = [str(poly)]
        if args.k is not None:
            value = poly.eval(args.k)
            record["k"] = args.k
            record["eval"] = value
            if args.oracle:
                brute = count_proper_colorings(H, args.k)
                record["oracle"] = brute
                if brute == value:
                    lines.append(f"{value} (oracle agrees)")
                else:
                    lines.append(f"{value} (oracle disagrees: brute force counts {brute})")
                    rc = 1
            else:
                lines.append(str(value))
        return _emit(args, record, lines, rc)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_delta_cycles(args: argparse.Namespace) -> int:
    from .cycles import enumerate_delta_cycles

    eta = _parse_eta(args.eta)
    H = _load_hypergraph(args.input)
    catalog = enumerate_delta_cycles(H)
    pairs = list(zip(catalog.cycles, catalog.broken_per_cycle(eta)))
    record = {
        "count": len(pairs),
        "cycles": [
            {
                "edges": list(cyc.labels),
                "size": cyc.size,
                "broken": list(brk.labels),
            }
            for cyc, brk in pairs
        ],
    }
    lines = [f"{len(pairs)} delta-cycle{'s' if len(pairs) != 1 else ''}"]
    lines += [
        f"size {cyc.size}: {_labels_text(cyc.labels)} broken: {_labels_text(brk.labels)}"
        for cyc, brk in pairs
    ]
    return _emit(args, record, lines)


def cmd_nb(args: argparse.Namespace) -> int:
    from .cycles import nb_subsets

    eta = _parse_eta(args.eta)
    H = _load_hypergraph(args.input)
    subsets = [
        list(A.labels)
        for A in nb_subsets(H, eta=eta, must_contain=args.contains, size=args.size)
    ]
    lines = [_labels_text(labels) for labels in subsets] + [f"{len(subsets)} subsets"]
    return _emit(args, {"count": len(subsets), "subsets": subsets}, lines)


def cmd_list_count(args: argparse.Namespace) -> int:
    from .listcolor import ListAssignment, alpha, count_L_colorings, count_L_colorings_expansion

    eta = _parse_eta(args.eta)
    H = _load_hypergraph(args.input)
    L = ListAssignment.from_json(read_text(args.assignment))
    brute = count_L_colorings(H, L)
    expansion = count_L_colorings_expansion(H, L, eta=eta)
    profile = alpha(H, L)
    agree = brute == expansion
    record = {
        "P_HL": brute,
        "alpha": profile.total,
        "alpha_per_edge": list(profile.per_edge),
        "brute": brute,
        "expansion": expansion,
        "routes_agree": agree,
    }
    lines = [
        f"P(H,L)={brute}, alpha={profile.total}",
        f"routes: brute={brute} expansion={expansion}",
        f"alpha per edge: {','.join(str(a) for a in profile.per_edge)}",
    ]
    if not agree:
        lines.append("ROUTE MISMATCH")
    return _emit(args, record, lines, 0 if agree else 1)


def cmd_plk(args: argparse.Namespace) -> int:
    from .chromatic import count_proper_colorings
    from .listcolor import list_color_function_exact, list_color_function_search

    H = _load_hypergraph(args.input)
    if args.heuristic:
        value, witness = list_color_function_search(
            H, args.k, iterations=args.iterations, seed=args.seed
        )
    else:
        try:
            value, witness = list_color_function_exact(H, args.k)
        except BudgetExceededError as exc:
            print(f"budget refused: {exc}", file=sys.stderr)
            print("hint: rerun with --heuristic for a search-based upper bound", file=sys.stderr)
            return 3
    # either search has passed k^n against the brute_force cap, so this count fits
    p = count_proper_colorings(H, args.k)
    if args.heuristic:
        record = {
            "P_l_upper": value,
            "P": p,
            "exact": False,
            "witness": json.loads(witness.to_json()),
        }
        lines = [f"P_l<={value} (heuristic upper bound); P={p}", f"witness: {witness.to_json()}"]
        return _emit(args, record, lines)
    rc = 0
    relation = "=" if value == p else "<"
    if value > p:
        relation = ">"
        rc = 1
    suffix = (
        "; witness: constant lists"
        if witness.is_constant()
        else f"; witness: {witness.to_json()}"
    )
    record = {
        "P_l": value,
        "P": p,
        "exact": True,
        "equal": value == p,
        "witness": json.loads(witness.to_json()),
    }
    return _emit(args, record, [f"P_l={value} {relation} P{suffix}", f"P(H,k)={p}"], rc)


def _expand_paths(paths: list[str]) -> list[str]:
    out: list[str] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(str(q) for q in sorted(p.glob("*.json")))
        else:
            out.append(raw)
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .bounds import reports_to_csv, theorem_certify

    reports = []
    if args.grids:
        from .closed_forms import verify_grids  # the one command that needs mpmath

        reports.extend(verify_grids())
    if args.theorem is not None:
        if args.k is None:
            raise InputError("--theorem needs --k")
        files = _expand_paths(args.inputs)
        if not files:
            raise InputError("--theorem needs at least one instance file or directory")
        for path in files:
            H = _load_hypergraph(path)
            rep = theorem_certify(H, args.k, args.theorem, effort=args.effort)
            rep.inputs["instance"] = path
            reports.append(rep)
    elif not args.grids:
        raise InputError("nothing to verify: pass --grids and/or --theorem")
    if args.csv:
        Path(args.csv).write_text(reports_to_csv(reports))
    lines = []
    for rep in reports:
        where = rep.inputs.get("instance")
        tag = f" {where}" if where else ""
        if rep.verdict == "not-applicable":
            why = "; ".join(rep.applicability)
            lines.append(f"{rep.name}{tag}: not-applicable ({why})")
        else:
            lines.append(
                f"{rep.name}{tag}: {rep.verdict} "
                f"(lhs={rep.lhs} {rep.relation} rhs={rep.rhs})"
            )
    rc = 1 if any(rep.verdict == "fails" for rep in reports) else 0
    return _emit(args, [asdict(rep) for rep in reports], lines, rc)


# family -> (its function in generators, the flags it needs in order, whether it takes --seed)
_FAMILIES = {
    "random-linear": ("random_linear_r_uniform", ("n", "m", "r"), True),
    "random-linear-r-uniform": ("random_linear_r_uniform", ("n", "m", "r"), True),
    "random-rho": ("random_r_uniform_rho", ("n", "m", "r", "rho"), True),
    "random-r-uniform-rho": ("random_r_uniform_rho", ("n", "m", "r", "rho"), True),
    "tight-path": ("tight_path", ("n", "r"), False),
    "sunflower-free": ("sunflower_free", ("n", "m", "r"), True),
    "fig1": ("fig1", ("index",), False),
}


def cmd_gen(args: argparse.Namespace) -> int:
    from . import generators

    name, flags, seeded = _FAMILIES[args.family]
    make = getattr(generators, name)
    values = []
    for flag in flags:
        value = getattr(args, flag)
        if value is None:
            raise InputError(f"--family {args.family} needs --{flag}")
        values.append(value)
    H = make(*values, seed=args.seed) if seeded else make(*values)
    text = H.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperchrom",
        description="Exact chromatic polynomials and list-color functions of hypergraphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("chromatic", help="chromatic polynomial of a hypergraph file")
    p.set_defaults(handler=cmd_chromatic)
    p.add_argument("input")
    p.add_argument("--eta", help="edge ordering as comma-separated labels")
    p.add_argument("--k", type=int)
    p.add_argument("--oracle", action="store_true", help="cross-check against brute force")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("delta-cycles", help="enumerate the delta-cycle catalog")
    p.set_defaults(handler=cmd_delta_cycles)
    p.add_argument("input")
    p.add_argument("--eta")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("nb", help="stream the broken-free edge subsets")
    p.set_defaults(handler=cmd_nb)
    p.add_argument("input")
    p.add_argument("--eta")
    p.add_argument("--contains", type=int, help="only subsets containing this edge label")
    p.add_argument("--size", type=int, help="only subsets of exactly this many edges")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("list-count", help="count list colorings by both routes")
    p.set_defaults(handler=cmd_list_count)
    p.add_argument("input")
    p.add_argument("assignment")
    p.add_argument("--eta")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("plk", help="list-color function at k")
    p.set_defaults(handler=cmd_plk)
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--heuristic", action="store_true", help="search-based upper bound")
    p.add_argument("--iterations", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="grid checks and theorem certification")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("inputs", nargs="*", help="instance files or directories")
    p.add_argument("--grids", action="store_true")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3))
    p.add_argument("--k", type=int)
    p.add_argument("--effort", choices=("auto", "threshold", "exact"), default="auto")
    p.add_argument("--csv", help="write reports as CSV to this path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="generate an instance file")
    p.set_defaults(handler=cmd_gen)
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--index", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--rho", type=int, metavar="RHO_MIN")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 3
    except GeneratorError as exc:
        print(f"generator failed: {exc}", file=sys.stderr)
        return 4
    except (HyperchromError, OSError, ModuleNotFoundError) as exc:  # the last: numpy absent
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
