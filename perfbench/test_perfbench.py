"""Tests of the benchmark's own parts: reference counter, checks, spans.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from spans import Recorder  # noqa: E402

# the README example: two triples sharing two vertices
README_N, README_EDGES = 4, [(1, 2, 3), (2, 3, 4)]
README_LISTS = {1: (1, 2), 2: (1, 2), 3: (2, 3), 4: (1, 3)}
# two triples sharing one vertex: linear, rho = 2, P = k^5 - 2k^3 + k
E2_N, E2_EDGES = 5, [(1, 2, 3), (3, 4, 5)]
# three triples pairwise sharing one vertex: linear, m = 3
TRIANGLE_N, TRIANGLE_EDGES = 6, [(1, 2, 3), (3, 4, 5), (5, 6, 1)]


def test_reference_readme_example():
    assert [reference.count_colorings(README_N, README_EDGES, k) for k in range(5)] == [
        k**4 - 2 * k**2 + k for k in range(5)
    ]
    assert reference.count_colorings(README_N, README_EDGES, 3) == 66
    assert reference.count_list_colorings(README_N, README_EDGES, README_LISTS) == 14


def test_reference_hand_values():
    # a graph triangle: k(k-1)(k-2); a single triple: k^3 - k; no edges: k^n
    assert reference.count_colorings(3, [(1, 2), (2, 3), (1, 3)], 4) == 24
    assert reference.count_colorings(3, [(1, 2, 3)], 5) == 120
    assert reference.count_colorings(4, [], 3) == 81
    assert reference.count_colorings(0, [], 3) == 1
    assert reference.count_colorings(2, [(1, 2)], 0) == 0
    assert reference.count_colorings(E2_N, E2_EDGES, 3) == 3**5 - 2 * 3**3 + 3


def test_reference_beyond_one_chunk():
    # 2^18 colorings exceed one chunk, so vertex 18 is looped over in Python;
    # by inclusion-exclusion over the two triples: 2^18 - 2 * 2^16 + 2^14
    assert 2**18 > reference.CHUNK
    edges = [(1, 2, 3), (16, 17, 18)]
    assert reference.count_colorings(18, edges, 2) == 2**18 - 2 * 2**16 + 2**14
    lists = {v: (v, v + 1) for v in range(1, 19)}
    # consecutive vertices share one color, so no triple can be monochromatic
    assert reference.count_list_colorings(18, edges, lists) == 2**18


def test_reference_delta_cycles_and_statistics():
    assert reference.delta_cycles([(1, 2), (2, 3), (1, 3)]) == [(1, 2, 3)]
    assert reference.delta_cycles(E2_EDGES) == []
    # Fig. 1-style: the three outer triples and the middle one cover each other
    fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (3, 5, 7)]
    cycles = reference.delta_cycles(fano)
    assert cycles and all(len(c) >= 3 for c in cycles)
    assert reference.rho(E2_EDGES) == 2 and reference.rho(README_EDGES) == 1
    assert reference.is_linear(E2_EDGES) and not reference.is_linear(README_EDGES)


def test_greedy_instances_meet_their_caps():
    rng = random.Random(0)
    for n, m, r, t in [(13, 15, 3, 1), (12, 15, 4, 2), (9, 6, 3, 1)]:
        edges = inputs.greedy_uniform(n, m, r, t, rng)
        assert len(set(edges)) == m and all(len(e) == r for e in edges)
        assert all(len(set(a) & set(b)) <= t for i, a in enumerate(edges) for b in edges[i + 1 :])
        assert reference.rho(edges) >= 2
    again = inputs.greedy_uniform(13, 15, 3, 1, random.Random(0))
    assert again == inputs.greedy_uniform(13, 15, 3, 1, random.Random(0))


def test_check_poly_accepts_and_rejects():
    pairs = [(5, 1), (3, -2), (1, 1)]
    ref = {k: reference.count_colorings(E2_N, E2_EDGES, k) for k in (2, 3)}
    assert checks.check_poly(E2_N, E2_EDGES, pairs, ref) == []
    # each perturbation below trips one property; the last two agree with
    # the reference at k = 2, 3 and are caught only by P(H,1) = 0 and by
    # the coefficient -m, after adding (k-2)(k-3) and (k-1)(k-2)(k-3)
    for bad in (
        [(5, 1), (3, -2), (1, 2)],
        [(5, 2), (3, -2), (1, 1)],
        [(6, 1), (3, -2), (1, 1)],
        [(5, 1), (3, -2), (2, 1), (1, -4), (0, 6)],
        [(5, 1), (3, -1), (2, -6), (1, 12), (0, -6)],
    ):
        assert checks.check_poly(E2_N, E2_EDGES, bad, ref), bad


def test_check_lists_accepts_and_rejects():
    pl = reference.count_list_colorings(README_N, README_EDGES, README_LISTS)
    pk = reference.count_colorings(README_N, README_EDGES, 2)
    assert (pl, pk) == (14, 10)
    assert checks.check_lists(14, 14, 4, pl, pk, constant=False) == []
    assert checks.check_lists(15, 14, 4, pl, pk, constant=False)
    assert checks.check_lists(14, 13, 4, pl, pk, constant=False)
    assert checks.check_lists(14, 14, 5, pl, pk, constant=False)
    assert checks.check_lists(10, 10, 0, 10, 10, constant=True) == []
    assert checks.check_lists(10, 10, 0, 10, 11, constant=True)


def test_check_plk_exact_accepts_and_rejects():
    constant = {v: (1, 2) for v in range(1, README_N + 1)}
    assert checks.check_plk_exact(README_N, README_EDGES, 2, 10, constant, 10) == []
    assert checks.check_plk_exact(README_N, README_EDGES, 2, 11, constant, 10)
    assert checks.check_plk_exact(README_N, README_EDGES, 2, 9, constant, 10)
    short = {**constant, 4: (1,)}
    assert checks.check_plk_exact(README_N, README_EDGES, 2, 10, short, 10)
    missing = {v: (1, 2) for v in range(1, README_N)}
    assert checks.check_plk_exact(README_N, README_EDGES, 2, 10, missing, 10)
    # a real minimizer that is not constant: P(H,L) = 14 > 10, so P_l != 14
    assert checks.check_plk_exact(README_N, README_EDGES, 2, 14, README_LISTS, 10)


def _scan_result(**over):
    res = {
        "checked": 0,
        "viol_prop": 0,
        "viol_uniform": 0,
        "viol_linear": 0,
        "viol_gap": 0,
        "min_gap_margin": None,
    }
    res.update(over)
    return res


def test_check_scan_accepts_and_rejects():
    ok = _scan_result(checked=3**5 - 3)
    assert checks.check_scan(E2_N, E2_EDGES, 2, ok) == []
    assert checks.check_scan(E2_N, E2_EDGES, 2, dict(ok, checked=ok["checked"] - 1))
    assert checks.check_scan(E2_N, E2_EDGES, 2, dict(ok, viol_prop=1))
    assert checks.check_scan(E2_N, E2_EDGES, 2, dict(ok, viol_uniform=1))
    assert checks.check_scan(E2_N, E2_EDGES, 2, dict(ok, viol_linear=1))
    # not linear: the linear-clause count is not checked
    nonlinear = _scan_result(checked=3**4 - 3)
    assert checks.check_scan(README_N, README_EDGES, 2, dict(nonlinear, viol_linear=3)) == []
    # m = 3 linear triples at k = 4 meet Theorem 2's hypotheses
    assert checks.gap_applies(TRIANGLE_EDGES, 4) and not checks.gap_applies(TRIANGLE_EDGES, 3)
    gap = _scan_result(checked=5**6 - 5, min_gap_margin=2.5)
    assert checks.check_scan(TRIANGLE_N, TRIANGLE_EDGES, 4, gap) == []
    assert checks.check_scan(TRIANGLE_N, TRIANGLE_EDGES, 4, dict(gap, viol_gap=1))
    assert checks.check_scan(TRIANGLE_N, TRIANGLE_EDGES, 4, dict(gap, min_gap_margin=-0.5))
    assert checks.check_scan(TRIANGLE_N, TRIANGLE_EDGES, 4, dict(gap, min_gap_margin=None))


# ---------------------------------------------------------------------------
# every workload's check, on a real answer of the program and on perturbed ones


def _perturb_poly(answer):
    exp, coeff = answer[-1]
    yield answer[:-1] + ((exp, coeff + 1),)
    yield ((answer[0][0], 2),) + answer[1:]


def _perturb_lists(answer):
    brute, expansion, prop1 = answer
    yield brute + 1, expansion, prop1
    yield brute, expansion - 1, prop1
    yield brute, expansion, prop1 + 10**9


def _perturb_plk(answer):
    if isinstance(answer[0], int):
        value, witness = answer
        yield value + 1, witness
        v, colors = witness[0]
        yield value, ((v, colors[:-1]),) + witness[1:]
    else:
        res = dict(answer)
        yield tuple(sorted(dict(res, checked=res["checked"] + 1).items()))
        yield tuple(sorted(dict(res, viol_prop=1).items()))


def _perturb_cli(answer):
    returncode, stdout = answer
    yield 1, stdout
    yield 0, b"not json"
    record = json.loads(stdout)
    if isinstance(record, list):
        record[0]["verdict"] = "fails"
    else:
        key = next(k for k in ("eval", "P_HL", "P_l", "count") if k in record)
        record[key] += 1
    yield 0, json.dumps(record).encode()


PERTURB = {"poly": _perturb_poly, "lists": _perturb_lists, "plk": _perturb_plk, "cli": _perturb_cli}


@pytest.mark.parametrize("name", ["poly", "lists", "plk", "cli"])
def test_workload_check_rejects_perturbed_answers(name, tmp_path):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](3, tmp_path)
    picks = {"poly": [0], "lists": [0, 3], "plk": [0, 3], "cli": range(5)}[name]
    for i in picks:
        item = workload.items[i]
        answer = workload.op(item)
        ref = workload.reference(item)
        assert workload.check(item, answer, ref) == [], (name, i)
        for bad in PERTURB[name](answer):
            assert workload.check(item, bad, ref), (name, i, bad)


def test_repeats_that_disagree_fail(tmp_path):
    from worker import _check_all
    from workloads import WORKLOADS

    workload = WORKLOADS["poly"](3, tmp_path)
    items = workload.items[:1]
    answer = workload.op(items[0])
    problems, failed = _check_all(workload, items, [[answer, answer]])
    assert (problems, failed) == ([], 0)
    bad = next(_perturb_poly(answer))
    problems, failed = _check_all(workload, items, [[answer, bad, None]])
    assert failed == 2 and any("different answers" in p for p in problems)


def test_recorder_self_times_and_streams():
    rec = Recorder(time.monotonic)
    rec.begin_op()
    with rec.span("outer"):
        rec.add("child", 0.0, 0.0)
        items = list(rec.wrap_stream("step", iter([1, 2, 3]), "steps"))
    assert items == [1, 2, 3]
    assert rec.take_counts() == {"steps": 3}
    assert [s[0] for s in rec.spans].count("step") == 4  # the last step ends the stream
    times = rec.self_times()
    outer = rec.spans[0][2] - rec.spans[0][1]
    assert times["outer"] == pytest.approx(outer - times["step"], abs=1e-9)
    assert all(s[4] == 0 for s in rec.spans)
    rec.defer(lambda: rec.count("later", 5))
    assert rec.take_counts() == {"later": 5}


def test_metric_names_match_benchmark_json():
    from run import END_TO_END_UNITS
    from worker import PER_LAYER_COUNTS, PER_LAYER_TIMES

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layers = {f"{name}_s": "s" for name in PER_LAYER_TIMES}
    layers.update({name: "count" for name in PER_LAYER_COUNTS})
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
