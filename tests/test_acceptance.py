"""Acceptance gate: one test per criterion, one PASS line per criterion.

Deliberate expected failures: two strict-xfail tests state the uniform
component-count lemma and the normalized uniform bound literally, with no
matching carve-out.  Both genuinely fail on perfect matchings (rho equal
to the edge size); the green twins pin the smallest counterexample and
check everything else exhaustively.
"""

import itertools
import math
import random
import subprocess
import sys
import time

import pytest

from hyperchrom import (
    Hypergraph,
    ListAssignment,
    alpha,
    beta,
    chromatic_polynomial,
    components,
    count_L_colorings,
    count_L_colorings_expansion,
    count_proper_colorings,
    is_delta_cycle,
    is_linear,
    nb_subsets,
    rho,
    scan_assignments_one_extra_color,
    theorem_certify,
    threshold_thm1,
    threshold_thm2,
    threshold_thm3,
    thm2_gap_factor,
    verify_grids,
)
from hyperchrom.budget import DEFAULT_CAPS
from hyperchrom.generators import (
    fig1,
    iter_edge_antichains,
    iter_r_uniform,
    random_antichain,
    random_assignment,
    random_linear_r_uniform,
)

MATCHING = Hypergraph(6, [(1, 2, 3), (4, 5, 6)])


def _random_eta(rng, m):
    return rng.sample(range(1, m + 1), m)


def test_criterion_01_expansion_equals_brute_force():
    """Expansion route == brute force, exhaustively and at random."""
    rng = random.Random(0)
    exhaustive = 0
    for n in range(1, 7):
        for H in iter_edge_antichains(n, 4):
            exhaustive += 1
            p0 = chromatic_polynomial(H)
            if H.m >= 2:
                for _ in range(5):
                    assert chromatic_polynomial(H, eta=_random_eta(rng, H.m)) == p0
            for k in (1, 2, 3, 4):
                assert p0.eval(k) == count_proper_colorings(H, k)
    randomized = 0
    for _ in range(220):
        n = rng.randint(3, 8)
        m = rng.randint(0, 3 if n == 3 else 5)
        H = random_antichain(n, m, rng)
        randomized += 1
        p0 = chromatic_polynomial(H)
        if H.m >= 2:
            for _ in range(2):
                assert chromatic_polynomial(H, eta=_random_eta(rng, H.m)) == p0
        for k in (1, 2, 3, 4):
            assert p0.eval(k) == count_proper_colorings(H, k)
    print(
        f"\nACCEPTANCE 1 PASS: expansion == brute force on {exhaustive} exhaustive"
        f" (n<=6, m<=4) and {randomized} random (n<=8, m<=5) instances, k in 1..4,"
        f" 5 random edge orders each"
    )


def test_criterion_02_list_expansion_equals_brute_force():
    """List-coloring count by expansion == direct enumeration."""
    rng = random.Random(1)
    checked = 0
    for _ in range(600):
        n = rng.randint(3, 6)
        m = rng.randint(0, 3 if n == 3 else 4)
        H = random_antichain(n, m, rng)
        k = rng.randint(1, 4)
        universe = rng.randint(max(k, 3), 5)
        L = random_assignment(n, k, universe, rng)
        eta = _random_eta(rng, H.m) if H.m >= 2 and rng.random() < 0.5 else None
        assert count_L_colorings(H, L) == count_L_colorings_expansion(H, L, eta=eta)
        checked += 1
    print(
        f"\nACCEPTANCE 2 PASS: both list-count routes agree on {checked} random"
        f" (H, L) pairs (n<=6, m<=4, universe<=5)"
    )


def test_criterion_03_beta_bounds_any_subset():
    """k^c - beta is sandwiched by the per-edge alpha sum, for any A."""
    rng = random.Random(2)
    checked = 0
    for _ in range(600):
        n = rng.randint(3, 6)
        m = rng.randint(0, 3 if n == 3 else 4)
        H = random_antichain(n, m, rng)
        for _ in range(20):
            k = rng.randint(1, 3)
            L = random_assignment(n, k, rng.randint(max(k, 3), 5), rng)
            A = [lab for lab in range(1, H.m + 1) if rng.random() < 0.5]
            profile = alpha(H, L)
            c = components(H, A)
            b = beta(H, L, A)
            assert b <= k**c
            assert k**c - b <= k ** (c - 1) * sum(
                profile.per_edge[lab - 1] for lab in A
            )
            checked += 1
    assert checked >= 10**4
    print(
        f"\nACCEPTANCE 3 PASS: beta bounds hold on {checked} random (H, A, L)"
        f" triples with arbitrary edge subsets A"
    )


def _uniform_component_violations(H, r, skip_pair_clause):
    """Check the uniform component-count bounds on every broken-free subset."""
    n = H.n
    rho_val = rho(H) if H.m >= 2 else None
    bad = 0
    for A in nb_subsets(H):
        size = A.size
        if size == 0:
            continue
        c = components(H, A)
        if size == 1:
            assert c == n - r + 1
        elif not skip_pair_clause:
            if c > n - r - rho_val - size + 3:
                bad += 1
    return bad


def test_criterion_04_component_count_lemmas():
    """Component-count bounds, uniform and linear, with the matching carve-out."""
    uniform_instances = 0
    matchings_carved = 0
    for r in (3, 4):
        for n in range(r, 8):
            for m in range(1, 5):
                for H in iter_r_uniform(n, r, m):
                    uniform_instances += 1
                    is_matching = m >= 2 and rho(H) == r
                    if is_matching:
                        matchings_carved += 1
                    assert _uniform_component_violations(H, r, is_matching) == 0
    # r = 3 matchings fit from n = 6 up; r = 4 would need n >= 8
    assert matchings_carved > 0

    linear_instances = 0
    boxes = [(3, range(3, 8), range(1, 5)), (4, range(4, 11), range(1, 4))]
    for r, n_range, m_range in boxes:
        for n in n_range:
            for m in m_range:
                for H in iter_r_uniform(n, r, m, linear_only=True):
                    linear_instances += 1
                    _assert_linear_component_bounds(H, r)
    rng = random.Random(4)
    linear_random = 0
    for _ in range(60):
        n = rng.randint(13, 16)
        m = rng.randint(4, 5)
        H = random_linear_r_uniform(n, m, 4, seed=rng.randint(0, 10**6))
        _assert_linear_component_bounds(H, 4)
        linear_random += 1
    print(
        f"\nACCEPTANCE 4 PASS: component-count bounds verified on"
        f" {uniform_instances} uniform instances ({matchings_carved} matchings"
        f" carved from the pair clause, see the xfail twin) and"
        f" {linear_instances} exhaustive + {linear_random} random linear instances"
    )


def _assert_linear_component_bounds(H, r):
    n = H.n
    for A in nb_subsets(H):
        size = A.size
        if size == 0:
            continue
        c = components(H, A)
        if size <= 2:
            assert c == n - (r - 1) * size
        elif size == 3:
            assert n - 3 * r + 3 <= c <= n - 3 * r + 4
        else:
            assert c <= n - 3 * r - size + 7


@pytest.mark.xfail(
    strict=True,
    reason="the pair clause is genuinely false for perfect matchings",
)
def test_criterion_04_pair_clause_as_stated():
    for n in range(3, 7):
        for m in (1, 2):
            for H in iter_r_uniform(n, 3, m):
                assert _uniform_component_violations(H, 3, skip_pair_clause=False) == 0


def test_criterion_04_pinned_counterexample():
    # two disjoint triples: c({e1, e2}) = 2 but the claimed cap is
    # n - r - rho - |A| + 3 = 6 - 3 - 3 - 2 + 3 = 1
    A = MATCHING.full_subset()
    assert list(nb_subsets(MATCHING, size=2)) == [A]
    assert components(MATCHING, A) == 2
    assert 2 > MATCHING.n - 3 - rho(MATCHING) - 2 + 3


def test_criterion_05_lower_bounds_on_all_assignments():
    """Per-edge and normalized lower bounds on every one-extra-color assignment."""
    instances = 0
    patterns = 0
    matchings_carved = 0
    for r in (3, 4):
        for n in range(r, 7):
            for m in range(1, 4):
                for H in iter_r_uniform(n, r, m):
                    instances += 1
                    is_matching = m >= 2 and rho(H) == r
                    if is_matching:
                        matchings_carved += 1
                    for k in (1, 2, 3):
                        res = scan_assignments_one_extra_color(H, k)
                        patterns += res["checked"]
                        assert res["viol_prop"] == 0
                        # each corollary only where its hypotheses hold
                        assert is_matching or res["viol_uniform"] == 0
                        assert not is_linear(H) or res["viol_linear"] == 0
    # the only matchings in the box: disjoint triple pairs on 6 vertices
    assert matchings_carved == 10

    rng = random.Random(5)
    supplement = 0
    for _ in range(40):
        r = rng.choice((3, 4))
        edges = set()
        while len(edges) < 4:
            edges.add(tuple(sorted(rng.sample(range(1, 8), r))))
        # equal-size edges form an antichain automatically; four triples or
        # quadruples on seven vertices can never be pairwise disjoint
        H = Hypergraph(7, sorted(edges))
        assert rho(H) < r
        for k in (2, 3):
            res = scan_assignments_one_extra_color(H, k)
            patterns += res["checked"]
            assert res["viol_prop"] == 0
            assert res["viol_uniform"] == 0
            assert not is_linear(H) or res["viol_linear"] == 0
        supplement += 1
    print(
        f"\nACCEPTANCE 5 PASS: lower bounds hold on every assignment with one"
        f" extra color: {instances} exhaustive r-uniform instances (r in 3,4,"
        f" n<=6, m<=3, k<=3; {matchings_carved} matchings carved from the"
        f" normalized uniform clause) plus {supplement} random n=7 instances,"
        f" {patterns} assignments checked"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the normalized uniform bound is genuinely false for matchings",
)
def test_criterion_05_uniform_bound_as_stated():
    res = scan_assignments_one_extra_color(MATCHING, 2)
    assert res["viol_uniform"] == 0


def test_criterion_05_pinned_uniform_counterexample():
    res = scan_assignments_one_extra_color(MATCHING, 2)
    assert res["checked"] == 720
    assert res["viol_uniform"] == 684
    assert res["viol_prop"] == 0
    assert res["viol_linear"] == 0


def test_criterion_06_three_uniform_gap_theorem():
    """The strict gap bound on every admissible m=3 instance, above threshold."""
    configs = [H for H in iter_r_uniform(6, 3, 3, linear_only=True)]
    # three pairwise-intersecting triples on six vertices: triangle layouts only
    assert len(configs) == 120
    assert math.ceil(threshold_thm2(3)) == 4
    gap = thm2_gap_factor(3)
    patterns = 0
    for H in configs:
        for k in (4, 5):
            res = scan_assignments_one_extra_color(H, k, gap_factor=gap)
            patterns += res["checked"]
            assert res["viol_prop"] == 0
            assert res["viol_uniform"] == 0
            assert res["viol_linear"] == 0
            assert res["viol_gap"] == 0
            assert res["min_gap_margin"] > 0

    rng = random.Random(6)
    wide = 0
    for H in configs[::10]:
        p4 = chromatic_polynomial(H).eval(4)
        big_k = 4 ** (H.n - 3)
        for _ in range(80):
            L = random_assignment(6, 4, 8, rng)
            diff = count_L_colorings(H, L) - p4
            a = alpha(H, L).total
            assert diff >= gap * big_k * a - 1e-9
            wide += 1

    # the r-uniform threshold theorem's exact conclusion is unreachable at
    # desk scale: its hypotheses force rho >= 2 and m >= rho^3/2 + 1 >= 5,
    # hence (for r = 3) a linear instance on n >= 6 vertices, and the
    # threshold then demands k >= 4, so n * k >= 24 exceeds the exact
    # list-color cap of 12; certify at threshold level instead
    assert math.ceil(threshold_thm1(5, 2) - 1e-9) == 4
    assert 6 * 4 > DEFAULT_CAPS["exact_plk"]
    fano5 = Hypergraph(7, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (3, 5, 7)])
    rep = theorem_certify(fano5, 4, 1)
    assert rep.verdict == "holds"
    assert rep.details == {}
    print(
        f"\nACCEPTANCE 6 PASS: strict gap bound holds on all 120 admissible"
        f" m=3 instances at k in 4,5 ({patterns} assignments) and {wide}"
        f" random wide-universe assignments; exact P_l check for the r-uniform"
        f" threshold theorem is vacuous within caps (smallest admissible"
        f" instance needs n*k >= 24 > {DEFAULT_CAPS['exact_plk']}), threshold"
        f" certification exercised instead"
    )


def test_criterion_07_grids_within_a_minute():
    t0 = time.perf_counter()
    reports = verify_grids()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert len(reports) == 11
    assert all(rep.verdict == "holds" for rep in reports)
    print(
        f"\nACCEPTANCE 7 PASS: all {len(reports)} proof-stage grids hold"
        f" in {elapsed:.2f}s"
    )


def test_criterion_08_threshold_reference_values():
    assert threshold_thm1(9, 2) == pytest.approx(4.6165, abs=1e-3)
    assert threshold_thm2(9) == pytest.approx(4.5588, abs=1e-3)
    assert threshold_thm3(9) == pytest.approx(3.1969, abs=1e-3)
    assert thm2_gap_factor(9) == pytest.approx(0.003007, abs=1e-5)
    print(
        "\nACCEPTANCE 8 PASS: threshold and gap-factor reference values"
        " reproduced to stated tolerances"
    )


def test_criterion_09_delta_cycle_fixtures():
    F1, H2, H3 = fig1(1), fig1(2), fig1(3)
    assert is_delta_cycle(F1, F1.full_subset())
    for size in (1, 2, 3):
        for labels in itertools.combinations(range(1, 5), size):
            assert not is_delta_cycle(F1, F1.subset(labels))
    assert not is_delta_cycle(H2, H2.full_subset())
    assert not is_delta_cycle(H3, H3.full_subset())
    print(
        "\nACCEPTANCE 9 PASS: the four-edge fixture is a delta-cycle exactly"
        " as a whole; its two siblings are not delta-cycles"
    )


def test_criterion_10_cli_determinism(tmp_path):
    e2 = tmp_path / "e2.json"
    e2.write_text(Hypergraph(5, [(1, 2, 3), (3, 4, 5)]).to_json())
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    invocations = [
        ("chromatic", str(e2), "--k", "4", "--oracle"),
        ("nb", str(e2)),
        ("plk", str(e2), "--k", "2"),
        ("plk", str(e2), "--k", "3", "--heuristic", "--seed", "11"),
        ("gen", "--family", "random-linear", "--n", "9", "--m", "4", "--r", "3", "--seed", "7"),
        ("verify", "--theorem", "2", "--k", "4", str(e2)),
    ]
    for args in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "hyperchrom.cli", *args],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
    for csv_path in (csv_a, csv_b):
        subprocess.run(
            [
                sys.executable,
                "-m",
                "hyperchrom.cli",
                "verify",
                "--grids",
                "--csv",
                str(csv_path),
            ],
            capture_output=True,
            check=True,
        )
    assert csv_a.read_bytes() == csv_b.read_bytes()
    print(
        f"\nACCEPTANCE 10 PASS: {len(invocations)} CLI invocations plus the"
        f" grid CSV are byte-identical across reruns"
    )
