"""Bound formulas, proof-stage functions, grids, and theorem certification."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from hyperchrom import (
    BoundReport,
    BudgetExceededError,
    Hypergraph,
    InputError,
    ListAssignment,
    Psi_r,
    chromatic_polynomial,
    cor_linear_rhs,
    cor_linear_rhs_exact,
    cor_uniform_rhs,
    cor_uniform_rhs_exact,
    count_L_colorings,
    count_proper_colorings,
    list_color_function_exact,
    list_color_function_search,
    nb_subsets,
    phi1_M,
    phi2_M,
    phi_Mkt,
    phi_xy_thm2,
    phi_xy_thm3,
    prop1_rhs,
    psi_identity_relerr,
    psi_Mt,
    psi_x_thm3,
    reports_to_csv,
    scan_assignments_one_extra_color,
    theorem_certify,
    threshold_thm1,
    threshold_thm2,
    threshold_thm3,
    thm2_gap_factor,
    thm3_gap_factor,
    verify_grids,
    x0,
    x1,
)
from hyperchrom import bounds

TRI3 = Hypergraph(6, [(1, 2, 3), (3, 4, 5), (5, 6, 1)])
FANO5 = Hypergraph(7, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (3, 5, 7)])


class TestProp1:
    def test_worked_single_edge(self, e1):
        L = ListAssignment(2, {1: [1, 2], 2: [1, 2], 3: [2, 3]})
        assert prop1_rhs(e1, L) == 1
        assert count_L_colorings(e1, L) - chromatic_polynomial(e1).eval(2) >= 1

    def test_worked_two_edges(self, e2):
        L = ListAssignment(
            3, {1: [1, 2, 3], 2: [1, 2, 3], 3: [1, 2, 3], 4: [1, 2, 3], 5: [4, 5, 6]}
        )
        assert prop1_rhs(e2, L) == 24
        diff = count_L_colorings(e2, L) - chromatic_polynomial(e2).eval(3)
        assert diff >= 24

    def test_zero_alpha_gives_zero(self, e2):
        assert prop1_rhs(e2, ListAssignment.from_constant(5, 3)) == 0

    def test_edgeless(self):
        assert prop1_rhs(Hypergraph(3, []), ListAssignment.from_constant(3, 2)) == 0

    def test_valid_under_any_eta(self, tri):
        L = ListAssignment(2, {1: [1, 2], 2: [1, 3], 3: [2, 3]})
        diff = count_L_colorings(tri, L) - chromatic_polynomial(tri).eval(2)
        for eta in ([1, 2, 3], [3, 2, 1], [2, 3, 1]):
            assert diff >= prop1_rhs(tri, L, eta=eta)

    def test_needs_uniform(self):
        H = Hypergraph(4, [(1, 2), (1, 3, 4)])
        with pytest.raises(InputError):
            prop1_rhs(H, ListAssignment.from_constant(4, 2))

    def test_edgeless_checks_assignment(self):
        # the m = 0 answer comes after the match check that alpha makes
        with pytest.raises(InputError, match="assignment covers 1 vertices"):
            prop1_rhs(Hypergraph(3, []), ListAssignment(2, {1: [1, 2]}))

    def test_zero_alpha_refuses_first_and_never_walks(self, monkeypatch, e2):
        def no_walk(*args, **kwargs):
            raise AssertionError("NB walk run although alpha is 0")

        monkeypatch.setattr(bounds, "_nb_walk", no_walk)
        for H in (e2, TRI3, FANO5):
            assert prop1_rhs(H, ListAssignment.from_constant(H.n, 3)) == 0
            assert prop1_rhs(H, ListAssignment.from_constant(H.n, 2), eta=range(H.m, 0, -1)) == 0
            with pytest.raises(InputError, match="eta must be a permutation"):
                prop1_rhs(H, ListAssignment.from_constant(H.n, 2), eta=[1] * H.m)
        with pytest.raises(InputError, match="r-uniform"):
            prop1_rhs(Hypergraph(4, [(1, 2), (1, 3, 4)]), ListAssignment.from_constant(4, 2))
        monkeypatch.setenv("HYPERCHROM_BUDGET", "nb_edges=4")
        with pytest.raises(BudgetExceededError) as exc:
            prop1_rhs(FANO5, ListAssignment.from_constant(7, 2))
        assert (exc.value.cap_name, exc.value.required) == ("nb_edges", 5)

    def test_memory_does_not_grow_with_n(self):
        # four 3-edges among 10^5 vertices: even-member rows sized by n held 3.2 MiB;
        # the n - 8 extra isolated vertices scale every margin by 2^(n - 8)
        n, edges = 10**5, [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 1)]
        small = bounds._edge_margins(Hypergraph(8, edges), 3, 2, None)
        lists = {v: (2, 3) if v == 2 else (1, 2) for v in range(1, n + 1)}
        want = prop1_rhs(Hypergraph(8, edges), ListAssignment(2, {v: lists[v] for v in range(1, 9)}))
        H, L = Hypergraph(n, edges), ListAssignment(2, lists)
        tracemalloc.start()
        try:
            got = prop1_rhs(H, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20  # about 0.8 MiB of it the lists' color masks
        assert got == want * 2 ** (n - 8) and want
        assert bounds._edge_margins(H, 3, 2, None) == [c * 2 ** (n - 8) for c in small]


class TestCorUniform:
    def test_worked_value(self):
        assert cor_uniform_rhs(2, 2, 3) == pytest.approx(8 / 9, rel=1e-12)
        assert cor_uniform_rhs_exact(2, 2, 3) == Fraction(8, 9)

    def test_mode_ordering(self):
        # each mode is a further relaxation
        for m in (2, 3, 5, 9):
            for rho in (1, 2, 3):
                for k in (2, 3, 7, 20):
                    b = cor_uniform_rhs(m, rho, k, "binomial")
                    s = cor_uniform_rhs(m, rho, k, "sinh")
                    p = cor_uniform_rhs(m, rho, k, "phi")
                    assert b >= s >= p

    def test_binomial_matches_exact(self):
        got = cor_uniform_rhs(5, 2, 3)
        frac = cor_uniform_rhs_exact(5, 2, 3)
        with mp.workdps(30):
            assert abs(got - mpf(frac.numerator) / frac.denominator) < mpf(10) ** -25

    def test_large_k_tends_to_one(self):
        assert cor_uniform_rhs(5, 2, 10**6) > 1 - 1e-5

    def test_domain(self):
        with pytest.raises(InputError):
            cor_uniform_rhs(1, 2, 3)
        with pytest.raises(InputError):
            cor_uniform_rhs(3, 0, 3)
        with pytest.raises(InputError):
            cor_uniform_rhs(3, 2, 0)
        with pytest.raises(InputError):
            cor_uniform_rhs(3, 2, 3, mode="parabolic")


class TestExactRationalsRefuseNonIntegers:
    def test_non_integer_or_boolean_arguments(self):
        # each was a raw TypeError from Fraction or a comparison, or -7 for k = True
        for call in (
            lambda: cor_uniform_rhs_exact(5, 2, 2.5),
            lambda: cor_uniform_rhs_exact(5, "2", 2),
            lambda: cor_uniform_rhs_exact(5, 2, True),
            lambda: cor_uniform_rhs_exact(True, 2, 2),
            lambda: cor_uniform_rhs_exact(5.0, 2, 2),
            lambda: cor_linear_rhs_exact(5.0, 3, 2),
            lambda: cor_linear_rhs_exact(5, 3.0, 2),
            lambda: cor_linear_rhs_exact(5, 3, False),
            lambda: cor_linear_rhs(5, 3, 2.5),
        ):
            with pytest.raises(InputError, match="must be an integer"):
                call()

    def test_integer_refusals_keep_their_messages(self):
        for call, message in (
            (lambda: cor_uniform_rhs_exact(1, 2, 3), "m must be >= 2, got 1"),
            (lambda: cor_uniform_rhs_exact(3, 2, 0), "k must be >= 1, got 0"),
            (lambda: cor_uniform_rhs_exact(3, 0, 3), "rho must be >= 1, got 0"),
            (lambda: cor_linear_rhs_exact(3, 2, 3), "r must be >= 3, got 2"),
        ):
            with pytest.raises(InputError, match=message):
                call()

    def test_float_k_stays_in_the_mpmath_modes(self):
        assert cor_uniform_rhs(9, 2, 2.5, "sinh") > cor_uniform_rhs(9, 2, 2.5, "phi")
        assert cor_linear_rhs(9, 3, 2.5, "closed") < 1

    def test_mpmath_modes_refuse_non_integer_m_rho_and_r(self):
        # each returned a value: rho = True read as 1, m = 5.5 as a fractional edge count
        for mode in ("sinh", "phi"):
            for m, rho in ((5, True), (5.5, 2), (True, 2), (5, 2.0), (5, "2")):
                with pytest.raises(InputError, match="must be an integer"):
                    cor_uniform_rhs(m, rho, 3, mode)
            with pytest.raises(InputError, match="rho must be >= 1, got 0"):
                cor_uniform_rhs(3, 0, 3, mode)
        for m, r in ((5, True), (5.5, 3), (5, 3.5), (False, 3)):
            with pytest.raises(InputError, match="must be an integer"):
                cor_linear_rhs(m, r, 3, "closed")
        with pytest.raises(InputError, match="r must be >= 3, got 2"):
            cor_linear_rhs(3, 2, 3, "closed")


class TestCorLinear:
    def test_worked_value(self):
        assert cor_linear_rhs(2, 3, 2) == pytest.approx(0.75, abs=1e-12)
        assert cor_linear_rhs_exact(2, 3, 2) == Fraction(3, 4)

    def test_closed_is_relaxation(self):
        for m in (2, 4, 7, 11):
            for r in (3, 4, 5):
                for k in (2, 3, 10):
                    assert cor_linear_rhs(m, r, k) >= cor_linear_rhs(m, r, k, "closed")

    def test_closed_r3_collapses_to_sinh_form(self):
        for m in (3, 6, 10):
            for k in (2, 5, 9):
                with mp.workdps(30):
                    x = mpf(m - 1) / k
                    expected = 1 - x / (m - 1) * mp.sinh(x)
                got = cor_linear_rhs(m, 3, k, "closed")
                assert abs(got - expected) < mpf(10) ** -25

    def test_domain(self):
        with pytest.raises(InputError):
            cor_linear_rhs(3, 2, 3)
        with pytest.raises(InputError):
            cor_linear_rhs(3, 3, 3, mode="open")


class TestThresholds:
    def test_reference_values(self):
        assert threshold_thm1(9, 2) == pytest.approx(4.6165, abs=1e-3)
        assert threshold_thm2(9) == pytest.approx(4.5588, abs=1e-3)
        assert threshold_thm3(9) == pytest.approx(3.1969, abs=1e-3)

    def test_gap_factors(self):
        assert thm2_gap_factor(9) == pytest.approx(0.003007, abs=1e-5)
        assert thm3_gap_factor(9) > 0
        # the 3-uniform factor peaks near m - 1 = e^(1/0.156) ~ 608
        peak = thm2_gap_factor(609)
        assert thm2_gap_factor(9) < peak
        assert thm2_gap_factor(10**8) < peak
        # the r >= 4 factor just decays
        assert thm3_gap_factor(1000) < thm3_gap_factor(9)

    def test_m2_threshold_is_infinite(self):
        assert threshold_thm1(2, 2) == math.inf
        assert threshold_thm2(2) == math.inf
        assert threshold_thm3(2) == math.inf

    def test_domain(self):
        for bad in (1, 0, 2.5, "9"):
            with pytest.raises(InputError):
                threshold_thm2(bad)
        with pytest.raises(InputError):
            threshold_thm1(9, 0)
        for bad in (None, "2", True, [2]):
            with pytest.raises(InputError, match="rho must be a number"):
                threshold_thm1(5, bad)
        with pytest.raises(InputError, match="rho must be >= 1, got nan"):
            threshold_thm1(5, math.nan)
        assert threshold_thm1(9, 2.0) == threshold_thm1(9, 2)
        with pytest.raises(InputError):
            thm2_gap_factor(2)
        with pytest.raises(InputError):
            thm3_gap_factor(2)

    def test_rho_division(self):
        assert threshold_thm1(9, 4) == pytest.approx(threshold_thm1(9, 2) / 2, rel=1e-12)


class TestProofFunctions:
    def test_reference_values(self):
        assert float(phi_Mkt(8, 5, 2)) == pytest.approx(0.504696757560489, rel=1e-10)
        assert float(psi_Mt(4, 2)) == pytest.approx(10.3975794912828, rel=1e-10)
        assert float(x1()) == pytest.approx(0.6709405, abs=1e-6)

    def test_phi_increases_in_k(self):
        values = [phi_Mkt(8, k, 2) for k in range(2, 41)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_psi_identity(self):
        # psi equals the factored phi form at the threshold point
        for M, t in ((4, 2), (10, 3), (100, 2), (1000, 4)):
            assert psi_identity_relerr(M, t) < 1e-30

    def test_psi_thm3_at_zero_touches_tangent(self):
        assert abs(psi_x_thm3(0) - 2) < mpf(10) ** -25

    def test_phi_xy_positive_on_samples(self):
        # at the threshold substitution x = c ln(y) both forms stay positive
        for y in (2, 10, 608, 10**5):
            assert phi_xy_thm2(0.844 * math.log(y), y) > 0
        for y in (2, 10, 100):
            assert phi_xy_thm3(math.log(y), y) > 0

    def test_phi1_phi2_positive_samples(self):
        for M in (1, 2, 10, 500, 10**4):
            assert phi1_M(M) > 0
            assert phi2_M(M) > 0

    def test_Psi_r_monotone_sample(self):
        assert Psi_r(2.0, 100, 5) >= Psi_r(2.0, 100, 4)

    def test_domain(self):
        with pytest.raises(InputError):
            psi_Mt(1, 2)
        with pytest.raises(InputError):
            psi_Mt(4, 1)
        with pytest.raises(InputError):
            phi_Mkt(8, 0, 2)
        with pytest.raises(InputError):
            phi1_M(0)
        with pytest.raises(InputError):
            Psi_r(1.0, 10, 3)
        with pytest.raises(InputError):
            x0(1)


class TestVerifyGrids:
    def test_all_grids_hold(self):
        reports = verify_grids()
        assert len(reports) == 11
        assert all(rep.verdict == "holds" for rep in reports)
        names = [rep.name for rep in reports]
        assert names.count("psi_positive_grid") == 5
        for expected in (
            "phi1_positive_grid",
            "phi2_positive_grid",
            "psi_tangent_line_grid",
            "thm2_display_inequality",
            "psi_identity_relerr",
            "Psi_r_monotone_in_r",
        ):
            assert expected in names


class TestBoundReport:
    def test_applicability_invariant(self):
        with pytest.raises(InputError):
            BoundReport(
                name="x",
                inputs={},
                lhs=1,
                rhs=2,
                relation=">=",
                verdict="holds",
                applicability=("broken",),
            )
        with pytest.raises(InputError):
            BoundReport(
                name="x", inputs={}, lhs=1, rhs=2, relation=">=", verdict="not-applicable"
            )

    def test_csv_shape(self):
        reports = [
            BoundReport(
                name="a",
                inputs={"m": 3, "r": None, "rho": 2, "k": 4},
                lhs=1.5,
                rhs=1,
                relation=">=",
                verdict="holds",
            ),
            BoundReport(
                name="b",
                inputs={"m": 2, "r": "4,8", "k": True},
                lhs=None,
                rhs=2,
                relation=">=",
                verdict="not-applicable",
                applicability=("m < 3",),
            ),
        ]
        text = reports_to_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "name,m,r,rho,k,lhs,rhs,verdict"
        assert lines[1] == "a,3,,2,4,1.5,1,holds"
        # strings with commas get semicolons so the column count is stable
        assert lines[2] == "b,2,4;8,,1,,2,not-applicable"
        assert all(line.count(",") == 7 for line in lines)


class TestTheoremCertify:
    def test_not_applicable_reasons(self, e2):
        rep1 = theorem_certify(e2, 9, 1)
        assert rep1.verdict == "not-applicable"
        assert "m < rho^3/2 + 1" in rep1.applicability
        rep2 = theorem_certify(e2, 9, 2)
        assert rep2.applicability == ("m < 3",)
        rep3 = theorem_certify(e2, 9, 3)
        assert set(rep3.applicability) == {"not r-uniform with r >= 4", "m < 3"}

    def test_rho_below_two(self):
        H = Hypergraph(4, [(1, 2, 3), (2, 3, 4)])
        rep = theorem_certify(H, 9, 1)
        assert rep.verdict == "not-applicable"
        assert "rho < 2" in rep.applicability

    def test_non_uniform(self):
        H = Hypergraph(4, [(1, 2), (1, 3, 4)])
        rep = theorem_certify(H, 9, 1)
        assert "not r-uniform with r >= 3" in rep.applicability

    def test_thm2_holds_above_threshold(self):
        rep = theorem_certify(TRI3, 4, 2)
        assert rep.name == "theorem2_threshold"
        assert rep.verdict == "holds"
        assert rep.rhs == pytest.approx(threshold_thm2(3))
        # n * k = 24 is over the exact cap, so no end-to-end probe ran
        assert rep.details == {}

    def test_thm2_inconclusive_with_exact_probe(self):
        rep = theorem_certify(TRI3, 2, 2)
        assert rep.verdict == "inconclusive"
        assert rep.details["exact_equal"] == (rep.details["P_l"] == rep.details["P"])
        assert rep.details["P"] == chromatic_polynomial(TRI3).eval(2)

    def test_thm1_holds_on_five_line_instance(self):
        rep = theorem_certify(FANO5, 4, 1)
        assert rep.verdict == "holds"
        assert rep.inputs["rho"] == 2
        assert rep.details == {}

    def test_effort_threshold_skips_probe(self):
        rep = theorem_certify(TRI3, 2, 2, effort="threshold")
        assert rep.verdict == "inconclusive"
        assert rep.details == {}

    def test_effort_exact_over_cap_raises(self):
        with pytest.raises(BudgetExceededError):
            theorem_certify(TRI3, 4, 2, effort="exact")

    def test_probe_needs_no_nb_edges(self, monkeypatch, f1):
        # P(H, k) is counted by brute force after the search, so an nb_edges
        # cap below m (4 here) refuses neither P_l nor P
        monkeypatch.setenv("HYPERCHROM_BUDGET", "nb_edges=2")
        for effort in ("auto", "exact"):
            rep = theorem_certify(f1, 2, 2, effort=effort)
            assert rep.verdict == "inconclusive"
            assert rep.details == {"P_l": 18, "P": 18, "exact_equal": True}

    def test_invalid_instance_refused(self):
        outside = Hypergraph(4, [(1, 2, 3), (4, 5, 6), (1, 5, 7), (2, 6, 8), (3, 4, 8)])
        twice = Hypergraph(5, [(1, 2, 3), (1, 2, 3), (3, 4, 5)])
        for which in (1, 2, 3):
            with pytest.raises(InputError, match="vertex 5 outside 1..4"):
                theorem_certify(outside, 10, which)
            with pytest.raises(InputError, match="edge 2 duplicates edge 1"):
                theorem_certify(twice, 10, which, effort="threshold")

    def test_bad_arguments(self, e2):
        with pytest.raises(InputError):
            theorem_certify(e2, 9, 4)
        with pytest.raises(InputError):
            theorem_certify(e2, 9, 2, effort="full")
        with pytest.raises(InputError):
            theorem_certify(e2, 0, 2)


class TestAssignmentScan:
    def test_single_edge_clean(self, e1):
        res = scan_assignments_one_extra_color(e1, 2)
        # 27 omit patterns minus the 3 with all lists equal
        assert res["checked"] == 24
        assert res["viol_prop"] == 0
        assert res["min_gap_margin"] is None

    def test_two_edges_clean_with_gap(self, e2):
        res = scan_assignments_one_extra_color(e2, 2, gap_factor=0.001)
        assert res["viol_prop"] == 0
        assert res["viol_uniform"] == 0
        assert res["viol_linear"] == 0
        assert res["viol_gap"] == 0
        assert res["min_gap_margin"] > 0

    def test_matching_breaks_uniform_bound_only(self, matching2):
        # rho equals r here and the uniform-normalized bound genuinely
        # fails, while the per-edge and linear bounds stay sound
        res = scan_assignments_one_extra_color(matching2, 2)
        assert res["viol_prop"] == 0
        assert res["viol_linear"] == 0
        assert res["viol_uniform"] > 0

    def test_graph_skips_linear_check(self):
        # the linear corollary needs r >= 3, so a graph never counts against it
        path = Hypergraph(4, [(1, 2), (2, 3), (3, 4)])
        res = scan_assignments_one_extra_color(path, 2)
        assert res["checked"] > 0
        assert res["viol_linear"] == 0

    def test_empty_instance(self):
        res = scan_assignments_one_extra_color(Hypergraph(3, []), 2)
        assert res["checked"] == 0

    def test_invalid_instance_refused_before_empty_answer(self):
        with pytest.raises(InputError, match="invalid hypergraph"):
            scan_assignments_one_extra_color(Hypergraph(0, [(1, 2)]), 2)

    def test_needs_uniform(self):
        H = Hypergraph(4, [(1, 2), (1, 3, 4)])
        with pytest.raises(InputError):
            scan_assignments_one_extra_color(H, 2)

    def test_budget_cap(self, monkeypatch, e2):
        monkeypatch.setenv("HYPERCHROM_BUDGET", "brute_force=100")
        with pytest.raises(BudgetExceededError):
            scan_assignments_one_extra_color(e2, 2)

    @pytest.mark.parametrize(
        "gap_factor, match",
        [("0.5", "a number"), (True, "a number"), (None, "a number"), (math.nan, ">= 0"), (-1.0, ">= 0")],
    )
    def test_gap_factor_refused(self, e2, gap_factor, match):
        # a string was repeated k^(n-r) times, and NaN or a negative factor turned the check off
        with pytest.raises(InputError, match=f"gap_factor must be {match}"):
            scan_assignments_one_extra_color(e2, 2, gap_factor=gap_factor)

    def test_gap_factor_any_real(self, e2):
        want = scan_assignments_one_extra_color(e2, 2, gap_factor=0.5)
        assert want["min_gap_margin"] is not None
        for gap_factor in (Fraction(1, 2), np.float64(0.5)):
            assert scan_assignments_one_extra_color(e2, 2, gap_factor=gap_factor) == want
        assert scan_assignments_one_extra_color(e2, 2, gap_factor=0) == scan_assignments_one_extra_color(e2, 2)


@pytest.mark.parametrize(
    "call",
    [
        count_proper_colorings,
        scan_assignments_one_extra_color,
        list_color_function_search,
        list_color_function_exact,
        lambda H, k: theorem_certify(H, k, 2),
    ],
    ids=["count_proper_colorings", "scan", "plk_search", "plk_exact", "theorem_certify"],
)
def test_non_integer_k_refused(f1, call):
    # truncating 2.5 would answer for k = 2; the check refuses it before any work
    with pytest.raises(InputError, match="k must be an integer"):
        call(f1, 2.5)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda H, x: theorem_certify(H, 3, x), "which"),
        (lambda H, x: list_color_function_search(H, 2, iterations=x), "iterations"),
        (lambda H, x: nb_subsets(H, size=x), "size"),
        (lambda H, x: nb_subsets(H, must_contain=x), "must_contain label"),
    ],
    ids=["theorem_certify_which", "plk_search_iterations", "nb_size", "nb_must_contain"],
)
@pytest.mark.parametrize("value", [True, 1.0, 2.5, "1"])
def test_integer_parameters_refuse_bools_and_non_integers(f1, call, name, value):
    # True read as 1 (a report named theoremTrue_threshold, the 1-edge members),
    # and 1.0 or 2.5 passed through or raised a raw TypeError
    with pytest.raises(InputError, match=f"^{name} must be an integer"):
        call(f1, value)


def test_integer_parameters_take_numpy_integers(f1):
    assert theorem_certify(f1, 3, np.int64(2)).name == "theorem2_threshold"
    assert list(nb_subsets(f1, size=np.int64(1), must_contain=np.int64(2))) == list(nb_subsets(f1, size=1, must_contain=2))
