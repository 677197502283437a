"""Chromatic polynomials against closed forms and brute-force counts."""

import random
import tracemalloc

import pytest

from hyperchrom import (
    BudgetExceededError,
    Hypergraph,
    InputError,
    IntPolynomial,
    chromatic_polynomial,
    count_proper_colorings,
)
from hyperchrom.generators import random_antichain


class TestIntPolynomial:
    def test_str_forms(self):
        assert str(IntPolynomial({})) == "0"
        assert str(IntPolynomial({0: 7})) == "7"
        assert str(IntPolynomial({0: -7})) == "-7"
        assert str(IntPolynomial({1: 1})) == "k"
        assert str(IntPolynomial({1: -1})) == "-k"
        assert str(IntPolynomial({2: 1, 1: -2, 0: 1})) == "k^2 - 2k + 1"
        assert str(IntPolynomial({3: 2, 1: 1})) == "2k^3 + k"

    def test_zero_coefficients_dropped(self):
        p = IntPolynomial({3: 0, 1: 5})
        assert p.degree == 1
        assert p.coefficient(3) == 0
        assert IntPolynomial({}).degree == -1
        assert IntPolynomial().eval(5) == 0

    def test_eval_exact_big_integers(self):
        p = IntPolynomial({40: 1, 0: -1})
        assert p.eval(10) == 10**40 - 1

    def test_pairs_round_trip(self):
        p = IntPolynomial({5: 1, 3: -2, 1: 1})
        assert p.to_pairs() == [[5, 1], [3, -2], [1, 1]]
        assert IntPolynomial.from_pairs(p.to_pairs()) == p

    def test_equality(self):
        assert IntPolynomial({1: 1}) == IntPolynomial({1: 1, 2: 0})
        assert IntPolynomial({1: 1}) != IntPolynomial({1: 2})


class TestChromaticPolynomial:
    def test_single_edge(self, e1):
        assert str(chromatic_polynomial(e1)) == "k^3 - k"

    def test_two_overlapping_edges(self, e2):
        assert str(chromatic_polynomial(e2)) == "k^5 - 2k^3 + k"

    def test_triangle(self, tri):
        assert str(chromatic_polynomial(tri)) == "k^3 - 3k^2 + 2k"
        assert chromatic_polynomial(tri).eval(3) == 6

    def test_complete_graph_factorial_form(self):
        K4 = Hypergraph(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
        p = chromatic_polynomial(K4)
        for k in range(0, 8):
            assert p.eval(k) == k * (k - 1) * (k - 2) * (k - 3)

    def test_edgeless(self):
        assert str(chromatic_polynomial(Hypergraph(4, []))) == "k^4"
        assert str(chromatic_polynomial(Hypergraph(0, []))) == "1"

    def test_eta_invariance(self, tri, f1):
        base = chromatic_polynomial(tri)
        assert chromatic_polynomial(tri, eta=[3, 1, 2]) == base
        base = chromatic_polynomial(f1)
        rng = random.Random(11)
        for _ in range(6):
            eta = rng.sample(range(1, 5), 4)
            assert chromatic_polynomial(f1, eta=eta) == base

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(5)
        for _ in range(40):
            # n = 3 already admits a 3-edge antichain, so these always exist
            H = random_antichain(rng.randint(3, 6), rng.randint(0, 3), rng)
            p = chromatic_polynomial(H)
            for k in range(0, 4):
                assert p.eval(k) == count_proper_colorings(H, k)

    def test_budget_cap(self, monkeypatch, e2):
        monkeypatch.setenv("HYPERCHROM_BUDGET", "nb_edges=1")
        with pytest.raises(BudgetExceededError):
            chromatic_polynomial(Hypergraph(5, [(1, 2, 3), (3, 4, 5)]))

    def test_memory_does_not_grow_with_n(self):
        # one 3-edge among 10^6 vertices: count rows sized by n held ~97 MiB
        n = 10**6
        tracemalloc.start()
        try:
            for edge in ((1, 2, 3), (n - 2, n - 1, n)):
                p = chromatic_polynomial(Hypergraph(n, [edge]))
                assert p.to_pairs() == [[n, 1], [n - 2, -1]]
                assert p.eval(2) == 2**n - 2 ** (n - 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCountProperColorings:
    def test_empty_cases(self):
        assert count_proper_colorings(Hypergraph(0, []), 5) == 1
        assert count_proper_colorings(Hypergraph(0, []), 0) == 1
        assert count_proper_colorings(Hypergraph(3, []), 0) == 0
        assert count_proper_colorings(Hypergraph(3, []), 2) == 8

    def test_monochromatic_edges_excluded(self, e1):
        # proper means no edge sees a single color across all its vertices
        assert count_proper_colorings(e1, 1) == 0
        assert count_proper_colorings(e1, 2) == 6
        assert count_proper_colorings(e1, 3) == 24

    def test_graph_edges_are_classic(self, tri):
        assert count_proper_colorings(tri, 2) == 0
        assert count_proper_colorings(tri, 3) == 6

    def test_negative_k_rejected(self, e1):
        with pytest.raises(InputError):
            count_proper_colorings(e1, -1)

    def test_budget_cap(self, monkeypatch, e1):
        monkeypatch.setenv("HYPERCHROM_BUDGET", "10")
        with pytest.raises(BudgetExceededError) as exc:
            count_proper_colorings(Hypergraph(3, [(1, 2, 3)]), 4)
        assert exc.value.cap_name == "brute_force"
