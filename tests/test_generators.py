"""Instance generators: postconditions, determinism, and failure modes."""

import itertools
import random
import time

import pytest

from hyperchrom import (
    GeneratorError,
    Hypergraph,
    InputError,
    is_linear,
    rho,
    uniformity,
    validate,
)
from hyperchrom.generators import (
    fig1,
    iter_edge_antichains,
    iter_r_uniform,
    random_antichain,
    random_assignment,
    random_linear_r_uniform,
    random_r_uniform_rho,
    sunflower_free,
    tight_path,
)


class TestExhaustiveFamilies:
    def test_antichain_count_n3(self):
        # subsets of [3] with >= 2 elements: the three pairs and the triple;
        # antichains of size <= 2: empty, 4 singletons, 3 pair-pairs
        instances = list(iter_edge_antichains(3, 2))
        assert len(instances) == 8
        for H in instances:
            assert validate(H) == []
        assert len({H.edges for H in instances}) == 8

    def test_antichain_edgeless_included(self):
        assert any(H.m == 0 for H in iter_edge_antichains(4, 2))

    def test_r_uniform_counts(self):
        # choosing m of the C(4,3) = 4 triples
        assert sum(1 for _ in iter_r_uniform(4, 3, 2)) == 6
        assert sum(1 for _ in iter_r_uniform(4, 3, 4)) == 1
        for H in iter_r_uniform(5, 3, 2):
            assert uniformity(H) == 3
            assert H.m == 2

    def test_r_uniform_linear_filter(self):
        full = {H.edges for H in iter_r_uniform(6, 3, 2)}
        lin = {H.edges for H in iter_r_uniform(6, 3, 2, linear_only=True)}
        assert lin < full
        assert all(is_linear(Hypergraph(6, e)) for e in lin)
        assert all(
            not is_linear(Hypergraph(6, e)) for e in full - lin
        )

    def test_r_uniform_domain(self):
        with pytest.raises(InputError):
            list(iter_r_uniform(3, 1, 1))
        with pytest.raises(InputError):
            list(iter_r_uniform(2, 3, 1))


class TestRandomFamilies:
    def test_antichain_postconditions(self):
        rng = random.Random(1)
        for _ in range(30):
            H = random_antichain(6, 3, rng)
            assert H.n == 6 and H.m == 3
            assert validate(H) == []

    def test_antichain_beyond_sperner_refused_at_once(self):
        # the widest antichains of sets of size >= 2, found by exhaustion
        for n, widest in ((2, 1), (3, 3), (4, 6)):
            assert max(H.m for H in iter_edge_antichains(n, 7)) == widest
        for n, m in ((2, 2), (3, 4)):
            start = time.process_time()
            with pytest.raises(GeneratorError):
                random_antichain(n, m, random.Random(1))
            assert time.process_time() - start < 0.1
        assert random_antichain(3, 3, random.Random(1)).m == 3

    def test_assignment_postconditions(self):
        rng = random.Random(2)
        L = random_assignment(5, 3, 6, rng)
        assert L.n == 5 and L.k == 3
        assert all(1 <= c <= 6 for cs in L.lists.values() for c in cs)
        with pytest.raises(InputError):
            random_assignment(5, 3, 2, rng)

    def test_linear_uniform(self):
        H = random_linear_r_uniform(9, 4, 3, seed=7)
        assert is_linear(H)
        assert uniformity(H) == 3
        assert H.m == 4
        assert H == random_linear_r_uniform(9, 4, 3, seed=7)
        assert H != random_linear_r_uniform(9, 4, 3, seed=8)

    def test_linear_uniform_pinned(self):
        # the rejection sampler's draw, as generated before the greedy fallback
        assert random_linear_r_uniform(9, 4, 3, seed=7).to_json() == (
            '{"edges":[[1,2,7],[1,4,9],[2,3,9],[3,4,6]],"n":9}'
        )

    def test_linear_uniform_greedy_fallback(self):
        # rejection gives up at this density; the greedy pass does not
        H = random_linear_r_uniform(10, 10, 3)
        assert is_linear(H)
        assert uniformity(H) == 3 and H.m == 10
        assert validate(H) == []
        assert H == random_linear_r_uniform(10, 10, 3)

    def test_linear_uniform_unsatisfiable(self):
        # only 4 triples exist on 4 vertices and no two of them are linear
        with pytest.raises(GeneratorError, match="n=4, m=2 after 10000 tries$"):
            random_linear_r_uniform(4, 2, 3, seed=0)

    def test_rho_floor(self):
        H = random_r_uniform_rho(8, 4, 3, 2, seed=3)
        assert uniformity(H) == 3
        assert rho(H) >= 2
        assert H == random_r_uniform_rho(8, 4, 3, 2, seed=3)

    def test_rho_floor_greedy_fallback(self):
        H = random_r_uniform_rho(11, 14, 3, 2)
        assert rho(H) >= 2
        assert uniformity(H) == 3 and H.m == 14
        assert validate(H) == []

    def test_edge_count_zero_and_negative(self):
        # the edgeless instance meets every constraint; a negative count is refused at once
        for make in (random_linear_r_uniform, sunflower_free):
            start = time.process_time()
            assert make(5, 0, 3) == Hypergraph(5, [])
            assert time.process_time() - start < 0.1
            with pytest.raises(InputError):
                make(5, -1, 3)
        assert random_antichain(5, 0, random.Random(1)) == Hypergraph(5, [])
        with pytest.raises(InputError):
            random_antichain(5, -1, random.Random(1))

    def test_rho_floor_unsatisfiable(self):
        # rho of 3-uniform edges never exceeds 3
        with pytest.raises(GeneratorError, match="n=9, m=3 after 10000 tries$"):
            random_r_uniform_rho(9, 3, 3, 4, seed=0)


class TestStructuredFamilies:
    def test_tight_path(self):
        H = tight_path(6, 3)
        assert H.edges == ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6))
        masks = H.edge_vertex_masks()
        for a, b in zip(masks, masks[1:]):
            assert bin(a & b).count("1") == 2

    def test_tight_path_domain(self):
        with pytest.raises(InputError):
            tight_path(2, 3)

    def test_sunflower_free(self):
        H = sunflower_free(9, 4, 3, seed=5)
        assert uniformity(H) == 3 and H.m == 4
        masks = H.edge_vertex_masks()
        for trio in itertools.combinations(masks, 3):
            core = trio[0] & trio[1] & trio[2]
            # a three-petal sunflower has every pairwise meet equal its core
            assert not (
                trio[0] & trio[1] == core
                and trio[0] & trio[2] == core
                and trio[1] & trio[2] == core
            )
        assert H == sunflower_free(9, 4, 3, seed=5)

    def test_fig1_instances(self):
        F1 = fig1(1)
        assert F1.n == 6 and F1.m == 4
        assert is_linear(F1) and uniformity(F1) == 3
        for i in (1, 2, 3):
            assert validate(fig1(i)) == []
        with pytest.raises(InputError):
            fig1(0)
        with pytest.raises(InputError):
            fig1(4)
