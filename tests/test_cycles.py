"""Delta-cycle detection, broken families, and the pruned subset stream."""

import itertools

import pytest

from hyperchrom import (
    BudgetExceededError,
    DeltaCycleCatalog,
    EdgeSubset,
    Hypergraph,
    InputError,
    enumerate_delta_cycles,
    is_delta_cycle,
    nb_subsets,
    normalize_eta,
)
from hyperchrom.generators import iter_edge_antichains


class TestIsDeltaCycle:
    def test_triangle(self, tri):
        assert is_delta_cycle(tri, tri.full_subset())
        for pair in ([1, 2], [1, 3], [2, 3]):
            assert not is_delta_cycle(tri, tri.subset(pair))
        assert not is_delta_cycle(tri, tri.subset([1]))
        assert not is_delta_cycle(tri, tri.subset())

    def test_fig1_instances(self, f1, h2, h3):
        assert is_delta_cycle(f1, f1.full_subset())
        for size in (1, 2, 3):
            for labels in itertools.combinations(range(1, 5), size):
                assert not is_delta_cycle(f1, f1.subset(labels))
        assert not is_delta_cycle(h2, h2.full_subset())
        assert not is_delta_cycle(h3, h3.full_subset())

    def test_no_two_edge_cycle_exists(self):
        # each edge must sit inside the union of the others; with two
        # incomparable edges that is impossible
        for n in range(2, 6):
            for H in iter_edge_antichains(n, 2):
                if H.m == 2:
                    assert not is_delta_cycle(H, H.full_subset())


class TestNormalizeEta:
    def test_default_identity(self, tri):
        assert normalize_eta(tri, None) == (1, 2, 3)

    def test_explicit(self, tri):
        assert normalize_eta(tri, [3, 1, 2]) == (3, 1, 2)

    def test_rejects_non_permutation(self, tri):
        with pytest.raises(InputError):
            normalize_eta(tri, [1, 2])
        with pytest.raises(InputError):
            normalize_eta(tri, [1, 2, 2])
        with pytest.raises(InputError):
            normalize_eta(tri, [0, 1, 2])


class TestCatalog:
    def test_triangle_broken_edge(self, tri):
        cat = enumerate_delta_cycles(tri)
        assert [c.labels for c in cat.cycles] == [(1, 2, 3)]
        # identity order ranks edge 1 lowest, so the break removes it
        assert cat.broken_family(None) == (tri.subset([2, 3]),)
        # reversed order ranks edge 3 lowest instead
        assert cat.broken_family([3, 2, 1]) == (tri.subset([1, 2]),)
        assert cat.broken_per_cycle(None) == [tri.subset([2, 3])]

    def test_catalog_cached_on_instance(self, tri):
        assert enumerate_delta_cycles(tri) is enumerate_delta_cycles(tri)

    def test_fig1_catalogs(self, f1, h2, h3):
        assert len(enumerate_delta_cycles(f1).cycles) == 1
        assert enumerate_delta_cycles(h2).cycles == ()
        assert enumerate_delta_cycles(h3).cycles == ()

    def test_nontrivial_catalog_has_min_three_edges(self):
        for n in range(2, 6):
            for H in iter_edge_antichains(n, 3):
                for cyc in enumerate_delta_cycles(H).cycles:
                    assert cyc.size >= 3

    def test_budget_cap(self, monkeypatch, tri):
        monkeypatch.setenv("HYPERCHROM_BUDGET", "nb_edges=2")
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_delta_cycles(Hypergraph(3, [(1, 2), (2, 3), (1, 3)]))
        assert exc.value.cap_name == "nb_edges"
        assert "HYPERCHROM_BUDGET" in str(exc.value)


class TestNbSubsets:
    def test_triangle_members(self, tri):
        members = {s.labels for s in nb_subsets(tri)}
        assert members == {(), (1,), (2,), (3,), (1, 2), (1, 3)}

    def test_filters(self, tri, e2):
        assert {s.labels for s in nb_subsets(tri, size=2)} == {(1, 2), (1, 3)}
        assert {s.labels for s in nb_subsets(tri, must_contain=2)} == {
            (2,),
            (1, 2),
        }
        assert sum(1 for _ in nb_subsets(e2)) == 4

    def test_eta_changes_members_not_count(self, tri):
        default = {s.labels for s in nb_subsets(tri)}
        reversed_ = {s.labels for s in nb_subsets(tri, eta=[3, 2, 1])}
        assert default != reversed_
        assert len(default) == len(reversed_) == 6
        assert (2, 3) in reversed_

    def test_acyclic_instance_keeps_all_subsets(self, e2):
        assert sum(1 for _ in nb_subsets(e2)) == 2**e2.m

    def test_downward_closed(self, f1):
        members = {s.mask for s in nb_subsets(f1)}
        for mask in members:
            sub = mask
            while sub:
                sub = (sub - 1) & mask
                assert sub in members

    def test_explicit_catalog_must_match_instance(self, tri, e2):
        cat = DeltaCycleCatalog(e2, [])
        with pytest.raises(InputError):
            list(nb_subsets(tri, catalog=cat))

    def test_must_contain_out_of_range(self, tri):
        with pytest.raises(InputError):
            list(nb_subsets(tri, must_contain=4))
