"""Delta-cycle detection, broken families, and the pruned subset stream."""

import itertools
import math
import random
import time
import tracemalloc

import pytest

from hyperchrom import (
    BudgetExceededError,
    DeltaCycleCatalog,
    EdgeSubset,
    Hypergraph,
    InputError,
    ListAssignment,
    chromatic_polynomial,
    count_L_colorings_expansion,
    enumerate_delta_cycles,
    is_delta_cycle,
    nb_subsets,
    normalize_eta,
    prop1_rhs,
)
from hyperchrom import _kernels
from hyperchrom.cycles import _nb_walk
from hyperchrom.generators import iter_edge_antichains, random_antichain


def _covers(vmasks, members):
    # e <= V(F \ {e}) for every member edge e, via prefix/suffix vertex unions
    s = len(members)
    if s < 3:
        return False
    prefix = [0] * (s + 1)
    for i, j in enumerate(members):
        prefix[i + 1] = prefix[i] | vmasks[j]
    suffix = [0] * (s + 1)
    for i in range(s - 1, -1, -1):
        suffix[i] = suffix[i + 1] | vmasks[members[i]]
    for i, j in enumerate(members):
        if vmasks[j] & ~(prefix[i] | suffix[i + 1]):
            return False
    return True


def _sweep_catalog(H):
    """The delta-cycle masks by the all-subsets sweep, sorted by size then mask.

    Bottom-up by subset size: a candidate holding an already-found smaller
    delta-cycle is skipped, so the covering condition settles the rest.
    """
    vmasks = H.edge_vertex_masks()
    found = []
    for s in range(3, H.m + 1):
        for combo in itertools.combinations(range(H.m), s):
            mask = 0
            for j in combo:
                mask |= 1 << j
            if any(cm & mask == cm for cm in found):
                continue
            if _covers(vmasks, combo):
                found.append(mask)
    return sorted(found, key=lambda mk: (bin(mk).count("1"), mk))


def _random_uniform(rng, r, n, m):
    pool = list(itertools.combinations(range(1, n + 1), r))
    rng.shuffle(pool)
    return Hypergraph(n, pool[:m])


def _assert_catalog_is_sweep(H):
    assert [c.mask for c in enumerate_delta_cycles(H).cycles] == _sweep_catalog(H), H


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

    def test_labels_answer_as_the_subset(self, f1, tri):
        for H in (f1, tri):
            for mask in range(1 << H.m):
                F = EdgeSubset.from_mask(H.m, mask)
                assert is_delta_cycle(H, list(F.labels)) == is_delta_cycle(H, F), (H, F)
        assert is_delta_cycle(tri, (3, 1, 2))
        assert not is_delta_cycle(tri, [])

    def test_every_subset_against_sweep(self, f1):
        k4 = Hypergraph(4, list(itertools.combinations(range(1, 5), 2)))
        for H in (f1, k4):
            cycles = set(_sweep_catalog(H))
            for mask in range(1 << H.m):
                F = EdgeSubset.from_mask(H.m, mask)
                assert is_delta_cycle(H, F) == (mask in cycles), (H, F)
        assert len(enumerate_delta_cycles(k4)) == 7  # 4 triangles, 3 four-cycles

    def test_cap_applies_to_covering_and_other_sets(self, monkeypatch):
        # the verdict comes from the catalog of F's own edges, so the nb_edges
        # cap refuses any F larger than it, whether or not F covers itself
        monkeypatch.setenv("HYPERCHROM_BUDGET", "nb_edges=3")
        path = Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        square = Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        for H in (path, square):
            with pytest.raises(BudgetExceededError) as exc:
                is_delta_cycle(H, H.full_subset())
            assert exc.value.cap_name == "nb_edges"
        assert not is_delta_cycle(path, path.subset([1, 2, 3]))
        assert not is_delta_cycle(square, square.subset([1, 2, 3]))

    def test_label_beyond_instance_refused(self, tri):
        # the label check components makes, not an IndexError from the edge list
        with pytest.raises(InputError, match="edge label 5 outside 1..3"):
            is_delta_cycle(tri, EdgeSubset(5, [1, 2, 5]))
        assert is_delta_cycle(tri, EdgeSubset(5, [1, 2, 3]))

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

    def test_non_integer_labels_refused(self, tri):
        # int() would read [1.5, 2, 3] as the identity
        for eta in ([1.5, 2, 3], [True, 2, 3], ["1", 2, 3]):
            with pytest.raises(InputError, match="eta labels must be integers"):
                normalize_eta(tri, eta)
        assert normalize_eta(tri, (x for x in [3, 1, 2])) == (3, 1, 2)


class TestCatalog:
    def test_triangle_broken_edge(self, tri):
        cat = enumerate_delta_cycles(tri)
        assert [c.labels for c in cat.cycles] == [(1, 2, 3)]
        # identity order ranks edge 1 lowest, so the break removes it
        assert cat.broken_family(None) == (tri.subset([2, 3]),)
        # reversed order ranks edge 3 lowest instead
        assert cat.broken_family([3, 2, 1]) == (tri.subset([1, 2]),)
        assert cat.broken_per_cycle(None) == [tri.subset([2, 3])]

    def test_broken_sets_follow_definition_under_random_eta(self):
        # oracle: each cycle minus its eta-smallest label, deduplicated, grouped by top edge
        rng = random.Random(13)
        checked = 0
        for n in range(6):
            for H in iter_edge_antichains(n, 4):
                eta = list(range(1, H.m + 1))
                rng.shuffle(eta)
                cat = enumerate_delta_cycles(H)
                per_cycle = []
                for cyc in cat.cycles:
                    drop = min(cyc.labels, key=lambda lab: eta[lab - 1])
                    per_cycle.append(H.subset(lab for lab in cyc.labels if lab != drop))
                assert cat.broken_per_cycle(eta) == per_cycle
                family = sorted(set(per_cycle), key=lambda b: (b.size, b.mask))
                assert cat.broken_family(eta) == tuple(family)
                flat, offsets = _kernels.broken_csr(cat, eta)
                groups = [flat[offsets[j] : offsets[j + 1]].tolist() for j in range(H.m)]
                tops = [[b.mask for b in family if max(b.labels) == j + 1] for j in range(H.m)]
                assert groups == tops
                checked += len(per_cycle)
        assert checked > 0

    def test_catalog_cached_on_instance(self, tri):
        assert enumerate_delta_cycles(tri) is enumerate_delta_cycles(tri)

    def test_catalog_memory_does_not_grow_with_n(self):
        # a table of n edge masks held 8 MB here; only the covered vertices need one
        n = 10**6
        H = Hypergraph(n, [(1, 2, 3), (3, 4, 5), (5, 6, 1), (2, 4, 6)])
        tracemalloc.start()
        try:
            catalog = enumerate_delta_cycles(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [cyc.labels for cyc in catalog.cycles] == [(1, 2, 3, 4)]
        assert peak < 2**20

    def test_fig1_catalogs(self, f1, h2, h3):
        assert len(enumerate_delta_cycles(f1).cycles) == 1
        assert enumerate_delta_cycles(h2).cycles == ()
        assert enumerate_delta_cycles(h3).cycles == ()

    def test_nontrivial_catalog_has_min_three_edges(self):
        for n in range(2, 6):
            for H in iter_edge_antichains(n, 3):
                for cyc in enumerate_delta_cycles(H).cycles:
                    assert cyc.size >= 3

    def test_search_matches_sweep_on_small_antichains(self):
        count = 0
        for n in range(6):
            for H in iter_edge_antichains(n, 4):
                _assert_catalog_is_sweep(H)
                count += 1
        assert count == 3007

    def test_search_matches_sweep_on_random_uniform(self):
        rng = random.Random(7)
        for _ in range(300):
            r = rng.randint(2, 4)
            n = rng.randint(r + 1, 9)
            m = rng.randint(1, min(12, math.comb(n, r)))
            _assert_catalog_is_sweep(_random_uniform(rng, r, n, m))

    def test_search_matches_sweep_on_dense_prefixes(self):
        for n in (6, 7):
            for r in (2, 3):
                edges = list(itertools.combinations(range(1, n + 1), r))[:15]
                _assert_catalog_is_sweep(Hypergraph(n, edges))

    def test_long_cycle_needs_no_recursion(self, monkeypatch):
        # C_1500: the search runs 1500 edges deep, beyond the default
        # recursion limit; the sweep would face 2^1500 subsets
        n = 1500
        H = Hypergraph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
        monkeypatch.setenv("HYPERCHROM_BUDGET", f"nb_edges={n}")
        start = time.process_time()
        cycles = enumerate_delta_cycles(H).cycles
        assert time.process_time() - start < 2.0
        assert cycles == (H.full_subset(),)

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
            chromatic_polynomial(tri, catalog=cat)

    def test_hand_built_catalog_for_same_instance_refused(self, tri):
        # a partial catalog for tri itself would make P(tri, 3) read 12, not 6
        cat = DeltaCycleCatalog(tri, [0b011])
        L = ListAssignment(2, {1: [1, 2], 2: [1, 3], 3: [2, 3]})
        for call in (
            lambda c: chromatic_polynomial(tri, catalog=c).eval(3),
            lambda c: count_L_colorings_expansion(tri, L, catalog=c),
            lambda c: prop1_rhs(tri, L, catalog=c),
        ):
            with pytest.raises(InputError, match="enumerate_delta_cycles"):
                call(cat)
            assert call(enumerate_delta_cycles(tri)) == call(None)
        assert chromatic_polynomial(tri, catalog=enumerate_delta_cycles(tri)).eval(3) == 6

    def test_must_contain_prunes_without_changing_stream(self, tri, f1):
        rng = random.Random(3)
        instances = [tri, f1, _random_uniform(rng, 3, 7, 10), _random_uniform(rng, 2, 6, 10)]
        for H in instances:
            eta = list(range(1, H.m + 1))
            rng.shuffle(eta)
            for order in (None, eta):
                full = [mask for mask, *_ in _nb_walk(H, order)]
                for label in range(1, H.m + 1):
                    bit = 1 << (label - 1)
                    streamed = [A.mask for A in nb_subsets(H, eta=order, must_contain=label)]
                    assert streamed == [mask for mask in full if mask & bit]
                pruned = sum(1 for _ in _nb_walk(H, order, need=1))
                assert pruned < len(full)
                assert pruned == 1 + sum(1 for mask in full if mask & 1)

    def test_must_contain_out_of_range(self, tri):
        with pytest.raises(InputError):
            list(nb_subsets(tri, must_contain=4))

    def test_avoid_filters_the_full_stream_in_order(self):
        rng = random.Random(21)
        cases = [H for n in range(1, 6) for H in iter_edge_antichains(n, 4)]
        cases += [random_antichain(rng.randint(6, 9), rng.randint(3, 11), rng) for _ in range(150)]
        thinned = 0
        for H in cases:
            eta = list(range(1, H.m + 1))
            rng.shuffle(eta)
            avoid = rng.sample(range(1, H.m + 1), rng.randint(0, H.m))
            skip = sum(1 << (label - 1) for label in avoid)
            label = rng.randint(1, H.m) if H.m else None
            size = rng.randint(0, H.m)
            for kw in ({}, {"must_contain": label}, {"size": size}, {"must_contain": label, "size": size}):
                full = [A.mask for A in nb_subsets(H, eta=eta, **kw)]
                kept = [A.mask for A in nb_subsets(H, eta=eta, avoid=avoid, **kw)]
                assert kept == [mask for mask in full if mask & skip == 0], (H, eta, avoid, kw)
                thinned += len(kept) < len(full)
        assert len(cases) > 3000
        assert thinned > 1000

    def test_avoid_out_of_range(self, tri):
        for avoid in ([0], [4], [1, 4], [True], [1.0], ["1"]):
            with pytest.raises(InputError):
                list(nb_subsets(tri, avoid=avoid))
        assert [A.labels for A in nb_subsets(tri, avoid=[1, 2, 3])] == [()]
