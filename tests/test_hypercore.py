"""Core data structures and hypergraph statistics."""

import pytest

from hyperchrom import hypercore
from hyperchrom import (
    DisjointSet,
    EdgeSubset,
    Hypergraph,
    InputError,
    ListAssignment,
    UndefinedStatisticError,
    chromatic_polynomial,
    components,
    count_L_colorings,
    count_proper_colorings,
    gamma,
    is_linear,
    rho,
    uniformity,
    validate,
)


class TestDisjointSet:
    def test_count_tracks_unions(self):
        dsu = DisjointSet(5)
        assert dsu.count == 5
        assert dsu.union(0, 1)
        assert dsu.union(1, 2)
        assert not dsu.union(0, 2)
        assert dsu.count == 3
        assert dsu.find(0) == dsu.find(2)
        assert dsu.find(3) != dsu.find(4)


class TestEdgeSubset:
    def test_labels_round_trip(self):
        s = EdgeSubset(5, [3, 1, 3])
        assert s.labels == (1, 3)
        assert s.size == 2
        assert len(s) == 2
        assert 1 in s and 2 not in s
        assert list(s) == [1, 3]
        assert EdgeSubset.from_mask(5, s.mask) == s

    def test_set_operations(self):
        a = EdgeSubset(4, [1, 2])
        b = EdgeSubset(4, [2, 3])
        assert EdgeSubset(4, [2]).issubset(a)
        assert not a.issubset(b)
        assert hash(a) == hash(EdgeSubset(4, [2, 1]))

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            EdgeSubset(3, [4])
        with pytest.raises(InputError):
            EdgeSubset(3, [0])


class TestHypergraph:
    def test_edges_canonicalized_order_preserved(self):
        H = Hypergraph(5, [(3, 2, 1), (5, 4, 4)])
        assert H.edges == ((1, 2, 3), (4, 5))
        assert H.m == 2
        assert H.n == 5

    def test_negative_n_rejected(self):
        with pytest.raises(InputError):
            Hypergraph(-1, [])

    def test_json_round_trip(self, e2):
        text = e2.to_json()
        assert text == '{"edges":[[1,2,3],[3,4,5]],"n":5}'
        assert Hypergraph.from_json(text) == e2

    def test_from_json_rejects_malformed(self):
        for bad in (
            "not json",
            "[1,2]",
            '{"n":3}',
            '{"n":"3","edges":[]}',
            '{"n":3,"edges":[[1,"2"]]}',
            '{"n":3,"edges":[[1,true]]}',
        ):
            with pytest.raises(InputError):
                Hypergraph.from_json(bad)

    def test_load(self, tmp_path, e1):
        path = tmp_path / "h.json"
        path.write_text(e1.to_json())
        assert Hypergraph.load(str(path)) == e1
        with pytest.raises(InputError):
            Hypergraph.load(str(tmp_path / "missing.json"))

    def test_subset_helpers(self, e2):
        assert e2.subset().labels == ()
        assert e2.full_subset().labels == (1, 2)


class TestValidate:
    def test_clean_instance(self, e2):
        assert validate(e2) == []

    def test_size_one_edge(self):
        assert any("size 1" in v for v in validate(Hypergraph(3, [(2,), (1, 3)])))

    def test_vertex_out_of_range(self):
        msgs = validate(Hypergraph(2, [(1, 5)]))
        assert any("vertex 5" in v for v in msgs)
        # non-positive vertices must be reported, not crash the mask build
        msgs = validate(Hypergraph(2, [(0, 1)]))
        assert any("vertex 0" in v for v in msgs)

    def test_duplicate_and_containment(self):
        msgs = validate(Hypergraph(4, [(1, 2), (1, 2)]))
        assert any("duplicates" in v for v in msgs)
        msgs = validate(Hypergraph(4, [(1, 2), (1, 2, 3)]))
        assert any("edge 1 is contained in edge 2" in v for v in msgs)


class TestRefuseInvalid:
    """The computational entry points refuse what validate reports."""

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1)], [(1, 5)], [(1,), (2, 3)]],
        ids=["vertex-zero", "vertex-above-n", "singleton-edge"],
    )
    @pytest.mark.parametrize(
        "compute",
        [
            lambda H: count_proper_colorings(H, 2),
            lambda H: count_L_colorings(H, ListAssignment.from_constant(H.n, 2)),
            lambda H: chromatic_polynomial(H),
        ],
        ids=["proper", "list", "polynomial"],
    )
    def test_refused(self, edges, compute):
        H = Hypergraph(3, edges)
        with pytest.raises(InputError, match="invalid hypergraph"):
            compute(H)

    def test_early_answers_refused_too(self):
        with pytest.raises(InputError):
            count_proper_colorings(Hypergraph(0, [(1, 2)]), 3)
        with pytest.raises(InputError):
            count_proper_colorings(Hypergraph(3, [(1,)]), 0)

    def test_verdict_computed_once(self, monkeypatch, e2):
        calls = []
        real = hypercore._violations
        monkeypatch.setattr(hypercore, "_violations", lambda H: calls.append(H) or real(H))
        H = Hypergraph(e2.n, e2.edges)
        assert validate(H) == []
        assert count_proper_colorings(H, 2) == 18
        assert chromatic_polynomial(H).eval(2) == 18
        assert len(calls) == 1


class TestComponents:
    def test_counts_isolated_vertices(self, e2):
        assert components(e2, ()) == 5
        assert components(e2, [1]) == 3
        assert components(e2, [1, 2]) == 1
        assert components(e2, e2.full_subset()) == 1

    def test_bad_label(self, e2):
        with pytest.raises(InputError):
            components(e2, [3])


class TestStatistics:
    def test_rho(self, e2, tri, matching2):
        assert rho(e2) == 2
        assert rho(tri) == 1
        assert rho(matching2) == 3

    def test_rho_needs_two_edges(self, e1):
        with pytest.raises(UndefinedStatisticError):
            rho(e1)
        with pytest.raises(UndefinedStatisticError):
            rho(Hypergraph(3, []))

    def test_rho_asymmetric_pair_uses_ordered_min(self):
        # |e1 \ e2| = 1 while |e2 \ e1| = 2; the ordered minimum is 1
        H = Hypergraph(5, [(1, 2, 3), (2, 3, 4, 5)])
        assert rho(H) == 1

    def test_gamma(self, e2, tri):
        assert gamma(tri) == 2
        assert gamma(e2) == 0
        assert gamma(Hypergraph(3, [])) == 0
        assert gamma(Hypergraph(5, [(1, 2, 3), (2, 3, 4), (3, 4, 5)])) == 2
        with pytest.raises(UndefinedStatisticError):
            gamma(Hypergraph(4, [(1, 2), (1, 2, 3)]))

    def test_uniformity(self, e2, tri):
        assert uniformity(e2) == 3
        assert uniformity(tri) == 2
        assert uniformity(Hypergraph(3, [])) is None
        assert uniformity(Hypergraph(4, [(1, 2), (1, 2, 3)])) is None

    def test_is_linear(self, e2, f1):
        assert is_linear(e2)
        assert is_linear(f1)
        assert not is_linear(Hypergraph(4, [(1, 2, 3), (1, 2, 4)]))
        assert is_linear(Hypergraph(3, []))
