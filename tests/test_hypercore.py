"""Core data structures and hypergraph statistics."""

import sys

import numpy as np
import pytest

from hyperchrom import hypercore
from hyperchrom import (
    EdgeSubset,
    Hypergraph,
    InputError,
    ListAssignment,
    UndefinedStatisticError,
    alpha,
    beta,
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

    def test_non_integer_vertex_refused(self):
        # int() would store the edge (1, 2, 3)
        with pytest.raises(InputError, match="edge vertices must be integers"):
            Hypergraph(3, [(1, 2.7, 3)])

    def test_non_integer_n_refused(self):
        # int() would give n = 3
        with pytest.raises(InputError, match="vertex count must be an integer"):
            Hypergraph(3.9, [(1, 2, 3)])

    def test_string_n_and_vertex_refused(self):
        with pytest.raises(InputError, match="edge vertices must be integers"):
            Hypergraph(3, [(1, "2", 3)])
        with pytest.raises(InputError, match="vertex count must be an integer"):
            Hypergraph("3", [(1, 2, 3)])

    def test_boolean_n_and_vertex_refused(self):
        with pytest.raises(InputError):
            Hypergraph(True, [])
        with pytest.raises(InputError):
            Hypergraph(3, [(True, 2, 3)])

    def test_integer_types_accepted(self):
        H = Hypergraph(np.int64(3), [(np.int64(1), 2, np.int32(3))])
        assert (H.n, H.edges) == (3, ((1, 2, 3),))
        assert type(H.n) is int and all(type(v) is int for v in H.edges[0])

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

    def test_messages_and_order_on_mixed_sizes(self):
        H = Hypergraph(5, [(1, 2, 3), (1, 2), (4,), (1, 2, 3), (4, 5), (3, 4, 5), (1, 4)])
        assert validate(H) == [
            "edge 3 has size 1 < 2",
            "edge 4 duplicates edge 1",
            "edge 2 is contained in edge 1",
            "edge 2 is contained in edge 4",
            "edge 3 is contained in edge 5",
            "edge 3 is contained in edge 6",
            "edge 3 is contained in edge 7",
            "edge 5 is contained in edge 6",
        ]

    def test_n_past_sys_maxsize(self):
        # n has more digits than str() converts; the message must not format it
        H = Hypergraph(10**5000, [(1, 2, 3), (0, 1)])
        assert validate(H) == [f"vertex count n exceeds sys.maxsize = {sys.maxsize}"]
        with pytest.raises(InputError, match="exceeds sys.maxsize"):
            chromatic_polynomial(H)


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
            lambda H: components(H, [1]),
            lambda H: beta(H, ListAssignment.from_constant(H.n, 2), [1]),
            lambda H: alpha(H, ListAssignment.from_constant(H.n, 2)),
        ],
        ids=["proper", "list", "polynomial", "components", "beta", "alpha"],
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

    def test_bad_label_in_subset_names_the_lowest(self, e2):
        # a subset built for more edges: the first label past m is named,
        # as for a label list in increasing order
        for A in (EdgeSubset(9, [1, 4, 7]), [1, 4, 7]):
            with pytest.raises(InputError, match="edge label 4 outside 1..2"):
                components(e2, A)
        assert components(e2, EdgeSubset(9, [2])) == 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda H: components(H, [1.0]),
            lambda H: components(H, [True]),  # not read as edge 1
            lambda H: beta(H, ListAssignment.from_constant(H.n, 2), [2.0]),
            lambda H: EdgeSubset(2, [1.5]),
            lambda H: H.subset(["1"]),
        ],
        ids=["components-float", "components-bool", "beta-float", "edge-subset-float", "subset-str"],
    )
    def test_non_integer_label_refused(self, e2, call):
        with pytest.raises(InputError, match="edge labels must be integers"):
            call(e2)


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

    def test_statistics_refuse_invalid_instance(self):
        outside = Hypergraph(4, [(1, 2, 3), (4, 5, 6), (1, 5, 7), (2, 6, 8), (3, 4, 8)])
        twice = Hypergraph(3, [(1, 2, 3), (1, 2, 3)])
        for H in (outside, twice):
            for stat in (rho, gamma, is_linear):
                with pytest.raises(InputError, match="invalid hypergraph"):
                    stat(H)
        # the statistic's own precondition still comes first
        with pytest.raises(UndefinedStatisticError):
            rho(Hypergraph(1, [(1, 2)]))
