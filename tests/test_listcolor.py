"""List assignments, the expansion route, and the exact list-color function."""

import itertools
import json
import random
import time

import numpy as np
import pytest
from canonical import canonical_assignments, orbit_leaders

from hyperchrom import (
    BudgetExceededError,
    Hypergraph,
    InputError,
    ListAssignment,
    alpha,
    beta,
    chromatic_polynomial,
    count_L_colorings,
    count_L_colorings_expansion,
    count_proper_colorings,
    list_color_function_exact,
    list_color_function_search,
)
from hyperchrom import _kernels, listcolor
from hyperchrom.generators import random_antichain, random_assignment

L1 = ListAssignment(2, {1: [1, 2], 2: [1, 2], 3: [2, 3]})


class TestListAssignment:
    def test_normalization(self):
        L = ListAssignment(2, {2: (3, 1), 1: [2, 2, 1]})
        assert L.lists == {1: (1, 2), 2: (1, 3)}
        assert L.n == 2
        assert L.universe() == (1, 2, 3)
        assert not L.is_constant()

    def test_from_constant(self):
        L = ListAssignment.from_constant(3, 2)
        assert L.is_constant()
        assert L.universe() == (1, 2)
        assert L == ListAssignment(2, {v: [1, 2] for v in (1, 2, 3)})

    def test_validation(self):
        with pytest.raises(InputError):
            ListAssignment(0, {})
        with pytest.raises(InputError):
            ListAssignment(2, {1: [1]})
        with pytest.raises(InputError):
            ListAssignment(2, {1: [1, 1]})
        with pytest.raises(InputError):
            ListAssignment(2, {1: [0, 1]})
        with pytest.raises(InputError):
            ListAssignment(2, {1: [1, 2], 3: [1, 2]})

    def test_non_integers_refused(self):
        # int() would truncate 1.5 and 2.5 and read true as 1
        for k, lists in ((2.5, {1: [1, 2]}), (2, {1: [1.5, 2]}), (2, {1: ["1", 2]})):
            with pytest.raises(InputError):
                ListAssignment(k, lists)
        for text in ('{"k":true,"lists":{"1":[1]}}', '{"k":2,"lists":{"1":[true,2]}}'):
            with pytest.raises(InputError):
                ListAssignment.from_json(text)
        assert ListAssignment(np.int64(2), {1: [np.int64(1), 2]}).lists == {1: (1, 2)}

    def test_boolean_color_refused(self):
        # operator.index reads True as color 1, which would be counted
        for colors in ([True, 2], [1, False]):
            with pytest.raises(InputError, match="vertex 1 has a non-integer color"):
                ListAssignment(2, {1: colors, 2: [1, 2], 3: [1, 2]})
        with pytest.raises(InputError, match="needs integers, not booleans"):
            ListAssignment.from_json('{"k":2,"lists":{"1":[true,2],"2":[1,2]}}')

    def test_non_integer_vertex_key_refused(self):
        # int() would key vertex 2
        with pytest.raises(InputError, match="list vertex must be an integer"):
            ListAssignment(2, {1: (1, 2), 2.7: (1, 2)})
        with pytest.raises(InputError, match="list vertex must be an integer"):
            ListAssignment(2, {1: (1, 2), "2": (1, 2)})

    def test_json_vertex_keys_must_be_canonical(self):
        # int() would read "01", " 1", "+1" and "1_0" as vertex 1 or 10
        for key in ("01", " 1", "+1", "1_0", "1 ", "0", "-1", "1.0", "\u0661", "", "1" * 5000):
            text = '{"k":2,"lists":{"1":[1,2],"%s":[3,4],"2":[1,2]}}' % key
            with pytest.raises(InputError, match="bad vertex key"):
                ListAssignment.from_json(text)
        for text in (
            '{"k":2,"lists":{"1":[1,2],"1":[3,4],"2":[1,2]}}',
            '{"k":2,"k":2,"lists":{"1":[1,2]}}',
        ):
            with pytest.raises(InputError, match="repeated key"):
                ListAssignment.from_json(text)
        lists = {str(v): [1, 2] for v in range(10, 0, -1)}
        lists["1"] = [3, 4]
        text = json.dumps({"k": 2, "lists": lists})
        assert ListAssignment.from_json(text).lists[1] == (3, 4)

    def test_json_round_trip(self):
        text = L1.to_json()
        assert text == '{"k":2,"lists":{"1":[1,2],"2":[1,2],"3":[2,3]}}'
        assert ListAssignment.from_json(text) == L1
        with pytest.raises(InputError):
            ListAssignment.from_json("[]")
        with pytest.raises(InputError):
            ListAssignment.from_json('{"k":2,"lists":{"1":[1,"a"]}}')


class TestAlphaBeta:
    def test_alpha_single_edge(self, e1):
        prof = alpha(e1, L1)
        assert prof.per_edge == (1,)
        assert prof.total == 1
        assert not prof.is_zero

    def test_alpha_constant_lists_is_zero(self, e2):
        prof = alpha(e2, ListAssignment.from_constant(5, 3))
        assert prof.per_edge == (0, 0)
        assert prof.is_zero

    def test_alpha_two_edges(self, e2):
        L = ListAssignment(
            3, {1: [1, 2, 3], 2: [1, 2, 3], 3: [1, 2, 3], 4: [1, 2, 3], 5: [4, 5, 6]}
        )
        assert alpha(e2, L).per_edge == (0, 3)
        assert alpha(e2, L).total == 3
        # colors count only by equality, even past int64
        big = ListAssignment(3, {v: [c + 2**63 for c in cs] for v, cs in L.lists.items()})
        assert alpha(e2, big) == alpha(e2, L)
        # no two lists overlap: every edge disagrees fully
        apart = ListAssignment(3, {v: [3 * v - 2, 3 * v - 1, 3 * v] for v in range(1, 6)})
        assert alpha(e2, apart).per_edge == (3, 3)

    def test_beta_counts_component_intersections(self, e2):
        L = ListAssignment.from_constant(5, 2)
        # empty subset: 5 singleton components, each contributing k
        assert beta(e2, L, ()) == 32
        assert beta(e2, L, [1]) == 8
        assert beta(e2, L, [1, 2]) == 2

    def test_beta_disjoint_lists_kill_component(self, e1):
        L = ListAssignment(2, {1: [1, 2], 2: [1, 2], 3: [3, 4]})
        assert beta(e1, L, [1]) == 0
        big = ListAssignment(2, {1: [1, 2**63], 2: [2**64, 2**63], 3: [2**63, 5]})
        assert beta(e1, big, [1]) == 1
        assert beta(e1, big, ()) == 8
        apart = ListAssignment(2, {1: [1, 2**63], 2: [2, 3], 3: [4, 2**64]})
        assert beta(e1, apart, [1]) == 0

    def test_vertex_count_must_match(self, e2):
        with pytest.raises(InputError):
            alpha(e2, L1)


class TestCountRoutes:
    def test_worked_example(self, e1):
        assert count_L_colorings(e1, L1) == 7
        assert count_L_colorings_expansion(e1, L1) == 7

    def test_constant_lists_match_chromatic(self, e2):
        for k in (1, 2, 3):
            L = ListAssignment.from_constant(5, k)
            assert count_L_colorings(e2, L) == count_proper_colorings(e2, k)

    def test_routes_agree_on_random_pairs(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(3, 6)
            H = random_antichain(n, rng.randint(0, 3), rng)
            k = rng.randint(1, 3)
            L = random_assignment(n, k, rng.randint(k, 5), rng)
            assert count_L_colorings(H, L) == count_L_colorings_expansion(H, L)

    def test_expansion_eta_invariant(self, tri):
        L = ListAssignment(2, {1: [1, 2], 2: [1, 3], 3: [2, 3]})
        base = count_L_colorings_expansion(tri, L)
        assert count_L_colorings_expansion(tri, L, eta=[3, 1, 2]) == base
        assert count_L_colorings(tri, L) == base

    def test_colors_past_int64(self, e1):
        # colors matter only by equality, so no color is too large for the brute route
        L = ListAssignment(2, {1: [1, 2**63], 2: [1, 2], 3: [1, 2]})
        assert count_L_colorings(e1, L) == count_L_colorings_expansion(e1, L) == 7

    def test_budget_cap(self, monkeypatch, e2):
        monkeypatch.setenv("HYPERCHROM_BUDGET", "brute_force=10")
        with pytest.raises(BudgetExceededError):
            count_L_colorings(e2, ListAssignment.from_constant(5, 2))


class TestListColorFunction:
    def test_single_edge_minimum(self, e1):
        value, witness = list_color_function_exact(e1, 2)
        assert value == 6
        assert witness.is_constant()
        assert count_L_colorings(e1, witness) == 6

    def test_triangle_hits_zero(self, tri):
        value, witness = list_color_function_exact(tri, 2)
        assert value == 0
        assert count_L_colorings(tri, witness) == 0

    def test_two_edge_minimum_meets_chromatic(self, e2):
        value, witness = list_color_function_exact(e2, 2)
        assert value == 18
        assert count_L_colorings(e2, witness) == 18
        # no assignment beats the shared-lists count at k=2 on this instance
        assert chromatic_polynomial(e2).eval(2) == 18

    def test_witness_is_certificate(self):
        H = Hypergraph(4, [(1, 2), (3, 4)])
        value, witness = list_color_function_exact(H, 2)
        assert count_L_colorings(H, witness) == value

    def test_canonical_assignments_match_filtered_product(self):
        def canonical(lists):
            # each list's fresh colors are the next ones after those used so far
            used = 0
            for s in lists:
                fresh = [a for a in s if a > used]
                if fresh != list(range(used + 1, used + len(fresh) + 1)):
                    return False
                used += len(fresh)
            return True

        for n, k in ((0, 2), (1, 3), (2, 1), (2, 3), (2, 4), (3, 2), (4, 1), (6, 1)):
            pool = itertools.combinations(range(1, n * k + 1), k)
            want = sorted(filter(canonical, itertools.product(pool, repeat=n)))
            assert list(canonical_assignments(n, k)) == want, (n, k)

    def test_assignment_rows_match_canonical_generator(self):
        # the first row of each orbit, once, in the same order, so the first
        # minimum is the same witness; (11, 1) and (12, 1) hold 0.7 and 4.2
        # million orbits, too many to key here; test_orbit_rows_bound walks (12, 1) at 7
        for n, k in [(n, k) for n in range(1, 11) for k in range(1, 12 // n + 1)]:
            want = list(orbit_leaders(n, k))
            # n * k <= 12: each list is one word, color c at bit c - 1
            masks = np.bitwise_or.reduce(np.left_shift(1, np.array(want) - 1), axis=2)
            table = listcolor._assignment_options(n, k, n * k)
            assert table[1].shape == (len(table[2]), 1)  # one flat table, one word per list
            for limit in (1, 7, _kernels._ROWS):
                rows = np.concatenate(list(_kernels._orbit_rows(n, table, limit)))
                assert rows.shape == (len(want), n, 1), (n, k, limit)
                assert np.array_equal(rows[:, :, 0], masks), (n, k, limit)

    def test_bounded_table_keeps_the_rows_within_its_colors(self):
        # a table bounded at c colors walks the unbounded table's rows that
        # use no color past c, in the same order; (11, 1) and (12, 1) are
        # left out, as above
        def rows(n, k, colors):
            table = listcolor._assignment_options(n, k, colors)
            return np.concatenate(list(_kernels._orbit_rows(n, table, _kernels._ROWS)))[:, :, 0]

        for n, k in [(n, k) for n in range(1, 11) for k in range(1, 12 // n + 1)]:
            full = rows(n, k, n * k)
            for c in range(k, n * k + 1):
                assert np.array_equal(rows(n, k, c), full[(full < 1 << c).all(axis=1)]), (n, k, c)

    def test_budget_refusal(self, e2):
        # n * k = 15 exceeds the default exact cap of 12
        with pytest.raises(BudgetExceededError) as exc:
            list_color_function_exact(e2, 3)
        assert exc.value.cap_name == "exact_plk"

    def test_option_count_matches_built_lists(self, monkeypatch):
        # the count is exact: a cap at it builds, one below refuses, whether
        # the table is counted afresh or kept from an earlier call
        for n, k in ((2, 2), (3, 2), (4, 3), (2, 6), (6, 2), (12, 1)):
            monkeypatch.delenv("HYPERCHROM_BUDGET", raising=False)
            first, value, after = listcolor._assignment_options(n, k, n * k)
            built = len(after)
            assert first[-1] == len(value) == built
            assert listcolor._orbit_states(n, k, n * k, built)[0] == built
            for kept in (True, False):
                if not kept:
                    listcolor._orbit_table.cache_clear()
                monkeypatch.setenv("HYPERCHROM_BUDGET", f"brute_force={built - 1}")
                with pytest.raises(BudgetExceededError, match=f"needs {built} but cap brute_force={built - 1}"):
                    listcolor._assignment_options(n, k, n * k)
                monkeypatch.setenv("HYPERCHROM_BUDGET", f"brute_force={built}")
                assert len(listcolor._assignment_options(n, k, n * k)[2]) == built

    def test_kept_table_refused_under_a_lowered_cap(self, monkeypatch, e2):
        listcolor._orbit_table.cache_clear()
        value = list_color_function_exact(e2, 2)
        # k^n = 32 passes this cap; the kept table's 303 options do not
        assert listcolor._orbit_table.cache_info().currsize == 1
        assert len(listcolor._orbit_table(5, 2, 10)[2]) == 303
        assert listcolor._orbit_table.cache_info().hits == 1
        monkeypatch.setenv("HYPERCHROM_BUDGET", "brute_force=302")
        with pytest.raises(BudgetExceededError, match="orbit table needs 303 but cap brute_force=302"):
            list_color_function_exact(e2, 2)
        monkeypatch.delenv("HYPERCHROM_BUDGET")
        assert list_color_function_exact(e2, 2) == value

    def test_tables_kept_are_bounded(self):
        cache = listcolor._orbit_table
        cache.cache_clear()
        keys = [(n, 1, n) for n in range(1, listcolor._TABLES + 3)]
        for key in keys:
            listcolor._assignment_options(*key)
        listcolor._assignment_options(3, 1, 3)  # used again, so kept past the next one
        listcolor._assignment_options(2, 2, 4)
        kept = [*keys[4:], (3, 1, 3), (2, 2, 4)]
        assert cache.cache_info().currsize == len(kept) == listcolor._TABLES
        hits = cache.cache_info().hits
        for key in kept:
            listcolor._assignment_options(*key)
        assert cache.cache_info().hits == hits + len(kept)
        misses = cache.cache_info().misses
        listcolor._assignment_options(*keys[0])  # dropped, as were keys[1] and keys[3]
        assert cache.cache_info().misses == misses + 1

    def test_option_lists_refused_before_building(self, monkeypatch, e1):
        # k^n = 64,000 passes the cap; the orbit table's 194,482 options do not,
        # and the count stops just past the cap, before any list is built
        monkeypatch.setenv("HYPERCHROM_BUDGET", "exact_plk=120,brute_force=100000")
        listcolor._orbit_table.cache_clear()
        start = time.monotonic()
        with pytest.raises(BudgetExceededError, match="orbit table, counted until it passed the cap") as exc:
            list_color_function_exact(e1, 40)
        assert time.monotonic() - start < 1.0
        assert exc.value.cap_name == "brute_force"
        assert listcolor._orbit_table.cache_info().currsize == 0

    def test_large_k_answers_under_a_raised_exact_cap(self, monkeypatch, e1):
        # the orbit table is the one option budget: these tables hold 32,
        # 20,737 and 194,482 options, all under the brute_force cap
        monkeypatch.setenv("HYPERCHROM_BUDGET", "exact_plk=130")
        try:
            for H, k in ((Hypergraph(2, [(1, 2)]), 30), (e1, 22), (e1, 40)):
                value, witness = list_color_function_exact(H, k)
                assert value == k**H.n - k, (H.n, k)
                assert witness.is_constant()
        finally:
            listcolor._orbit_table.cache_clear()  # none of them kept past the test

    def test_kept_table_bytes(self):
        # three int64 arrays: per state its first option, per option its list's
        # words and its next state; nothing else is kept, and no call copies it
        for n, k, words, states, total in ((6, 2, 1, 55, 1138), (2, 32, 2, 2, 34)):
            table = listcolor._assignment_options(n, k, n * k)
            assert [a.shape for a in table] == [(states + 1,), (total, words), (total,)]
            assert all(a.dtype == np.int64 and not a.flags.writeable for a in table)
            assert sum(a.nbytes for a in table) == 8 * ((words + 1) * total + states + 1)
            assert listcolor._assignment_options(n, k, n * k) is table

    def test_search_upper_bounds_exact(self, e2):
        exact, _ = list_color_function_exact(e2, 2)
        found, witness = list_color_function_search(e2, 2, iterations=300, seed=1)
        assert exact <= found <= chromatic_polynomial(e2).eval(2)
        assert count_L_colorings(e2, witness) == found

    def test_search_deterministic(self, e2):
        a = list_color_function_search(e2, 2, iterations=100, seed=7)
        b = list_color_function_search(e2, 2, iterations=100, seed=7)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_search_accepts_moves_that_keep_the_count(self, monkeypatch):
        # a swap on the isolated vertex 3 keeps the count at 4, so it is
        # accepted; the best stays the first assignment that reached 4
        H = Hypergraph(3, [(1, 2)])
        lists3 = []

        def counted(H, L):
            lists3.append(L.lists[3])
            return count_L_colorings(H, L)

        monkeypatch.setattr(listcolor, "count_L_colorings", counted)
        value, witness = list_color_function_search(H, 2, seed=1)
        assert (value, witness) == (4, ListAssignment.from_constant(3, 2))
        # two swaps from {1, 2}: only a candidate built on an accepted move
        assert (3, 4) in lists3

    def test_search_rejects_bad_arguments(self, e1):
        with pytest.raises(InputError):
            list_color_function_search(e1, 0)
        with pytest.raises(InputError):
            list_color_function_search(e1, 2, iterations=-1)

    def test_search_without_vertices(self):
        assert list_color_function_search(Hypergraph(0, []), 2) == (
            1,
            ListAssignment.from_constant(0, 2),
        )

    def test_search_refuses_invalid_instance_without_vertices(self):
        with pytest.raises(InputError, match="invalid hypergraph"):
            list_color_function_search(Hypergraph(0, [(1, 2)]), 2)
