"""The counting kernels against independent oracles.

Counts come from an ``itertools.product`` walk over all colorings; the
brute-force kernel also runs with narrow ints, so that its loop over the
high vertices' colors runs.  The assignment scan is recomputed pattern by
pattern from public functions: each omit pattern becomes a
``ListAssignment``, and its P(H, L), alpha and bounds come from the
expansion and the exact corollary bounds.
"""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from canonical import canonical_assignments

from hyperchrom import (
    Hypergraph,
    InputError,
    ListAssignment,
    alpha,
    chromatic_polynomial,
    components,
    cor_linear_rhs_exact,
    cor_uniform_rhs_exact,
    count_L_colorings,
    count_L_colorings_expansion,
    count_proper_colorings,
    get_backend,
    list_color_function_exact,
    nb_subsets,
    prop1_rhs,
    rho,
    scan_assignments_one_extra_color,
    uniformity,
)
from hyperchrom import _kernels, bounds, chromatic, listcolor
from hyperchrom.generators import random_antichain, random_assignment


def oracle_list_count(H, lists):
    """Colorings picking vertex v's color from lists[v - 1], no edge monochromatic."""
    count = 0
    for col in itertools.product(*lists):
        if all(len({col[v - 1] for v in edge}) > 1 for edge in H.edges):
            count += 1
    return count


def oracle_proper_count(H, k):
    return oracle_list_count(H, [range(k)] * H.n)


def oracle_scan(H, k, gap_factor=0.0):
    """scan_assignments_one_extra_color recomputed one omit pattern at a time.

    Renaming colors changes none of the numbers a pattern gets, so they are
    worked out once per pattern up to renaming and reused for the others.
    """
    n, m = H.n, H.m
    universe = range(1, k + 2)
    p_k = chromatic_polynomial(H).eval(k)
    big_k = k ** (n - uniformity(H))
    u = cor_uniform_rhs_exact(m, rho(H), k) if m >= 2 else None
    lin = cor_linear_rhs_exact(m, uniformity(H), k) if m >= 2 else None
    gap = float(gap_factor * big_k)
    out = dict.fromkeys(("checked", "viol_prop", "viol_uniform", "viol_linear", "viol_gap"), 0)
    margins = []
    seen = {}
    for omit in itertools.product(universe, repeat=n):
        first = {}
        shape = tuple(first.setdefault(c, len(first)) for c in omit)
        if shape not in seen:
            L = ListAssignment(k, {v: set(universe) - {omit[v - 1]} for v in range(1, n + 1)})
            diff = count_L_colorings_expansion(H, L) - p_k
            seen[shape] = alpha(H, L).total, diff, prop1_rhs(H, L)
        a, diff, prop = seen[shape]
        if a == 0:
            continue
        out["checked"] += 1
        out["viol_prop"] += diff < prop
        out["viol_uniform"] += u is not None and diff < u * big_k * a
        out["viol_linear"] += lin is not None and diff < lin * big_k * a
        if gap_factor > 0:
            margins.append(diff - gap * a)
            out["viol_gap"] += margins[-1] <= 0.0
    out["min_gap_margin"] = min(margins) if margins else None
    return out


def test_single_backend():
    assert get_backend() == "numpy"


class TestKernelParity:
    def test_expansion_counts(self, tri, e2, f1):
        for H in (tri, e2, f1):
            p = chromatic_polynomial(H)
            assert [p.eval(k) for k in range(4)] == [oracle_proper_count(H, k) for k in range(4)]

    def test_proper_coloring_counts(self, e2):
        assert [count_proper_colorings(e2, k) for k in range(5)] == [
            oracle_proper_count(e2, k) for k in range(5)
        ]

    def test_list_coloring_counts(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(3, 6)
            H = random_antichain(n, rng.randint(0, 3), rng)
            L = random_assignment(n, rng.randint(1, 3), 6, rng)
            lists = [L.lists[v] for v in range(1, n + 1)]
            assert count_L_colorings(H, L) == oracle_list_count(H, lists)

    def test_exact_minimum_and_witness(self, e1, tri):
        for H in (e1, tri):
            value, witness = list_color_function_exact(H, 2)
            # every 2-assignment up to color renaming draws from 2n colors
            pool = list(itertools.combinations(range(1, 2 * H.n + 1), 2))
            assert value == min(
                oracle_list_count(H, lists)
                for lists in itertools.product(pool, repeat=H.n)
            )
            assert oracle_list_count(H, [witness.lists[v] for v in range(1, H.n + 1)]) == value

    @pytest.mark.parametrize("width", [7, 64])
    def test_counts_per_assignment(self, e2, tri, width, monkeypatch):
        # narrow ints leave vertices to the loop over high color tuples
        monkeypatch.setattr(chromatic, "_WIDTH", width)
        rng = random.Random(11)
        for H, k in ((e2, 2), (e2, 3), (tri, 2), (tri, 3)):
            assert count_proper_colorings(H, k) == oracle_proper_count(H, k)
            for _ in range(5):
                lists = [sorted(rng.sample(range(1, k + 3), k)) for _ in range(H.n)]
                L = ListAssignment(k, dict(enumerate(lists, start=1)))
                assert count_L_colorings(H, L) == oracle_list_count(H, lists)

    def test_counts_without_vertices_or_colors(self, e2, monkeypatch):
        for width in (7, 64, chromatic._WIDTH):
            monkeypatch.setattr(chromatic, "_WIDTH", width)
            for H in (Hypergraph(0, []), Hypergraph(3, []), e2):
                for k in (0, 1, 2):
                    assert count_proper_colorings(H, k) == oracle_proper_count(H, k), (H, k)
                lists = [(v % 2 + 1,) for v in range(1, H.n + 1)]
                L = ListAssignment(1, dict(enumerate(lists, start=1)))
                assert count_L_colorings(H, L) == oracle_list_count(H, lists), H

    @pytest.mark.parametrize("width", [7, 64])
    def test_high_low_and_mixed_edges(self, width, monkeypatch):
        # vertex 7 lies in no edge.  At k = 2 and width 7 the low vertices are
        # 5 and 6: {5, 6} is wholly low, {1, 2} wholly high and the other two
        # edges mixed; at width 64 all six are low.  At k = 3 the low
        # vertices are 4, 5 and 6 at width 64, and 6 alone at width 7.
        monkeypatch.setattr(chromatic, "_WIDTH", width)
        H = Hypergraph(7, [(1, 2), (5, 6), (2, 3, 5), (1, 4, 6)])
        for k in (1, 2, 3):
            assert count_proper_colorings(H, k) == oracle_proper_count(H, k), k
        # colors shared by some vertices of an edge but not all
        lists = [(1, 2), (2, 3), (1, 3), (1, 2), (2, 3), (3, 4), (1, 4)]
        L = ListAssignment(2, dict(enumerate(lists, start=1)))
        assert count_L_colorings(H, L) == oracle_list_count(H, lists)
        rng = random.Random(4)
        for _ in range(20):
            k = rng.randint(1, 3)
            lists = [sorted(rng.sample(range(1, 6), k)) for _ in range(H.n)]
            L = ListAssignment(k, dict(enumerate(lists, start=1)))
            assert count_L_colorings(H, L) == oracle_list_count(H, lists), lists

    def test_count_at_cap_scale(self):
        # k^n = 10^8 at the default cap: one low vertex per int, so 10^4 tuples, not 10^8 colorings
        start = time.process_time()
        assert count_proper_colorings(Hypergraph(2, [(1, 2)]), 10**4) == 10**8 - 10**4
        assert time.process_time() - start < 1.0

    def test_count_at_large_k_holds_no_mask_per_color(self):
        # one low vertex of k = 10^4 colors: a mask per color would hold about k^2/2 bits
        tracemalloc.start()
        try:
            assert count_proper_colorings(Hypergraph(2, [(1, 2)]), 10**4) == 10**8 - 10**4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_exact_witness_is_first_minimum(self, e2, tri, monkeypatch):
        # scanned forwards and backwards in batches of a few assignments, so
        # ties and zeros (which end the scan early) straddle batches; k = 1
        # is answered without a scan, so e2 is scanned at k = 2
        c4 = Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        for H, k in ((c4, 2), (e2, 2), (tri, 2)):
            forward = list(canonical_assignments(H.n, k))
            for order in (forward, forward[::-1]):
                counts = [oracle_list_count(H, lists) for lists in order]
                first = counts.index(min(counts))

                # the rows as the search holds them: each list as bits of one word
                table = np.bitwise_or.reduce(np.left_shift(1, np.array(order) - 1), axis=2)

                def rows(n, options, limit, table=table[:, :, None]):
                    for lo in range(0, len(table), limit):
                        yield table[lo : lo + limit]

                monkeypatch.setattr(_kernels, "_orbit_rows", rows)
                for size in (1, 2, 3, 4096):
                    monkeypatch.setattr(_kernels, "_ROWS", size)
                    value, witness = list_color_function_exact(H, k)
                    assert value == counts[first]
                    assert tuple(witness.lists[v] for v in range(1, H.n + 1)) == order[first]

    def test_per_edge_census(self, e2, f1):
        for H, L in (
            (e2, ListAssignment(3, {v: [1, 2, 3] for v in range(1, 6)})),
            (e2, ListAssignment(2, {v: [v % 3 + 1, v % 3 + 2] for v in range(1, 6)})),
            (f1, ListAssignment(2, {v: [v, v + 1] for v in range(1, 7)})),
        ):
            k, big_k = L.k, L.k ** (H.n - uniformity(H))
            expected = 0
            for e, a in enumerate(alpha(H, L).per_edge, start=1):
                even = [A for A in nb_subsets(H, must_contain=e) if A.size % 2 == 0]
                expected += a * (big_k - sum(k ** (components(H, A) - 1) for A in even))
            assert prop1_rhs(H, L) == expected

    def test_omit_pattern_scan(self, e1, e2, matching2, f1):
        for H in (e1, e2, matching2, f1):
            for k in (1, 2, 3):
                for gap_factor in (0.0, 0.001):
                    got = scan_assignments_one_extra_color(H, k, gap_factor=gap_factor)
                    assert got == oracle_scan(H, k, gap_factor), (H.edges, k, gap_factor)


def test_chunk_boundaries(e1, e2, matching2, f1, monkeypatch):
    exact = list_color_function_exact(e2, 2)
    monkeypatch.setattr(chromatic, "_WIDTH", 7)
    monkeypatch.setattr(_kernels, "_ROWS", 7)
    # exact P_l walks tables of 7 rows: the same minimum and the same first witness
    assert list_color_function_exact(e2, 2) == exact
    assert [count_proper_colorings(e2, k) for k in range(5)] == [
        oracle_proper_count(e2, k) for k in range(5)
    ]
    L = ListAssignment(2, {v: [v % 3 + 1, v % 3 + 2] for v in range(1, 6)})
    assert count_L_colorings(e2, L) == oracle_list_count(e2, [L.lists[v] for v in range(1, 6)])
    for H in (e1, e2, matching2, f1):
        for k in (1, 2, 3):
            for gap_factor in (0.0, 0.001):
                got = scan_assignments_one_extra_color(H, k, gap_factor=gap_factor)
                assert got == oracle_scan(H, k, gap_factor), (H.edges, k, gap_factor)


def test_partitions():
    # the scan's table: one color per vertex, the one it omits, within num_colors
    for num_colors in range(1, 6):
        for n in range(7):
            table = listcolor._assignment_options(n, 1, num_colors)
            omitted = np.concatenate(list(_kernels._orbit_rows(n, table, 7)))[:, :, 0]
            rows = [tuple(bit.bit_length() - 1 for bit in row) for row in omitted.tolist()]
            # the scan's weight: (num_colors)_j, j the distinct omitted colors
            distinct = np.bitwise_count(np.bitwise_or.reduce(omitted, axis=1)).tolist()
            weights = [math.perm(num_colors, j) for j in distinct]
            # restricted growth strings: each digit at most one past the largest before it
            rgs = [
                s
                for s in itertools.product(range(num_colors), repeat=n)
                if all(d <= max(s[:v], default=-1) + 1 for v, d in enumerate(s))
            ]
            assert rows == rgs, (num_colors, n)
            assert sum(weights) == num_colors**n
            patterns = []
            for row, weight in zip(rows, weights):
                maps = list(itertools.permutations(range(num_colors), len(set(row))))
                assert len(maps) == weight
                patterns.extend(tuple(colors[d] for d in row) for colors in maps)
            assert sorted(patterns) == list(itertools.product(range(num_colors), repeat=n))


def test_orbit_rows_bound():
    # the exact search walks one row per orbit (Bell(12) at k = 1), every
    # table within max(limit, longest option list)
    for n, k, total in ((12, 1, 4213597), (6, 2, 29388)):
        table = listcolor._assignment_options(n, k, n * k)
        bound = max(7, int(np.diff(table[0]).max()))
        sizes = [len(rows) for rows in _kernels._orbit_rows(n, table, 7)]
        assert max(sizes) <= bound and sum(sizes) == total, (n, k)


class TestScanWidth:
    def test_products_past_int64_counted_exactly(self):
        # all 15 4-subsets of 6 points at k = 10: diff times the bound's
        # denominator reaches about 2^66, which an int64 test miscounted
        H = Hypergraph(6, list(itertools.combinations(range(1, 7), 4)))
        res = scan_assignments_one_extra_color(H, 10)
        assert res["checked"] == 11**6 - 11  # alpha = 0 only when all six omit one color
        assert res["viol_linear"] == res["checked"]
        assert res["viol_uniform"] == 0

    def test_threshold_table_matches_fractions(self):
        rng = random.Random(5)
        fracs = [
            cor_uniform_rhs_exact(20, 1, 50),
            cor_linear_rhs_exact(30, 4, 61),
            Fraction(-(2**70) - 1, 2**64 + 3),
            Fraction(2**65 + 7, 3**41),
            Fraction(0),
        ]
        assert any(f.numerator > 2**62 and f.denominator > 2**62 for f in fracs)
        for frac in fracs:
            for big_k, limit in ((7**5, 7**9 + 1), (1, 2**62 + 1), (3**30, 2**63 - 1)):
                thr = bounds._threshold_table(frac, big_k, 40, limit)
                # the scan kernel indexes it as an int64 array, which must hold every entry
                assert np.array(thr, dtype=np.int64).tolist() == thr and len(thr) == 41
                for a in range(41):
                    exact = frac * big_k * a
                    t = int(thr[a])
                    near = {0, t - 1, t, t + 1, 1 - limit, limit - 1}
                    for diff in near | {rng.randrange(1 - limit, limit)}:
                        if abs(diff) < limit:
                            assert (diff < t) == (diff < exact), (frac, big_k, a, diff)

    def test_large_k_needs_no_popcount_table(self, e1):
        # k + 1 = 41 colors: a 2^41 lookup table would not fit in memory
        assert scan_assignments_one_extra_color(e1, 40) == oracle_scan(e1, 40)

    def test_per_edge_sum_past_int64_refused(self, e2, monkeypatch):
        # alpha_e <= 2 and two edges with k^(n-r) - w_e near -2^62: the sum could reach 2^63
        monkeypatch.setattr(bounds, "_even_weights", lambda even, k: [2**62] * len(even[1]))
        with pytest.raises(InputError):
            scan_assignments_one_extra_color(e2, 2)

    def test_k_beyond_int64_bitmasks_refused(self, e1):
        with pytest.raises(InputError):
            scan_assignments_one_extra_color(e1, 63)
        scan_assignments_one_extra_color(Hypergraph(3, []), 63)
