"""Loop kernels: plain array code, jitted by the numba backend.

Every function here is written against numpy arrays and scalar ints/floats
only, with no calls into other python functions, so the numba backend can
wrap each one with @njit unchanged.  The numpy backend runs none of them:
it substitutes the vectorized counterparts in ``vectorized.py``.  The walk
over NB(H) is not a kernel; it runs on Python ints in ``cycles.py``.

Width contract: callers keep every count below 2^63 (the budget caps do
this), so int64 never overflows.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "count_proper_colorings",
    "count_list_colorings",
    "batch_min_list_colorings",
    "omit_pattern_scan",
]


def count_proper_colorings(n, k, ce_vertices, ce_offsets, ce_starts):
    """Brute-force proper-coloring count by mixed-radix odometer.

    Edges are grouped by their maximum vertex (ce_starts[v]..ce_starts[v+1]
    index the edges whose last vertex is v), so each edge is tested at the
    deepest digit that completes it and a monochromatic hit prunes the whole
    subtree below that digit.
    """
    if n == 0:
        return np.int64(1)
    if k <= 0:
        return np.int64(0)
    col = np.zeros(n, dtype=np.int64)
    count = np.int64(0)
    pos = 0
    col[0] = -1
    while pos >= 0:
        col[pos] += 1
        if col[pos] == k:
            pos -= 1
            continue
        ok = True
        for ei in range(ce_starts[pos], ce_starts[pos + 1]):
            base = ce_offsets[ei]
            c0 = col[ce_vertices[base]]
            mono = True
            for t in range(base + 1, ce_offsets[ei + 1]):
                if col[ce_vertices[t]] != c0:
                    mono = False
                    break
            if mono:
                ok = False
                break
        if not ok:
            continue
        if pos == n - 1:
            count += 1
            continue
        pos += 1
        col[pos] = -1
    return count


def count_list_colorings(n, list_values, list_sizes, ce_vertices, ce_offsets, ce_starts):
    """Brute-force L-coloring count; digit v indexes into vertex v's list."""
    if n == 0:
        return np.int64(1)
    for v in range(n):
        if list_sizes[v] == 0:
            return np.int64(0)
    col = np.zeros(n, dtype=np.int64)
    count = np.int64(0)
    pos = 0
    col[0] = -1
    while pos >= 0:
        col[pos] += 1
        if col[pos] == list_sizes[pos]:
            pos -= 1
            continue
        ok = True
        for ei in range(ce_starts[pos], ce_starts[pos + 1]):
            base = ce_offsets[ei]
            v0 = ce_vertices[base]
            c0 = list_values[v0, col[v0]]
            mono = True
            for t in range(base + 1, ce_offsets[ei + 1]):
                vt = ce_vertices[t]
                if list_values[vt, col[vt]] != c0:
                    mono = False
                    break
            if mono:
                ok = False
                break
        if not ok:
            continue
        if pos == n - 1:
            count += 1
            continue
        pos += 1
        col[pos] = -1
    return count


def batch_min_list_colorings(assign, n, k, ce_vertices, ce_offsets, ce_starts, stop_at):
    """Minimum L-coloring count over a batch of assignments.

    assign[b, v, i] is color i of vertex v's list in assignment b.  Returns
    (best count, index of first assignment attaining it); stops early when
    the running best reaches stop_at (counts cannot go lower than 0).
    """
    batch = assign.shape[0]
    best = np.int64(-1)
    best_idx = np.int64(-1)
    if n == 0:
        if batch > 0:
            return np.int64(1), np.int64(0)
        return best, best_idx
    col = np.zeros(n, dtype=np.int64)
    for b in range(batch):
        count = np.int64(0)
        pos = 0
        col[0] = -1
        while pos >= 0:
            col[pos] += 1
            if col[pos] == k:
                pos -= 1
                continue
            ok = True
            for ei in range(ce_starts[pos], ce_starts[pos + 1]):
                base = ce_offsets[ei]
                v0 = ce_vertices[base]
                c0 = assign[b, v0, col[v0]]
                mono = True
                for t in range(base + 1, ce_offsets[ei + 1]):
                    vt = ce_vertices[t]
                    if assign[b, vt, col[vt]] != c0:
                        mono = False
                        break
                if mono:
                    ok = False
                    break
            if not ok:
                continue
            if pos == n - 1:
                count += 1
                continue
            pos += 1
            col[pos] = -1
        if best < 0 or count < best:
            best = count
            best_idx = b
            if best <= stop_at:
                break
    return best, best_idx


def omit_pattern_scan(
    n,
    num_colors,
    nb_signs,
    nb_comp_labels,
    nb_ncomps,
    edge_vertices,
    edge_offsets,
    m,
    p_k,
    prop_big_k,
    prop_s,
    u_num,
    u_den,
    l_num,
    l_den,
    gap_scaled,
):
    """Scan every assignment whose lists are (universe of num_colors) minus
    one color per vertex, checking the lower-bound inequalities at each one.

    Pattern digit d[v] is the color omitted at vertex v; the common colors
    over a vertex set then number num_colors minus the distinct omitted
    colors, which turns every beta product into popcount work.  For each
    pattern with positive total list disagreement the scan checks, all in
    exact integer arithmetic:

      * diff >= sum_e alpha_e * (prop_big_k - prop_s[e])      (per-edge bound)
      * diff * u_den >= u_num * prop_big_k * alpha            (uniform ratio)
      * diff * l_den >= l_num * prop_big_k * alpha            (linear ratio)

    and, when gap_scaled > 0, the strict float margin
    diff - gap_scaled * alpha > 0.  A zero u_den / l_den skips that check.

    Returns (checked, viol_prop, viol_uniform, viol_linear, viol_gap,
    min_gap_margin).
    """
    checked = np.int64(0)
    viol_prop = np.int64(0)
    viol_u = np.int64(0)
    viol_l = np.int64(0)
    viol_gap = np.int64(0)
    min_gap_margin = 1e300
    nb_count = nb_signs.shape[0]
    digits = np.zeros(n, dtype=np.int64)
    or_buf = np.zeros(n + 1, dtype=np.int64)
    alpha_e = np.zeros(m if m > 0 else 1, dtype=np.int64)
    one = np.int64(1)
    while True:
        # alpha per edge: distinct omitted colors on the edge, minus 1
        alpha = np.int64(0)
        for e in range(m):
            om = np.int64(0)
            for t in range(edge_offsets[e], edge_offsets[e + 1]):
                om |= one << digits[edge_vertices[t]]
            distinct = np.int64(0)
            while om:
                om &= om - 1
                distinct += 1
            alpha_e[e] = distinct - 1
            alpha += distinct - 1
        if alpha > 0:
            checked += 1
            # P(H, L) by the signed expansion over NB(H)
            p_l = np.int64(0)
            for a in range(nb_count):
                nc = nb_ncomps[a]
                for c in range(nc):
                    or_buf[c] = 0
                for v in range(n):
                    or_buf[nb_comp_labels[a, v]] |= one << digits[v]
                prod = np.int64(1)
                for c in range(nc):
                    om = or_buf[c]
                    distinct = np.int64(0)
                    while om:
                        om &= om - 1
                        distinct += 1
                    prod *= num_colors - distinct
                p_l += nb_signs[a] * prod
            diff = p_l - p_k
            rhs = np.int64(0)
            for e in range(m):
                rhs += alpha_e[e] * (prop_big_k - prop_s[e])
            if diff < rhs:
                viol_prop += 1
            if u_den != 0 and diff * u_den < u_num * prop_big_k * alpha:
                viol_u += 1
            if l_den != 0 and diff * l_den < l_num * prop_big_k * alpha:
                viol_l += 1
            if gap_scaled > 0.0:
                margin = diff - gap_scaled * alpha
                if margin < min_gap_margin:
                    min_gap_margin = margin
                if margin <= 0.0:
                    viol_gap += 1
        # next pattern
        pos = 0
        while pos < n:
            digits[pos] += 1
            if digits[pos] < num_colors:
                break
            digits[pos] = 0
            pos += 1
        if pos == n:
            break
    return checked, viol_prop, viol_u, viol_l, viol_gap, min_gap_margin
