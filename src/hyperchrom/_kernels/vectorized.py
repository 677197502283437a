"""Vectorized numpy counterparts of the counting and scanning kernels.

Same signatures and results as the loop kernels; work is done on chunked
index ranges instead of an odometer, trading the early-cutoff pruning for
numpy throughput.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "count_proper_colorings",
    "count_list_colorings",
    "batch_min_list_colorings",
    "omit_pattern_scan",
]

_CHUNK = 1 << 16


def _digit_table(radices, lo, hi):
    """Mixed-radix digits of lo..hi-1, vertex-major: digit v varies slowest
    for v = 0.  Returns int64 array of shape (len(radices), hi - lo)."""
    n = len(radices)
    idx = np.arange(lo, hi, dtype=np.int64)
    digs = np.empty((n, hi - lo), dtype=np.int64)
    tmp = idx
    for v in range(n - 1, -1, -1):
        digs[v] = tmp % radices[v]
        tmp = tmp // radices[v]
    return digs


def _edge_slices(ce_vertices, ce_offsets):
    edges = []
    for ei in range(len(ce_offsets) - 1):
        edges.append(np.asarray(ce_vertices[ce_offsets[ei] : ce_offsets[ei + 1]]))
    return edges


def count_proper_colorings(n, k, ce_vertices, ce_offsets, ce_starts):
    if n == 0:
        return np.int64(1)
    if k <= 0:
        return np.int64(0)
    edges = _edge_slices(ce_vertices, ce_offsets)
    total = int(k) ** int(n)
    count = 0
    radices = [k] * n
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        digs = _digit_table(radices, lo, hi)
        bad = np.zeros(hi - lo, dtype=bool)
        for vs in edges:
            eq = digs[vs[1]] == digs[vs[0]]
            for u in vs[2:]:
                eq &= digs[u] == digs[vs[0]]
            bad |= eq
        count += (hi - lo) - int(bad.sum())
    return np.int64(count)


def count_list_colorings(n, list_values, list_sizes, ce_vertices, ce_offsets, ce_starts):
    if n == 0:
        return np.int64(1)
    sizes = [int(list_sizes[v]) for v in range(n)]
    if any(s == 0 for s in sizes):
        return np.int64(0)
    edges = _edge_slices(ce_vertices, ce_offsets)
    total = 1
    for s in sizes:
        total *= s
    count = 0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        digs = _digit_table(sizes, lo, hi)
        colors = np.empty_like(digs)
        for v in range(n):
            colors[v] = np.asarray(list_values[v])[digs[v]]
        bad = np.zeros(hi - lo, dtype=bool)
        for vs in edges:
            eq = colors[vs[1]] == colors[vs[0]]
            for u in vs[2:]:
                eq &= colors[u] == colors[vs[0]]
            bad |= eq
        count += (hi - lo) - int(bad.sum())
    return np.int64(count)


def batch_min_list_colorings(assign, n, k, ce_vertices, ce_offsets, ce_starts, stop_at):
    batch = assign.shape[0]
    if batch == 0:
        return np.int64(-1), np.int64(-1)
    if n == 0:
        return np.int64(1), np.int64(0)
    if k <= 0:
        return np.int64(0), np.int64(0)
    edges = _edge_slices(ce_vertices, ce_offsets)
    total = int(k) ** int(n)
    digs = _digit_table([k] * n, 0, total)
    best = -1
    best_idx = -1
    bchunk = max(1, _CHUNK // max(total, 1))
    for lo in range(0, batch, bchunk):
        hi = min(lo + bchunk, batch)
        sub = assign[lo:hi]
        colors = np.empty((hi - lo, n, total), dtype=np.int64)
        for v in range(n):
            colors[:, v, :] = sub[:, v, :][:, digs[v]]
        bad = np.zeros((hi - lo, total), dtype=bool)
        for vs in edges:
            eq = colors[:, vs[1], :] == colors[:, vs[0], :]
            for u in vs[2:]:
                eq &= colors[:, u, :] == colors[:, vs[0], :]
            bad |= eq
        counts = total - bad.sum(axis=1)
        pos = int(np.argmin(counts))
        cmin = int(counts[pos])
        if best < 0 or cmin < best:
            best = cmin
            best_idx = lo + pos
            if best <= stop_at:
                break
    return np.int64(best), np.int64(best_idx)


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
    pop = np.array([bin(i).count("1") for i in range(1 << int(num_colors))], dtype=np.int64)
    edges = _edge_slices(edge_vertices, edge_offsets)
    nb_count = nb_signs.shape[0]
    comp_vertex_lists = []
    for a in range(nb_count):
        comps = []
        for c in range(int(nb_ncomps[a])):
            comps.append(np.nonzero(np.asarray(nb_comp_labels[a]) == c)[0])
        comp_vertex_lists.append(comps)
    total = int(num_colors) ** int(n)
    checked = 0
    viol_prop = 0
    viol_u = 0
    viol_l = 0
    viol_gap = 0
    min_gap_margin = 1e300
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        cnt = hi - lo
        digs = _digit_table([num_colors] * n, lo, hi) if n else np.zeros((0, cnt), np.int64)
        bm = np.left_shift(np.int64(1), digs)
        alpha = np.zeros(cnt, dtype=np.int64)
        alpha_e = np.empty((m, cnt), dtype=np.int64) if m else np.zeros((0, cnt), np.int64)
        for e, vs in enumerate(edges):
            om = bm[vs[0]].copy()
            for u in vs[1:]:
                om |= bm[u]
            alpha_e[e] = pop[om] - 1
            alpha += alpha_e[e]
        sel = alpha > 0
        if not sel.any():
            continue
        p_l = np.zeros(cnt, dtype=np.int64)
        for a in range(nb_count):
            prod = np.ones(cnt, dtype=np.int64)
            for vlist in comp_vertex_lists[a]:
                om = bm[vlist[0]].copy()
                for u in vlist[1:]:
                    om |= bm[u]
                prod *= num_colors - pop[om]
            p_l += int(nb_signs[a]) * prod
        diff = p_l - p_k
        rhs = np.zeros(cnt, dtype=np.int64)
        for e in range(m):
            rhs += alpha_e[e] * (prop_big_k - int(prop_s[e]))
        checked += int(sel.sum())
        viol_prop += int((sel & (diff < rhs)).sum())
        if u_den != 0:
            viol_u += int((sel & (diff * u_den < u_num * prop_big_k * alpha)).sum())
        if l_den != 0:
            viol_l += int((sel & (diff * l_den < l_num * prop_big_k * alpha)).sum())
        if gap_scaled > 0.0:
            margins = diff - gap_scaled * alpha
            mm = margins[sel]
            if mm.size:
                min_gap_margin = min(min_gap_margin, float(mm.min()))
            viol_gap += int((sel & (margins <= 0.0)).sum())
    return (
        np.int64(checked),
        np.int64(viol_prop),
        np.int64(viol_u),
        np.int64(viol_l),
        np.int64(viol_gap),
        min_gap_margin,
    )
