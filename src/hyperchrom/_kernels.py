"""Array kernels: the brute-force counters and the one-extra-color scan.

Every kernel runs vectorized numpy on chunked index ranges: colorings and
omit patterns are numbered in mixed radix, a chunk of numbers is decoded
into a digit table, and each edge is tested on the whole chunk at once.
The walk over NB(H) is not a kernel; it runs on Python ints in
``cycles.py``.

Kernel inputs are int64 arrays produced by the encoders at the bottom,
which refuse invalid instances.  Width contract: callers keep every count
below 2^63 (the budget caps do this), so int64 never overflows.
"""

from __future__ import annotations

import numpy as np

from .hypercore import require_valid

__all__ = [
    "get_backend",
    "count_proper_colorings",
    "count_list_colorings",
    "batch_min_list_colorings",
    "omit_pattern_scan",
    "edges_csr",
    "broken_csr",
]

_CHUNK = 1 << 16


def get_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


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
    return [ce_vertices[lo:hi] for lo, hi in zip(ce_offsets[:-1], ce_offsets[1:])]


def _monochromatic(colors, edges):
    """True where some edge is monochromatic; colors is (..., n, count)."""
    bad = np.zeros(colors.shape[:-2] + colors.shape[-1:], dtype=bool)
    for vs in edges:
        first = colors[..., vs[0], :]
        eq = colors[..., vs[1], :] == first
        for u in vs[2:]:
            eq &= colors[..., u, :] == first
        bad |= eq
    return bad


def count_proper_colorings(n, k, ce_vertices, ce_offsets):
    """Colorings of n vertices with k colors and no monochromatic edge."""
    if n == 0:
        return 1
    if k <= 0:
        return 0
    edges = _edge_slices(ce_vertices, ce_offsets)
    total = int(k) ** int(n)
    count = 0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        count += (hi - lo) - int(_monochromatic(_digit_table([k] * n, lo, hi), edges).sum())
    return count


def count_list_colorings(n, list_values, ce_vertices, ce_offsets):
    """Colorings picking vertex v's color from row v of list_values, (n, k)."""
    if n == 0:
        return 1
    k = list_values.shape[1]
    edges = _edge_slices(ce_vertices, ce_offsets)
    total = int(k) ** int(n)
    count = 0
    rows = np.arange(n)[:, None]
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        colors = list_values[rows, _digit_table([k] * n, lo, hi)]
        count += (hi - lo) - int(_monochromatic(colors, edges).sum())
    return count


def batch_min_list_colorings(assign, n, k, ce_vertices, ce_offsets, stop_at):
    """Smallest list-coloring count over the assignments assign[b], (batch, n, k).

    Returns (count, b) for the first assignment attaining it, or (-1, -1)
    on an empty batch; stops early once a chunk's minimum is <= stop_at.
    """
    batch = assign.shape[0]
    if batch == 0:
        return -1, -1
    if n == 0:
        return 1, 0
    if k <= 0:
        return 0, 0
    edges = _edge_slices(ce_vertices, ce_offsets)
    total = int(k) ** int(n)
    rows = np.arange(n)[:, None]
    digs = _digit_table([k] * n, 0, total)
    best = -1
    best_idx = -1
    bchunk = max(1, _CHUNK // (n * total))  # colors holds about _CHUNK entries
    for lo in range(0, batch, bchunk):
        hi = min(lo + bchunk, batch)
        colors = assign[lo:hi, rows, digs]
        counts = total - _monochromatic(colors, edges).sum(axis=1)
        pos = int(np.argmin(counts))
        cmin = int(counts[pos])
        if best < 0 or cmin < best:
            best = cmin
            best_idx = lo + pos
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
    """Walk every omit pattern of a num_colors universe; count bound violations.

    Digit v of a pattern is the color vertex v omits, kept as the bit
    1 << digit, so num_colors must stay at most 63.  Returns (checked,
    viol_prop, viol_u, viol_l, viol_gap, min_gap_margin).
    """
    edges = _edge_slices(edge_vertices, edge_offsets)
    nb_count = nb_signs.shape[0]
    comp_vertex_lists = []
    for a in range(nb_count):
        comps = []
        for c in range(int(nb_ncomps[a])):
            comps.append(np.nonzero(nb_comp_labels[a] == c)[0])
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
        bm = np.left_shift(np.int64(1), _digit_table([num_colors] * n, lo, hi))
        alpha_e = np.empty((m, cnt), dtype=np.int64)
        for e, vs in enumerate(edges):
            om = bm[vs[0]].copy()
            for u in vs[1:]:
                om |= bm[u]
            alpha_e[e] = np.bitwise_count(om)
        alpha_e -= 1
        alpha = alpha_e.sum(axis=0)
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
                # uint8 counts: num_colors <= 63 keeps the difference in range
                prod *= num_colors - np.bitwise_count(om)
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
    return checked, viol_prop, viol_u, viol_l, viol_gap, min_gap_margin


# ---------------------------------------------------------------------------
# encoders


def edges_csr(H) -> tuple[np.ndarray, np.ndarray]:
    """Edges in label order as CSR (vertices 0-based)."""
    key = "kern_edges_csr"
    if key not in H._cache:
        require_valid(H)
        flat = []
        offsets = [0]
        for edge in H.edges:
            flat.extend(v - 1 for v in edge)
            offsets.append(len(flat))
        H._cache[key] = (
            np.array(flat, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
        )
    return H._cache[key]


def broken_csr(catalog, eta=None) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated broken family grouped by maximum edge index, as CSR."""
    from .cycles import broken_by_max_edge, normalize_eta

    eta_t = normalize_eta(catalog.H, eta)
    key = ("csr", eta_t)
    if key not in catalog._broken_cache:
        masks = [b.mask for b in catalog.broken_family(eta_t)]
        groups = broken_by_max_edge(masks, catalog.H.m)
        flat = []
        offsets = [0]
        for group in groups:
            flat.extend(group)
            offsets.append(len(flat))
        catalog._broken_cache[key] = (
            np.array(flat, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
        )
    return catalog._broken_cache[key]
