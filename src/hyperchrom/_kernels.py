"""Array kernels: the brute-force counters and the one-extra-color scan.

Every kernel runs vectorized numpy on chunked index ranges: colorings and
omit patterns are numbered in mixed radix, a chunk of numbers is decoded
into a digit table, and each edge is tested on the whole chunk at once.
The walk over NB(H) is not a kernel; it runs on Python ints in
``cycles.py``.

Kernels take the hypergraph and read its edges through ``_edges``, which
refuses an invalid instance once and caches the 0-based vertex tuples.
Width contract: callers keep every count below 2^63 (the budget caps do
this), so int64 never overflows.  The CSR encoders at the bottom serve the
benchmark only; no kernel reads them.
"""

from __future__ import annotations

import numpy as np

from .hypercore import require_valid

__all__ = [
    "get_backend",
    "coloring_counts",
    "omit_pattern_scan",
    "edges_csr",
    "broken_csr",
]

_CHUNK = 1 << 16


def get_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def _edges(H) -> list[tuple[int, ...]]:
    """H's edges in label order as tuples of 0-based vertices, validated once."""
    key = "kern_edges"
    if key not in H._cache:
        require_valid(H)
        H._cache[key] = [tuple(v - 1 for v in edge) for edge in H.edges]
    return H._cache[key]


def _digit_table(radices, lo, hi, out=None):
    """Mixed-radix digits of lo..hi-1, vertex-major: digit v varies slowest
    for v = 0.  Returns int64 array of shape (len(radices), hi - lo), written
    into out when given."""
    n = len(radices)
    idx = np.arange(lo, hi, dtype=np.int64)
    digs = np.empty((n, hi - lo), dtype=np.int64) if out is None else out
    tmp = idx
    for v in range(n - 1, -1, -1):
        digs[v] = tmp % radices[v]
        tmp = tmp // radices[v]
    return digs


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


def coloring_counts(H, k, values=None):
    """Proper colorings of H, one count per color assignment.

    A coloring picks a digit 0..k-1 per vertex, and under assignment b
    vertex v gets color values[b, v, digit], with values of shape
    (batch, n, k).  values None counts the plain k-colorings, the digits
    being the colors.  Returns int64 counts of shape (batch,), or (1,)
    when values is None.
    """
    edges = _edges(H)
    n = H.n
    total = int(k) ** n
    batch = 1 if values is None else values.shape[0]
    counts = np.zeros(batch, dtype=np.int64)
    rows = np.arange(n)[:, None]
    step = max(1, min(total, _CHUNK))  # colorings per step
    bstep = max(1, _CHUNK // max(1, n * step))  # assignments per step, about _CHUNK colors
    # one digit table reused by every step; a fresh one per step made the
    # list path fault its pages in again on every step
    table = np.empty((n, step), dtype=np.int64)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        digits = _digit_table([k] * n, lo, hi, table[:, : hi - lo])
        for blo in range(0, batch, bstep):
            colors = digits if values is None else values[blo : blo + bstep, rows, digits]
            counts[blo : blo + bstep] += (hi - lo) - _monochromatic(colors, edges).sum(axis=-1)
    return counts


def omit_pattern_scan(
    H,
    num_colors,
    members,
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

    members lists (sign, component vertex lists) per NB(H) member, vertices
    0-based.  Digit v of a pattern is the color vertex v omits, kept as the
    bit 1 << digit, so num_colors must stay at most 63.  Returns (checked,
    viol_prop, viol_u, viol_l, viol_gap, min_gap_margin).
    """
    edges = _edges(H)
    n, m = H.n, len(edges)
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
        for sign, comps in members:
            prod = np.ones(cnt, dtype=np.int64)
            for vlist in comps:
                om = bm[vlist[0]].copy()
                for u in vlist[1:]:
                    om |= bm[u]
                # uint8 counts: num_colors <= 63 keeps the difference in range
                prod *= num_colors - np.bitwise_count(om)
            p_l += sign * prod
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
