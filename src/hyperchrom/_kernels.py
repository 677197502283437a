"""Array kernels: the brute-force counters and the one-extra-color scan.

Every kernel runs vectorized numpy on tables of rows, and each edge is
tested on a whole table at once.  The brute-force counter numbers its
colorings in one radix, and ``_digit_tables`` yields their digits a table
of at most _CHUNK numbers at a time.  The scan and the exact list-color
function walk one row per color-renaming class: ``_orbit_rows`` grows the
rows a vertex at a time from per-state option lists, in depth-first
lexicographic order.  For the scan a row is a restricted growth string, a
set partition of the vertices into at most num_colors blocks, and it
counts for the (num_colors)_j omit patterns (j its block count) that
rename to it.  The walk over NB(H) is not a kernel; it runs on Python ints
in ``cycles.py``.

Kernels take the hypergraph and read its edges through ``_edges``, which
refuses an invalid instance once and caches the 0-based vertex tuples.
Width: the brute_force cap stays below 2^63 and bounds k^n, so every
coloring count, P(H, L), P(H, k) and their difference fits in int64, and so
does the scan's orbit weight (num_colors)_j <= num_colors^n and each weighted
count, whose total is num_colors^n.  A member's term in the scan is at
most k^n in size; a running sum that wraps ends exact, since its total
fits.  The corollary bounds arrive as exact integer tables clipped to
+-(k^n + 1).  The per-edge bound's sum is formed in int64; the scan's
caller refuses an instance where (r - 1) times the sum of |prop_c[e]|
reaches 2^63, so it is exact.  The CSR encoders at the bottom serve the
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


def _digit_tables(radix, n):
    """The radix-ary digits of 0..radix^n - 1 in order, vertex-major (digit v
    varies slowest for v = 0), as int64 views of one buffer of at most _CHUNK
    columns.  The low j digits, radix^j the largest power within _CHUNK, are
    built once; each table repeats them under s consecutive values of the
    high digits, as many as fit, which are decoded per table."""
    width, j = 1, 0
    while j < n and 1 < radix and width * radix <= _CHUNK:
        width, j = width * radix, j + 1
    top = radix ** (n - j)
    s = max(1, min(top, _CHUNK // width))
    table = np.empty((n, s, width), dtype=np.int64)
    table[n - j :] = np.indices((radix,) * j).reshape(j, 1, width)
    for lo in range(0, top, s):
        high = np.arange(lo, min(lo + s, top), dtype=np.int64)
        for v in range(n - j - 1, -1, -1):
            table[v, : high.size] = (high % radix)[:, None]
            high //= radix
        yield table[:, : high.size].reshape(n, high.size * width)


def _orbit_rows(n, options, limit):
    """Every row of n values that options allow, in depth-first lexicographic order.

    options[state] lists (value tuple, next state) in order: vertex 0 starts
    in state 0, and each vertex takes one value of its state and hands the
    next state on.  Rows grow a vertex at a time, np.repeat copying each
    parent once per option, so one parent's children stay together and in
    option order.  Where a level would pass max(limit, longest option list)
    rows, its parents split into contiguous ranges walked one after another,
    so no table is larger.  Yields (rows, final states): rows int64 of shape
    (count, n, value width), final states int64 of shape (count,).
    """
    size = np.array([len(opts) for opts in options], dtype=np.int64)
    bound = max(limit, int(size.max()))
    width = len(options[0][0][0])
    value = np.zeros((len(options), int(size.max()), width), dtype=np.int64)
    after = np.zeros(value.shape[:2], dtype=np.int64)
    for state, opts in enumerate(options):
        value[state, : len(opts)] = [vals for vals, _ in opts]
        after[state, : len(opts)] = [nxt for _, nxt in opts]

    def grow(v, rows, states):
        if v == n:
            yield rows, states
            return
        count = size[states]
        ends = np.cumsum(count)
        starts = ends - count
        lo = 0
        while lo < states.size:
            hi = int(np.searchsorted(ends, starts[lo] + bound, side="right"))
            parent = np.repeat(np.arange(lo, hi), count[lo:hi])
            option = np.arange(parent.size) - np.repeat(starts[lo:hi] - starts[lo], count[lo:hi])
            st = states[parent]
            child = rows[parent]
            child[:, v] = value[st, option]
            yield from grow(v + 1, child, after[st, option])
            lo = hi

    yield from grow(0, np.zeros((1, n, width), dtype=np.int64), np.zeros(1, dtype=np.int64))


def _partitions(n, num_colors):
    """The set partitions of n vertices into at most num_colors blocks, with weights.

    Yields (digits, weight) per table of at most _CHUNK partitions: digits
    (n, count) int64 holds each partition as a restricted growth string
    (vertex v's block, numbered by first appearance), and weight (count,)
    the (num_colors)_j omit patterns whose colors rename to it, j its block
    count.  The weights stop at min(n, num_colors) blocks, so each is at
    most num_colors^n.
    """
    top = min(n, num_colors)
    options = [[((d,), max(j, d + 1)) for d in range(min(j + 1, num_colors))] for j in range(top + 1)]
    falling = [1]
    for j in range(top):
        falling.append(falling[-1] * (num_colors - j))
    weights = np.array(falling, dtype=np.int64)
    for rows, blocks in _orbit_rows(n, options, _CHUNK):
        yield rows[:, :, 0].T, weights[blocks]


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
    batch = 1 if values is None else values.shape[0]
    counts = np.zeros(batch, dtype=np.int64)
    rows = np.arange(H.n)[:, None]
    for digits in _digit_tables(int(k), H.n):
        bstep = max(1, _CHUNK // max(1, digits.size))  # assignments per step, about _CHUNK colors
        for blo in range(0, batch, bstep):
            colors = digits if values is None else values[blo : blo + bstep, rows, digits]
            counts[blo : blo + bstep] += digits.shape[1] - _monochromatic(colors, edges).sum(axis=-1)
    return counts


def omit_pattern_scan(H, num_colors, members, p_k, prop_c, thr_u, thr_l, gap_scaled):
    """Check every omit pattern of a num_colors universe; count bound violations.

    members lists (weight, block vertex lists) per NB(H) member, vertices
    0-based: the member adds weight times, per block, the colors its
    vertices share.  Digit v of a pattern is the color vertex v omits, kept
    as the bit 1 << digit, so num_colors must stay at most 63.  A pattern
    with diff = P(H, L) - p_k and alpha = sum of alpha_e violates the per-edge
    bound when diff < sum alpha_e * prop_c[e] (prop_c[e] = k^(n-r) minus edge
    e's even-member weight), and a corollary bound when diff < thr[alpha]
    (thr_u, thr_l; None skips one).  Renaming the colors changes none of
    these numbers, so the walk takes one pattern per renaming class, a set
    partition from ``_partitions``, and adds its orbit size to checked and
    to each violation count; min_gap_margin is a minimum over the classes.
    Returns (checked, viol_prop, viol_u, viol_l, viol_gap, min_gap_margin).
    """
    edges = _edges(H)
    m = len(edges)
    checked = 0
    viol_prop = 0
    viol_u = 0
    viol_l = 0
    viol_gap = 0
    min_gap_margin = 1e300
    for digits, orbit in _partitions(H.n, int(num_colors)):
        bm = np.left_shift(np.int64(1), digits)
        alpha_e = np.empty((m, digits.shape[1]), dtype=np.int64)
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
        p_l = np.zeros_like(alpha)
        for weight, blocks in members:
            prod = np.full_like(alpha, weight)
            for vlist in blocks:
                om = bm[vlist[0]].copy()
                for u in vlist[1:]:
                    om |= bm[u]
                # uint8 counts: num_colors <= 63 keeps the difference in range
                prod *= num_colors - np.bitwise_count(om)
            p_l += prod
        diff = p_l - p_k
        rhs = np.zeros_like(alpha)
        for e in range(m):
            rhs += alpha_e[e] * prop_c[e]
        checked += int(orbit[sel].sum())
        viol_prop += int(orbit[sel & (diff < rhs)].sum())
        if thr_u is not None:
            viol_u += int(orbit[sel & (diff < thr_u[alpha])].sum())
        if thr_l is not None:
            viol_l += int(orbit[sel & (diff < thr_l[alpha])].sum())
        if gap_scaled > 0.0:
            margins = diff - gap_scaled * alpha
            min_gap_margin = min(min_gap_margin, float(margins[sel].min()))  # sel has a pattern
            viol_gap += int(orbit[sel & (margins <= 0.0)].sum())
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
