"""Array kernels: the list-count kernel and the omit-pattern scan.

Every kernel runs vectorized numpy on tables of rows, and each edge is
tested on a whole table at once.  ``list_counts`` gives P(H, L) for a
table of assignments held as per-vertex list bitmasks, from the partition
terms of Whitney's expansion (``listcolor._partition_terms``): per term,
its weight times, per block, the popcount of the AND of the block's masks.
The scan and the exact list-color function both count with it, and both
walk one row per color-renaming class: ``_orbit_rows`` grows the rows a
vertex at a time from per-state option lists, in depth-first
lexicographic order.  For the scan a row is a restricted growth string, a
set partition of the vertices into at most num_colors blocks, and it
counts for the (num_colors)_j omit patterns (j its block count) that
rename to it; for the exact search a row holds each vertex's list as
63-bit mask words.  The brute-force coloring count is not a kernel here:
it runs on bit-sliced Python ints in ``chromatic.py``, and the walk over
NB(H) on Python ints in ``cycles.py``.

The scan reads H's edges through ``_edges``, which refuses an invalid
instance once and caches the 0-based vertex tuples.  Width: the callers'
brute_force cap stays below 2^63 and bounds k^n (the scan's caller checks
(k+1)^n), so P(H, L), P(H, k) and their difference fit in int64, and so
does the scan's orbit weight (num_colors)_j <= num_colors^n and each
weighted count, whose total is num_colors^n.  A partition term's weight
c * k^(isolated vertices) may pass 2^63; ``list_counts`` takes it in two's
complement int64, so each product and the running sum are exact modulo
2^64, and since the true total P(H, L) <= k^n fits, so is the result.  A
block's popcount is at most the list size, and is kept uint8 while a list
fits one word.  The corollary bounds arrive as exact integer lists clipped
to +-(k^n + 1).  The per-edge bound's sum is formed in int64; the scan's
caller refuses an instance where (r - 1) times the sum of |prop_c[e]|
reaches 2^63, so it is exact.  The CSR encoders at the bottom serve the
benchmark only; no kernel reads them.

This is the only module that imports numpy.  No module imports it at load
time: ``list_color_function_exact`` and ``scan_assignments_one_extra_color``
import it when they run.  ``closed_forms``' float grids take numpy from
here, and ``hyperchrom.get_backend`` loads this module on first use.  So
only ``plk`` (its exact search), ``verify --grids`` and ``verify --theorem``
(when its exact check fits the caps) load numpy; every other command runs
without it.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .hypercore import require_valid

__all__ = [
    "get_backend",
    "list_counts",
    "omit_pattern_scan",
    "edges_csr",
    "broken_csr",
]

_ROWS = 1 << 12  # partitions per scan table; list_counts holds each block's counts for a table


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

    Yields (digits, weight) per table of at most _ROWS partitions: digits
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
    for rows, blocks in _orbit_rows(n, options, _ROWS):
        yield rows[:, :, 0].T, weights[blocks]


def list_counts(masks, terms):
    """P(H, L) per column of list bitmasks, summed over partition terms.

    masks is int64 of shape (n, words, count): column c gives vertex v the
    colors whose bits are set in masks[v, :, c], 63 to a word.  terms lists
    (weight, blocks), each block a tuple of 0-based vertices, and a column
    gets the sum over terms of weight times, per block, the popcount of the
    AND of its vertices' masks: the colors their lists share.  Each block's
    popcounts are formed once per call.  Returns int64 counts of shape
    (count,).
    """
    masks = np.ascontiguousarray(masks)  # a vertex's words for all columns in one run
    total = np.zeros(masks.shape[-1], dtype=np.int64)
    common = {}
    for weight, blocks in terms:
        prod = np.int64((weight + 2**63) % 2**64 - 2**63)  # two's complement; the total is exact
        for block in blocks:
            if block not in common:
                shared = masks[block[0]]
                for v in block[1:]:
                    shared = shared & masks[v]
                bits = np.bitwise_count(shared)  # uint8, and so each cached count while one word
                common[block] = bits[0] if len(bits) == 1 else bits.sum(axis=0, dtype=np.int64)
            prod = prod * common[block]
        total += prod
    return total


def omit_pattern_scan(H, num_colors, terms, p_k, prop_c, thr_u, thr_l, gap_scaled):
    """Check every omit pattern of a num_colors universe; count bound violations.

    terms are P(H, L)'s partition terms for ``list_counts``, with lists of
    num_colors - 1 colors.  Digit v of a pattern is the color vertex v
    omits, kept as the bit 1 << digit and its list as the other bits, so
    num_colors must stay at most 63.  A pattern with diff = P(H, L) - p_k
    and alpha = sum of alpha_e violates the per-edge bound when
    diff < sum alpha_e * prop_c[e] (prop_c[e] = k^(n-r) minus edge e's
    even-member weight), and a corollary bound when diff < thr[alpha]
    (thr_u, thr_l: lists of ints within int64, made int64 arrays here; None
    skips one).  Renaming the colors changes none of these numbers, so the
    walk takes one pattern per renaming class, a set partition from
    ``_partitions``, and adds its orbit size to checked and to each
    violation count; min_gap_margin is a minimum over the classes.
    Returns (checked, viol_prop, viol_u, viol_l, viol_gap, min_gap_margin).
    """
    edges = _edges(H)
    m = len(edges)
    full = np.int64((1 << num_colors) - 1)
    thr_u = None if thr_u is None else np.array(thr_u, dtype=np.int64)
    thr_l = None if thr_l is None else np.array(thr_l, dtype=np.int64)
    checked = 0
    viol_prop = 0
    viol_u = 0
    viol_l = 0
    viol_gap = 0
    min_gap_margin = 1e300
    for digits, orbit in _partitions(H.n, int(num_colors)):
        lists = np.left_shift(np.int64(1), digits)
        lists ^= full  # every color but the omitted one
        alpha_e = np.empty((m, digits.shape[1]), dtype=np.int64)
        for e, vs in enumerate(edges):
            both = lists[vs[0]] & lists[vs[1]]
            for u in vs[2:]:
                both &= lists[u]
            # uint8: the edge's common colors, at most num_colors - 1 <= 62
            alpha_e[e] = num_colors - 1 - np.bitwise_count(both)
        alpha = alpha_e.sum(axis=0)
        sel = alpha > 0
        if not sel.any():
            continue
        diff = list_counts(lists[:, None], terms) - p_k
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
    from .cycles import _broken_masks, normalize_eta

    H = catalog.H
    key = ("kern_broken_csr", normalize_eta(H, eta))
    if key not in H._cache:
        # by top edge, then by size and mask within a group
        masks = set(_broken_masks(catalog, key[1]))
        flat = sorted(masks, key=lambda mk: (mk.bit_length(), mk.bit_count(), mk))
        tops = [mk.bit_length() for mk in flat]
        offsets = [bisect_right(tops, j) for j in range(H.m + 1)]
        H._cache[key] = (
            np.array(flat, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
        )
    return H._cache[key]
