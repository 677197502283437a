"""Array kernels: the list-count kernel and the color-renaming walk.

Every kernel runs vectorized numpy on tables of rows, and each edge is
tested on a whole table at once.  ``list_counts`` gives P(H, L) for a
table of assignments held as per-vertex list bitmasks, from the partition
terms of Whitney's expansion (``listcolor._partition_terms``): per term,
its weight times, per block, the popcount of the AND of the block's masks.
The assignment scan (``bounds.scan_assignments_one_extra_color``) and the
exact list-color function both count with it, and both walk one row per
color-renaming class: ``_orbit_rows`` grows the rows a vertex at a time
from per-state option lists, in depth-first lexicographic order.  For the
scan, ``_partitions`` makes each row a restricted growth string, a set
partition of the vertices into at most num_colors blocks, that counts for
the (num_colors)_j omit patterns (j its block count) that rename to it;
for the exact search a row holds each vertex's list as 63-bit mask words.
The brute-force coloring count is not a kernel here: it runs on
bit-sliced Python ints in ``chromatic.py``, and the walk over NB(H) on
Python ints in ``cycles.py``.

Width: the callers' brute_force cap stays below 2^63 and bounds k^n, so
P(H, L) fits in int64.  A partition term's weight c * k^(isolated
vertices) may pass 2^63; ``list_counts`` takes it in two's complement
int64, so each product and the running sum are exact modulo 2^64, and
since the true total P(H, L) <= k^n fits, so is the result.  A block's
popcount is at most the list size, and is kept uint8 while a list fits
one word.  The CSR encoders at the bottom serve the benchmark only; no
kernel reads them.

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
    "edges_csr",
    "broken_csr",
]

_ROWS = 1 << 12  # rows per table of the scan and of exact P_l; list_counts gets one table


def get_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


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
