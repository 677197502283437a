"""Array kernels: the list-count kernel and the color-renaming walk.

Every kernel runs vectorized numpy on tables of rows, and each edge is
tested on a whole table at once.  ``list_counts`` gives P(H, L) for a
table of assignments held as per-vertex list bitmasks, from the partition
terms of Whitney's expansion (``listcolor._partition_terms``): per term,
its weight times, per block, the popcount of the AND of the block's masks.
The assignment scan (``bounds.scan_assignments_one_extra_color``) and the
exact list-color function both count with it, and both walk one row per
color-renaming orbit: ``_orbit_rows`` grows the rows a vertex at a time
from a flat option table of three int64 arrays, in depth-first
lexicographic order.  One builder, ``listcolor._assignment_options``,
makes every such table, keyed on (n, k, colors): a row is the least
assignment of its orbit among the k-assignments within colors
1..colors, each vertex's list held as 63-bit mask words.  The exact
search asks for colors = n * k, a bound that never binds; the scan asks
for one color per vertex, the one it omits, within k + 1 colors, so its
rows are the set partitions of the vertices into at most k + 1 blocks.
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


def _orbit_rows(n, table, limit):
    """Every row of n values that a flat option table allows, in depth-first lexicographic order.

    table is (first, value, after), three int64 arrays: state s owns options
    first[s] to first[s + 1] - 1, in order, and option i gives the vertex the
    value words value[i] and hands state after[i] to the next vertex; vertex
    0 starts in state 0.  Rows grow a vertex at a time, np.repeat copying
    each parent once per option, so one parent's children stay together and
    in option order.  Where a level would pass max(limit, longest option
    list) rows, its parents split into contiguous ranges walked one after
    another, so no table is larger.  Yields the rows, int64 of shape
    (count, n, value width).
    """
    first, value, after = table
    size = np.diff(first)
    bound = max(limit, int(size.max(initial=0)))  # n = 0: no options, one empty row

    def grow(v, rows, states):
        if v == n:
            yield rows
            return
        count = size[states]
        ends = np.cumsum(count)
        starts = ends - count
        lo = 0
        while lo < states.size:
            hi = int(np.searchsorted(ends, starts[lo] + bound, side="right"))
            # each child's option: its rank among its parent's children, past the state's first
            shift = np.repeat(first[states[lo:hi]] - starts[lo:hi] + starts[lo], count[lo:hi])
            option = np.arange(shift.size) + shift
            child = rows[np.repeat(np.arange(lo, hi), count[lo:hi])]
            child[:, v] = value[option]
            yield from grow(v + 1, child, after[option])
            lo = hi

    yield from grow(0, np.zeros((1, n, value.shape[1]), dtype=np.int64), np.zeros(1, dtype=np.int64))


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
