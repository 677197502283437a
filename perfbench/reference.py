"""Reference computations the benchmark checks the program against.

Plain Python and numpy only; nothing here imports ``hyperchrom``, so a
fault in the program cannot hide in its own oracle.  Instances are
``(n, edges)`` with edges as vertex tuples over 1..n; list assignments
are ``{vertex: colors}``.

* ``count_list_colorings`` enumerates every choice of one color per
  vertex from its list and keeps those with no monochromatic edge.
  P(H, k) is the count for the constant lists {1..k}.
* ``delta_cycles`` finds the minimal edge sets in which every edge lies
  inside the union of the others, over all subsets of a small edge list.
* ``threshold_thm1`` is the paper's bound 2.4(m-1) / (rho ln(m-1)).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "CHUNK",
    "count_list_colorings",
    "count_colorings",
    "delta_cycles",
    "rho",
    "is_linear",
    "threshold_thm1",
    "threshold_thm2",
]

CHUNK = 1 << 17


def count_list_colorings(n: int, edges, lists: dict) -> int:
    """P(H, L): colorings choosing from each vertex's list, no edge monochromatic.

    The first vertices, as many as fit ``CHUNK`` combinations, are colored
    as numpy arrays over all their combinations at once; a Python loop runs
    over the colorings of the remaining vertices, whose colors are scalars.
    """
    if n == 0:
        return 1
    palettes = [np.asarray(lists[v], dtype=np.int64) for v in range(1, n + 1)]
    low, block = 0, 1
    while low < n and block * len(palettes[low]) <= CHUNK:
        block *= len(palettes[low])
        low += 1
    rest = np.arange(block, dtype=np.int64)
    low_colors = []
    for palette in palettes[:low]:
        low_colors.append(palette[rest % len(palette)])
        rest = rest // len(palette)

    def monochromatic(colors, edge):
        first = colors[edge[0] - 1]
        mono = np.bool_(True)
        for v in edge[1:]:
            mono = mono & (colors[v - 1] == first)
        return mono

    low_proper = np.ones(block, dtype=bool)
    mixed = []
    for edge in edges:
        if max(edge) <= low:
            low_proper &= ~monochromatic(low_colors, edge)
        else:
            mixed.append(edge)
    count = 0
    for high in itertools.product(*palettes[low:]):
        colors = low_colors + list(high)
        proper = low_proper.copy()
        for edge in mixed:
            proper &= ~monochromatic(colors, edge)
        count += int(proper.sum())
    return count


def count_colorings(n: int, edges, k: int) -> int:
    """P(H, k): the list count with every list equal to {1..k}."""
    if k == 0:
        return 1 if n == 0 else 0
    palette = tuple(range(1, k + 1))
    return count_list_colorings(n, edges, {v: palette for v in range(1, n + 1)})


def delta_cycles(edges) -> list[tuple[int, ...]]:
    """Every delta-cycle, as sorted 1-based edge labels, smallest sets first.

    A set F qualifies when each of its edges lies inside the union of the
    others and no proper nonempty subset of F does the same.  Exhaustive
    over all 2^m subsets, so meant for the small files of the CLI workload.
    """
    sets = [frozenset(e) for e in edges]
    m = len(sets)

    def covered(mask: int) -> bool:
        members = [i for i in range(m) if mask >> i & 1]
        for i in members:
            others = frozenset().union(*(sets[j] for j in members if j != i))
            if not sets[i] <= others:
                return False
        return True

    covering = [mask for mask in range(1, 1 << m) if covered(mask)]
    minimal = [
        mask
        for mask in covering
        if not any(other != mask and other & mask == other for other in covering)
    ]
    minimal.sort(key=lambda mask: (bin(mask).count("1"), mask))
    return [tuple(i + 1 for i in range(m) if mask >> i & 1) for mask in minimal]


def rho(edges) -> int:
    """Minimum of |e \\ e'| over ordered pairs of distinct edges."""
    sets = [frozenset(e) for e in edges]
    return min(len(a - b) for i, a in enumerate(sets) for j, b in enumerate(sets) if i != j)


def is_linear(edges) -> bool:
    sets = [frozenset(e) for e in edges]
    return all(len(a & b) <= 1 for i, a in enumerate(sets) for b in sets[i + 1 :])


def threshold_thm1(m: int, rho_value: int) -> float:
    """The paper's k-threshold 2.4(m-1) / (rho ln(m-1)) for P_l = P."""
    return 2.4 * (m - 1) / (rho_value * math.log(m - 1))


def threshold_thm2(m: int) -> float:
    """The linear 3-uniform k-threshold 1.185(m-1) / ln(m-1)."""
    return 1.185 * (m - 1) / math.log(m - 1)
