"""Seeded inputs for the benchmark workloads, in the paper's regime.

Everything here is plain Python: an instance is ``(n, edges)`` with edges
as sorted vertex tuples over 1..n, and a list assignment is
``{vertex: tuple_of_k_colors}``.  Nothing is imported from ``hyperchrom``,
so the program under test receives only the generated data.

The instances are r-uniform with a cap ``t`` on the overlap of any two
edges.  ``t = 1`` makes them linear; ``t = r - 2`` is exactly rho >= 2
(no two edges share r - 1 vertices).  They are built greedily: the
r-subsets of 1..n are shuffled and each is kept when it overlaps every
kept edge in at most ``t`` vertices.  Rejection sampling of whole edge
sets, as the program's own samplers do, almost never succeeds at these
densities.
"""

from __future__ import annotations

import random
from itertools import combinations

__all__ = [
    "greedy_uniform",
    "random_lists",
    "constant_lists",
    "components",
]


def greedy_uniform(
    n: int, m: int, r: int, max_overlap: int, rng: random.Random, tries: int = 200
) -> list[tuple[int, ...]]:
    """m distinct r-subsets of 1..n, pairwise overlapping in <= max_overlap.

    The edge list is returned in the order the greedy pass kept them, so
    the default edge labelling differs from sorted order.
    """
    pool = list(combinations(range(1, n + 1), r))
    for _ in range(tries):
        rng.shuffle(pool)
        kept: list[tuple[int, ...]] = []
        kept_sets: list[frozenset] = []
        for cand in pool:
            cs = frozenset(cand)
            if all(len(cs & other) <= max_overlap for other in kept_sets):
                kept.append(cand)
                kept_sets.append(cs)
                if len(kept) == m:
                    return kept
    raise ValueError(
        f"no {r}-uniform instance with n={n}, m={m}, overlap <= {max_overlap}"
        f" after {tries} greedy passes"
    )


def random_lists(n: int, k: int, universe: int, rng: random.Random) -> dict:
    """A random k-assignment: each vertex draws k colors from 1..universe."""
    return {v: tuple(sorted(rng.sample(range(1, universe + 1), k))) for v in range(1, n + 1)}


def constant_lists(n: int, k: int) -> dict:
    """Every vertex gets {1..k}; P(H, L) is then P(H, k)."""
    return {v: tuple(range(1, k + 1)) for v in range(1, n + 1)}


def components(n: int, edges) -> int:
    """Connected components of (1..n, edges), isolated vertices included."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for edge in edges:
        a = find(edge[0])
        for v in edge[1:]:
            b = find(v)
            if a != b:
                parent[b] = a
                count -= 1
    return count
