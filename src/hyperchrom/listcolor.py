"""List colorings: assignments, counts, and the list-color function.

An assignment L gives every vertex a list of exactly k allowed colors.
P(H, L) counts the colorings that pick each vertex's color from its list
with no edge monochromatic.  The list-color function P_l(H, k) is the
minimum of P(H, L) over all k-assignments L.

Two independent routes to P(H, L) live here.  The brute-force route
enumerates colorings directly (kernel-backed).  The expansion route sums
(-1)^|A| * beta(A, L) over the broken-free subsets A, where beta(A, L)
multiplies, over the components of (V, A), the number of colors common
to all lists of the component.  The routes share no counting code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from . import _kernels, budget
from .cycles import DeltaCycleCatalog, nb_subsets
from .errors import InputError
from .hypercore import EdgeSubset, Hypergraph, _set_bits, _subset_blocks, require_valid

__all__ = [
    "ListAssignment",
    "AlphaProfile",
    "alpha",
    "beta",
    "count_L_colorings",
    "count_L_colorings_expansion",
    "list_color_function_exact",
    "list_color_function_search",
]

_BATCH = 4096  # assignments per kernel call in list_color_function_exact


class ListAssignment:
    """A k-assignment: every vertex 1..n owns a sorted list of k colors.

    Colors are positive ints; lists are stored sorted and deduplicated,
    and must all have exactly k entries.
    """

    __slots__ = ("k", "lists")

    def __init__(self, k: int, lists: Mapping[int, Iterable[int]]) -> None:
        try:
            k = int(k)
        except (TypeError, ValueError) as exc:
            raise InputError(f"list size k must be an integer, got {k!r}") from exc
        if k < 1:
            raise InputError(f"list size k must be >= 1, got {k}")
        self.k = k
        clean: dict[int, tuple[int, ...]] = {}
        for v, colors in lists.items():
            v = int(v)
            try:
                cs = tuple(sorted(set(int(c) for c in colors)))
            except (TypeError, ValueError) as exc:
                raise InputError(f"vertex {v} has a non-integer color") from exc
            if len(cs) != k:
                raise InputError(
                    f"vertex {v} has {len(cs)} distinct colors, expected {k}"
                )
            if cs and cs[0] < 1:
                raise InputError(f"vertex {v} has non-positive color {cs[0]}")
            clean[v] = cs
        n = len(clean)
        if sorted(clean) != list(range(1, n + 1)):
            raise InputError("list assignment must cover vertices 1..n exactly")
        self.lists = clean

    @property
    def n(self) -> int:
        return len(self.lists)

    @classmethod
    def from_constant(cls, n: int, k: int) -> ListAssignment:
        """The assignment giving every vertex the list {1, ..., k}."""
        colors = tuple(range(1, k + 1))
        return cls(k, {v: colors for v in range(1, n + 1)})

    def universe(self) -> tuple[int, ...]:
        """Sorted union of all lists."""
        seen: set[int] = set()
        for cs in self.lists.values():
            seen.update(cs)
        return tuple(sorted(seen))

    def is_constant(self) -> bool:
        """True when every vertex holds the same list {1, ..., k}."""
        ident = tuple(range(1, self.k + 1))
        return all(cs == ident for cs in self.lists.values())

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "lists": {str(v): list(cs) for v, cs in sorted(self.lists.items())},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> ListAssignment:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "k" not in payload or "lists" not in payload:
            raise InputError('list assignment JSON needs "k" and "lists" keys')
        raw = payload["lists"]
        if not isinstance(raw, dict):
            raise InputError('"lists" must map vertices to color arrays')
        try:
            lists = {int(v): cs for v, cs in raw.items()}
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad vertex key in lists: {exc}") from exc
        return cls(payload["k"], lists)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ListAssignment):
            return self.k == other.k and self.lists == other.lists
        return NotImplemented

    def __repr__(self) -> str:
        return f"ListAssignment(k={self.k}, n={self.n})"


@dataclass(frozen=True)
class AlphaProfile:
    """Per-edge list disagreement alpha(e, L) = k - |common colors of e|."""

    per_edge: tuple[int, ...]
    total: int

    @property
    def is_zero(self) -> bool:
        return self.total == 0


def _check_match(H: Hypergraph, L: ListAssignment) -> None:
    if L.n != H.n:
        raise InputError(f"assignment covers {L.n} vertices, hypergraph has {H.n}")


def alpha(H: Hypergraph, L: ListAssignment) -> AlphaProfile:
    """Per-edge and total list disagreement of L on H."""
    _check_match(H, L)
    require_valid(H)
    per_edge = []
    for edge in H.edges:
        common = set(L.lists[edge[0]])
        for v in edge[1:]:
            common &= set(L.lists[v])
        per_edge.append(L.k - len(common))
    return AlphaProfile(tuple(per_edge), sum(per_edge))


def beta(H: Hypergraph, L: ListAssignment, A: EdgeSubset | Iterable[int]) -> int:
    """Product, over components of (V, A), of the common-color count.

    An isolated vertex contributes its full list size k; beta of the
    empty subset is k^n.
    """
    _check_match(H, L)
    blocks, covered = _subset_blocks(H, A)
    prod = 1
    for block in blocks:
        vertices = _set_bits(block)
        common = set(L.lists[next(vertices) + 1])
        for v in vertices:
            common.intersection_update(L.lists[v + 1])
        prod *= len(common)
    return prod * L.k ** (H.n - covered.bit_count())


def count_L_colorings(H: Hypergraph, L: ListAssignment) -> int:
    """P(H, L) by direct enumeration of all list colorings."""
    _check_match(H, L)
    if H.n > 0:
        budget.check_cap("brute_force", L.k**H.n, "list-coloring enumeration")
    values = np.array([L.lists[v] for v in range(1, H.n + 1)], dtype=np.int64)
    require_valid(H)
    return int(_kernels.coloring_counts(H, L.k, values.reshape(1, H.n, L.k))[0])


def count_L_colorings_expansion(
    H: Hypergraph,
    L: ListAssignment,
    eta=None,
    catalog: DeltaCycleCatalog | None = None,
) -> int:
    """P(H, L) by the signed expansion over broken-free edge subsets.

    Pure Python on exact ints, sharing no code with the brute-force
    count; the two are checked against each other in the tests.
    """
    _check_match(H, L)
    budget.check_cap("nb_edges", H.m, "broken delta-cycle expansion")
    total = 0
    for A in nb_subsets(H, eta=eta, catalog=catalog):
        term = beta(H, L, A)
        total += -term if A.size % 2 else term
    return total


def _assignment_options(n: int, k: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per count of colors used so far, the lists a vertex may take next.

    P(H, L) only depends on L through which lists share which colors, so
    colors may be renamed freely.  Renaming by first appearance turns any
    assignment into one where vertex 1 holds {1..k} and each later vertex
    picks its colors from those already used plus a consecutive block of
    fresh ones.  Every assignment has at least one such form, and every
    such form is a valid assignment, which is all a minimization needs.
    options[used] lists, in lexicographic order, (k-subset, colors used
    after it) for ``_kernels._orbit_rows``, whose walk then starts from the
    constant assignment {1..k}^n.
    """
    options = []
    for used in range((n - 1) * k + 1):
        subsets = combinations(range(1, used + k + 1), k)
        options.append([(s, max(used, s[-1])) for s in subsets if s[-1] - used <= sum(a > used for a in s)])
    return options


def list_color_function_exact(H: Hypergraph, k: int) -> tuple[int, ListAssignment]:
    """P_l(H, k) with a minimizing assignment, by exhausting assignments.

    Scans one representative per color-renaming class (vertex 1 pinned
    to {1..k}, fresh colors consecutive), so the search space is finite
    even though color names are not.  Ties break to the first
    representative in scan order; the constant assignment is scanned
    first, so a constant witness is reported whenever one attains the
    minimum.  Guarded by the exact_plk cap on n*k and the brute_force
    cap on the per-assignment k^n count.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    n = H.n
    budget.check_cap("exact_plk", n * k, "exact list-color function")
    if n > 0:
        budget.check_cap("brute_force", k**n, "list-coloring enumeration")
    require_valid(H)
    if n == 0:
        return 1, ListAssignment.from_constant(0, k)
    best, best_lists = -1, None
    for batch, _ in _kernels._orbit_rows(n, _assignment_options(n, k), _BATCH):
        counts = _kernels.coloring_counts(H, k, batch)
        idx = int(np.argmin(counts))  # the first minimum
        if best < 0 or counts[idx] < best:
            best, best_lists = int(counts[idx]), batch[idx].tolist()
        if best == 0:
            break
    assert best_lists is not None
    witness = ListAssignment(k, {v + 1: best_lists[v] for v in range(n)})
    return best, witness


def list_color_function_search(
    H: Hypergraph, k: int, iterations: int = 400, seed: int = 0
) -> tuple[int, ListAssignment]:
    """Heuristic upper bound on P_l(H, k) by seeded local search.

    Colors live in a universe of size 2k, which is enough to realize any
    intersection pattern on a single edge.  Starting from the constant
    assignment, each step swaps one color of one vertex's list and keeps
    the move when the count does not increase.  Deterministic for a
    fixed seed; returns the best count found and its assignment.

    The search can stay at P(H, k): when every single swap from the
    constant assignment raises the count, it never moves.  On K_{2,4} at
    k = 2 it reports 2 with the constant witness, while
    ``list_color_function_exact`` finds 0.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if iterations < 0:
        raise InputError(f"iterations must be >= 0, got {iterations}")
    n = H.n
    if n > 0:
        budget.check_cap("brute_force", k**n, "list-coloring enumeration")
    current = ListAssignment.from_constant(n, k)
    if n == 0:
        return 1, current
    rng = random.Random(seed)
    universe = list(range(1, 2 * k + 1))
    cur_val = count_L_colorings(H, current)
    best_val, best = cur_val, current
    for _ in range(iterations):
        if best_val == 0:
            break
        v = rng.randrange(1, n + 1)
        old = current.lists[v]
        out = rng.choice(old)
        pool = [c for c in universe if c not in old]
        new_list = tuple(sorted(set(old) - {out} | {rng.choice(pool)}))
        cand = ListAssignment(
            k, {**{u: cs for u, cs in current.lists.items()}, v: new_list}
        )
        cand_val = count_L_colorings(H, cand)
        if cand_val <= cur_val:
            current, cur_val = cand, cand_val
            if cand_val < best_val:
                best_val, best = cand_val, cand
    return best_val, best
