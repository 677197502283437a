"""List colorings: assignments, counts, and the list-color function.

An assignment L gives every vertex a list of exactly k allowed colors.
P(H, L) counts the colorings that pick each vertex's color from its list
with no edge monochromatic.  The list-color function P_l(H, k) is the
minimum of P(H, L) over all k-assignments L.

Three routes to P(H, L) live here, and they share no counting code.  The
brute-force route enumerates colorings directly (``count_L_colorings``,
through ``chromatic._count_colorings``, the bit-sliced kernel that counts
proper colorings too; the lists' colors key its masks, so they matter
only by equality).  The expansion route sums
(-1)^|A| * beta(A, L) over the broken-free subsets A, where beta(A, L)
multiplies, over the components of (V, A), the number of colors common
to all lists of the component.  It streams the members from
``nb_subsets`` and builds each member's components from those of the
nearest earlier member it contains, one added edge in the walk's order.
Common colors are counted as the popcount of an AND of per-vertex color
bitmasks, by the one helper that ``alpha`` and ``beta`` use too.  The
exact list-color function takes a
third: it groups Whitney's expansion over all edge subsets by partition in
one pass over the edges, with no delta-cycle catalog, and counts whole
batches of assignments from those terms with ``_kernels.list_counts``.
``_kernels``, and with it numpy, is imported only when the exact
list-color function runs, so loading this module or counting by brute
force loads no numpy.
"""

from __future__ import annotations

import json
import operator
import random
import re
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Mapping

from . import budget
from .chromatic import _count_colorings
from .cycles import DeltaCycleCatalog, _require_own_catalog, nb_subsets
from .errors import InputError, require_int
from .hypercore import EdgeSubset, Hypergraph, _add_block, _set_bits, _subset_blocks, require_valid

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

_WORD = 63  # colors per int64 word of an exact search row; the sign bit stays clear
_VERTEX_KEY = re.compile(r"[1-9][0-9]*")  # canonical decimal of a vertex >= 1


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key that appears twice."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"repeated key {key!r} in list assignment JSON")
        obj[key] = value
    return obj


class ListAssignment:
    """A k-assignment: every vertex 1..n owns a sorted list of k colors.

    Colors are positive ints; lists are stored sorted and deduplicated,
    and must all have exactly k entries.
    """

    __slots__ = ("k", "lists")

    def __init__(self, k: int, lists: Mapping[int, Iterable[int]]) -> None:
        k = require_int(k, "list size k", 1)
        self.k = k
        clean: dict[int, tuple[int, ...]] = {}
        for v, colors in lists.items():
            v = require_int(v, "list vertex", 1)
            try:
                cs = tuple(sorted(set(map(operator.index, colors))))
            except TypeError as exc:
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
        """Parse ``to_json``'s form.  A vertex key must be the canonical decimal
        of a vertex >= 1 ("1", not "01", " 1", "+1" or "1_0"), and no key may
        repeat in any object, so no two keys can name one vertex."""
        try:
            payload = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "k" not in payload or "lists" not in payload:
            raise InputError('list assignment JSON needs "k" and "lists" keys')
        raw = payload["lists"]
        if not isinstance(raw, dict):
            raise InputError('"lists" must map vertices to color arrays')
        for v in raw:
            if not _VERTEX_KEY.fullmatch(v):
                raise InputError(f"bad vertex key in lists: {v!r} is not a vertex >= 1")
        try:
            lists = {int(v): cs for v, cs in raw.items()}
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"bad vertex key in lists: {exc}") from exc
        colors = [c for cs in raw.values() if isinstance(cs, list) for c in cs]
        if any(isinstance(x, bool) for x in [payload["k"], *colors]):
            raise InputError("list assignment JSON needs integers, not booleans")
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


def _color_masks(L: ListAssignment) -> list[int]:
    """Per vertex (0-based), its list as a bitmask over the ranks of ``L.universe()``."""
    bit = {c: 1 << i for i, c in enumerate(L.universe())}  # colors matter only by equality
    masks = []
    for v in range(1, L.n + 1):
        mask = 0
        for c in L.lists[v]:
            mask |= bit[c]
        masks.append(mask)
    return masks


def _common_count(color_masks: list[int], block: int) -> int:
    """The number of colors common to the lists of the vertices in ``block``,
    a nonempty vertex bitmask, from ``_color_masks``."""
    vertices = _set_bits(block)
    common = color_masks[next(vertices)]
    for v in vertices:
        common &= color_masks[v]
    return common.bit_count()


def alpha(H: Hypergraph, L: ListAssignment) -> AlphaProfile:
    """Per-edge and total list disagreement of L on H."""
    _check_match(H, L)
    require_valid(H)
    color_masks = _color_masks(L)
    per_edge = [L.k - _common_count(color_masks, emask) for emask in H.edge_vertex_masks()]
    return AlphaProfile(tuple(per_edge), sum(per_edge))


def beta(H: Hypergraph, L: ListAssignment, A: EdgeSubset | Iterable[int]) -> int:
    """Product, over components of (V, A), of the common-color count.

    An isolated vertex contributes its full list size k; beta of the
    empty subset is k^n.
    """
    _check_match(H, L)
    blocks, covered = _subset_blocks(H, A)
    color_masks = _color_masks(L)
    prod = 1
    for block in blocks:
        prod *= _common_count(color_masks, block)
    return prod * L.k ** (H.n - covered.bit_count())


def count_L_colorings(H: Hypergraph, L: ListAssignment) -> int:
    """P(H, L) by direct enumeration of all list colorings."""
    _check_match(H, L)
    if H.n > 0:
        budget.check_cap("brute_force", L.k**H.n, "list-coloring enumeration")
    require_valid(H)
    return _count_colorings(H, [L.lists[v] for v in range(1, H.n + 1)])


def count_L_colorings_expansion(
    H: Hypergraph,
    L: ListAssignment,
    eta=None,
    catalog: DeltaCycleCatalog | None = None,
) -> int:
    """P(H, L) by the signed expansion over broken-free edge subsets.

    Pure Python on exact ints, sharing no code with the brute-force
    count; the two are checked against each other in the tests.  The
    members A stream from ``nb_subsets``, and each term is beta(A, L).
    A member's components are built from the nearest earlier member that
    it contains: a stack holds (mask, blocks, covered) for a chain of
    nested members, and A folds in only the edges its top entry lacks,
    one edge in the walk's preorder, though any stream order gives the
    same sum.  A block's common-color count is the popcount of the AND
    of its vertices' color bitmasks, formed once per block.  ``catalog``
    may only be H's own, ``enumerate_delta_cycles(H)``; any other raises
    InputError.
    """
    _check_match(H, L)
    budget.check_cap("nb_edges", H.m, "broken delta-cycle expansion")
    _require_own_catalog(H, catalog)
    members = nb_subsets(H, eta=eta)  # refuses an invalid H before its masks are read
    vmasks = H.edge_vertex_masks()
    color_masks = _color_masks(L)
    powers = [L.k**i for i in range(H.n + 1)]  # factor k per isolated vertex
    common: dict[int, int] = {}  # block -> its common-color count
    stack: list[tuple[int, list[int], int]] = [(0, [], 0)]  # nested members, innermost last
    total = 0
    for A in members:
        amask = A.mask
        while stack[-1][0] & ~amask:
            stack.pop()
        mask, blocks, covered = stack[-1]
        if amask != mask:
            for i in _set_bits(amask ^ mask):
                blocks = _add_block(blocks, vmasks[i])
                covered |= vmasks[i]
            stack.append((amask, blocks, covered))
        term = powers[H.n - covered.bit_count()]
        for block in blocks:
            count = common.get(block)
            if count is None:
                count = common[block] = _common_count(color_masks, block)
            term *= count
        total += -term if amask.bit_count() % 2 else term
    return total


def _partition_terms(H: Hypergraph, k: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Whitney's expansion of P(H, L) for k-assignments, grouped by partition.

    P(H, L) sums (-1)^|A| * beta(A, L) over all edge subsets A, and beta
    depends on A only through the components of (V, A) that hold an edge.
    One pass over the edges keeps {those blocks: signed count}: each edge
    either leaves a state as it is or fuses the blocks it meets, with a
    minus sign, and a state whose count cancels to zero is dropped.  So at
    most Bell(n) states live, and no more than NB(H) has partitions, since
    the broken-free subsets carry each partition's whole count (Dohmen).
    Returns (weight, blocks) per partition left: blocks as tuples of 0-based
    vertices, weight its count times k per isolated vertex, for
    ``_kernels.list_counts``.
    """
    require_valid(H)
    states: dict[tuple[int, ...], int] = {(): 1}
    for emask in H.edge_vertex_masks():
        grown = dict(states)
        for blocks, count in states.items():
            fused = tuple(sorted(_add_block(blocks, emask)))
            grown[fused] = grown.get(fused, 0) - count
        states = {blocks: count for blocks, count in grown.items() if count}
    return [
        (count * k ** (H.n - sum(b.bit_count() for b in blocks)), [tuple(_set_bits(b)) for b in blocks])
        for blocks, count in states.items()
    ]


def _option_total(n: int, k: int) -> int:
    """How many lists ``_assignment_options(n, k)`` builds: a list takes f
    fresh colors and k - f used ones, so options[used] holds the sum over f
    of C(used, k - f)."""
    return sum(comb(used, k - f) for used in range((n - 1) * k + 1) for f in range(k + 1))


def _exact_caps(n: int, k: int) -> None:
    """Refuse where ``list_color_function_exact(H, k)`` refuses, before any of
    its work: the exact_plk cap on n*k, the brute_force cap on k^n and,
    where the search runs, on its option lists."""
    budget.check_cap("exact_plk", n * k, "exact list-color function")
    if n > 0:
        budget.check_cap("brute_force", k**n, "list-coloring enumeration")
    if n > 0 and k > 1:
        budget.check_cap("brute_force", _option_total(n, k), "exact list-color option lists")


def _assignment_options(n: int, k: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per count of colors used so far, the lists a vertex may take next.

    P(H, L) only depends on L through which lists share which colors, so
    colors may be renamed freely.  Renaming by first appearance turns any
    assignment into one where vertex 1 holds {1..k} and each later vertex
    picks its colors from those already used plus a consecutive block of
    fresh ones.  Every assignment has at least one such form, and every
    such form is a valid assignment, which is all a minimization needs.
    options[used] lists, in lexicographic order of the k-subsets, (the
    subset as mask words, colors used after it) for ``_kernels._orbit_rows``,
    whose walk then starts from the constant assignment {1..k}^n.  Color c
    is bit (c - 1) % 63 of word (c - 1) // 63, so every word fits in int64.
    Their total, ``_option_total``, is checked against the brute_force cap
    before any list is built.
    """
    budget.check_cap("brute_force", _option_total(n, k), "exact list-color option lists")
    words = -(-n * k // _WORD)
    options = []
    for used in range((n - 1) * k + 1):
        opts = []
        for s in combinations(range(1, used + k + 1), k):
            if s[-1] - used <= sum(a > used for a in s):
                row = [0] * words
                for c in s:
                    row[(c - 1) // _WORD] |= 1 << (c - 1) % _WORD
                opts.append((tuple(row), max(used, s[-1])))
        options.append(opts)
    return options


def _mask_colors(row) -> list[int]:
    """The colors of one vertex's mask words, as ``_assignment_options`` sets them."""
    return [w * _WORD + b + 1 for w, word in enumerate(row) for b in _set_bits(word)]


def list_color_function_exact(H: Hypergraph, k: int) -> tuple[int, ListAssignment]:
    """P_l(H, k) with a minimizing assignment, by exhausting assignments.

    Scans one representative per color-renaming class (vertex 1 pinned
    to {1..k}, fresh colors consecutive), so the search space is finite
    even though color names are not.  Each table of at most
    max(``_kernels._ROWS``, longest option list) assignments is counted by
    ``_kernels.list_counts`` from the partition terms of H, formed once.
    Ties break to the first representative in scan order; the constant
    assignment is scanned first, so a constant witness is reported whenever
    one attains the minimum.  At k = 1 the constant assignment colors every
    edge alike, so it attains the minimum (0, or 1 with no edges), and the
    answer is returned without the terms, whose states can number Bell(n)
    there (n <= 12 at the default caps).  Guarded by the exact_plk cap on
    n*k and the brute_force cap on k^n, which keeps every P(H, L) below 2^63.
    """
    k = require_int(k, "k", 1)
    n = H.n
    _exact_caps(n, k)
    require_valid(H)
    if n == 0 or k == 1:
        return (0 if H.m else 1), ListAssignment.from_constant(n, k)
    from . import _kernels

    terms = _partition_terms(H, k)
    best, best_row = -1, None
    for batch, _ in _kernels._orbit_rows(n, _assignment_options(n, k), _kernels._ROWS):
        counts = _kernels.list_counts(batch.transpose(1, 2, 0), terms)
        idx = int(counts.argmin())  # the first minimum
        if best < 0 or counts[idx] < best:
            best, best_row = int(counts[idx]), batch[idx].tolist()
        if best == 0:
            break
    assert best_row is not None
    witness = ListAssignment(k, {v + 1: _mask_colors(best_row[v]) for v in range(n)})
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
    k = require_int(k, "k", 1)
    if iterations < 0:
        raise InputError(f"iterations must be >= 0, got {iterations}")
    n = H.n
    if n > 0:
        budget.check_cap("brute_force", k**n, "list-coloring enumeration")
    require_valid(H)
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
