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
bitmasks, by the one helper that ``alpha`` and ``beta`` use too.  It
skips the terms that are zero: the stream avoids the edges whose lists
share no color, and a member holding a block with no common color
stops the fold for every member that contains it.  The
exact list-color function takes a
third: it groups Whitney's expansion over all edge subsets by partition in
one pass over the edges, with no delta-cycle catalog, and counts whole
batches of assignments, one per orbit of the color renamings, from those
terms with ``_kernels.list_counts``.  The orbits come from one flat table
per (n, k), whose option count is the one option budget it checks.
``_kernels``, and with it numpy, is imported only when the exact
list-color function runs, so loading this module or counting by brute
force loads no numpy.
"""

from __future__ import annotations

import json
import random
import re
from typing import Iterable, Mapping, NamedTuple

from . import budget
from .chromatic import _count_colorings
from .cycles import DeltaCycleCatalog, _require_own_catalog, nb_subsets
from .errors import InputError, parse_json, require_int, require_ints
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
_FULL = (1 << _WORD) - 1
_VERTEX_KEY = re.compile(r"[1-9][0-9]*")  # canonical decimal of a vertex >= 1


class ListAssignment:
    """A k-assignment: every vertex 1..n owns a sorted list of k colors.

    Colors are positive ints, not bools; lists are stored sorted and
    deduplicated, and must all have exactly k entries.
    """

    __slots__ = ("k", "lists")

    def __init__(self, k: int, lists: Mapping[int, Iterable[int]]) -> None:
        k = require_int(k, "list size k", 1)
        self.k = k
        clean: dict[int, tuple[int, ...]] = {}
        for v, colors in lists.items():
            v = require_int(v, "list vertex", 1)
            try:
                cs = tuple(sorted(set(require_ints(colors, "colors"))))
            except (TypeError, InputError) as exc:  # not iterable, or a non-int or bool color
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
        payload = parse_json(text, "list assignment JSON")
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


class AlphaProfile(NamedTuple):
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
    of its vertices' color bitmasks, formed once per block.

    Terms that are zero are skipped, not formed: a block with no common
    color makes beta 0 for its member and for every member that contains
    it, whose block there can only grow.  So the stream avoids the edges
    whose own lists share no color (``nb_subsets``' ``avoid``), a member
    with a colorless block stays on the stack marked dead (blocks None),
    and a member on top of a dead entry is skipped without building its
    blocks.  ``catalog`` may only be H's own, ``enumerate_delta_cycles(H)``;
    any other raises InputError.
    """
    _check_match(H, L)
    budget.check_cap("nb_edges", H.m, "broken delta-cycle expansion")
    _require_own_catalog(H, catalog)
    require_valid(H)  # before the edge masks are read
    vmasks = H.edge_vertex_masks()
    color_masks = _color_masks(L)
    common = {emask: _common_count(color_masks, emask) for emask in vmasks}  # block -> count
    members = nb_subsets(H, eta=eta, avoid=[i + 1 for i, e in enumerate(vmasks) if not common[e]])
    powers: dict[int, int] = {}  # isolated vertices -> k to that power, for the counts met
    stack: list[tuple[int, list[int] | None, int]] = [(0, [], 0)]  # nested members, innermost last
    total = 0
    for A in members:
        amask = A.mask
        while stack[-1][0] & ~amask:
            stack.pop()
        mask, blocks, covered = stack[-1]
        if blocks is None:  # A contains a member with a colorless block
            continue
        for i in _set_bits(amask ^ mask):
            blocks = _add_block(blocks, vmasks[i])
            covered |= vmasks[i]
        isolated = H.n - covered.bit_count()
        term = powers.get(isolated)
        if term is None:
            term = powers[isolated] = L.k**isolated
        for block in blocks:
            count = common.get(block)
            if count is None:
                count = common[block] = _common_count(color_masks, block)
            if not count:
                blocks = None
                break
            term *= count
        else:
            total += -term if amask.bit_count() % 2 else term
        stack.append((amask, blocks, covered))
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


def _exact_caps(n: int, k: int) -> None:
    """Refuse where ``list_color_function_exact(H, k)`` refuses before its
    orbit table: the exact_plk cap on n*k and the brute_force cap on k^n.
    The brute_force cap on the table's own option count, the one option
    budget, is checked by ``_assignment_options``, which counts before it
    builds."""
    budget.check_cap("exact_plk", n * k, "exact list-color function")
    if n > 0:
        budget.check_cap("brute_force", k**n, "list-coloring enumeration")


def _class_moves(state: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The lists a vertex may take in ``state``, as (colors, next state), sorted by colors.

    ``state`` gives the sizes of the classes of the used colors in color
    order: a class is a run of consecutive colors that the earlier vertices
    hold alike.  A list takes t_i colors of class i, its lowest ones, plus
    the next k - sum(t_i) fresh colors, and splits class i into the t_i it
    took and the rest; its fresh colors form one more class.
    """
    used = sum(state)
    partial = [((), (), k)]  # per choice for the classes so far: (colors, classes, colors left)
    first = 1
    for size in state:
        grown = []
        for colors, classes, left in partial:
            grown.append((colors, classes + (size,), left))
            for t in range(1, min(size, left) + 1):
                split = (t, size - t) if t < size else (size,)
                grown.append((colors + tuple(range(first, first + t)), classes + split, left - t))
        partial = grown
        first += size
    return sorted(
        (colors + tuple(range(used + 1, used + left + 1)), classes + (left,) if left else classes)
        for colors, classes, left in partial
    )


def _orbit_states(n: int, k: int, cap: int) -> tuple[int, list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """The states of the first n vertices' walk, breadth first, and its option total.

    Returns (total, states, ids): ``states`` those met by the first n - 1
    vertices, whose options the walk reads, and ``ids`` every state met,
    the last vertex's included, numbered in the order met, so states[i]
    has number i.  The count stops at the first state that takes the
    total past ``cap``, so no more than a cap's worth of work is spent on
    a table that will be refused, and such a total is a lower bound.
    """
    ids = {(): 0}
    level = [()]
    total = 0
    for _ in range(n):
        reached = []
        for state in level:
            moves = _class_moves(state, k)
            total += len(moves)
            if total > cap:
                return total, [], ids
            for _colors, nxt in moves:
                if nxt not in ids:
                    ids[nxt] = len(ids)
                    reached.append(nxt)
        level = reached
    return total, list(ids)[: len(ids) - len(level)], ids


_TABLES = 8  # option tables kept, one per (n, k), the least recently used dropped first
_tables: dict = {}  # (n, k) -> (first, value, after), read-only int64 arrays


def _assignment_options(n: int, k: int):
    """The orbit walk's option table for n vertices at list size k, in flat form.

    P(H, L) only depends on L through which vertices share which colors,
    so colors may be renamed freely, and the search needs one assignment
    per orbit of the renamings: the lexicographically least, with vertex 1
    holding {1..k}.  After some vertices, the renamings that fix their
    lists permute each class of colors that those vertices hold alike, so
    the least assignment gives the next vertex the least list of its class
    pattern: the lowest t_i colors of each class and a block of fresh ones
    (``_class_moves``).  A state is the sizes of the classes, in color
    order, and each state's options come in lexicographic order of their
    lists, so ``_kernels._orbit_rows`` yields exactly the least member of
    every orbit, once each, in lexicographic order; the walk starts from
    the constant assignment {1..k}^n.

    Returns (first, value, after), int64 arrays: state s owns options
    first[s] to first[s + 1] - 1 (one entry more than the states that have
    options), value[i] is option i's list as mask words, color c at bit
    (c - 1) % 63 of word (c - 1) // 63, so every word fits in int64, and
    after[i] is the state it hands on.  A table of T options in W words per
    list so holds 8 * ((W + 1) * T + states + 1) bytes.

    The table depends only on (n, k), and the last ``_TABLES`` used are
    kept, read-only, since every caller shares them.  Its option count is
    exact P_l's one option budget: every call checks the brute_force cap on
    it first, a kept table's included, and a new table is counted, with no
    list built, before it is built, so a refusal reports the count at which
    it passed the cap, a lower bound on the total.
    """
    what = "exact list-color orbit table"
    kept = _tables.get((n, k))
    if kept is not None:
        budget.check_cap("brute_force", len(kept[2]), what)
        del _tables[n, k]
    else:
        total, states, ids = _orbit_states(n, k, budget.get_cap("brute_force"))
        budget.check_cap("brute_force", total, f"{what}, counted until it passed the cap,")
        from ._kernels import np

        bit = [0, *(1 << c for c in range(n * k))].__getitem__  # color c -> bit c - 1
        shifts = range(0, n * k, _WORD)
        first, value, after = [0], [], []
        for state in states:
            for colors, nxt in _class_moves(state, k):
                mask = sum(map(bit, colors))  # distinct colors, so the sum is the OR
                value += [mask >> s & _FULL for s in shifts]
                after.append(ids[nxt])
            first.append(len(after))
        value = np.array(value, dtype=np.int64).reshape(total, len(shifts))
        kept = np.array(first, dtype=np.int64), value, np.array(after, dtype=np.int64)
        for array in kept:
            array.flags.writeable = False
        if len(_tables) >= _TABLES:
            del _tables[next(iter(_tables))]
    _tables[n, k] = kept  # most recently used last
    return kept


def _mask_colors(row) -> list[int]:
    """The colors of one vertex's mask words, as ``_assignment_options`` sets them."""
    return [w * _WORD + b + 1 for w, word in enumerate(row) for b in _set_bits(word)]


def list_color_function_exact(H: Hypergraph, k: int) -> tuple[int, ListAssignment]:
    """P_l(H, k) with a minimizing assignment, by exhausting assignments.

    Scans one assignment per orbit of the color renamings, its
    lexicographically least member, in lexicographic order
    (``_assignment_options``), so the search space is finite even though
    color names are not.  Each table of at most
    max(``_kernels._ROWS``, longest option list) assignments is counted by
    ``_kernels.list_counts`` from the partition terms of H, formed once.
    Ties break to the first assignment in scan order, which is also the
    first minimum among all assignments by first appearance (vertex 1
    pinned to {1..k}, fresh colors consecutive), since every member of an
    orbit has the same count; the constant assignment is scanned first, so
    a constant witness is reported whenever one attains the minimum.  At
    k = 1 the constant assignment colors every edge alike, so it attains
    the minimum (0, or 1 with no edges), and the answer is returned without
    the terms, whose states can number Bell(n) there (n <= 12 at the
    default caps).  Guarded by the exact_plk cap on n*k and the brute_force
    cap on k^n, which keeps every P(H, L) below 2^63 (``_exact_caps``), and
    by the brute_force cap on the orbit table's option count, the one option
    budget: the table is fetched, and so counted before it is built, ahead
    of the partition terms and any row (``_assignment_options``).
    """
    k = require_int(k, "k", 1)
    n = H.n
    _exact_caps(n, k)
    require_valid(H)
    if n == 0 or k == 1:
        return (0 if H.m else 1), ListAssignment.from_constant(n, k)
    from . import _kernels

    table = _assignment_options(n, k)
    terms = _partition_terms(H, k)
    best, best_row = -1, None
    for batch, _ in _kernels._orbit_rows(n, table, _kernels._ROWS):
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
    iterations = require_int(iterations, "iterations", 0)
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
