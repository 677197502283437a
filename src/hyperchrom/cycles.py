"""Delta-cycle detection, broken delta-cycles, and NB(H) enumeration.

A delta-cycle is a minimal nonempty edge set F in which every edge is covered
by the vertices of the remaining edges: ``e <= V(F \\ {e})`` for every e in F.
No set with fewer than 3 edges can qualify (a 2-edge set would need one edge
inside the other, which the hypergraph invariants forbid).

The condition holds exactly when every vertex of V(F) lies in at least two
edges of F, so the catalog comes from a covering search: grow a set from its
lowest edge, always adding an edge that holds a vertex covered only once,
until no such vertex is left.

Fixing an edge labelling eta, each delta-cycle C yields one broken
delta-cycle: C minus its eta-minimal edge, derived as a bitmask by
``_broken_masks`` for every consumer.  NB(H) is the family of edge
subsets containing no broken delta-cycle; it is downward closed, which the
depth-first enumeration exploits: extending only broken-free subsets visits
exactly NB(H) and never leaves it.  Each inclusion-minimal broken set is
filed under its second-highest edge: all its other edges lie at or below
that edge, so when the walk adds it, the set either fits and its top edge
joins a "blocked" mask carried down the branch, or it never will.  A child
edge in the blocked mask is skipped; edges a consumer wants no member to
hold start out in it.  The walk carries the components of each
member as vertex bitmasks, one per component with an edge; a step builds a
new list of them, so backtracking returns to the list it had kept.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import budget
from .errors import InputError, require_int, require_ints
from .hypercore import EdgeSubset, Hypergraph, _add_block, _edge_indices, require_valid

__all__ = [
    "DeltaCycleCatalog",
    "is_delta_cycle",
    "enumerate_delta_cycles",
    "nb_subsets",
    "normalize_eta",
]


def normalize_eta(H: Hypergraph, eta: Sequence[int] | None) -> tuple[int, ...]:
    """The edge labelling as a tuple: position i (0-based) -> label of edge i+1.

    None means the identity labelling (1, 2, ..., m).
    """
    if eta is None:
        return tuple(range(1, H.m + 1))
    eta = require_ints(eta, "eta labels")
    if sorted(eta) != list(range(1, H.m + 1)):
        raise InputError(f"eta must be a permutation of 1..{H.m}, got {list(eta)}")
    return eta


def is_delta_cycle(H: Hypergraph, F: EdgeSubset) -> bool:
    """True iff F satisfies the covering condition and no proper subset does.

    A proper subset meeting the condition would hold a delta-cycle, so F
    qualifies exactly when the catalog of its own edges is F alone.  That
    catalog is built under the nb_edges cap, so an F with more edges than
    the cap is refused whatever its answer would be, as is a label of F
    outside 1..m.
    """
    own = enumerate_delta_cycles(Hypergraph(H.n, [H.edges[i] for i in _edge_indices(H.m, F)]))
    return [cyc.mask for cyc in own.cycles] == [(1 << F.size) - 1]


def _size_then_mask(mask: int) -> tuple[int, int]:
    return mask.bit_count(), mask


class DeltaCycleCatalog:
    """All delta-cycles of a hypergraph, in deterministic order (by size, then by bitmask).

    A plain value: the broken sets under a labelling come from
    ``_broken_masks``, and the tables built from them are cached on H.
    """

    __slots__ = ("H", "cycles")

    def __init__(self, H: Hypergraph, cycle_masks: Iterable[int]):
        self.H = H
        masks = sorted(set(cycle_masks), key=_size_then_mask)
        self.cycles = tuple(EdgeSubset.from_mask(H.m, mk) for mk in masks)

    def __len__(self) -> int:
        return len(self.cycles)

    def broken_per_cycle(self, eta: Sequence[int] | None = None) -> list[EdgeSubset]:
        """One broken set per delta-cycle (duplicates possible), cycle order."""
        masks = _broken_masks(self, normalize_eta(self.H, eta))
        return [EdgeSubset.from_mask(self.H.m, mk) for mk in masks]

    def broken_family(self, eta: Sequence[int] | None = None) -> tuple[EdgeSubset, ...]:
        """Deduplicated broken delta-cycles, sorted by size then bitmask."""
        masks = sorted(set(_broken_masks(self, normalize_eta(self.H, eta))), key=_size_then_mask)
        return tuple(EdgeSubset.from_mask(self.H.m, mk) for mk in masks)


def _broken_masks(catalog: DeltaCycleCatalog, eta: tuple[int, ...]) -> list[int]:
    """Per cycle, in catalog order, its mask minus its eta-smallest edge; eta normalized."""
    order = [1 << i for i in sorted(range(catalog.H.m), key=eta.__getitem__)]
    return [cyc.mask ^ next(bit for bit in order if cyc.mask & bit) for cyc in catalog.cycles]


def enumerate_delta_cycles(H: Hypergraph) -> DeltaCycleCatalog:
    """Find every delta-cycle of H.

    F meets the covering condition exactly when every vertex of V(F) lies in
    at least two edges of F, so the delta-cycles are the inclusion-minimal
    edge sets with that property.  For each edge i0 a covering search starts
    from {i0} and, while some vertex is covered only once, branches on the
    edges above i0 that contain the vertex with the fewest such edges (the
    minimum-remaining-values rule); each branch bans its earlier siblings, so
    no set is reached twice.  A set with no once-covered vertex is recorded,
    and the inclusion-minimal records are the catalog.  The search keeps its
    own stack, so its depth is not bounded by Python's recursion limit.
    Results are cached on the hypergraph.
    """
    require_valid(H)
    m = H.m
    budget.check_cap("nb_edges", m, "delta-cycle enumeration")
    key = "catalog"
    if key in H._cache:
        return H._cache[key]
    vmasks = H.edge_vertex_masks()
    holders: dict[int, int] = {}  # bit of a vertex in some edge -> mask of the edges holding it
    for j, edge in enumerate(H.edges):
        for v in edge:
            holders[v - 1] = holders.get(v - 1, 0) | 1 << j
    found: list[int] = []
    for i0 in range(m):
        # (edge set, vertices covered once, covered twice or more, open edges)
        stack = [(1 << i0, vmasks[i0], 0, (1 << m) - (2 << i0))]
        while stack:
            mask, once, twice, free = stack.pop()
            if not once:
                found.append(mask)
                continue
            best = 0
            fewest = m + 1
            rest = once
            while rest:
                low = rest & -rest
                options = holders[low.bit_length() - 1] & free
                count = options.bit_count()
                if count < fewest:
                    best, fewest = options, count
                    if not count:
                        break
                rest ^= low
            while best:
                low = best & -best
                edge = vmasks[low.bit_length() - 1]
                free ^= low
                more = twice | once & edge
                stack.append((mask | low, (once | edge) & ~more, more, free))
                best ^= low
    catalog = DeltaCycleCatalog(H, _inclusion_minimal(sorted(found, key=_size_then_mask)))
    H._cache[key] = catalog
    return catalog


def _inclusion_minimal(masks: list[int]) -> list[int]:
    """The masks with no other mask inside them; input sorted by size, distinct.

    A subset contains some broken set exactly when it contains a minimal
    one, so the walk blocks on the minimal sets alone.
    """
    kept: list[int] = []
    for mask in masks:
        if not any(small & mask == small for small in kept):
            kept.append(mask)
    return kept


def _require_own_catalog(H: Hypergraph, catalog: DeltaCycleCatalog | None) -> None:
    """Refuse any catalog but H's own: an NB sum is right only over H's full catalog."""
    if catalog is not None and catalog is not enumerate_delta_cycles(H):
        raise InputError("catalog must be enumerate_delta_cycles(H), the instance's own")


def _nb_walk(
    H: Hypergraph,
    eta: Sequence[int] | None = None,
    max_size: int | None = None,
    need: int = 0,
    avoid: int = 0,
) -> Iterator[tuple[int, int, int, list[int]]]:
    """Depth-first walk over NB(H) under eta, in preorder.

    Yields ``(mask, size, components, blocks)`` per member, the empty subset
    first; children add edges in increasing index order.  A step to A+{j} is
    taken only when no broken set with maximum edge j fits inside it, which
    visits exactly NB(H).  ``blocks`` lists the components that hold an
    edge as vertex bitmasks (vertex v -> bit v-1); the vertices outside
    them are isolated.  Each step builds a new list and leaves the earlier
    ones as they were, so consumers may keep it but must not change it.
    ``max_size`` stops the descent at that many edges.  ``need``, a one-edge
    mask, stops the descent from a subset without that edge once the walk
    has passed it, since no descendant can hold it; the members still
    yielded keep their order.  ``avoid``, an edge mask, starts the blocked
    mask, so no member holds any of its edges: NB(H) is downward closed,
    so the walk yields exactly the members without them, in the same
    order, at no cost per member.  The broken sets come from H's own
    catalog, which refuses an invalid H and one over the nb_edges cap.  Their
    inclusion-minimal members are cached on H per eta, filed by
    second-highest edge: ``index[j]`` holds ``(rest, top)``, the set split
    into its top edge's bit and the rest.  Adding j tests each once, and a
    fit puts ``top`` in the branch's blocked mask.
    """
    catalog = enumerate_delta_cycles(H)
    key = ("nb_groups", normalize_eta(H, eta))
    if key not in H._cache:
        masks = sorted(set(_broken_masks(catalog, key[1])), key=_size_then_mask)
        index: list[list[tuple[int, int]]] = [[] for _ in range(H.m)]
        for bmask in _inclusion_minimal(masks):
            top = 1 << bmask.bit_length() - 1
            rest = bmask ^ top  # a delta-cycle has >= 3 edges, so rest is nonempty
            index[rest.bit_length() - 1].append((rest, top))
        H._cache[key] = index
    limit = H.m if max_size is None else max_size
    return _walk(H.n, H.edge_vertex_masks(), H._cache[key], limit, need, avoid)


def _walk(
    n: int, vmasks: list[int], index: list[list[tuple[int, int]]], limit: int, need: int, avoid: int
):
    m = len(vmasks)
    stop = need.bit_length() if need else m  # past it, only subsets holding need extend
    stack: list[tuple[int, list[int], int, int]] = []  # (edge, blocks, union, blocked) before it
    mask, size, blocks, union, blocked, j = 0, 0, [], 0, avoid, 0
    yield mask, size, n, blocks
    while True:
        if j < m and size < limit and (j < stop or mask & need):
            if not blocked >> j & 1:
                stack.append((j, blocks, union, blocked))
                blocks = _add_block(blocks, vmasks[j])
                union |= vmasks[j]
                mask |= 1 << j
                size += 1
                for rest, top in index[j]:
                    if rest & ~mask == 0:
                        blocked |= top
                yield mask, size, n + len(blocks) - union.bit_count(), blocks
            j += 1
        elif stack:
            j, blocks, union, blocked = stack.pop()
            mask ^= 1 << j
            size -= 1
            j += 1
        else:
            return


def nb_subsets(
    H: Hypergraph,
    eta: Sequence[int] | None = None,
    must_contain: int | None = None,
    size: int | None = None,
    *,
    avoid: Iterable[int] = (),
) -> Iterator[EdgeSubset]:
    """Stream the members of NB(H) under eta, in depth-first order.

    Optional filters restrict the stream to subsets containing the edge with
    label ``must_contain``, to subsets of exactly ``size`` edges, and to
    subsets holding none of the edges labelled in ``avoid``.  Because
    broken-freeness is hereditary, the walk only ever extends broken-free
    subsets; with ``must_contain`` it leaves a branch once it has passed
    that edge without taking it, and the ``avoid`` edges start out blocked,
    so no branch takes them.  Pruning is exact, not heuristic: the stream
    is the full stream filtered, in the same order.  The broken sets come
    from H's own catalog, ``enumerate_delta_cycles(H)``.
    """
    m = H.m
    if must_contain is not None:
        must_contain = require_int(must_contain, "must_contain label")
        if not 1 <= must_contain <= m:
            raise InputError(f"must_contain label {must_contain} outside 1..{m}")
    if size is not None:
        size = require_int(size, "size")
    skip = 0
    for label in require_ints(avoid, "avoid labels"):
        if not 1 <= label <= m:
            raise InputError(f"avoid label {label} outside 1..{m}")
        skip |= 1 << (label - 1)
    want = 0 if must_contain is None else 1 << (must_contain - 1)
    walk = _nb_walk(H, eta, max_size=size, need=want, avoid=skip)
    return (
        EdgeSubset.from_mask(m, mask)
        for mask, count, _comps, _blocks in walk
        if mask & want == want and (size is None or count == size)
    )
