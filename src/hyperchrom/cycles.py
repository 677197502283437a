"""Delta-cycle detection, broken delta-cycles, and NB(H) enumeration.

A delta-cycle is a minimal nonempty edge set F in which every edge is covered
by the vertices of the remaining edges: ``e <= V(F \\ {e})`` for every e in F.
No set with fewer than 3 edges can qualify (a 2-edge set would need one edge
inside the other, which the hypergraph invariants forbid).

Fixing an edge labelling eta, each delta-cycle C yields one broken
delta-cycle: C minus its eta-minimal edge.  NB(H) is the family of edge
subsets containing no broken delta-cycle; it is downward closed, which the
depth-first enumeration exploits: extending only broken-free subsets visits
exactly NB(H) and never leaves it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import budget
from .errors import InputError
from .hypercore import EdgeSubset, Hypergraph, require_valid

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
    eta = tuple(int(x) for x in eta)
    if sorted(eta) != list(range(1, H.m + 1)):
        raise InputError(f"eta must be a permutation of 1..{H.m}, got {list(eta)}")
    return eta


def _condition_a(vmasks: Sequence[int], members: Sequence[int]) -> bool:
    # e <= V(F \ {e}) for every member edge e, via prefix/suffix vertex unions
    s = len(members)
    if s < 3:
        return False
    prefix = [0] * (s + 1)
    for i, j in enumerate(members):
        prefix[i + 1] = prefix[i] | vmasks[j]
    suffix = [0] * (s + 1)
    for i in range(s - 1, -1, -1):
        suffix[i] = suffix[i + 1] | vmasks[members[i]]
    for i, j in enumerate(members):
        others = prefix[i] | suffix[i + 1]
        if vmasks[j] & ~others:
            return False
    return True


def is_delta_cycle(H: Hypergraph, F: EdgeSubset) -> bool:
    """True iff F satisfies the covering condition and no proper subset does.

    A proper subset meeting the condition would hold a delta-cycle, so F
    qualifies exactly when the catalog of its own edges is F alone.
    """
    members = [lab - 1 for lab in F.labels]
    if not _condition_a(H.edge_vertex_masks(), members):
        return False
    own = enumerate_delta_cycles(Hypergraph(H.n, [H.edges[j] for j in members]))
    return [cyc.mask for cyc in own.cycles] == [(1 << len(members)) - 1]


class DeltaCycleCatalog:
    """All delta-cycles of a hypergraph.

    Stores the cycles in deterministic order (by size, then by bitmask) and
    derives, per edge labelling, both the one-broken-set-per-cycle list and
    the deduplicated broken family used by the NB enumeration.
    """

    __slots__ = ("H", "cycles", "_broken_cache")

    def __init__(self, H: Hypergraph, cycle_masks: Iterable[int]):
        self.H = H
        masks = sorted(set(cycle_masks), key=lambda mk: (bin(mk).count("1"), mk))
        self.cycles = tuple(EdgeSubset.from_mask(H.m, mk) for mk in masks)
        self._broken_cache: dict = {}

    def __len__(self) -> int:
        return len(self.cycles)

    def broken_per_cycle(self, eta: Sequence[int] | None = None) -> list[EdgeSubset]:
        """One broken set per delta-cycle (duplicates possible), cycle order."""
        return [pair[1] for pair in self._broken(eta)[0]]

    def broken_family(self, eta: Sequence[int] | None = None) -> tuple[EdgeSubset, ...]:
        """Deduplicated broken delta-cycles, sorted by size then bitmask."""
        return self._broken(eta)[1]

    def _broken(self, eta: Sequence[int] | None):
        eta = normalize_eta(self.H, eta)
        if eta not in self._broken_cache:
            per_cycle = []
            for cyc in self.cycles:
                drop = min(cyc.labels, key=lambda lab: eta[lab - 1])
                broken = EdgeSubset.from_mask(self.H.m, cyc.mask & ~(1 << (drop - 1)))
                per_cycle.append((cyc, broken))
            family = sorted(
                {br.mask for _, br in per_cycle},
                key=lambda mk: (bin(mk).count("1"), mk),
            )
            dedup = tuple(EdgeSubset.from_mask(self.H.m, mk) for mk in family)
            self._broken_cache[eta] = (per_cycle, dedup)
        return self._broken_cache[eta]


def enumerate_delta_cycles(H: Hypergraph) -> DeltaCycleCatalog:
    """Find every delta-cycle of H.

    Bottom-up by subset size: a candidate containing an already-found smaller
    delta-cycle is skipped, so the covering condition alone settles the rest
    (minimality holds by construction).  Results are cached on the hypergraph.
    """
    require_valid(H)
    m = H.m
    budget.check_cap("nb_edges", m, "delta-cycle enumeration")
    key = "catalog"
    if key in H._cache:
        return H._cache[key]
    vmasks = H.edge_vertex_masks()
    found: list[int] = []
    for s in range(3, m + 1):
        for combo in combinations(range(m), s):
            mask = 0
            for j in combo:
                mask |= 1 << j
            if any(cm & mask == cm for cm in found):
                continue
            if _condition_a(vmasks, combo):
                found.append(mask)
    catalog = DeltaCycleCatalog(H, found)
    H._cache[key] = catalog
    return catalog


def broken_by_max_edge(broken_masks: Iterable[int], m: int) -> list[list[int]]:
    """Group broken-set masks by their highest edge index (0-based).

    The NB depth-first walk adds edges in increasing index order, so a subset
    can only complete a broken set whose maximum edge is the one just added;
    grouping makes that the only test per step.
    """
    groups: list[list[int]] = [[] for _ in range(m)]
    for mask in broken_masks:
        groups[mask.bit_length() - 1].append(mask)
    return groups


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


def _catalog_for(H: Hypergraph, catalog: DeltaCycleCatalog | None) -> DeltaCycleCatalog:
    """The catalog to use for H: the one given, or H's full cached catalog."""
    if catalog is None:
        return enumerate_delta_cycles(H)
    if catalog.H is not H:
        raise InputError("catalog was built for a different hypergraph")
    return catalog


def _nb_walk(
    catalog: DeltaCycleCatalog, eta: Sequence[int] | None = None, max_size: int | None = None
) -> Iterator[tuple[int, int, int, list[int]]]:
    """Depth-first walk over NB(H) under eta, in preorder.

    Yields ``(mask, size, components, parent)`` per member, the empty subset
    first; children add edges in increasing index order.  A step to A+{j} is
    taken only when no broken set with maximum edge j fits inside it, which
    visits exactly NB(H).  ``parent`` is the live rollback union-find over the
    0-based vertices (union by size, no path compression): following it from
    a vertex to a fixed point gives its component root.  It is valid only
    until the next step.  ``max_size`` stops the descent at that many edges.
    """
    H = catalog.H
    require_valid(H)
    key = ("groups", normalize_eta(H, eta))
    if key not in catalog._broken_cache:
        masks = _inclusion_minimal([b.mask for b in catalog.broken_family(eta)])
        catalog._broken_cache[key] = broken_by_max_edge(masks, H.m)
    edges = [[v - 1 for v in edge] for edge in H.edges]
    limit = H.m if max_size is None else max_size
    return _walk(H.n, edges, catalog._broken_cache[key], limit)


def _walk(n: int, edges: list[list[int]], groups: list[list[int]], limit: int):
    m = len(edges)
    parent = list(range(n))
    weight = [1] * n
    merged: list[int] = []  # roots hung under another root, in merge order
    stack: list[tuple[int, int, int]] = []  # (edge added, len(merged), components)
    mask, size, comps, j = 0, 0, n, 0
    yield mask, size, comps, parent
    while True:
        if j < m and size < limit:
            new_mask = mask | 1 << j
            for bmask in groups[j]:
                if bmask & ~new_mask == 0:
                    break
            else:
                stack.append((j, len(merged), comps))
                vs = edges[j]
                ra = vs[0]
                while parent[ra] != ra:
                    ra = parent[ra]
                for rb in vs[1:]:
                    while parent[rb] != rb:
                        rb = parent[rb]
                    if ra != rb:
                        if weight[ra] < weight[rb]:
                            ra, rb = rb, ra
                        parent[rb] = ra
                        weight[ra] += weight[rb]
                        merged.append(rb)
                        comps -= 1
                mask = new_mask
                size += 1
                yield mask, size, comps, parent
            j += 1
        elif stack:
            j, mark, comps = stack.pop()
            while len(merged) > mark:
                child = merged.pop()
                weight[parent[child]] -= weight[child]
                parent[child] = child
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
    catalog: DeltaCycleCatalog | None = None,
) -> Iterator[EdgeSubset]:
    """Stream the members of NB(H) under eta, in depth-first order.

    Optional filters restrict the stream to subsets containing the edge with
    label ``must_contain`` and/or to subsets of exactly ``size`` edges.
    Because broken-freeness is hereditary, the walk only ever extends
    broken-free subsets; pruning is exact, not heuristic.
    """
    m = H.m
    if must_contain is not None and not 1 <= must_contain <= m:
        raise InputError(f"must_contain label {must_contain} outside 1..{m}")
    want = 0 if must_contain is None else 1 << (must_contain - 1)
    walk = _nb_walk(_catalog_for(H, catalog), eta, max_size=size)
    return (
        EdgeSubset.from_mask(m, mask)
        for mask, count, _comps, _parent in walk
        if mask & want == want and (size is None or count == size)
    )
