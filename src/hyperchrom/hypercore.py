"""Hypergraph representation, validation, and structural statistics.

Vertices are the integers 1..n.  Edges are vertex sets of size >= 2; the edge
list position defines the default edge labelling (edge at position i carries
label i, 1-based).  A hypergraph here never stores one edge inside another:
containment pairs are reported by :func:`validate`.

Structural statistics:

* ``components(H, A)`` counts connected components of the spanning
  subhypergraph with edge set A; isolated vertices count.  Components are
  kept as vertex bitmasks: adding an edge fuses every block its vertex mask
  meets (``_add_block``).  The NB walk, ``listcolor.beta`` and the list
  expansion build their components with the same helper.
* ``rho(H)`` is the minimum of ``|e \\ e'|`` over ordered pairs of distinct
  edges; for r-uniform H it satisfies 1 <= rho <= r, with rho >= 2 exactly
  when no two edges overlap in r-1 vertices.
* ``gamma(H)`` is the largest number of edges meeting a fixed edge in exactly
  r-1 vertices (r-uniform only).
"""

from __future__ import annotations

import json
import sys
from typing import Iterable, Iterator

from .errors import (
    InputError,
    UndefinedStatisticError,
    parse_json,
    read_text,
    require_int,
    require_ints,
)

__all__ = [
    "Hypergraph",
    "EdgeSubset",
    "validate",
    "components",
    "rho",
    "gamma",
    "uniformity",
    "is_linear",
]


class EdgeSubset:
    """Immutable subset of edge labels {1..m}, stored as a bitmask.

    Label i (1-based) corresponds to bit i-1.  Supports the operations the
    enumeration loops need: membership, iteration in increasing label order,
    union, and size, each constant or linear in m.
    """

    __slots__ = ("m", "mask")

    def __init__(self, m: int, labels: Iterable[int] = ()):
        m, mask = require_int(m, "edge count", 0), 0
        for lab in require_ints(labels, "edge labels"):
            if not 1 <= lab <= m:
                raise InputError(f"edge label {lab} outside 1..{m}")
            mask |= 1 << (lab - 1)
        self.m = m
        self.mask = mask

    @classmethod
    def from_mask(cls, m: int, mask: int) -> "EdgeSubset":
        try:  # once per streamed NB member: the shift itself refuses non-integers
            outside = mask < 0 or mask >> m
        except (TypeError, ValueError):  # not integers, or a negative m
            outside = None
        if outside is None or type(m) is bool or type(mask) is bool:  # bool has no subclass
            raise InputError(f"edge count and mask must be integers >= 0, got {m!r} and {mask!r}")
        if outside:
            raise InputError(f"mask {mask:#x} outside 0..2^{m}-1")
        obj = cls.__new__(cls)
        obj.m = m
        obj.mask = mask
        return obj

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in _set_bits(self.mask))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.size

    def __contains__(self, label: int) -> bool:
        return 1 <= label <= self.m and bool(self.mask >> (label - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)

    def issubset(self, other: "EdgeSubset") -> bool:
        return self.mask & ~other.mask == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeSubset)
            and self.m == other.m
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.m, self.mask))

    def __repr__(self) -> str:
        return f"EdgeSubset(m={self.m}, labels={list(self.labels)})"


class Hypergraph:
    """A hypergraph on vertices 1..n with an ordered edge list.

    Edges are canonicalized to sorted tuples on construction; the input order
    of the edge list is preserved and defines the default labelling.
    Instances are treated as immutable; derived data (delta-cycle catalogs)
    is cached on the instance by the modules that compute it.
    """

    __slots__ = ("n", "edges", "_cache")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        self.n = require_int(n, "vertex count", 0)
        try:  # out-of-range vertices are validate's to report
            self.edges = tuple(tuple(sorted(set(require_ints(e, "edge vertices")))) for e in edges)
        except TypeError:  # require_ints raises InputError, so edges is not iterable
            raise InputError(f"edges must be an iterable of edges, got {edges!r}") from None
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_vertex_masks(self) -> list[int]:
        """Per edge, a bitmask over vertices (vertex v -> bit v-1)."""
        key = "vertex_masks"
        if key not in self._cache:
            masks = []
            for edge in self.edges:
                mask = 0
                for v in edge:
                    if v < 1:
                        raise InputError(f"vertex {v} is not a positive integer")
                    mask |= 1 << (v - 1)
                masks.append(mask)
            self._cache[key] = masks
        return self._cache[key]

    def subset(self, labels: Iterable[int] = ()) -> EdgeSubset:
        return EdgeSubset(self.m, labels)

    def full_subset(self) -> EdgeSubset:
        return EdgeSubset.from_mask(self.m, (1 << self.m) - 1)

    def to_json(self) -> str:
        return json.dumps(
            {"edges": [list(e) for e in self.edges], "n": self.n},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        obj = parse_json(text, "hypergraph JSON")
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise InputError('hypergraph JSON must be {"n": ..., "edges": [...]}')
        if not isinstance(obj["n"], int) or isinstance(obj["n"], bool):
            raise InputError("hypergraph field n must be an integer")
        if not isinstance(obj["edges"], list):
            raise InputError("hypergraph field edges must be an array")
        for edge in obj["edges"]:
            if not isinstance(edge, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in edge
            ):
                raise InputError("each edge must be an array of integers")
        return cls(obj["n"], obj["edges"])

    @classmethod
    def load(cls, path: str) -> "Hypergraph":
        return cls.from_json(read_text(path))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={[list(e) for e in self.edges]})"


def validate(H: Hypergraph) -> list[str]:
    """Return every invariant violation; an empty list means the instance is ok.

    Checked: n at most sys.maxsize (a larger n is the one violation
    reported), edge size >= 2, vertices inside 1..n, no duplicate edges,
    and no edge contained in another.  Violations are data, not
    exceptions.  The verdict is computed once per instance and cached on it.
    """
    return list(_cached_violations(H))


def require_valid(H: Hypergraph) -> None:
    """Refuse an instance that breaks an invariant, naming the first violation.

    The computational entry points call this before they index anything by
    vertex, so an invalid instance gets an InputError rather than a wrong
    count or a raw IndexError.  It reads the cached verdict without copying it.
    """
    violations = _cached_violations(H)
    if violations:
        raise InputError(f"invalid hypergraph: {violations[0]}")


def _cached_violations(H: Hypergraph) -> list[str]:
    """The violations of H, computed once and cached on it; callers must not change the list."""
    if "violations" not in H._cache:
        H._cache["violations"] = _violations(H)
    return H._cache["violations"]


def _violations(H: Hypergraph) -> list[str]:
    if H.n > sys.maxsize:
        # no list of n + 1 counts fits past sys.maxsize, and str(n) may pass the int-to-str limit
        return [f"vertex count n exceeds sys.maxsize = {sys.maxsize}"]
    violations = []
    seen: dict[tuple, int] = {}
    in_range = True
    for i, edge in enumerate(H.edges, start=1):
        if len(edge) < 2:
            violations.append(f"edge {i} has size {len(edge)} < 2")
        for v in edge:
            if not 1 <= v <= H.n:
                violations.append(f"edge {i}: vertex {v} outside 1..{H.n}")
                in_range = False
        if edge in seen:
            violations.append(f"edge {i} duplicates edge {seen[edge]}")
        else:
            seen[edge] = i
    if not in_range:
        # the bitmask build below needs positive vertices
        return violations
    # distinct edges of one size cannot hold each other, so only larger ones are tried
    masks = H.edge_vertex_masks()
    sizes = {len(e) for e in H.edges}
    larger = {s: [j for j, f in enumerate(H.edges) if len(f) > s] for s in sizes}
    for i, edge in enumerate(H.edges):
        for j in larger[len(edge)]:
            if masks[i] & ~masks[j] == 0:
                violations.append(f"edge {i + 1} is contained in edge {j + 1}")
    return violations


def components(H: Hypergraph, A: EdgeSubset | Iterable[int]) -> int:
    """Number of connected components of the spanning subhypergraph H<A>.

    All n vertices participate, so isolated vertices count as components;
    components(H, empty) == n.
    """
    blocks, covered = _subset_blocks(H, A)
    return H.n + len(blocks) - covered.bit_count()


def _covered_count(H: Hypergraph) -> int:
    """How many vertices some edge holds.  Every edge subset leaves the
    others isolated, so its component count lies in n - this..n, and count
    tables indexed by component count need this many entries and one more."""
    covered = 0
    for vmask in H.edge_vertex_masks():
        covered |= vmask
    return covered.bit_count()


def _subset_blocks(H: Hypergraph, A: EdgeSubset | Iterable[int]) -> tuple[list[int], int]:
    """The components of H<A> that hold an edge, and the vertices they cover.

    Both are vertex bitmasks (vertex v -> bit v-1); the vertices outside
    ``covered`` are isolated.  Refuses an invalid H and a label outside
    1..m; repeated labels are harmless.
    """
    require_valid(H)
    vmasks = H.edge_vertex_masks()
    blocks: list[int] = []
    covered = 0
    for i in _edge_indices(H.m, A):
        blocks = _add_block(blocks, vmasks[i])
        covered |= vmasks[i]
    return blocks, covered


def _edge_indices(m: int, A: EdgeSubset | Iterable[int]) -> Iterator[int]:
    """The 0-based edge indices of A, refusing a label that is not an
    integer (a bool included) or lies outside 1..m."""
    if isinstance(A, EdgeSubset):
        if not A.mask >> m:
            yield from _set_bits(A.mask)
            return
        A = A.labels
    for lab in require_ints(A, "edge labels"):
        if not 1 <= lab <= m:
            raise InputError(f"edge label {lab} outside 1..{m}")
        yield lab - 1


def _set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _add_block(blocks: list[int], mask: int) -> list[int]:
    """Add the vertex set ``mask`` to disjoint component blocks, as a new list.

    Every block that meets ``mask`` fuses with it; the others are kept in
    order and the fused block comes last.  The input list is not changed,
    so a caller may keep it and return to it later.
    """
    kept = []
    for block in blocks:
        if block & mask:
            mask |= block
        else:
            kept.append(block)
    kept.append(mask)
    return kept


def rho(H: Hypergraph) -> int:
    """Minimum of |e \\ e'| over ordered pairs of distinct edges; needs m >= 2."""
    if H.m < 2:
        raise UndefinedStatisticError(
            f"rho needs at least 2 edges, hypergraph has {H.m}"
        )
    require_valid(H)
    masks = H.edge_vertex_masks()  # distinct, since a valid H repeats no edge
    return min((a & ~b).bit_count() for a in masks for b in masks if a != b)


def gamma(H: Hypergraph) -> int:
    """Maximum number of edges meeting a fixed edge in exactly r-1 vertices.

    Defined for r-uniform hypergraphs only; 0 for m <= 1.
    """
    if H.m == 0:
        return 0
    r = uniformity(H)
    if r is None:
        raise UndefinedStatisticError("gamma is defined for uniform hypergraphs only")
    require_valid(H)
    masks = H.edge_vertex_masks()  # an edge meets itself in r vertices, so it never counts
    return max(sum((a & b).bit_count() == r - 1 for b in masks) for a in masks)


def uniformity(H: Hypergraph) -> int | None:
    """The common edge size r, or None when edge sizes differ or m == 0."""
    sizes = {len(e) for e in H.edges}
    if len(sizes) == 1:
        return sizes.pop()
    return None


def is_linear(H: Hypergraph) -> bool:
    """True iff every two distinct edges share at most one vertex."""
    require_valid(H)
    masks = H.edge_vertex_masks()
    return all((a & b).bit_count() <= 1 for i, a in enumerate(masks) for b in masks[:i])
