"""Hypergraph representation, validation, and structural statistics.

Vertices are the integers 1..n.  Edges are vertex sets of size >= 2; the edge
list position defines the default edge labelling (edge at position i carries
label i, 1-based).  A hypergraph here never stores one edge inside another:
containment pairs are reported by :func:`validate`.

Structural statistics:

* ``components(H, A)`` counts connected components of the spanning
  subhypergraph with edge set A; isolated vertices count.
* ``rho(H)`` is the minimum of ``|e \\ e'|`` over ordered pairs of distinct
  edges; for r-uniform H it satisfies 1 <= rho <= r, with rho >= 2 exactly
  when no two edges overlap in r-1 vertices.
* ``gamma(H)`` is the largest number of edges meeting a fixed edge in exactly
  r-1 vertices (r-uniform only).
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .errors import InputError, UndefinedStatisticError

__all__ = [
    "Hypergraph",
    "EdgeSubset",
    "DisjointSet",
    "validate",
    "components",
    "rho",
    "gamma",
    "uniformity",
    "is_linear",
]


class DisjointSet:
    """Union-find over 0..size-1 with path compression and union by size."""

    __slots__ = ("parent", "size", "count")

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size
        self.count = size

    def find(self, x: int) -> int:
        # find with path compression
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


class EdgeSubset:
    """Immutable subset of edge labels {1..m}, stored as a bitmask.

    Label i (1-based) corresponds to bit i-1.  Supports the operations the
    enumeration loops need: membership, iteration in increasing label order,
    union, and size, each constant or linear in m.
    """

    __slots__ = ("m", "mask")

    def __init__(self, m: int, labels: Iterable[int] = ()):
        mask = 0
        for lab in labels:
            if not 1 <= lab <= m:
                raise InputError(f"edge label {lab} outside 1..{m}")
            mask |= 1 << (lab - 1)
        self.m = m
        self.mask = mask

    @classmethod
    def from_mask(cls, m: int, mask: int) -> "EdgeSubset":
        if mask < 0 or mask >> m:
            raise InputError(f"mask {mask:#x} outside 0..2^{m}-1")
        obj = cls.__new__(cls)
        obj.m = m
        obj.mask = mask
        return obj

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.m) if self.mask >> i & 1)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

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
        if n < 0:
            raise InputError(f"vertex count must be >= 0, got {n}")
        self.n = int(n)
        canon = []
        for edge in edges:
            vertices = tuple(sorted(set(int(v) for v in edge)))
            canon.append(vertices)
        self.edges = tuple(canon)
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
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid hypergraph JSON: {exc}") from exc
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        return cls.from_json(text)

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

    Checked: edge size >= 2, vertices inside 1..n, no duplicate edges, and no
    edge contained in another.  Violations are data, not exceptions.  The
    verdict is computed once per instance and cached on it.
    """
    if "violations" not in H._cache:
        H._cache["violations"] = _violations(H)
    return list(H._cache["violations"])


def require_valid(H: Hypergraph) -> None:
    """Refuse an instance that breaks an invariant, naming the first violation.

    The computational entry points call this before they index anything by
    vertex, so an invalid instance gets an InputError rather than a wrong
    count or a raw IndexError.
    """
    violations = validate(H)
    if violations:
        raise InputError(f"invalid hypergraph: {violations[0]}")


def _violations(H: Hypergraph) -> list[str]:
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
    masks = H.edge_vertex_masks()
    for i in range(H.m):
        for j in range(H.m):
            if i != j and masks[i] != masks[j] and masks[i] & ~masks[j] == 0:
                violations.append(f"edge {i + 1} is contained in edge {j + 1}")
    return violations


def components(H: Hypergraph, A: EdgeSubset | Iterable[int]) -> int:
    """Number of connected components of the spanning subhypergraph H<A>.

    All n vertices participate, so isolated vertices count as components;
    components(H, empty) == n.
    """
    labels = A.labels if isinstance(A, EdgeSubset) else tuple(A)
    dsu = DisjointSet(H.n)
    for lab in labels:
        if not 1 <= lab <= H.m:
            raise InputError(f"edge label {lab} outside 1..{H.m}")
        edge = H.edges[lab - 1]
        first = edge[0] - 1
        for v in edge[1:]:
            dsu.union(first, v - 1)
    return dsu.count


def rho(H: Hypergraph) -> int:
    """Minimum of |e \\ e'| over ordered pairs of distinct edges; needs m >= 2."""
    if H.m < 2:
        raise UndefinedStatisticError(
            f"rho needs at least 2 edges, hypergraph has {H.m}"
        )
    masks = H.edge_vertex_masks()
    best = None
    for i in range(H.m):
        for j in range(H.m):
            if i == j:
                continue
            diff = bin(masks[i] & ~masks[j]).count("1")
            if best is None or diff < best:
                best = diff
    return best


def gamma(H: Hypergraph) -> int:
    """Maximum number of edges meeting a fixed edge in exactly r-1 vertices.

    Defined for r-uniform hypergraphs only; 0 for m <= 1.
    """
    if H.m == 0:
        return 0
    r = uniformity(H)
    if r is None:
        raise UndefinedStatisticError("gamma is defined for uniform hypergraphs only")
    masks = H.edge_vertex_masks()
    best = 0
    for i in range(H.m):
        near = 0
        for j in range(H.m):
            if i != j and bin(masks[i] & masks[j]).count("1") == r - 1:
                near += 1
        best = max(best, near)
    return best


def uniformity(H: Hypergraph) -> int | None:
    """The common edge size r, or None when edge sizes differ or m == 0."""
    sizes = {len(e) for e in H.edges}
    if len(sizes) == 1:
        return sizes.pop()
    return None


def is_linear(H: Hypergraph) -> bool:
    """True iff every two distinct edges share at most one vertex."""
    masks = H.edge_vertex_masks()
    for i in range(H.m):
        for j in range(i + 1, H.m):
            if bin(masks[i] & masks[j]).count("1") > 1:
                return False
    return True
