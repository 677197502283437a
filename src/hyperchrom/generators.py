"""Instance generators: exhaustive families, random families, fixtures.

The exhaustive iterators drive the oracle-equivalence and inequality
sweeps; they enumerate every valid edge set (an antichain of vertex
sets, each of size >= 2) within the stated limits, including edge sets
leaving vertices isolated.  The random r-uniform families are rejection
samplers with one fixed retry budget that fall back to one greedy pass
over the shuffled r-subsets when every try fails; identical seeds give
identical instances.  Seeds, like every count and size, must be integers:
a seed of None would draw a fresh instance on each call.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Iterator

from .errors import GeneratorError, InputError, require_int
from .hypercore import Hypergraph, validate
from .listcolor import ListAssignment

__all__ = [
    "iter_edge_antichains",
    "iter_r_uniform",
    "random_antichain",
    "random_assignment",
    "random_linear_r_uniform",
    "random_r_uniform_rho",
    "tight_path",
    "sunflower_free",
    "fig1",
]

_TRIES = 10000  # whole edge sets a random sampler draws before it gives up

_FIG1_EDGES = {
    1: (6, ((1, 2, 3), (1, 4, 5), (3, 5, 6), (2, 4, 6))),
    2: (7, ((5, 6, 7), (1, 3, 6), (1, 2, 5), (1, 4, 7))),
    3: (7, ((2, 3, 4), (5, 6, 7), (1, 2, 5), (1, 4, 7))),
}


def _candidate_edges(n: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(2, n + 1):
        out.extend(combinations(range(1, n + 1), size))
    return out


def iter_edge_antichains(n: int, m_max: int) -> Iterator[Hypergraph]:
    """Every hypergraph on vertex set 1..n with at most m_max edges.

    Edges are vertex sets of size >= 2 forming an antichain (no edge
    inside another); the edgeless hypergraph is included.  Enumeration
    order is deterministic: edges in (size, lex) order, subsets by
    increasing first margin.
    """
    n, m_max = require_int(n, "n", 0), require_int(m_max, "m_max", 0)
    cands = _candidate_edges(n)
    masks = [sum(1 << (v - 1) for v in e) for e in cands]
    total = len(cands)
    chosen: list[int] = []

    def rec(start: int) -> Iterator[Hypergraph]:
        yield Hypergraph(n, [cands[i] for i in chosen])
        if len(chosen) >= m_max:
            return
        for i in range(start, total):
            mi = masks[i]
            ok = True
            for j in chosen:
                mj = masks[j]
                inter = mi & mj
                if inter == mi or inter == mj:
                    ok = False
                    break
            if ok:
                chosen.append(i)
                yield from rec(i + 1)
                chosen.pop()

    return rec(0)


def _check_uniform(n: int, r: int) -> tuple[int, int]:
    """(n, r) as ints, refusing an r below 2 and an n below r."""
    n, r = require_int(n, "n"), require_int(r, "r", 2)
    if n < r:
        raise InputError(f"n must be >= r, got n={n}, r={r}")
    return n, r


def iter_r_uniform(
    n: int, r: int, m: int, linear_only: bool = False
) -> Iterator[Hypergraph]:
    """Every r-uniform hypergraph on 1..n with exactly m edges.

    With linear_only, restricts to edge sets whose pairwise
    intersections have at most one vertex.
    """
    (n, r), m = _check_uniform(n, r), require_int(m, "m", 0)
    cands = list(combinations(range(1, n + 1), r))
    sets = [frozenset(e) for e in cands]
    chosen: list[int] = []

    def rec(start: int) -> Iterator[Hypergraph]:
        if len(chosen) == m:
            yield Hypergraph(n, [cands[i] for i in chosen])
            return
        for i in range(start, len(cands)):
            if linear_only and any(len(sets[i] & sets[j]) > 1 for j in chosen):
                continue
            chosen.append(i)
            yield from rec(i + 1)
            chosen.pop()

    return rec(0)


def random_antichain(n: int, m: int, rng: random.Random) -> Hypergraph:
    """A random hypergraph on 1..n with m edges, sampled by rejection."""
    n, m = require_int(n, "n", 0), require_int(m, "m", 0)
    if n < 2 and m > 0:
        raise InputError(f"edges need n >= 2, got n={n}")
    # Sperner: no antichain of sets of size >= 2 beats the widest such layer
    if m > max((comb(n, s) for s in range(2, n + 1)), default=0):
        raise GeneratorError(f"no antichain with n={n}, m={m} found")
    for _ in range(_TRIES):
        edges: list[frozenset[int]] = []
        ok = True
        for _ in range(m):
            for _ in range(200):
                size = rng.randint(2, n)
                e = frozenset(rng.sample(range(1, n + 1), size))
                if all(not (e <= f or f <= e) for f in edges):
                    edges.append(e)
                    break
            else:
                ok = False
                break
        if ok:
            return Hypergraph(n, [tuple(sorted(e)) for e in edges])
    raise GeneratorError(f"no antichain with n={n}, m={m} found")


def random_assignment(
    n: int, k: int, universe: int, rng: random.Random
) -> ListAssignment:
    """A random k-assignment drawing each list from colors 1..universe."""
    n, k = require_int(n, "n", 0), require_int(k, "k", 1)
    universe = require_int(universe, "universe")
    if universe < k:
        raise InputError(f"universe {universe} smaller than list size {k}")
    return ListAssignment(
        k,
        {
            v: sorted(rng.sample(range(1, universe + 1), k))
            for v in range(1, n + 1)
        },
    )


def _distinct_r_subsets(
    n: int, m: int, r: int, rng: random.Random
) -> list[tuple[int, ...]] | None:
    edges: set[tuple[int, ...]] = set()
    for _ in range(50 * m + 50):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), r))))
        if len(edges) == m:
            return sorted(edges)
    return None


def _finish(H: Hypergraph) -> Hypergraph:
    problems = validate(H)
    if problems:
        raise GeneratorError(f"generator produced invalid instance: {problems[0]}")
    return H


# the greedy fallback holds every r-subset of 1..n in memory at once
_GREEDY_POOL = 200_000


def _random_uniform(n, m, r, seed, what, pair_ok, triple_bad=None) -> Hypergraph:
    """m distinct r-subsets of 1..n; every pair passes pair_ok, no triple is triple_bad.

    Samples whole edge sets up to _TRIES times.  When every try fails
    and there are at most _GREEDY_POOL r-subsets, makes one greedy pass
    over them in shuffled order, keeping each that fits the edges kept so
    far.  Raises GeneratorError(what) when both fail.  m = 0 gives the
    edgeless instance at once; m < 0 is refused, and so is a seed that is
    not an integer.
    """
    m, seed = require_int(m, "m", 0), require_int(seed, "seed")
    if m == 0:
        return _finish(Hypergraph(n, []))
    rng = random.Random(seed)

    def fits(e: frozenset, kept: list[frozenset]) -> bool:
        return all(pair_ok(e, f) for f in kept) and not (
            triple_bad and any(triple_bad(e, f, g) for f, g in combinations(kept, 2))
        )

    for _ in range(_TRIES):
        edges = _distinct_r_subsets(n, m, r, rng)
        if edges is None:
            continue
        sets = [frozenset(e) for e in edges]
        if all(fits(e, sets[:i]) for i, e in enumerate(sets)):
            return _finish(Hypergraph(n, edges))
    if comb(n, r) <= _GREEDY_POOL:
        pool = list(combinations(range(1, n + 1), r))
        rng.shuffle(pool)
        kept: list[frozenset] = []
        for e in map(frozenset, pool):
            if fits(e, kept):
                kept.append(e)
                if len(kept) == m:
                    return _finish(Hypergraph(n, sorted(tuple(sorted(f)) for f in kept)))
    raise GeneratorError(f"{what} after {_TRIES} tries")


def random_linear_r_uniform(n: int, m: int, r: int, seed: int = 0) -> Hypergraph:
    """Random linear r-uniform instance (pairwise intersections <= 1); the
    seed must be an integer."""
    n, r = _check_uniform(n, r)
    what = f"no linear {r}-uniform instance with n={n}, m={m}"
    return _random_uniform(n, m, r, seed, what, lambda e, f: len(e & f) <= 1)


def random_r_uniform_rho(n: int, m: int, r: int, rho_min: int, seed: int = 0) -> Hypergraph:
    """Random r-uniform instance with rho(H) >= rho_min (needs m >= 2); the
    seed must be an integer."""
    (n, r), m = _check_uniform(n, r), require_int(m, "m")
    if m < 2:
        raise InputError(f"rho needs m >= 2, got {m}")
    rho_min = require_int(rho_min, "rho_min")
    what = f"no {r}-uniform instance with rho >= {rho_min}, n={n}, m={m}"
    # on r-uniform edges |e \ f| = |f \ e|, so one test per pair suffices
    return _random_uniform(n, m, r, seed, what, lambda e, f: len(e - f) >= rho_min)


def tight_path(n: int, r: int) -> Hypergraph:
    """Consecutive r-windows on 1..n; adjacent edges overlap in r-1 vertices."""
    n, r = _check_uniform(n, r)
    edges = [tuple(range(i, i + r)) for i in range(1, n - r + 2)]
    return _finish(Hypergraph(n, edges))


def _is_sunflower(a: frozenset, b: frozenset, c: frozenset) -> bool:
    core = a & b & c
    return (a & b) == core and (a & c) == core and (b & c) == core


def sunflower_free(n: int, m: int, r: int, seed: int = 0) -> Hypergraph:
    """Random r-uniform instance with no 3 edges forming a sunflower.

    A 3-edge sunflower has all pairwise intersections equal to the
    common core (three pairwise disjoint edges qualify, with empty
    core).  The seed must be an integer.
    """
    n, r = _check_uniform(n, r)
    what = f"no sunflower-free {r}-uniform instance with n={n}, m={m}"
    return _random_uniform(n, m, r, seed, what, lambda e, f: True, _is_sunflower)


def fig1(index: int) -> Hypergraph:
    """The three fixed 4-edge fixtures; index 1 is the one whose full
    edge set is a delta-cycle, 2 and 3 are the near-misses."""
    index = require_int(index, "fig1 index")
    if index not in _FIG1_EDGES:
        raise InputError(f"fig1 index must be 1, 2, or 3, got {index!r}")
    n, edges = _FIG1_EDGES[index]
    return _finish(Hypergraph(n, edges))
