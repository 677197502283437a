"""The NB(H) walk and everything folded from it, against a brute-force oracle.

The oracle enumerates all 2^m edge subsets, keeps those containing no
broken delta-cycle, and counts components with ``components``; it shares
no code with the depth-first walk.
"""

import random

from hyperchrom import (
    DisjointSet,
    Hypergraph,
    IntPolynomial,
    ListAssignment,
    chromatic_polynomial,
    components,
    enumerate_delta_cycles,
    nb_subsets,
    prop1_rhs,
)
from hyperchrom import bounds
from hyperchrom.generators import iter_edge_antichains, random_antichain


def _oracle(H, catalog, eta):
    """Every broken-free mask with its component count, by exhaustion."""
    broken = [b.mask for b in catalog.broken_family(eta)]
    members = []
    for mask in range(1 << H.m):
        if any(b & mask == b for b in broken):
            continue
        labels = [i + 1 for i in range(H.m) if mask >> i & 1]
        members.append((mask, len(labels), components(H, labels)))
    return members


def _oracle_partition(H, mask):
    """The components of the mask's edges as 0-based vertex tuples, by first vertex."""
    dsu = DisjointSet(H.n)
    for i in range(H.m):
        if mask >> i & 1:
            edge = H.edges[i]
            for v in edge[1:]:
                dsu.union(edge[0] - 1, v - 1)
    parts: dict[int, list[int]] = {}
    for v in range(H.n):
        parts.setdefault(dsu.find(v), []).append(v)
    return tuple(map(tuple, parts.values()))


def _check_walk(H, eta, k=2):
    catalog = enumerate_delta_cycles(H)
    oracle = _oracle(H, catalog, eta)

    streamed = [A.mask for A in nb_subsets(H, eta=eta, catalog=catalog)]
    assert len(streamed) == len(set(streamed))
    assert sorted(streamed) == [mask for mask, _, _ in oracle]

    signed: dict[int, int] = {}
    even = [[0] * (H.n + 1) for _ in range(H.m)]
    for mask, size, comps in oracle:
        signed[comps] = signed.get(comps, 0) + (-1) ** size
        if size % 2 == 0:
            for e in range(H.m):
                if mask >> e & 1:
                    even[e][comps] += 1
    poly = IntPolynomial(signed)
    assert chromatic_polynomial(H, eta=eta, catalog=catalog) == poly
    assert bounds._even_edge_table(catalog, eta) == even

    members, p_k, prop_s = bounds._member_table(catalog, eta, k)
    got = sorted((sign, tuple(map(tuple, comps))) for sign, comps in members)
    want = []
    for mask, size, comps in oracle:
        partition = _oracle_partition(H, mask)
        assert len(partition) == comps
        want.append(((-1) ** size, partition))
    assert got == sorted(want)
    assert p_k == poly.eval(k)
    assert prop_s.tolist() == [
        sum(cnt * k ** (c - 1) for c, cnt in enumerate(row) if cnt) for row in even
    ]


def _random_eta(m, rng):
    eta = list(range(1, m + 1))
    rng.shuffle(eta)
    return eta


def test_walk_matches_oracle_on_small_antichains():
    rng = random.Random(0)
    count = 0
    for n in range(1, 6):
        for H in iter_edge_antichains(n, 4):
            _check_walk(H, _random_eta(H.m, rng))
            count += 1
    assert count > 3000


def test_walk_matches_oracle_on_random_antichains():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(5, 8)
        H = random_antichain(n, rng.randint(1, 8), rng)
        _check_walk(H, _random_eta(H.m, rng), k=rng.randint(1, 3))


def test_prop1_walks_once_per_catalog(monkeypatch, f1):
    walks = []
    real = bounds._nb_walk

    def counting(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "_nb_walk", counting)
    catalog = enumerate_delta_cycles(Hypergraph(f1.n, f1.edges))
    H = catalog.H
    L1 = ListAssignment(2, {v: [1, 2] for v in range(1, H.n + 1)})
    L2 = ListAssignment(2, {v: [v, v + 1] for v in range(1, H.n + 1)})
    first = prop1_rhs(H, L1, catalog=catalog)
    second = prop1_rhs(H, L2, catalog=catalog)
    assert len(walks) == 1
    assert (first, second) == (0, prop1_rhs(f1, L2))
