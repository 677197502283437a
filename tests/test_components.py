"""``components`` and ``beta`` on arbitrary edge subsets, against a union-find.

The library keeps components as vertex bitmasks; the oracle here is a plain
union-find over the vertices, written in this file, so the two share no code.
Every subset is passed both as an ``EdgeSubset`` and as a shuffled label list
with each label twice.
"""

import random

from hyperchrom import EdgeSubset, ListAssignment, beta, components
from hyperchrom.generators import iter_edge_antichains, random_antichain, random_assignment


def _oracle_parts(H, labels):
    """The components of (V, labels) as lists of vertices 1..n."""
    parent = list(range(H.n + 1))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for lab in labels:
        first, *rest = H.edges[lab - 1]
        for v in rest:
            parent[find(v)] = find(first)
    parts: dict[int, list[int]] = {}
    for v in range(1, H.n + 1):
        parts.setdefault(find(v), []).append(v)
    return list(parts.values())


def _oracle_beta(L, parts):
    prod = 1
    for part in parts:
        prod *= len(set.intersection(*(set(L.lists[v]) for v in part)))
    return prod


def _check_every_subset(H, rng):
    k = rng.randint(1, 3)
    L = random_assignment(H.n, k, k + 2, rng)
    # the same pattern in colors past int64, and lists that share no color
    big = ListAssignment(k, {v: [c + 2**63 for c in cs] for v, cs in L.lists.items()})
    apart = ListAssignment(k, {v: range(k * v, k * v + k) for v in L.lists})
    for mask in range(1 << H.m):
        A = EdgeSubset.from_mask(H.m, mask)
        repeated = list(A.labels) * 2
        rng.shuffle(repeated)
        parts = _oracle_parts(H, A.labels)
        want_beta = _oracle_beta(L, parts)
        for given in (A, repeated):
            assert components(H, given) == len(parts), (H, A)
            assert beta(H, L, given) == want_beta, (H, L.lists, A)
        assert beta(H, big, A) == want_beta, (H, big.lists, A)
        assert beta(H, apart, A) == _oracle_beta(apart, parts), (H, apart.lists, A)


def test_every_subset_of_small_antichains():
    rng = random.Random(3)
    count = 0
    for n in range(1, 6):
        for H in iter_edge_antichains(n, 4):
            _check_every_subset(H, rng)
            count += 1
    assert count > 3000


def test_every_subset_of_random_antichains():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(5, 9)
        _check_every_subset(random_antichain(n, rng.randint(1, 8), rng), rng)
