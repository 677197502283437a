"""The NB(H) walk and everything folded from it, against a brute-force oracle.

The oracle enumerates all 2^m edge subsets, keeps those containing no
broken delta-cycle, and counts components with ``components``.  That
function and the walk build components with the same block helper, so every
member's partition and count are also checked against a union-find written
here, which shares no code with the library.  The walk's preorder stream,
blocks included, is also checked against the per-top-edge walk it replaced,
kept in ``reference_walk.py``.
"""

import random

from hyperchrom import (
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
from hyperchrom.cycles import _nb_walk, normalize_eta
from hyperchrom.hypercore import _set_bits
from hyperchrom.generators import iter_edge_antichains, random_antichain
from reference_walk import reference_nb_walk


def _oracle(H, eta):
    """Every broken-free mask with its component count, by exhaustion."""
    broken = [b.mask for b in enumerate_delta_cycles(H).broken_family(eta)]
    members = []
    for mask in range(1 << H.m):
        if any(b & mask == b for b in broken):
            continue
        labels = [i + 1 for i in range(H.m) if mask >> i & 1]
        members.append((mask, len(labels), components(H, labels)))
    return members


def _oracle_partition(H, mask):
    """The components of the mask's edges as 0-based vertex tuples, by first vertex."""
    parent = list(range(H.n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i in range(H.m):
        if mask >> i & 1:
            edge = H.edges[i]
            for v in edge[1:]:
                parent[find(v - 1)] = find(edge[0] - 1)
    parts: dict[int, list[int]] = {}
    for v in range(H.n):
        parts.setdefault(find(v), []).append(v)
    return tuple(map(tuple, parts.values()))


def _check_walk(H, eta, k=2):
    oracle = _oracle(H, eta)

    streamed = [A.mask for A in nb_subsets(H, eta=eta)]
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
    assert chromatic_polynomial(H, eta=eta) == poly
    base = H.n - len({v for edge in H.edges for v in edge})
    assert all(not any(row[:base]) for row in even)
    assert bounds._even_edge_table(H, eta) == (base, [row[base:] for row in even])

    walked = sorted(
        (mask, size, comps, tuple(sorted(tuple(_set_bits(b)) for b in blocks)))
        for mask, size, comps, blocks in _nb_walk(H, eta)
    )
    want = []
    for mask, size, comps in oracle:
        partition = _oracle_partition(H, mask)
        assert len(partition) == comps
        want.append((mask, size, comps, tuple(sorted(part for part in partition if len(part) > 1))))
    assert walked == want
    assert bounds._even_weights((base, [row[base:] for row in even]), k) == [
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


def _stream(walk):
    return [(mask, size, comps, tuple(blocks)) for mask, size, comps, blocks in walk]


def _check_index(H, eta):
    """The cached index files each inclusion-minimal broken set, of >= 2 edges,
    under its second-highest edge."""
    broken = [b.mask for b in enumerate_delta_cycles(H).broken_family(eta)]
    minimal = {b for b in broken if not any(a != b and a & b == a for a in broken)}
    assert all(b.bit_count() >= 2 for b in minimal)
    index = H._cache[("nb_groups", normalize_eta(H, eta))]
    filed = []
    for j, entries in enumerate(index):
        for rest, top in entries:
            assert top.bit_count() == 1 and rest.bit_length() - 1 == j < top.bit_length() - 1
            filed.append(rest | top)
    assert sorted(filed) == sorted(minimal)


def _check_against_reference(H, rng):
    eta = _random_eta(H.m, rng)
    max_size = rng.randint(0, H.m)
    need = 1 << rng.randrange(H.m) if H.m else 0
    for size_cap in (None, max_size):
        for want in (0, need):
            got = _stream(_nb_walk(H, eta, max_size=size_cap, need=want))
            assert got == _stream(reference_nb_walk(H, eta, max_size=size_cap, need=want))
    _check_index(H, eta)


def test_walk_matches_per_top_edge_reference_on_small_antichains():
    rng = random.Random(4)
    count = 0
    for n in range(6):
        for H in iter_edge_antichains(n, 4):
            _check_against_reference(H, rng)
            count += 1
    assert count > 3000


def test_walk_matches_per_top_edge_reference_on_random_antichains():
    rng = random.Random(5)
    blocked = 0
    for _ in range(300):
        H = random_antichain(rng.randint(6, 10), rng.randint(3, 11), rng)
        _check_against_reference(H, rng)
        blocked += len(enumerate_delta_cycles(H))
    assert blocked > 0


def test_prop1_walks_once_per_catalog(monkeypatch, f1):
    walks = []
    real = bounds._nb_walk

    def counting(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "_nb_walk", counting)
    H = Hypergraph(f1.n, f1.edges)
    L1 = ListAssignment(2, {v: [1, 2] for v in range(1, H.n + 1)})
    L2 = ListAssignment(2, {v: [v, v + 1] for v in range(1, H.n + 1)})
    first = prop1_rhs(H, L1)
    second = prop1_rhs(H, L2)
    assert len(walks) == 1
    assert (first, second) == (0, prop1_rhs(f1, L2))
