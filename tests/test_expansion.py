"""``count_L_colorings_expansion`` against the plain sum it replaced.

The oracle sums (-1)^|A| * beta(H, L, A) over ``nb_subsets(H, eta)``,
rebuilding every member's components from scratch; ``beta`` itself is
checked against a union-find in ``test_components.py``.  Lists are drawn
from k + 2 colors, so some blocks share no color and their terms vanish.
"""

import random

from hyperchrom import Hypergraph, beta, count_L_colorings_expansion, listcolor, nb_subsets
from hyperchrom.generators import iter_edge_antichains, random_antichain, random_assignment


def _oracle(H, L, eta):
    total = 0
    for A in nb_subsets(H, eta=eta):
        term = beta(H, L, A)
        total += -term if A.size % 2 else term
    return total


def _random_eta(H, rng):
    eta = list(range(1, H.m + 1))
    rng.shuffle(eta)
    return eta


def _random_instance(rng):
    """Up to 11 edges of mixed sizes on the first n - extra vertices, the rest isolated."""
    n = rng.randint(6, 9)
    extra = rng.randint(0, 2)
    H = random_antichain(n, rng.randint(0, 11), rng)
    return Hypergraph(n + extra, H.edges)


def test_every_small_antichain_under_a_random_eta():
    rng = random.Random(17)
    count = zero_terms = 0
    for n in range(1, 6):
        for H in iter_edge_antichains(n, 4):
            k = rng.randint(1, 3)
            L = random_assignment(H.n, k, k + 2, rng)
            eta = _random_eta(H, rng)
            assert count_L_colorings_expansion(H, L, eta=eta) == _oracle(H, L, eta), (H, L.lists, eta)
            zero_terms += any(beta(H, L, A) == 0 for A in nb_subsets(H, eta=eta))
            count += 1
    assert count > 3000
    assert zero_terms > 100


def test_random_instances_up_to_eleven_edges():
    rng = random.Random(18)
    sizes, isolated, most = set(), 0, 0
    for _ in range(200):
        H = _random_instance(rng)
        k = rng.randint(1, 3)
        L = random_assignment(H.n, k, k + 2, rng)
        eta = _random_eta(H, rng) if rng.random() < 0.5 else None
        assert count_L_colorings_expansion(H, L, eta=eta) == _oracle(H, L, eta), (H, L.lists, eta)
        sizes.update(len(e) for e in H.edges)
        covered = set().union(*H.edges) if H.edges else set()
        isolated += len(covered) < H.n
        most = max(most, H.m)
    assert most == 11
    assert len(sizes) >= 4
    assert isolated > 100


def test_sum_does_not_depend_on_stream_order(monkeypatch):
    stream = listcolor.nb_subsets
    rng = random.Random(19)
    cases = []
    for _ in range(40):
        H = _random_instance(rng)
        k = rng.randint(1, 3)
        cases.append((H, random_assignment(H.n, k, k + 2, rng), _random_eta(H, rng)))
    for reorder in (lambda members: members[::-1], lambda members: rng.sample(members, len(members))):
        monkeypatch.setattr(
            listcolor, "nb_subsets", lambda *a, **kw: iter(reorder(list(stream(*a, **kw))))
        )
        for H, L, eta in cases:
            assert count_L_colorings_expansion(H, L, eta=eta) == _oracle(H, L, eta), (H, L.lists, eta)
