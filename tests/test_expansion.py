"""``count_L_colorings_expansion`` against the plain sum it replaced.

The oracle sums (-1)^|A| * beta(H, L, A) over ``nb_subsets(H, eta)``,
rebuilding every member's components from scratch; ``beta`` itself is
checked against a union-find in ``test_components.py``.  Lists are drawn
from k + 2 colors, so some blocks share no color and their terms vanish.
The expansion skips those terms: the last tests count what it streams
and folds, on lists where single edges, every edge, or only blocks of
several edges share no color, and check it against brute force too.
"""

import random
import tracemalloc

from hyperchrom import (
    Hypergraph,
    ListAssignment,
    alpha,
    beta,
    count_L_colorings,
    count_L_colorings_expansion,
    listcolor,
    nb_subsets,
)
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


def _counted(monkeypatch):
    """Patch the expansion's stream and block fold to count members and folds."""
    seen = {"members": 0, "folds": 0}
    stream, fold = listcolor.nb_subsets, listcolor._add_block

    def counting_stream(*args, **kwargs):
        for A in stream(*args, **kwargs):
            seen["members"] += 1
            yield A

    def counting_fold(*args):
        seen["folds"] += 1
        return fold(*args)

    monkeypatch.setattr(listcolor, "nb_subsets", counting_stream)
    monkeypatch.setattr(listcolor, "_add_block", counting_fold)
    return seen


def _check_pruned(H, L, eta, seen):
    """The expansion equals the oracle and brute force; returns (streamed, folds)."""
    seen.update(members=0, folds=0)
    got = count_L_colorings_expansion(H, L, eta=eta)
    assert got == _oracle(H, L, eta) == count_L_colorings(H, L), (H, L.lists, eta)
    return seen["members"], seen["folds"]


def _cases(rng, count):
    for _ in range(count):
        H = _random_instance(rng)
        yield H, _random_eta(H, rng) if rng.random() < 0.5 else None


def test_colorless_edges_are_never_streamed(monkeypatch):
    rng = random.Random(22)
    seen = _counted(monkeypatch)
    cases = 0
    for H, eta in _cases(rng, 300):
        k = rng.randint(1, 3)
        L = random_assignment(H.n, k, k + 2, rng)
        colorless = [e for e, a in enumerate(alpha(H, L).per_edge, 1) if a == k]
        if not colorless:
            continue
        streamed, _ = _check_pruned(H, L, eta, seen)
        full = list(nb_subsets(H, eta=eta))
        assert streamed == sum(1 for A in full if not set(A.labels) & set(colorless))
        assert streamed < len(full)
        cases += 1
    assert cases > 100


def test_every_edge_colorless_leaves_k_to_the_n(monkeypatch):
    rng = random.Random(23)
    seen = _counted(monkeypatch)
    for H, eta in _cases(rng, 60):
        k = rng.randint(1, 3)
        L = ListAssignment(k, {v: range(k * v, k * v + k) for v in range(1, H.n + 1)})
        assert _check_pruned(H, L, eta, seen) == (1, 0)
        assert count_L_colorings(H, L) == k**H.n
        assert len(list(nb_subsets(H, eta=eta))) > 1 or H.m == 0


def test_merged_blocks_that_die_prune_their_supersets(monkeypatch):
    # every edge shares a color, so all of NB(H) is streamed; a member whose
    # merged block shares none stops the fold for every member above it
    seen = _counted(monkeypatch)
    path = Hypergraph(4, [(1, 2), (2, 3), (3, 4)])
    L = ListAssignment(2, {1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 5)})
    # {e1, e2} and {e2, e3} die, so {e1, e2, e3} is streamed but not built
    assert _check_pruned(path, L, None, seen) == (8, 6)
    rng = random.Random(24)
    cases = 0
    for H, eta in _cases(rng, 400):
        k = rng.randint(2, 3)
        # each edge's vertices share a color drawn for that edge; the rest
        # of each list is filled from the same 3k colors
        lists = {v: set() for v in range(1, H.n + 1)}
        for edge in H.edges:
            color = rng.randint(1, 3 * k)
            for v in edge:
                lists[v].add(color)
        if any(len(colors) > k for colors in lists.values()):
            continue
        for colors in lists.values():
            while len(colors) < k:
                colors.add(rng.randint(1, 3 * k))
        L = ListAssignment(k, lists)
        members = list(nb_subsets(H, eta=eta))
        assert alpha(H, L).per_edge.count(k) == 0
        if all(beta(H, L, A) for A in members):
            continue
        streamed, folds = _check_pruned(H, L, eta, seen)
        assert streamed == len(members)
        assert folds <= len(members) - 1
        cases += folds < len(members) - 1
    assert cases > 30


def test_memory_does_not_grow_with_n():
    # one 3-edge among 20,000 vertices at k = 2: a table of every power k^0..k^n held ~26 MB
    n = 20_000
    H = Hypergraph(n, [(1, 2, 3)])
    L = ListAssignment.from_constant(n, 2)
    tracemalloc.start()
    try:
        count = count_L_colorings_expansion(H, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2**n - 2 ** (n - 2)
    assert peak < 2**20
