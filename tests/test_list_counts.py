"""Exact P_l and the list-count kernel against the search they replaced.

``oracle_exact`` is the exact list-color function as it was before it
counted from partition terms: every assignment of ``canonical_assignments``
in order, each counted by the brute force ``count_L_colorings``, keeping
the first minimum.  The library must report the same value and the
same witness.  The partition terms themselves are checked against Dohmen's
identity: grouped by their blocks, the NB(H) members of the walk carry each
partition's whole signed count, under any edge labelling.
"""

import functools
import itertools
import math
import operator
import random

import numpy as np
from canonical import canonical_assignments, orbit_key

from hyperchrom import Hypergraph, ListAssignment, count_L_colorings, list_color_function_exact
from hyperchrom import _kernels, listcolor
from hyperchrom.cycles import _nb_walk
from hyperchrom.generators import iter_edge_antichains, random_antichain


def oracle_exact(H, k):
    """(P_l(H, k), first minimizing list tuple) by brute force over canonical assignments."""
    best, best_lists = None, None
    for lists in canonical_assignments(H.n, k):
        count = count_L_colorings(H, ListAssignment(k, dict(enumerate(lists, start=1))))
        if best is None or count < best:
            best, best_lists = count, lists
            if best == 0:
                break
    return best, best_lists


def _check_exact(H, k):
    value, witness = list_color_function_exact(H, k)
    assert (value, tuple(witness.lists[v] for v in range(1, H.n + 1))) == oracle_exact(H, k), (
        H.edges,
        k,
    )


def test_exact_matches_oracle_on_small_antichains():
    pairs = 0
    for n in range(1, 5):
        for H in iter_edge_antichains(n, 3):
            for k in range(1, 12 // n + 1):
                _check_exact(H, k)
                pairs += 1
    assert pairs == 321


def test_exact_matches_oracle_on_complete_instances():
    for r in (3, 4, 2):
        _check_exact(Hypergraph(6, list(itertools.combinations(range(1, 7), r))), 2)


def test_exact_past_one_mask_word(monkeypatch):
    # n * k >= 64: a list's colors span two 63-bit words
    monkeypatch.setenv("HYPERCHROM_BUDGET", "exact_plk=130")
    for H, k, want in (
        (Hypergraph(65, [(1, 2, 3)]), 1, 0),
        (Hypergraph(64, [(1, 2)]), 1, 0),
        (Hypergraph(1, []), 64, 64),
    ):
        value, witness = list_color_function_exact(H, k)
        assert (value, witness) == (want, ListAssignment.from_constant(H.n, k)), (H.n, k)


def test_options_encode_colors_past_one_word():
    # each option decodes to a k-subset in lexicographic order, one word per 63 colors
    for n, k in ((65, 1), (2, 32), (3, 22), (1, 64)):
        table = first, value, after = listcolor._assignment_options(n, k, n * k)
        assert value.shape == (first[-1], -(-n * k // 63)) and after.shape == (first[-1],)
        assert value.min() >= 0  # int64 words with the sign bit clear
        options = [range(first[s], first[s + 1]) for s in range(len(first) - 1)]
        for opts in options:
            lists = [tuple(listcolor._mask_colors(value[i].tolist())) for i in opts]
            assert all(len(colors) == k for colors in lists) and lists == sorted(set(lists))
        if k == 1:
            # one state per count of used colors, which each list may repeat or pass by one
            for used, opts in enumerate(options):
                assert [(listcolor._mask_colors(value[i].tolist()), after[i]) for i in opts] == [
                    ([c], max(used, c)) for c in range(1, used + 2)
                ]
        if n > 3:
            continue  # Bell(65) rows
        rows = [row for batch in _kernels._orbit_rows(n, table, 7) for row in batch.tolist()]
        got = [tuple(tuple(listcolor._mask_colors(words)) for words in row) for row in rows]
        # one row per orbit, in lexicographic order
        assert got == sorted(got) and len({orbit_key(lists) for lists in got}) == len(got), (n, k)
        lead = tuple(range(1, k + 1))
        if n == 2:
            # the second list shares its lowest t colors with the first, t = k down to 0
            assert got == [(lead, lead[:t] + tuple(range(k + 1, 2 * k - t + 1))) for t in range(k, -1, -1)]
        if n == 1:
            assert got == [(lead,)]


def test_weights_past_int64_give_the_exact_total():
    # two words per list; the weights cancel to 5 per common color, plus 7
    masks = np.array(
        [
            [[0b1011, 0b0110], [1 << 62, 0]],
            [[0b0011, 0b0111], [1 << 62, 1]],
        ],
        dtype=np.int64,
    )
    terms = [
        (2**63 + 5, [(0, 1)]),
        (-(2**63), [(0, 1)]),
        (3 * 2**63, [(0,), (1,)]),
        (-3 * 2**63, [(0,), (1,)]),
        (7, []),
    ]
    common = [2 + 1, 2 + 0]  # per column: shared bits of word 0 plus word 1
    assert _kernels.list_counts(masks, terms).tolist() == [5 * c + 7 for c in common]


def test_list_counts_match_python_popcounts():
    rng = random.Random(2)
    for _ in range(50):
        n, words, count = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 6)
        masks = [[[rng.getrandbits(63) for _ in range(count)] for _ in range(words)] for _ in range(n)]
        terms = []
        for _ in range(rng.randint(0, 6)):
            vertices = list(range(n))
            rng.shuffle(vertices)
            cuts = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            blocks = [tuple(sorted(vertices[a:b])) for a, b in zip([0] + cuts, cuts)]
            terms.append((rng.randint(-1000, 1000), rng.sample(blocks, rng.randint(0, len(blocks)))))
        want = []
        for c in range(count):
            total = 0
            for weight, blocks in terms:
                for block in blocks:
                    words_and = [functools.reduce(operator.and_, (masks[v][w][c] for v in block)) for w in range(words)]
                    weight *= sum(word.bit_count() for word in words_and)
                total += weight
            want.append(total)
        got = _kernels.list_counts(np.array(masks, dtype=np.int64), terms)
        assert got.tolist() == want


def _random_eta(m, rng):
    eta = list(range(1, m + 1))
    rng.shuffle(eta)
    return eta


def test_partition_terms_group_nb_members():
    rng = random.Random(6)
    cancelled = 0
    for _ in range(150):
        n = rng.randint(3, 7)  # comb(n, n // 2): the widest antichain of edges
        H = random_antichain(n, rng.randint(0, min(9, math.comb(n, n // 2))), rng)
        H = Hypergraph(n + rng.randint(0, 2), H.edges)  # isolated vertices
        k = rng.randint(1, 4)
        groups: dict[frozenset, int] = {}
        for _mask, size, _comps, blocks in _nb_walk(H, _random_eta(H.m, rng)):
            key = frozenset(blocks)
            groups[key] = groups.get(key, 0) + (-1) ** size
        cancelled += sum(not count for count in groups.values())
        want = {
            key: count * k ** (H.n - sum(b.bit_count() for b in key))
            for key, count in groups.items()
            if count
        }
        terms = listcolor._partition_terms(H, k)
        got = {frozenset(sum(1 << v for v in block) for block in blocks): w for w, blocks in terms}
        assert len(got) == len(terms) and got == want, H.edges
    assert cancelled > 0  # some partitions' NB members cancel to zero
