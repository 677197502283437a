"""The exact list-color function's first assignment walk, kept as an oracle.

``canonical_assignments`` is the recursive generator the library used
before it built its assignments as arrays.  It renames colors by first
appearance only, so it lists some color-renaming orbits more than once;
``orbit_leaders`` keeps the first row of each orbit.  The tests require
the library's walk to list exactly those rows in the same order, which
fixes the reported witness.
"""

from itertools import combinations


def canonical_assignments(n, k):
    """Yield one list-tuple per color-renaming class, possibly more.

    Vertex 1 holds {1..k} and each later vertex picks its colors from those
    already used plus a consecutive block of fresh ones.  The walk is
    depth-first over vertices, lexicographic per vertex, so the constant
    assignment {1..k}^n comes first.
    """
    lists = [()] * n
    # per count of colors used so far, the k-subsets whose fresh colors come next
    options = {}

    def rec(v, used):
        if v == n:
            yield tuple(lists)
            return
        if used not in options:
            subsets = combinations(range(1, used + k + 1), k)
            options[used] = [s for s in subsets if s[-1] - used <= sum(a > used for a in s)]
        for subset in options[used]:
            lists[v] = subset
            yield from rec(v + 1, max(used, subset[-1]))

    yield from rec(0, 0)


def orbit_key(lists):
    """The multiset of per-color vertex sets: equal exactly for two list
    tuples that a renaming of colors maps onto each other."""
    holders = {}
    for v, colors in enumerate(lists):
        for c in colors:
            holders.setdefault(c, []).append(v)
    return tuple(sorted(map(tuple, holders.values())))


def orbit_leaders(n, k):
    """Yield the first row of ``canonical_assignments(n, k)`` in each orbit, in order."""
    seen = set()
    for lists in canonical_assignments(n, k):
        key = orbit_key(lists)
        if key not in seen:
            seen.add(key)
            yield lists
