"""The exact list-color function's first assignment walk, kept as an oracle.

``canonical_assignments`` is the recursive generator the library used
before it built its assignments as arrays; the tests require the array
walk to list the same assignments in the same order, which fixes the
reported witness.
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
