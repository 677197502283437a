"""Exact chromatic polynomials of hypergraphs.

The polynomial is assembled from the inclusion-exclusion expansion over
edge subsets that contain no broken delta-cycle: each such subset A
contributes (-1)^|A| * k^c(A), where c(A) counts connected components of
the spanning subhypergraph (V, A).  The expansion is independent of the
edge ordering used to break cycles, which the tests exercise directly.

Counting colorings by brute force lives here too; it is the oracle the
expansion is checked against.  One pure-Python kernel, ``_count_colorings``,
counts on bit-sliced ints and serves ``count_proper_colorings``,
``listcolor.count_L_colorings`` and the heuristic list-color search, so
none of them loads numpy.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product

from . import budget
from .cycles import DeltaCycleCatalog, _nb_walk, _require_own_catalog
from .errors import InputError, require_int
from .hypercore import Hypergraph, _covered_count, require_valid

__all__ = [
    "IntPolynomial",
    "chromatic_polynomial",
    "count_proper_colorings",
]

_WIDTH = 1 << 16  # bits per bit-sliced int: the low vertices' k^j colorings


class IntPolynomial:
    """Integer polynomial in one variable, stored sparsely.

    Coefficients are exact Python ints keyed by exponent; zero
    coefficients are never stored.  Exponents and coefficients must be
    integers, and exponents >= 0.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        self._coeffs = {}
        if coeffs is None:
            return
        if not isinstance(coeffs, Mapping):
            raise InputError(f"coefficients must map exponents to integers, got {coeffs!r}")
        for exp, coeff in coeffs.items():
            exp, coeff = require_int(exp, "exponent"), require_int(coeff, "coefficient")
            if exp < 0:
                raise InputError(f"negative exponent {exp}")
            if coeff:
                self._coeffs[exp] = coeff

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def eval(self, k: int) -> int:
        """Evaluate at an integer point, exactly."""
        k = require_int(k, "k")
        if not self._coeffs:
            return 0
        acc = 0
        prev = self.degree
        for exp in sorted(self._coeffs, reverse=True):
            acc = acc * k ** (prev - exp) + self._coeffs[exp]
            prev = exp
        return acc * k**prev

    def to_pairs(self) -> list[list[int]]:
        """[[exponent, coefficient], ...] in decreasing exponent order."""
        return [[e, self._coeffs[e]] for e in sorted(self._coeffs, reverse=True)]

    @classmethod
    def from_pairs(cls, pairs) -> IntPolynomial:
        coeffs: dict[int, int] = {}
        for exp, coeff in pairs:
            coeffs[exp] = coeffs.get(exp, 0) + coeff
        return cls(coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for exp in sorted(self._coeffs, reverse=True):
            coeff = self._coeffs[exp]
            mag = abs(coeff)
            if exp == 0:
                term = str(mag)
            else:
                var = "k" if exp == 1 else f"k^{exp}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(f"-{term}" if coeff < 0 else term)
            else:
                parts.append(f" - {term}" if coeff < 0 else f" + {term}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self._coeffs!r})"


def chromatic_polynomial(
    H: Hypergraph,
    eta=None,
    catalog: DeltaCycleCatalog | None = None,
) -> IntPolynomial:
    """Chromatic polynomial of H via the broken delta-cycle expansion.

    Args:
        H: the hypergraph.
        eta: edge ordering used to break cycles (default identity).  The
            returned polynomial does not depend on it.
        catalog: None or H's own ``enumerate_delta_cycles(H)``, which is
            cached on H anyway; any other catalog raises InputError.

    Returns:
        IntPolynomial p with p.eval(k) == count_proper_colorings(H, k)
        for every k >= 0.
    """
    budget.check_cap("nb_edges", H.m, "broken delta-cycle expansion")
    require_valid(H)
    _require_own_catalog(H, catalog)
    # a member's component count c lies in base..n; row 0 counts even sizes
    # by c - base, row 1 odd ones
    width = _covered_count(H) + 1
    base = H.n + 1 - width
    counts = [[0] * width, [0] * width]
    for _mask, size, comps, _blocks in _nb_walk(H, eta):
        counts[size & 1][comps - base] += 1
    even, odd = counts
    return IntPolynomial({base + c: even[c] - odd[c] for c in range(width)})


def count_proper_colorings(H: Hypergraph, k: int) -> int:
    """Number of proper k-colorings of H, counted one by one.

    A coloring is proper when no edge is monochromatic.  Runs in
    O(k^n) time and is subject to the brute_force budget cap.
    """
    k = require_int(k, "k", 0)
    require_valid(H)
    if H.n == 0:
        return 1
    if k == 0:
        return 0
    budget.check_cap("brute_force", k**H.n, "proper-coloring enumeration")
    return _count_colorings(H, [range(k)] * H.n)


def _count_colorings(H: Hypergraph, lists) -> int:
    """Colorings that give vertex v a color of lists[v - 1], no edge monochromatic.

    Every list holds k >= 1 distinct ints.  A vertex in no edge multiplies
    the count by k.  The s others number their colorings by digits, digit
    d of vertex v standing for color lists[v - 1][d], and the last j of
    them (the low vertices), k^j the largest power within _WIDTH, vary
    inside one Python int of k^j bits, one bit per coloring.  The low
    vertex p places from the last keeps its digit-0 mask, the bits where
    it takes digit 0 (a run of k^p bits with period k^(p + 1), built by
    doubling), and a map from color to digit; its mask for the color of
    digit d, that mask shifted by d * k^p, is formed when used.  An edge
    wholly among the low vertices gives one fixed mask of monochromatic
    bits: the OR, over the colors its lists share, of the AND of its
    vertices' masks.  The s - j high vertices take each tuple of colors in
    turn.  An edge that meets them can only be monochromatic in the one
    color its high vertices share, if they share one; then it adds the AND
    of its low vertices' masks for that color, and with no low vertex it
    rules out the whole tuple.  Each tuple counts the bits left clear.

    Memory: j digit-0 masks of at most _WIDTH bits, j maps of k colors,
    and a constant number of working masks of that width.  Time: k^(s - j)
    tuples, each a few big-int operations per low vertex of an edge that
    meets the high vertices.  The count is an exact Python int.
    """
    k = len(lists[0]) if lists else 1
    order = sorted({v for edge in H.edges for v in edge})
    width, j = 1, 0
    while j < len(order) and width * k <= _WIDTH:
        width, j = width * k, j + 1
    high, low = order[: len(order) - j], order[len(order) - j :]
    full = (1 << width) - 1
    digits = {}  # low vertex -> (its digit-0 mask, its run, {color: digit})
    for p, v in enumerate(reversed(low)):
        run = k**p
        zero, span = (1 << run) - 1, run * k  # the bits where v takes digit 0
        while span < width:
            zero |= zero << span
            span *= 2
        digits[v] = (zero & full, run, {color: d for d, color in enumerate(lists[v - 1])})
    slot = {v: i for i, v in enumerate(high)}
    fixed = 0  # colorings of the low vertices that make a low edge monochromatic
    mixed = []  # per edge meeting the high vertices: (first slot, other slots, low digits)
    for edge in H.edges:
        slots = [slot[v] for v in edge if v in slot]
        lows = [digits[v] for v in edge if v in digits]
        if slots:
            mixed.append((slots[0], slots[1:], lows))
        else:
            for color in lows[0][2]:
                fixed |= _all_take(lows, color)
    total = 0
    for colors in product(*(lists[v - 1] for v in high)):
        bad = fixed
        for first, rest, lows in mixed:
            color = colors[first]
            if any(colors[i] != color for i in rest):
                continue
            if not lows:
                break  # a high edge is monochromatic under every low coloring
            bad |= _all_take(lows, color)
        else:
            total += width - bad.bit_count()
    return total * k ** (H.n - len(order))


def _all_take(lows, color) -> int:
    """The bits where every low vertex in lows, a nonempty list of (digit-0
    mask, run, {color: digit}), takes color: its digit-0 mask shifted by
    digit * run, ANDed from the first vertex's."""
    zero, run, digit = lows[0]
    d = digit.get(color)
    if d is None:
        return 0
    both = zero << d * run
    for zero, run, digit in lows[1:]:
        d = digit.get(color)
        if d is None:
            return 0
        both &= zero << d * run
    return both
