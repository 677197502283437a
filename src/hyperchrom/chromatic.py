"""Exact chromatic polynomials of hypergraphs.

The polynomial is assembled from the inclusion-exclusion expansion over
edge subsets that contain no broken delta-cycle: each such subset A
contributes (-1)^|A| * k^c(A), where c(A) counts connected components of
the spanning subhypergraph (V, A).  The expansion is independent of the
edge ordering used to break cycles, which the tests exercise directly.

Counting proper colorings by brute force lives here too; it is the
oracle the expansion is checked against, and the one function here that
imports ``_kernels`` (and with it numpy), when it runs.
"""

from __future__ import annotations

from . import budget
from .cycles import DeltaCycleCatalog, _nb_walk, _require_own_catalog
from .errors import InputError, require_int
from .hypercore import Hypergraph, require_valid

__all__ = [
    "IntPolynomial",
    "chromatic_polynomial",
    "count_proper_colorings",
]

class IntPolynomial:
    """Integer polynomial in one variable, stored sparsely.

    Coefficients are exact Python ints keyed by exponent; zero
    coefficients are never stored.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None) -> None:
        self._coeffs = {}
        if coeffs:
            for exp, coeff in coeffs.items():
                if exp < 0:
                    raise InputError(f"negative exponent {exp}")
                if coeff:
                    self._coeffs[int(exp)] = int(coeff)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def eval(self, k: int) -> int:
        """Evaluate at an integer point, exactly."""
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
    _require_own_catalog(H, catalog)
    # members counted by component count, even sizes in row 0 and odd in row 1
    counts = [[0] * (H.n + 1), [0] * (H.n + 1)]
    for _mask, size, comps, _blocks in _nb_walk(H, eta):
        counts[size & 1][comps] += 1
    even, odd = counts
    return IntPolynomial({c: even[c] - odd[c] for c in range(H.n + 1)})


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
    from . import _kernels

    return int(_kernels.coloring_counts(H, k)[0])
