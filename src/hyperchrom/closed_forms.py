"""Extended-precision closed forms and the grid checks behind the thresholds.

The normalized corollary bounds (cor_uniform_rhs, cor_linear_rhs) and the
auxiliary functions of the threshold derivations (psi_*, phi_*, Psi_r, x0,
x1) are evaluated with mpmath at _DPS digits; C_THM3 is the optimized
constant of the r >= 4 threshold, to 40 digits.  verify_grids sweeps the
calculus claims those proofs lean on over dense float grids and reports
each as a BoundReport.  Throughout, M abbreviates m - 1 and x abbreviates
M / k, as in ``bounds``.  All logarithms are natural: the closed forms pair
log with exp, and any other base breaks the psi identity check.

Each closed form the grids check is written once: ``_psi`` (psi(M, t)),
``_phi`` (phi(M, k, t)), ``_phi1``, ``_phi2`` and ``_psi_x`` (psi(x) for
r >= 4).  The exported functions and ``psi_identity_relerr`` evaluate them
on mpf values, ``verify_grids`` on float64 grids.  The exact corollary
rationals, the thresholds and the gap factors live in ``bounds``.

This is the only module that imports mpmath, and its float grids take
numpy from ``_kernels``.  Nothing else in the package imports it at load
time: ``hyperchrom`` reaches its names through the package's lazy
``__getattr__`` table, and the CLI imports it only for ``verify --grids``,
so every other command runs without mpmath.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from ._kernels import np
from .bounds import C_THM2, STRICT_SLACK, BoundReport, cor_linear_rhs_exact, cor_uniform_rhs_exact
from .errors import InputError, require_int, require_real

__all__ = [
    "C_THM3",
    "cor_uniform_rhs",
    "cor_linear_rhs",
    "psi_Mt",
    "phi_Mkt",
    "phi1_M",
    "phi2_M",
    "phi_xy_thm2",
    "phi_xy_thm3",
    "psi_x_thm3",
    "Psi_r",
    "x0",
    "x1",
    "psi_identity_relerr",
    "verify_grids",
]

_DPS = 30


def _c_thm3() -> mpf:
    with mp.workdps(40):
        return (1 + (9 / mp.e) ** (mpf(1) / 3)) / 3


# (1 + (9/e)^(1/3)) / 3, the optimized constant of the r >= 4 threshold
C_THM3 = _c_thm3()

# The closed forms, each in the caller's arithmetic: num reads a decimal
# constant in its number type, log and exp are its functions.


def _psi(M, t, num, log):
    c = num("2.4")
    return 2 * (c * M) ** (t - 1) - (t * log(M)) ** (t - 1) * M ** (t / c)


def _phi(M, k, t, exp):
    return 1 - k ** (1 - t) * exp(M / k) / 2


def _phi1(M, num, log):
    c = num("2.4")
    return c * M - (2 * M) ** (num(1) / 3) * log(M) * M ** (1 / c)


def _phi2(M, num, log):
    c = num("2.4")
    return num(2) ** (num(1) / 6) * c * M - (2 * M) ** (num(1) / 3) * log(M) * M ** (
        1 / c + 1 / num("14.4")
    )


def _psi_x(x, c, exp):
    return 2 * exp((3 * c - 1) * x) - 3 * x**3


def _mpf_of(frac) -> mpf:
    """An exact corollary rational as an mpf at _DPS digits."""
    with mp.workdps(_DPS):
        return mpf(frac.numerator) / frac.denominator


def cor_uniform_rhs(m: int, rho: int, k: int, mode: str = "binomial") -> mpf:
    """Normalized lower bound for r-uniform H with the given rho, at k.

    Modes, each a further relaxation of the last (binomial >= sinh >=
    phi pointwise):

      binomial  1 - sum_{i>=1} C(m-1, 2i-1) * k^(-2i-rho+2), exact series
      sinh      1 - k^(1-rho) * sinh((m-1)/k)
      phi       1 - k^(1-rho) * exp((m-1)/k) / 2

    k may be any real number >= 1 outside the binomial mode.
    """
    M, k = require_int(m, "m", 2) - 1, require_real(k, "k", 1)
    rho = require_int(rho, "rho", 1)
    if mode == "binomial":
        return _mpf_of(cor_uniform_rhs_exact(m, rho, k))
    with mp.workdps(_DPS):
        kk = mpf(k)
        if mode == "sinh":
            return 1 - kk ** (1 - rho) * mp.sinh(mpf(M) / kk)
        if mode == "phi":
            return phi_Mkt(M, k, rho)
    raise InputError(f"unknown mode {mode!r}, expected binomial, sinh, or phi")


def cor_linear_rhs(m: int, r: int, k: int, mode: str = "binomial") -> mpf:
    """Normalized lower bound for linear r-uniform H (r >= 3) at k.

    Modes:

      binomial  1 - (m-1)k^(-r+1) - sum_{i>=2} C(m-1, 2i-1) k^(-2i-2r+6)
      closed    1 - (m-1)(k^(1-r) - k^(4-2r)) - k^(5-2r) * sinh((m-1)/k)

    closed replaces each binomial coefficient by the factorial bound, so
    binomial >= closed pointwise; at r = 3 closed collapses to
    1 - (x/(m-1)) * sinh(x) with x = (m-1)/k.  k may be any real number
    >= 1 outside the binomial mode.
    """
    M, k = require_int(m, "m", 2) - 1, require_real(k, "k", 1)
    r = require_int(r, "r", 3)
    if mode == "binomial":
        return _mpf_of(cor_linear_rhs_exact(m, r, k))
    if mode == "closed":
        with mp.workdps(_DPS):
            kk = mpf(k)
            return (
                1
                - M * (kk ** (1 - r) - kk ** (4 - 2 * r))
                - kk ** (5 - 2 * r) * mp.sinh(mpf(M) / kk)
            )
    raise InputError(f"unknown mode {mode!r}, expected binomial or closed")


def psi_Mt(M, t) -> mpf:
    """2(2.4M)^(t-1) - (t ln M)^(t-1) M^(t/2.4); positive on M >= t^3/2.

    Its positivity is what turns the phi bound into the explicit
    threshold constant 2.4.  Domain M >= 2, t >= 2.
    """
    M, t = require_real(M, "M", 2), require_real(t, "t", 2)
    with mp.workdps(_DPS):
        return _psi(mpf(M), mpf(t), mpf, mp.log)


def phi_Mkt(M, k, t) -> mpf:
    """1 - k^(1-t) exp(M/k) / 2, increasing in k on (0, inf)."""
    M, k, t = require_real(M, "M", 0), require_real(k, "k", 0, above=True), require_real(t, "t")
    with mp.workdps(_DPS):
        return _phi(mpf(M), mpf(k), mpf(t), mp.exp)


def phi1_M(M) -> mpf:
    """2.4M - (2M)^(1/3) ln(M) M^(1/2.4); positive for M > 0."""
    M = require_real(M, "M", 0, above=True)
    with mp.workdps(_DPS):
        return _phi1(mpf(M), mpf, mp.log)


def phi2_M(M) -> mpf:
    """2^(1/6) 2.4M - (2M)^(1/3) ln(M) M^(1/2.4 + 1/14.4); positive for M > 0."""
    M = require_real(M, "M", 0, above=True)
    with mp.workdps(_DPS):
        return _phi2(mpf(M), mpf, mp.log)


def phi_xy_thm2(x, y) -> mpf:
    """1 - x exp(x) / (2y), the normalized-gap minorant in the 3-uniform
    threshold derivation (x = M/k, y = M)."""
    x, y = require_real(x, "x"), require_real(y, "y", 0, above=True)
    with mp.workdps(_DPS):
        xx = mpf(x)
        return 1 - xx * mp.exp(xx) / (2 * mpf(y))


def phi_xy_thm3(x, y) -> mpf:
    """2y^3 - 2y x^3 - x^3 exp(x), the cleared-denominator form used for
    the r >= 4 threshold (positive iff the normalized gap is)."""
    x, y = require_real(x, "x"), require_real(y, "y")
    with mp.workdps(_DPS):
        xx, yy = mpf(x), mpf(y)
        return 2 * yy**3 - 2 * yy * xx**3 - xx**3 * mp.exp(xx)


def psi_x_thm3(x, c=None) -> mpf:
    """2 exp((3c-1)x) - 3x^3, compared against its tangent line at 0."""
    x, c = require_real(x, "x"), C_THM3 if c is None else require_real(c, "c")
    with mp.workdps(_DPS):
        return _psi_x(mpf(x), mpf(c), mp.exp)


def Psi_r(x, M, r) -> mpf:
    """1 - x^(r-1)/M^(r-2) - x^(2r-5) exp(x) / (2 M^(2r-5)).

    Monotone increasing in r for 0 < x < M, which lets the r >= 4 case
    be settled at r = 4.  Domain x > 0, M > 0, integer r >= 4.
    """
    x, M = require_real(x, "x", 0, above=True), require_real(M, "M", 0, above=True)
    r = require_int(r, "r", 4)
    with mp.workdps(_DPS):
        xx, Mm = mpf(x), mpf(M)
        return (
            1
            - xx ** (r - 1) / Mm ** (r - 2)
            - xx ** (2 * r - 5) * mp.exp(xx) / (2 * Mm ** (2 * r - 5))
        )


def x0(M, c=None) -> mpf:
    """ln(M)/c, the substitution point where the threshold is read off."""
    M = require_real(M, "M", 1, above=True)
    c = C_THM3 if c is None else require_real(c, "c", 0, above=True)
    with mp.workdps(_DPS):
        return mp.log(mpf(M)) / mpf(c)


def x1(c=None) -> mpf:
    """(1/(3c-1)) ln(9/(3c-1)^3), where the tangent-line comparison is
    anchored; at the optimized c this simplifies to 1/(3c-1)."""
    c = C_THM3 if c is None else require_real(c, "c")
    with mp.workdps(_DPS):
        cc = mpf(c)
        s = 3 * cc - 1
        if s <= 0:
            raise InputError(f"c must be > 1/3, got {c}")
        return mp.log(9 / s**3) / s


def psi_identity_relerr(M, t) -> float:
    """Relative error of psi(M,t) = 2 k0^(t-1) phi(M,k0,t) (t ln M)^(t-1)
    at k0 = 2.4M/(t ln M); algebraically zero, numerically tiny."""
    M, t = require_real(M, "M", 2), require_real(t, "t", 2)
    with mp.workdps(40):
        Mm, tt = mpf(M), mpf(t)
        lhs = _psi(Mm, tt, mpf, mp.log)
        k0 = mpf("2.4") * Mm / (tt * mp.log(Mm))
        rhs = 2 * k0 ** (tt - 1) * _phi(Mm, k0, tt, mp.exp) * (tt * mp.log(Mm)) ** (tt - 1)
        denom = max(abs(lhs), abs(rhs))
        if denom == 0:
            return 0.0
        return float(abs(lhs - rhs) / denom)


def _report_min(name, inputs, margin, relation, details=None) -> BoundReport:
    verdict = "holds" if margin > -STRICT_SLACK else "fails"
    return BoundReport(
        name=name,
        inputs=inputs,
        lhs=float(margin),
        rhs=0.0,
        relation=relation,
        verdict=verdict,
        details=details or {},
    )


def verify_grids() -> list[BoundReport]:
    """Sweep the calculus claims behind the thresholds over dense grids.

    Checks, each reported with lhs = worst margin found:

      * psi(M, t) > 0 for t in {2..6}, integer M in {ceil(t^3/2)..10^4}
      * phi1(M) > 0 and phi2(M) > 0 on (0, 10^4], integers plus
        fractional samples
      * 2 exp((3c-1)x) - 3x^3 >= 2 + 2(3c-1)x on [0, 50] at step 0.01
      * 1 - c ln(y)/(2 y^(1-c)) > 0.002 ln(y)/y^(1-c) at c = 0.844 for
        integer y in {2..10^6}
      * psi identity relative error <= 1e-10 over sampled (M, t)
      * Psi_r(x, M, r) < Psi_r(x, M, r+1) on sampled x < M, r in {4..8}

    Failures become verdicts, never exceptions.
    """
    reports: list[BoundReport] = []

    for t in range(2, 7):
        lo = math.ceil(t**3 / 2)
        psi = _psi(np.arange(lo, 10**4 + 1, dtype=np.float64), t, float, np.log)
        reports.append(
            _report_min(
                "psi_positive_grid",
                {"t": t, "M_min": lo, "M_max": 10**4},
                float(psi.min()),
                ">",
            )
        )

    M_grid = np.concatenate(
        [
            np.arange(1, 10**4 + 1, dtype=np.float64),
            np.arange(0.01, 1.0, 0.01),
            np.arange(1.5, 101.0, 1.0),
        ]
    )
    for name, form in (("phi1_positive_grid", _phi1), ("phi2_positive_grid", _phi2)):
        low = float(form(M_grid, float, np.log).min())
        reports.append(_report_min(name, {"M_max": 10**4}, low, ">"))

    c = float(C_THM3)
    x = np.arange(0, 5001, dtype=np.float64) * 0.01
    tangent_margin = _psi_x(x, c, np.exp) - (2 + 2 * (3 * c - 1) * x)
    reports.append(
        _report_min(
            "psi_tangent_line_grid",
            {"x_max": 50, "step": 0.01},
            float(tangent_margin.min()),
            ">=",
        )
    )

    y = np.arange(2, 10**6 + 1, dtype=np.float64)
    logy = np.log(y)
    scale = y ** (1 - C_THM2)
    disp = 1 - C_THM2 * logy / (2 * scale) - 0.002 * logy / scale
    reports.append(
        _report_min(
            "thm2_display_inequality",
            {"c": C_THM2, "y_max": 10**6},
            float(disp.min()),
            ">",
        )
    )

    worst = 0.0
    for t in range(2, 7):
        lo = math.ceil(t**3 / 2)
        for M in sorted({lo, lo + 1, 10, 100, 1000, 10**4}):
            if M < max(2, lo):
                continue
            worst = max(worst, psi_identity_relerr(M, t))
    reports.append(
        BoundReport(
            name="psi_identity_relerr",
            inputs={"t_range": "2..6"},
            lhs=worst,
            rhs=1e-10,
            relation="<=",
            verdict="holds" if worst <= 1e-10 else "fails",
        )
    )

    min_step = math.inf
    for M in (10, 100, 1000):
        for xv in (0.5, 1, 2, 5, 9, 50, 99):
            if xv >= M:
                continue
            prev = Psi_r(xv, M, 4)
            for r in range(5, 9):
                cur = Psi_r(xv, M, r)
                min_step = min(min_step, float(cur - prev))
                prev = cur
    reports.append(
        _report_min(
            "Psi_r_monotone_in_r",
            {"r_range": "4..8"},
            min_step,
            ">",
        )
    )

    return reports
