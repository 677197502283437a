"""Lower bounds, thresholds, and their numeric verification.

Everything here revolves around the difference P(H, L) - P(H, k) for a
k-assignment L.  The per-edge bound (prop1_rhs) is exact integer
arithmetic; the normalized corollary bounds (cor_uniform_rhs,
cor_linear_rhs) and the proof-auxiliary closed forms are evaluated in
extended precision; verify_grids sweeps the calculus claims those proofs
lean on over dense grids and reports each as a BoundReport.

Throughout, M abbreviates m - 1 and x abbreviates M / k, matching the
substitutions the bound derivations use.  All logarithms are natural:
the closed forms pair log with exp, and any other base breaks the psi
identity check below.

Strict inequalities evaluated in floating point are granted a 1e-12
slack so a verdict cannot flip on rounding; exact-integer checks get no
slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from mpmath import mp, mpf

from . import _kernels, budget, hypercore
from .chromatic import chromatic_polynomial
from .cycles import DeltaCycleCatalog, _catalog_for, _nb_walk, normalize_eta
from .errors import InputError
from .hypercore import Hypergraph, _set_bits
from .listcolor import ListAssignment, alpha, list_color_function_exact

__all__ = [
    "STRICT_SLACK",
    "C_THM2",
    "C_THM3",
    "BoundReport",
    "reports_to_csv",
    "prop1_rhs",
    "cor_uniform_rhs",
    "cor_uniform_rhs_exact",
    "cor_linear_rhs",
    "cor_linear_rhs_exact",
    "threshold_thm1",
    "threshold_thm2",
    "threshold_thm3",
    "thm2_gap_factor",
    "thm3_gap_factor",
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
    "theorem_certify",
    "scan_assignments_one_extra_color",
]

STRICT_SLACK = 1e-12

_DPS = 30

# constant in the 3-uniform threshold derivation
C_THM2 = 0.844


def _c_thm3() -> mpf:
    with mp.workdps(40):
        return (1 + (9 / mp.e) ** (mpf(1) / 3)) / 3


# (1 + (9/e)^(1/3)) / 3, the optimized constant of the r >= 4 threshold
C_THM3 = _c_thm3()


@dataclass
class BoundReport:
    """One verified inequality: lhs <relation> rhs, plus the verdict.

    verdict is one of "holds", "fails", "not-applicable", or
    "inconclusive"; it is "not-applicable" exactly when applicability
    lists a violated precondition.  "inconclusive" is reserved for
    one-directional results whose hypothesis is unmet (a threshold not
    reached says nothing either way).
    """

    name: str
    inputs: dict
    lhs: object
    rhs: object
    relation: str
    verdict: str
    applicability: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.verdict == "not-applicable") != bool(self.applicability):
            raise InputError(
                "verdict must be not-applicable exactly when applicability is non-empty"
            )


_CSV_HEADER = "name,m,r,rho,k,lhs,rhs,verdict"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value.replace(",", ";")
    return repr(float(value))


def reports_to_csv(reports: Iterable[BoundReport]) -> str:
    """Render reports as CSV with columns name,m,r,rho,k,lhs,rhs,verdict."""
    lines = [_CSV_HEADER]
    for rep in reports:
        cells = [rep.name]
        for key in ("m", "r", "rho", "k"):
            cells.append(_csv_cell(rep.inputs.get(key)))
        cells.append(_csv_cell(rep.lhs))
        cells.append(_csv_cell(rep.rhs))
        cells.append(rep.verdict)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def prop1_rhs(
    H: Hypergraph,
    L: ListAssignment,
    eta=None,
    catalog: DeltaCycleCatalog | None = None,
) -> int:
    """Exact per-edge lower bound on P(H, L) - P(H, k) for r-uniform H.

    Returns sum over edges e of
    alpha(e, L) * (k^(n-r) - sum_{A broken-free, e in A, |A| even} k^(c(A)-1)),
    all in exact integer arithmetic.  The census, and with it the value,
    depends on the edge ordering used to break cycles, but the bound is
    valid under every ordering; callers may pass any eta.
    """
    if H.m == 0:
        return 0
    r = hypercore.uniformity(H)
    if r is None:
        raise InputError("per-edge bound needs an r-uniform hypergraph")
    budget.check_cap("nb_edges", H.m, "broken delta-cycle expansion")
    profile = alpha(H, L)
    k = L.k
    weights = _even_weights(_even_edge_table(_catalog_for(H, catalog), eta), k)
    big_k = k ** (H.n - r)
    return sum(a * (big_k - w) for a, w in zip(profile.per_edge, weights) if a)


def _even_edge_table(catalog: DeltaCycleCatalog, eta) -> list[list[int]]:
    """table[e][c]: members A of NB(H) with edge index e in A, |A| even, c(A) = c.

    It does not depend on any list assignment, so it is cached on the
    catalog per edge labelling, next to the broken family it comes from.
    """
    H = catalog.H
    key = ("even", normalize_eta(H, eta))
    if key not in catalog._broken_cache:
        table = [[0] * (H.n + 1) for _ in range(H.m)]
        for mask, size, comps, _blocks in _nb_walk(catalog, eta):
            if not size & 1:
                for e in _set_bits(mask):
                    table[e][comps] += 1
        catalog._broken_cache[key] = table
    return catalog._broken_cache[key]


def _even_weights(table: list[list[int]], k: int) -> list[int]:
    """Per edge, the sum of k^(c(A)-1) over the even-size members A holding it."""
    return [sum(cnt * k ** (c - 1) for c, cnt in enumerate(row) if cnt) for row in table]


def _check_mrk(m: int, k: int, lo_m: int = 2) -> int:
    if m < lo_m:
        raise InputError(f"m must be >= {lo_m}, got {m}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return m - 1


def cor_uniform_rhs(m: int, rho: int, k: int, mode: str = "binomial") -> mpf:
    """Normalized lower bound for r-uniform H with the given rho, at k.

    Modes, each a further relaxation of the last (binomial >= sinh >=
    phi pointwise):

      binomial  1 - sum_{i>=1} C(m-1, 2i-1) * k^(-2i-rho+2), exact series
      sinh      1 - k^(1-rho) * sinh((m-1)/k)
      phi       1 - k^(1-rho) * exp((m-1)/k) / 2
    """
    M = _check_mrk(m, k)
    if rho < 1:
        raise InputError(f"rho must be >= 1, got {rho}")
    if mode == "binomial":
        frac = cor_uniform_rhs_exact(m, rho, k)
        with mp.workdps(_DPS):
            return mpf(frac.numerator) / frac.denominator
    with mp.workdps(_DPS):
        kk = mpf(k)
        if mode == "sinh":
            return 1 - kk ** (1 - rho) * mp.sinh(mpf(M) / kk)
        if mode == "phi":
            return phi_Mkt(M, k, rho)
    raise InputError(f"unknown mode {mode!r}, expected binomial, sinh, or phi")


def cor_uniform_rhs_exact(m: int, rho: int, k: int) -> Fraction:
    """Binomial mode of cor_uniform_rhs as an exact rational."""
    M = _check_mrk(m, k)
    if rho < 1:
        raise InputError(f"rho must be >= 1, got {rho}")
    total = Fraction(1)
    i = 1
    while 2 * i - 1 <= M:
        total -= Fraction(math.comb(M, 2 * i - 1), k ** (2 * i + rho - 2))
        i += 1
    return total


def cor_linear_rhs(m: int, r: int, k: int, mode: str = "binomial") -> mpf:
    """Normalized lower bound for linear r-uniform H (r >= 3) at k.

    Modes:

      binomial  1 - (m-1)k^(-r+1) - sum_{i>=2} C(m-1, 2i-1) k^(-2i-2r+6)
      closed    1 - (m-1)(k^(1-r) - k^(4-2r)) - k^(5-2r) * sinh((m-1)/k)

    closed replaces each binomial coefficient by the factorial bound, so
    binomial >= closed pointwise; at r = 3 closed collapses to
    1 - (x/(m-1)) * sinh(x) with x = (m-1)/k.
    """
    M = _check_mrk(m, k)
    if r < 3:
        raise InputError(f"r must be >= 3, got {r}")
    if mode == "binomial":
        frac = cor_linear_rhs_exact(m, r, k)
        with mp.workdps(_DPS):
            return mpf(frac.numerator) / frac.denominator
    if mode == "closed":
        with mp.workdps(_DPS):
            kk = mpf(k)
            return (
                1
                - M * (kk ** (1 - r) - kk ** (4 - 2 * r))
                - kk ** (5 - 2 * r) * mp.sinh(mpf(M) / kk)
            )
    raise InputError(f"unknown mode {mode!r}, expected binomial or closed")


def cor_linear_rhs_exact(m: int, r: int, k: int) -> Fraction:
    """Binomial mode of cor_linear_rhs as an exact rational."""
    M = _check_mrk(m, k)
    if r < 3:
        raise InputError(f"r must be >= 3, got {r}")
    total = Fraction(1) - Fraction(M, k ** (r - 1))
    i = 2
    while 2 * i - 1 <= M:
        total -= Fraction(math.comb(M, 2 * i - 1), k ** (2 * i + 2 * r - 6))
        i += 1
    return total


def _check_threshold_m(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise InputError(f"m must be an integer >= 2, got {m!r}")


def threshold_thm1(m: int, rho: int) -> float:
    """k at or above 2.4(m-1)/(rho * ln(m-1)) forces P_l = P for
    r-uniform H (r >= 3) with the given rho >= 2 and m >= rho^3/2 + 1.

    Pure formula; the extra hypotheses are the caller's to gate on
    (theorem_certify reports them through applicability).  m = 2 gives
    an infinite threshold since ln(m-1) vanishes.
    """
    _check_threshold_m(m)
    if rho < 1:
        raise InputError(f"rho must be >= 1, got {rho}")
    if m == 2:
        return math.inf
    return 2.4 * (m - 1) / (rho * math.log(m - 1))


def threshold_thm2(m: int) -> float:
    """k at or above 1.185(m-1)/ln(m-1) forces P_l = P for linear
    3-uniform H with m >= 3."""
    _check_threshold_m(m)
    if m == 2:
        return math.inf
    return 1.185 * (m - 1) / math.log(m - 1)


def threshold_thm3(m: int) -> float:
    """k at or above 0.831(m-1)/ln(m-1) forces P_l = P for linear
    r-uniform H with r >= 4 and m >= 3."""
    _check_threshold_m(m)
    if m == 2:
        return math.inf
    return 0.831 * (m - 1) / math.log(m - 1)


def thm2_gap_factor(m: int) -> float:
    """Factor on k^(n-3) * alpha(H, L) in the strict 3-uniform gap bound:
    0.002 ln(m-1) / (m-1)^0.156."""
    if not isinstance(m, int) or m < 3:
        raise InputError(f"m must be an integer >= 3, got {m!r}")
    M = m - 1
    return 0.002 * math.log(M) / M**0.156


def thm3_gap_factor(m: int) -> float:
    """Factor on k^(n-r) * alpha(H, L) in the strict r >= 4 gap bound:
    (m-1)^(-1.796) * (1 + 1.796 ln(m-1))."""
    if not isinstance(m, int) or m < 3:
        raise InputError(f"m must be an integer >= 3, got {m!r}")
    M = m - 1
    return M**-1.796 * (1 + 1.796 * math.log(M))


def psi_Mt(M, t) -> mpf:
    """2(2.4M)^(t-1) - (t ln M)^(t-1) M^(t/2.4); positive on M >= t^3/2.

    Its positivity is what turns the phi bound into the explicit
    threshold constant 2.4.  Domain M >= 2, t >= 2.
    """
    if M < 2:
        raise InputError(f"M must be >= 2, got {M}")
    if t < 2:
        raise InputError(f"t must be >= 2, got {t}")
    with mp.workdps(_DPS):
        Mm, tt = mpf(M), mpf(t)
        return 2 * (mpf("2.4") * Mm) ** (tt - 1) - (
            tt * mp.log(Mm)
        ) ** (tt - 1) * Mm ** (tt / mpf("2.4"))


def phi_Mkt(M, k, t) -> mpf:
    """1 - k^(1-t) exp(M/k) / 2, increasing in k on (0, inf)."""
    if k <= 0:
        raise InputError(f"k must be > 0, got {k}")
    if M < 0:
        raise InputError(f"M must be >= 0, got {M}")
    with mp.workdps(_DPS):
        kk = mpf(k)
        return 1 - kk ** (1 - mpf(t)) * mp.exp(mpf(M) / kk) / 2


def phi1_M(M) -> mpf:
    """2.4M - (2M)^(1/3) ln(M) M^(1/2.4); positive for M > 0."""
    if M <= 0:
        raise InputError(f"M must be > 0, got {M}")
    with mp.workdps(_DPS):
        Mm = mpf(M)
        third = mpf(1) / 3
        return mpf("2.4") * Mm - (2 * Mm) ** third * mp.log(Mm) * Mm ** (
            1 / mpf("2.4")
        )


def phi2_M(M) -> mpf:
    """2^(1/6) 2.4M - (2M)^(1/3) ln(M) M^(1/2.4 + 1/14.4); positive for M > 0."""
    if M <= 0:
        raise InputError(f"M must be > 0, got {M}")
    with mp.workdps(_DPS):
        Mm = mpf(M)
        third = mpf(1) / 3
        expo = 1 / mpf("2.4") + 1 / mpf("14.4")
        return mpf(2) ** (mpf(1) / 6) * mpf("2.4") * Mm - (
            2 * Mm
        ) ** third * mp.log(Mm) * Mm**expo


def phi_xy_thm2(x, y) -> mpf:
    """1 - x exp(x) / (2y), the normalized-gap minorant in the 3-uniform
    threshold derivation (x = M/k, y = M)."""
    if y <= 0:
        raise InputError(f"y must be > 0, got {y}")
    with mp.workdps(_DPS):
        xx = mpf(x)
        return 1 - xx * mp.exp(xx) / (2 * mpf(y))


def phi_xy_thm3(x, y) -> mpf:
    """2y^3 - 2y x^3 - x^3 exp(x), the cleared-denominator form used for
    the r >= 4 threshold (positive iff the normalized gap is)."""
    with mp.workdps(_DPS):
        xx, yy = mpf(x), mpf(y)
        return 2 * yy**3 - 2 * yy * xx**3 - xx**3 * mp.exp(xx)


def psi_x_thm3(x, c=None) -> mpf:
    """2 exp((3c-1)x) - 3x^3, compared against its tangent line at 0."""
    if c is None:
        c = C_THM3
    with mp.workdps(_DPS):
        xx, cc = mpf(x), mpf(c)
        return 2 * mp.exp((3 * cc - 1) * xx) - 3 * xx**3


def Psi_r(x, M, r) -> mpf:
    """1 - x^(r-1)/M^(r-2) - x^(2r-5) exp(x) / (2 M^(2r-5)).

    Monotone increasing in r for 0 < x < M, which lets the r >= 4 case
    be settled at r = 4.  Domain x > 0, M > 0, integer r >= 4.
    """
    if x <= 0:
        raise InputError(f"x must be > 0, got {x}")
    if M <= 0:
        raise InputError(f"M must be > 0, got {M}")
    if not isinstance(r, int) or r < 4:
        raise InputError(f"r must be an integer >= 4, got {r!r}")
    with mp.workdps(_DPS):
        xx, Mm = mpf(x), mpf(M)
        return (
            1
            - xx ** (r - 1) / Mm ** (r - 2)
            - xx ** (2 * r - 5) * mp.exp(xx) / (2 * Mm ** (2 * r - 5))
        )


def x0(M, c=None) -> mpf:
    """ln(M)/c, the substitution point where the threshold is read off."""
    if M <= 1:
        raise InputError(f"M must be > 1, got {M}")
    if c is None:
        c = C_THM3
    if c <= 0:
        raise InputError(f"c must be > 0, got {c}")
    with mp.workdps(_DPS):
        return mp.log(mpf(M)) / mpf(c)


def x1(c=None) -> mpf:
    """(1/(3c-1)) ln(9/(3c-1)^3), where the tangent-line comparison is
    anchored; at the optimized c this simplifies to 1/(3c-1)."""
    if c is None:
        c = C_THM3
    with mp.workdps(_DPS):
        cc = mpf(c)
        s = 3 * cc - 1
        if s <= 0:
            raise InputError(f"c must be > 1/3, got {c}")
        return mp.log(9 / s**3) / s


def psi_identity_relerr(M, t) -> float:
    """Relative error of psi(M,t) = 2 k0^(t-1) phi(M,k0,t) (t ln M)^(t-1)
    at k0 = 2.4M/(t ln M); algebraically zero, numerically tiny."""
    if M < 2 or t < 2:
        raise InputError(f"need M >= 2 and t >= 2, got M={M}, t={t}")
    with mp.workdps(40):
        Mm, tt = mpf(M), mpf(t)
        lhs = 2 * (mpf("2.4") * Mm) ** (tt - 1) - (
            tt * mp.log(Mm)
        ) ** (tt - 1) * Mm ** (tt / mpf("2.4"))
        k0 = mpf("2.4") * Mm / (tt * mp.log(Mm))
        phi = 1 - k0 ** (1 - tt) * mp.exp(Mm / k0) / 2
        rhs = 2 * k0 ** (tt - 1) * phi * (tt * mp.log(Mm)) ** (tt - 1)
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
        M = np.arange(lo, 10**4 + 1, dtype=np.float64)
        psi = 2 * (2.4 * M) ** (t - 1) - (t * np.log(M)) ** (t - 1) * M ** (t / 2.4)
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
    phi1 = 2.4 * M_grid - (2 * M_grid) ** (1 / 3) * np.log(M_grid) * M_grid ** (1 / 2.4)
    reports.append(
        _report_min("phi1_positive_grid", {"M_max": 10**4}, float(phi1.min()), ">")
    )
    phi2 = 2 ** (1 / 6) * 2.4 * M_grid - (2 * M_grid) ** (1 / 3) * np.log(
        M_grid
    ) * M_grid ** (1 / 2.4 + 1 / 14.4)
    reports.append(
        _report_min("phi2_positive_grid", {"M_max": 10**4}, float(phi2.min()), ">")
    )

    c = float(C_THM3)
    x = np.arange(0, 5001, dtype=np.float64) * 0.01
    tangent_margin = 2 * np.exp((3 * c - 1) * x) - 3 * x**3 - (2 + 2 * (3 * c - 1) * x)
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


def theorem_certify(H: Hypergraph, k: int, which: int, effort: str = "auto") -> BoundReport:
    """Check one threshold theorem's hypotheses and conclusion on (H, k).

    Verdicts: "not-applicable" when a structural hypothesis fails (the
    violated ones are listed), "holds" when k clears the threshold,
    "inconclusive" when it does not - the theorems are one-directional,
    so falling short of the threshold never claims P_l != P.  When the
    instance fits the exact-P_l caps (effort "auto"; "exact" insists and
    may raise, "threshold" skips), P_l(H, k) is computed outright and
    compared with P(H, k) as an end-to-end confirmation; a theorem whose
    hypotheses and threshold both hold but whose conclusion fails the
    exact check would be reported as "fails".
    """
    if which not in (1, 2, 3):
        raise InputError(f"which must be 1, 2, or 3, got {which!r}")
    if effort not in ("auto", "threshold", "exact"):
        raise InputError(f"effort must be auto, threshold, or exact, got {effort!r}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    m = H.m
    r = hypercore.uniformity(H)
    rho_val = hypercore.rho(H) if m >= 2 else None
    applicability: list[str] = []
    threshold: float | None = None
    inputs: dict = {"m": m, "r": r, "k": k, "n": H.n}

    if which == 1:
        if r is None or r < 3:
            applicability.append("not r-uniform with r >= 3")
        if m < 2:
            applicability.append("m < 2")
        inputs["rho"] = rho_val
        if rho_val is not None:
            if rho_val < 2:
                applicability.append("rho < 2")
            if m < rho_val**3 / 2 + 1:
                applicability.append("m < rho^3/2 + 1")
            threshold = threshold_thm1(m, rho_val)
    elif which == 2:
        if r != 3:
            applicability.append("not 3-uniform")
        if not hypercore.is_linear(H):
            applicability.append("not linear")
        if m < 3:
            applicability.append("m < 3")
        if m >= 2:
            threshold = threshold_thm2(m)
    else:
        if r is None or r < 4:
            applicability.append("not r-uniform with r >= 4")
        if not hypercore.is_linear(H):
            applicability.append("not linear")
        if m < 3:
            applicability.append("m < 3")
        if m >= 2:
            threshold = threshold_thm3(m)

    name = f"theorem{which}_threshold"
    if applicability:
        return BoundReport(
            name=name,
            inputs=inputs,
            lhs=k,
            rhs=threshold,
            relation=">=",
            verdict="not-applicable",
            applicability=tuple(applicability),
        )

    assert threshold is not None
    meets = k >= threshold - STRICT_SLACK
    verdict = "holds" if meets else "inconclusive"
    details: dict = {}
    if effort != "threshold":
        fits = (
            H.n * k <= budget.get_cap("exact_plk")
            and H.m <= budget.get_cap("nb_edges")
            and (H.n == 0 or k**H.n <= budget.get_cap("brute_force"))
        )
        if effort == "exact" or fits:
            plk, _witness = list_color_function_exact(H, k)
            p = chromatic_polynomial(H).eval(k)
            details["P_l"] = plk
            details["P"] = p
            details["exact_equal"] = plk == p
            if meets and plk != p:
                verdict = "fails"
    return BoundReport(
        name=name,
        inputs=inputs,
        lhs=k,
        rhs=threshold,
        relation=">=",
        verdict=verdict,
        details=details,
    )


def _member_table(catalog: DeltaCycleCatalog, eta, k: int):
    """What the assignment scan needs from NB(H), drawn from one walk.

    Returns, per member A, its weight (-1)^|A| * k^(isolated vertices) and
    the vertex lists (0-based) of its components that hold an edge; then
    P(H, k) as an int.  Each vertex of a pattern's assignment has k colors,
    so the isolated ones fold into the weight.
    """
    members: list[tuple[int, list[list[int]]]] = []
    p_k = 0
    for _mask, size, comps, blocks in _nb_walk(catalog, eta):
        sign = -1 if size & 1 else 1
        members.append((sign * k ** (comps - len(blocks)), [list(_set_bits(b)) for b in blocks]))
        p_k += sign * k**comps
    return members, p_k


def _threshold_table(frac: Fraction, big_k: int, top: int, limit: int) -> np.ndarray:
    """thr[a] = ceil(frac * big_k * a) for a = 0..top, clipped to [-limit, limit].

    For an integer diff with |diff| < limit, diff < thr[a] exactly when
    diff < frac * big_k * a, and every entry fits in int64 once limit does.
    """
    num, den = frac.numerator * big_k, frac.denominator
    table = [max(-limit, min(limit, -(-num * a // den))) for a in range(top + 1)]
    return np.array(table, dtype=np.int64)


def scan_assignments_one_extra_color(
    H: Hypergraph,
    k: int,
    gap_factor: float = 0.0,
    check_uniform: bool = True,
    check_linear: bool = True,
    eta=None,
    catalog: DeltaCycleCatalog | None = None,
) -> dict:
    """Check the lower bounds on every k-assignment drawn from k+1 colors.

    Every assignment whose lists sit inside a (k+1)-color universe omits
    exactly one color per vertex, so the full space is the (k+1)^n omit
    patterns.  Renaming colors changes no number checked, so the scan
    walks one pattern per renaming class and, on each with alpha > 0,
    verifies in exact integers that P(H, L) - P(H, k) is at least the
    per-edge bound, and at least cor_uniform_rhs / cor_linear_rhs times
    k^(n-r) * alpha when those checks are requested.  A positive
    gap_factor additionally tracks the strict margin
    P(H, L) - P(H, k) - gap_factor * k^(n-r) * alpha.

    Returns counts, each pattern counted with multiplicity: checked,
    viol_prop, viol_uniform, viol_linear, viol_gap, and min_gap_margin
    (None when no pattern was checked or no gap was requested).  Refuses
    k > 62 on nonempty instances, and an instance whose per-edge bound
    could pass int64.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if H.n == 0 or H.m == 0:
        return {
            "checked": 0,
            "viol_prop": 0,
            "viol_uniform": 0,
            "viol_linear": 0,
            "viol_gap": 0,
            "min_gap_margin": None,
        }
    r = hypercore.uniformity(H)
    if r is None:
        raise InputError("assignment scan needs an r-uniform hypergraph")
    if k > 62:
        # a pattern keeps its k + 1 colors as bits of an int64
        raise InputError(f"assignment scan needs k <= 62, got {k}")
    budget.check_cap("brute_force", (k + 1) ** H.n, "assignment scan")
    budget.check_cap("nb_edges", H.m, "broken delta-cycle expansion")

    catalog = _catalog_for(H, catalog)
    members, p_k = _member_table(catalog, eta, k)
    big_k = k ** (H.n - r)
    prop_c = [big_k - w for w in _even_weights(_even_edge_table(catalog, eta), k)]
    if (r - 1) * sum(abs(c) for c in prop_c) >= 2**63:
        # each alpha_e is at most r - 1, so the kernel's int64 per-edge sum stays exact
        raise InputError("assignment scan: the per-edge bound's sum may pass 2^63")

    # |P(H, L) - P(H, k)| <= k^n, so clipping just past it keeps every verdict
    top, limit = H.m * (r - 1), k**H.n + 1
    thr_u = thr_l = None
    if H.m >= 2:
        if check_uniform:
            u_frac = cor_uniform_rhs_exact(H.m, hypercore.rho(H), k)
            thr_u = _threshold_table(u_frac, big_k, top, limit)
        if check_linear:
            thr_l = _threshold_table(cor_linear_rhs_exact(H.m, r, k), big_k, top, limit)

    checked, vp, vu, vl, vg, min_margin = _kernels.omit_pattern_scan(
        H, k + 1, members, p_k, prop_c, thr_u, thr_l, float(gap_factor * big_k)
    )
    return {
        "checked": checked,
        "viol_prop": vp,
        "viol_uniform": vu,
        "viol_linear": vl,
        "viol_gap": vg,
        "min_gap_margin": min_margin if gap_factor > 0 and checked > 0 else None,
    }
