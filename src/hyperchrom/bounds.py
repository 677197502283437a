"""Lower bounds, thresholds, and the checks that certify them.

Everything here revolves around the difference P(H, L) - P(H, k) for a
k-assignment L.  The per-edge bound (prop1_rhs), the corollary bounds'
exact rationals (cor_*_rhs_exact, whose series share ``_odd_tail``) and
the assignment scan are exact integer arithmetic; the thresholds of
Theorems 1-3 (one formula, ``_threshold``) and their gap factors are plain
floats.  The extended-precision modes of the corollary bounds, the
proof-auxiliary closed forms, C_THM3 and verify_grids live in
``closed_forms``, the one module that imports mpmath.

The per-edge bound's margins k^(n-r) - w_e(k) are formed in one place,
``_edge_margins``, which both ``prop1_rhs`` and the scan read.

Nothing here imports numpy at load time.  The assignment scan owns its
loop over omit patterns, reads the orbit table that exact P_l reads
(``listcolor._assignment_options``), and takes the orbit walk, the
list-count kernel and numpy from ``_kernels`` only when a nonempty scan
runs.  The thresholds need neither numpy nor mpmath, and
``theorem_certify`` loads numpy only when its exact check fits the caps,
whose P(H, k) is a brute-force count that needs no delta-cycle catalog.

Throughout, M abbreviates m - 1 and x abbreviates M / k, matching the
substitutions the bound derivations use.  All logarithms are natural.

Strict inequalities evaluated in floating point are granted a 1e-12
slack so a verdict cannot flip on rounding; exact-integer checks get no
slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import budget, hypercore
from .chromatic import count_proper_colorings
from .cycles import DeltaCycleCatalog, _nb_walk, _require_own_catalog, normalize_eta
from .errors import BudgetExceededError, InputError, require_int, require_real
from .hypercore import Hypergraph, _covered_count, _set_bits
from .listcolor import (
    ListAssignment,
    _assignment_options,
    _partition_terms,
    alpha,
    list_color_function_exact,
)

__all__ = [
    "STRICT_SLACK",
    "C_THM2",
    "BoundReport",
    "reports_to_csv",
    "prop1_rhs",
    "cor_uniform_rhs_exact",
    "cor_linear_rhs_exact",
    "threshold_thm1",
    "threshold_thm2",
    "threshold_thm3",
    "thm2_gap_factor",
    "thm3_gap_factor",
    "theorem_certify",
    "scan_assignments_one_extra_color",
]

STRICT_SLACK = 1e-12

# constant in the 3-uniform threshold derivation
C_THM2 = 0.844


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
    valid under every ordering; callers may pass any eta.  ``catalog`` may
    only be H's own, ``enumerate_delta_cycles(H)``; any other raises InputError.
    When alpha(H, L) is 0 every term is 0, so after the same refusals (and
    the check of eta) the answer is 0 without the NB walk.
    """
    profile = alpha(H, L)
    _require_own_catalog(H, catalog)
    if H.m == 0:
        return 0
    r = hypercore.uniformity(H)
    if r is None:
        raise InputError("per-edge bound needs an r-uniform hypergraph")
    budget.check_cap("nb_edges", H.m, "broken delta-cycle expansion")
    if profile.is_zero:
        normalize_eta(H, eta)
        return 0
    return sum(a * c for a, c in zip(profile.per_edge, _edge_margins(H, r, L.k, eta)) if a)


def _even_edge_table(H: Hypergraph, eta) -> tuple[int, list[list[int]]]:
    """(base, table), table[e][c - base]: members A of NB(H) with edge index
    e in A, |A| even, c(A) = c.

    c(A) lies in base..n, base = n - ``_covered_count(H)``, so a row holds
    one count per covered vertex and one more, not n + 1.  The table does
    not depend on any list assignment, so it is cached on H per edge
    labelling, next to the catalog and the walk's index of minimal broken
    sets by second-highest edge.
    """
    key = ("even", normalize_eta(H, eta))
    if key not in H._cache:
        covered = _covered_count(H)
        base = H.n - covered
        table = [[0] * (covered + 1) for _ in range(H.m)]
        for mask, size, comps, _blocks in _nb_walk(H, key[1]):
            if not size & 1:
                for e in _set_bits(mask):
                    table[e][comps - base] += 1
        H._cache[key] = base, table
    return H._cache[key]


def _even_weights(even: tuple[int, list[list[int]]], k: int) -> list[int]:
    """Per edge, the sum of k^(c(A)-1) over the even-size members A holding
    it, from ``_even_edge_table``'s (base, table)."""
    base, table = even
    return [sum(cnt * k ** (base + i - 1) for i, cnt in enumerate(row) if cnt) for row in table]


def _edge_margins(H: Hypergraph, r: int, k: int, eta) -> list[int]:
    """Per edge e, k^(n-r) - w_e(k), w_e(k) its even-member weight: the factor
    that alpha(e, L) takes in the per-edge bound."""
    big_k = k ** (H.n - r)
    return [big_k - w for w in _even_weights(_even_edge_table(H, eta), k)]


def cor_uniform_rhs_exact(m: int, rho: int, k: int) -> Fraction:
    """Binomial mode of cor_uniform_rhs as an exact rational; m, rho and k
    must be integers."""
    M, k = require_int(m, "m", 2) - 1, require_int(k, "k", 1)
    return 1 - _odd_tail(M, k, 1, require_int(rho, "rho", 1) - 2)


def cor_linear_rhs_exact(m: int, r: int, k: int) -> Fraction:
    """Binomial mode of cor_linear_rhs as an exact rational; m, r and k
    must be integers."""
    M, k = require_int(m, "m", 2) - 1, require_int(k, "k", 1)
    r = require_int(r, "r", 3)
    return 1 - Fraction(M, k ** (r - 1)) - _odd_tail(M, k, 2, 2 * r - 6)


def _odd_tail(M: int, k: int, first: int, shift: int) -> Fraction:
    """The sum over i >= first with 2i - 1 <= M of C(M, 2i - 1) / k^(2i + shift),
    over the one denominator k^(M + 1 + shift)."""
    odd = range(2 * first - 1, M + 1, 2)  # j = 2i - 1
    return Fraction(sum(math.comb(M, j) * k ** (M - j) for j in odd), k ** (M + 1 + shift))


def threshold_thm1(m: int, rho: float) -> float:
    """k at or above 2.4(m-1)/(rho * ln(m-1)) forces P_l = P for
    r-uniform H (r >= 3) with the given rho >= 2 and m >= rho^3/2 + 1.

    Pure formula; the extra hypotheses are the caller's to gate on
    (theorem_certify reports them through applicability).  m = 2 gives
    an infinite threshold since ln(m-1) vanishes.  rho may be any real
    number >= 1.
    """
    return _threshold(m, 2.4, rho)


def threshold_thm2(m: int) -> float:
    """k at or above 1.185(m-1)/ln(m-1) forces P_l = P for linear
    3-uniform H with m >= 3."""
    return _threshold(m, 1.185)


def threshold_thm3(m: int) -> float:
    """k at or above 0.831(m-1)/ln(m-1) forces P_l = P for linear
    r-uniform H with r >= 4 and m >= 3."""
    return _threshold(m, 0.831)


def _threshold(m: int, c: float, rho: float = 1) -> float:
    """c(m-1)/(rho * ln(m-1)), infinite at m = 2, for an integer m >= 2."""
    m, rho = require_int(m, "m", 2), require_real(rho, "rho", 1)
    if m == 2:
        return math.inf
    return c * (m - 1) / (rho * math.log(m - 1))


def thm2_gap_factor(m: int) -> float:
    """Factor on k^(n-3) * alpha(H, L) in the strict 3-uniform gap bound:
    0.002 ln(m-1) / (m-1)^0.156."""
    M = require_int(m, "m", 3) - 1
    return 0.002 * math.log(M) / M**0.156


def thm3_gap_factor(m: int) -> float:
    """Factor on k^(n-r) * alpha(H, L) in the strict r >= 4 gap bound:
    (m-1)^(-1.796) * (1 + 1.796 ln(m-1))."""
    M = require_int(m, "m", 3) - 1
    return M**-1.796 * (1 + 1.796 * math.log(M))


def theorem_certify(H: Hypergraph, k: int, which: int, effort: str = "auto") -> BoundReport:
    """Check one threshold theorem's hypotheses and conclusion on (H, k).

    Verdicts: "not-applicable" when a structural hypothesis fails (the
    violated ones are listed), "holds" when k clears the threshold,
    "inconclusive" when it does not - the theorems are one-directional,
    so falling short of the threshold never claims P_l != P.  When the
    exact P_l(H, k) fits its caps (effort "auto"; "exact" insists and may
    raise, "threshold" skips), it is computed, then P(H, k) is counted by
    brute force, and the two are compared as an end-to-end confirmation; a
    theorem whose hypotheses and threshold both hold but whose conclusion
    fails the exact check is reported as "fails".  An invalid H is refused.
    """
    hypercore.require_valid(H)
    which = require_int(which, "which")
    if which not in (1, 2, 3):
        raise InputError(f"which must be 1, 2, or 3, got {which!r}")
    if effort not in ("auto", "threshold", "exact"):
        raise InputError(f"effort must be auto, threshold, or exact, got {effort!r}")
    k = require_int(k, "k", 1)
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
    else:  # Theorems 2 and 3 differ only in the uniformity clause and the threshold
        uniform, clause, threshold_of = {
            2: (r == 3, "not 3-uniform", threshold_thm2),
            3: (r is not None and r >= 4, "not r-uniform with r >= 4", threshold_thm3),
        }[which]
        if not uniform:
            applicability.append(clause)
        if not hypercore.is_linear(H):
            applicability.append("not linear")
        if m < 3:
            applicability.append("m < 3")
        if m >= 2:
            threshold = threshold_of(m)

    verdict = "not-applicable"
    details: dict = {}
    if not applicability:
        assert threshold is not None
        meets = k >= threshold - STRICT_SLACK
        verdict = "holds" if meets else "inconclusive"
        if effort != "threshold":
            try:
                plk, _witness = list_color_function_exact(H, k)
            except BudgetExceededError:
                if effort == "exact":
                    raise
            else:
                # the search passed k^n against the brute_force cap, so this count fits
                p = count_proper_colorings(H, k)
                details = {"P_l": plk, "P": p, "exact_equal": plk == p}
                if meets and plk != p:
                    verdict = "fails"
    return BoundReport(
        name=f"theorem{which}_threshold",
        inputs=inputs,
        lhs=k,
        rhs=threshold,
        relation=">=",
        verdict=verdict,
        applicability=tuple(applicability),
        details=details,
    )


def _threshold_table(frac: Fraction, big_k: int, top: int, limit: int):
    """thr[a] = ceil(frac * big_k * a) for a = 0..top, clipped to [-limit, limit].

    For an integer diff with |diff| < limit, diff < thr[a] exactly when
    diff < frac * big_k * a, and every entry fits in int64 once limit does,
    so the scan kernel can index it as an int64 array.
    """
    num, den = frac.numerator * big_k, frac.denominator
    return [max(-limit, min(limit, -(-num * a // den))) for a in range(top + 1)]


def scan_assignments_one_extra_color(
    H: Hypergraph,
    k: int,
    gap_factor: float = 0.0,
    check_uniform: bool = True,
    check_linear: bool = True,
) -> dict:
    """Check the lower bounds on every k-assignment drawn from k+1 colors.

    Every assignment whose lists sit inside a (k+1)-color universe omits
    exactly one color per vertex, so the full space is the (k+1)^n omit
    patterns.  Renaming colors changes no number checked, so the scan
    walks one pattern per renaming orbit, from the one orbit table that
    exact P_l walks too (``listcolor._assignment_options`` at list size 1
    within k + 1 colors, each vertex's one color the one it omits): a set
    partition of the vertices into j <= k + 1 blocks, weighted by the
    (k + 1)_j patterns in its orbit, and, on each with
    alpha > 0, verifies in exact integers that P(H, L) - P(H, k) is at
    least the per-edge bound, and at least cor_uniform_rhs / cor_linear_rhs
    times k^(n-r) * alpha when those checks are requested.  A positive
    gap_factor additionally tracks the strict margin
    P(H, L) - P(H, k) - gap_factor * k^(n-r) * alpha.  The linear
    corollary holds only for r >= 3, so on a graph (r = 2) check_linear
    is skipped and viol_linear stays 0.

    Returns counts, each pattern counted with multiplicity: checked,
    viol_prop, viol_uniform, viol_linear, viol_gap, and min_gap_margin
    (None when no pattern was checked or no gap was requested).  Refuses
    a gap_factor that is not a real number >= 0 (a bool or NaN included),
    an invalid H, k > 62 on nonempty instances, and an instance whose
    per-edge bound could pass int64.

    Width: a pattern keeps each vertex's omitted color as the bit
    1 << digit and its list as the other k bits of an int64, hence k <= 62.
    The brute_force cap on (k+1)^n stays below 2^63, so P(H, L), P(H, k),
    their difference, each orbit weight and each weighted count fit in
    int64.  The corollary thresholds are exact integers clipped just past
    k^n.  The per-edge bound's sum is formed in int64, and each alpha_e is
    at most r - 1, so refusing (r - 1) * sum |margin| >= 2^63 keeps it exact.
    """
    k, gap_factor = require_int(k, "k", 1), require_real(gap_factor, "gap_factor", 0)
    hypercore.require_valid(H)
    out = {
        "checked": 0,
        "viol_prop": 0,
        "viol_uniform": 0,
        "viol_linear": 0,
        "viol_gap": 0,
        "min_gap_margin": None,
    }
    if H.n == 0 or H.m == 0:
        return out
    r = hypercore.uniformity(H)
    if r is None:
        raise InputError("assignment scan needs an r-uniform hypergraph")
    if k > 62:
        # a pattern keeps its k + 1 colors as bits of an int64
        raise InputError(f"assignment scan needs k <= 62, got {k}")
    budget.check_cap("brute_force", (k + 1) ** H.n, "assignment scan")
    budget.check_cap("nb_edges", H.m, "broken delta-cycle expansion")

    terms = _partition_terms(H, k)
    p_k = sum(weight * k ** len(blocks) for weight, blocks in terms)
    margins = _edge_margins(H, r, k, None)
    if (r - 1) * sum(abs(c) for c in margins) >= 2**63:
        raise InputError("assignment scan: the per-edge bound's sum may pass 2^63")
    big_k = k ** (H.n - r)
    gap = float(gap_factor * big_k)

    from . import _kernels
    from ._kernels import np

    fracs = []  # (the violation it counts, a corollary bound's exact rational)
    if H.m >= 2 and check_uniform:
        fracs.append(("viol_uniform", cor_uniform_rhs_exact(H.m, hypercore.rho(H), k)))
    if H.m >= 2 and check_linear and r >= 3:
        fracs.append(("viol_linear", cor_linear_rhs_exact(H.m, r, k)))
    # |P(H, L) - P(H, k)| <= k^n, so clipping just past it keeps every verdict
    top, limit = H.m * (r - 1), k**H.n + 1
    thresholds = [
        (key, np.array(_threshold_table(frac, big_k, top, limit), dtype=np.int64))
        for key, frac in fracs
    ]
    table = _assignment_options(H.n, 1, k + 1)
    # (k + 1)_j, the patterns that rename to a partition of j blocks
    falling = np.array([math.perm(k + 1, j) for j in range(min(H.n, k + 1) + 1)], dtype=np.int64)
    full = np.int64((1 << (k + 1)) - 1)
    min_margin = math.inf
    for rows in _kernels._orbit_rows(H.n, table, _kernels._ROWS):
        omitted = rows[:, :, 0].T  # (n, count): each vertex's omitted color as one bit
        orbit = falling[np.bitwise_count(np.bitwise_or.reduce(omitted, axis=0))]
        lists = omitted ^ full  # every color but the omitted one
        alpha_e = np.empty((H.m, lists.shape[1]), dtype=np.int64)
        for e, edge in enumerate(H.edges):
            both = lists[edge[0] - 1] & lists[edge[1] - 1]
            for u in edge[2:]:
                both &= lists[u - 1]
            alpha_e[e] = k - np.bitwise_count(both)  # uint8: at most k <= 62 common colors
        alpha = alpha_e.sum(axis=0)
        sel = alpha > 0
        if not sel.any():
            continue
        diff = _kernels.list_counts(lists[:, None], terms) - p_k
        rhs = np.zeros_like(alpha)
        for e, c in enumerate(margins):
            rhs += alpha_e[e] * c
        out["checked"] += int(orbit[sel].sum())
        out["viol_prop"] += int(orbit[sel & (diff < rhs)].sum())
        for key, thr in thresholds:
            out[key] += int(orbit[sel & (diff < thr[alpha])].sum())
        if gap > 0.0:
            gap_margins = diff - gap * alpha
            min_margin = min(min_margin, float(gap_margins[sel].min()))  # sel has a pattern
            out["viol_gap"] += int(orbit[sel & (gap_margins <= 0.0)].sum())
    if gap > 0.0 and out["checked"]:
        out["min_gap_margin"] = min_margin
    return out
