"""Output checks for each workload.

Every check compares an answer of the program with a computation made
apart from it (``reference``) or with a property the method must have.
None compares with a stored copy of an earlier output.  Each returns a
list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import math

import reference
from inputs import components

__all__ = [
    "check_poly",
    "check_lists",
    "check_plk_exact",
    "check_scan",
    "gap_applies",
    "check_cli",
]


def _eval(pairs, k: int) -> int:
    return sum(coeff * k**exp for exp, coeff in pairs)


def check_poly(n: int, edges, pairs, ref_values: dict) -> list[str]:
    """P(H, k) from its coefficient pairs ``[[exp, coeff], ...]``.

    ``ref_values`` maps small k to the reference count of proper colorings.
    In an r-uniform H with rho >= 2 only single edges span n - r + 1
    components, so that coefficient is -m.
    """
    problems = []
    coeffs = {exp: coeff for exp, coeff in pairs}
    for k, want in sorted(ref_values.items()):
        got = _eval(pairs, k)
        if got != want:
            problems.append(f"P(H,{k})={got}, reference counts {want}")
    if max(coeffs, default=-1) != n or coeffs.get(n) != 1:
        problems.append(f"leading term is not k^{n}: {pairs[:1]}")
    r = len(edges[0])
    if coeffs.get(n - r + 1, 0) != -len(edges):
        problems.append(
            f"coefficient of k^{n - r + 1} is {coeffs.get(n - r + 1, 0)}, expected -{len(edges)}"
        )
    if _eval(pairs, 1) != 0:
        problems.append(f"P(H,1)={_eval(pairs, 1)}, expected 0")
    return problems


def check_lists(
    brute: int, expansion: int, prop1: int, ref_lists: int, ref_k: int, constant: bool
) -> list[str]:
    """Both routes give the reference P(H, L), and Proposition 1 holds.

    ``ref_k`` is the reference P(H, k); for constant lists P(H, L) must
    equal it.
    """
    problems = []
    if brute != ref_lists:
        problems.append(f"count_L_colorings={brute}, reference counts {ref_lists}")
    if expansion != ref_lists:
        problems.append(f"count_L_colorings_expansion={expansion}, reference counts {ref_lists}")
    if ref_lists - ref_k < prop1:
        problems.append(f"P(H,L)-P(H,k)={ref_lists - ref_k} < prop1_rhs={prop1}")
    if constant and brute != ref_k:
        problems.append(f"constant lists give {brute}, P(H,k)={ref_k}")
    return problems


def _witness_problems(n: int, edges, k: int, value: int, lists) -> list[str]:
    # lists maps vertex -> colors, with vertex keys as ints or strings
    try:
        clean = {int(v): tuple(int(c) for c in cs) for v, cs in lists.items()}
    except (TypeError, ValueError, AttributeError):
        return [f"witness is not a vertex -> colors map: {lists!r}"]
    if sorted(clean) != list(range(1, n + 1)):
        return [f"witness covers vertices {sorted(clean)}, expected 1..{n}"]
    for v, cs in clean.items():
        if len(set(cs)) != k or len(cs) != k or min(cs) < 1:
            return [f"witness list of vertex {v} is {cs}, not {k} distinct positive colors"]
    got = reference.count_list_colorings(n, edges, clean)
    if got != value:
        return [f"witness has {got} colorings by the reference, P_l reported {value}"]
    return []


def check_plk_exact(n: int, edges, k: int, value: int, witness, ref_k: int) -> list[str]:
    """P_l(H, k) <= P(H, k), and the witness is a k-assignment attaining P_l."""
    problems = []
    if value > ref_k:
        problems.append(f"P_l={value} exceeds P(H,k)={ref_k}")
    return problems + _witness_problems(n, edges, k, value, witness)


def gap_applies(edges, k: int) -> bool:
    """Theorem 2's hypotheses: linear, 3-uniform, m >= 3, k at its threshold."""
    m = len(edges)
    return (
        m >= 3
        and all(len(e) == 3 for e in edges)
        and reference.is_linear(edges)
        and k >= reference.threshold_thm2(m) - 1e-12
    )


def check_scan(n: int, edges, k: int, res: dict) -> list[str]:
    """Counts of the one-extra-color scan against what they must be.

    Every omit pattern with alpha > 0 is checked: all (k+1)^n patterns
    except the (k+1)^c(H) that omit one color per component.  No instance
    here is a perfect matching, so no bound may be violated.
    """
    problems = []
    want = (k + 1) ** n - (k + 1) ** components(n, edges)
    if res["checked"] != want:
        problems.append(f"checked={res['checked']}, expected {want}")
    for key in ("viol_prop", "viol_uniform"):
        if res[key] != 0:
            problems.append(f"{key}={res[key]}")
    if reference.is_linear(edges) and res["viol_linear"] != 0:
        problems.append(f"viol_linear={res['viol_linear']} on a linear instance")
    if gap_applies(edges, k):
        if res["viol_gap"] != 0:
            problems.append(f"viol_gap={res['viol_gap']} above the Theorem 2 threshold")
        margin = res["min_gap_margin"]
        if margin is None or not margin > 0:
            problems.append(f"min_gap_margin={margin} above the Theorem 2 threshold")
    return problems


def check_cli(command: str, record, case: dict) -> list[str]:
    """One parsed ``--json`` record of a CLI call against the reference.

    ``case`` holds the call's instance (``n``, ``edges``) and whatever
    reference values the command needs.
    """
    n, edges = case["n"], case["edges"]
    problems = []
    if command == "chromatic":
        want = case["ref_k"]
        if record.get("k") != case["k"] or record.get("eval") != want:
            problems.append(f"eval={record.get('eval')}, reference counts {want}")
        if record.get("oracle") != want:
            problems.append(f"oracle={record.get('oracle')}, reference counts {want}")
        problems += check_poly(n, edges, record.get("poly", []), {case["k"]: want})
    elif command == "list-count":
        want = case["ref_lists"]
        for key in ("P_HL", "brute", "expansion"):
            if record.get(key) != want:
                problems.append(f"{key}={record.get(key)}, reference counts {want}")
        if record.get("routes_agree") is not True:
            problems.append("routes_agree is not true")
        lists, k = case["lists"], case["k"]
        alphas = [k - len(set.intersection(*(set(lists[v]) for v in e))) for e in edges]
        if record.get("alpha_per_edge") != alphas or record.get("alpha") != sum(alphas):
            problems.append(f"alpha_per_edge={record.get('alpha_per_edge')}, expected {alphas}")
    elif command == "plk":
        value = record.get("P_l")
        if record.get("P") != case["ref_k"]:
            problems.append(f"P={record.get('P')}, reference counts {case['ref_k']}")
        if record.get("exact") is not True or record.get("equal") != (value == case["ref_k"]):
            problems.append("exact/equal flags disagree with P_l and P")
        witness = record.get("witness") or {}
        problems += check_plk_exact(
            n, edges, case["k"], value, witness.get("lists", {}), case["ref_k"]
        )
        if witness.get("k") != case["k"]:
            problems.append(f"witness k={witness.get('k')}, expected {case['k']}")
    elif command == "delta-cycles":
        cycles = reference.delta_cycles(edges)
        got = [tuple(c.get("edges", ())) for c in record.get("cycles", [])]
        if record.get("count") != len(cycles) or got != cycles:
            problems.append(f"cycles {got}, reference finds {cycles}")
        for c in record.get("cycles", []):
            labels = c.get("edges", [])
            if labels and c.get("broken") != labels[1:]:
                problems.append(f"cycle {labels} broken as {c.get('broken')}, expected {labels[1:]}")
    elif command == "verify":
        reports = record if isinstance(record, list) else []
        if len(reports) != 1:
            return [f"expected one report, got {len(reports)}"]
        rep = reports[0]
        m, rho_value = len(edges), reference.rho(edges)
        threshold = reference.threshold_thm1(m, rho_value)
        want = "holds" if case["k"] >= threshold - 1e-12 else "inconclusive"
        if rep.get("verdict") != want or rep.get("applicability") != []:
            problems.append(
                f"verdict {rep.get('verdict')} {rep.get('applicability')}, expected {want}"
            )
        rhs = rep.get("rhs")
        if not isinstance(rhs, (int, float)) or not math.isclose(rhs, threshold, rel_tol=1e-9):
            problems.append(f"threshold {rhs}, expected {threshold}")
    else:
        problems.append(f"no check for command {command!r}")
    return problems
