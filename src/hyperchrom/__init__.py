"""Exact chromatic polynomials and list-color functions of hypergraphs.

The library computes P(H, k) through a signed expansion over edge
subsets free of broken delta-cycles, counts list colorings both by
brute force and through the matching expansion, computes the list-color
function exactly on small instances, and verifies the family of lower
bounds and thresholds relating the two quantities.

Importing the package loads none of its submodules.  Every public name
resolves on first use through the module ``__getattr__`` (PEP 562), which
imports the submodule that the ``_LAZY`` table names for it, so a caller
pays only for the modules it reaches: ``cycles`` (with ``hypercore``,
``errors`` and ``budget``) for the delta-cycle catalog and NB(H),
``chromatic`` on top for P(H, k), ``listcolor`` on top for list colorings,
and ``bounds`` on top for the bounds, thresholds and ``BoundReport``.
numpy is imported only by ``_kernels``, which the exact list-color
function and the assignment scan import when they run; mpmath only by
``closed_forms``, the extended-precision closed forms, C_THM3 and
verify_grids.
"""

import importlib

# public name -> the submodule that defines it, imported on first use
_LAZY = {
    name: module
    for module, names in (
        (
            "errors",
            (
                "BudgetExceededError",
                "GeneratorError",
                "HyperchromError",
                "InputError",
                "UndefinedStatisticError",
            ),
        ),
        (
            "hypercore",
            (
                "EdgeSubset",
                "Hypergraph",
                "components",
                "gamma",
                "is_linear",
                "rho",
                "uniformity",
                "validate",
            ),
        ),
        (
            "cycles",
            (
                "DeltaCycleCatalog",
                "enumerate_delta_cycles",
                "is_delta_cycle",
                "nb_subsets",
                "normalize_eta",
            ),
        ),
        ("chromatic", ("IntPolynomial", "chromatic_polynomial", "count_proper_colorings")),
        (
            "listcolor",
            (
                "AlphaProfile",
                "ListAssignment",
                "alpha",
                "beta",
                "count_L_colorings",
                "count_L_colorings_expansion",
                "list_color_function_exact",
                "list_color_function_search",
            ),
        ),
        (
            "bounds",
            (
                "BoundReport",
                "C_THM2",
                "cor_linear_rhs_exact",
                "cor_uniform_rhs_exact",
                "prop1_rhs",
                "reports_to_csv",
                "scan_assignments_one_extra_color",
                "theorem_certify",
                "thm2_gap_factor",
                "thm3_gap_factor",
                "threshold_thm1",
                "threshold_thm2",
                "threshold_thm3",
            ),
        ),
        (
            "closed_forms",
            (
                "C_THM3",
                "Psi_r",
                "cor_linear_rhs",
                "cor_uniform_rhs",
                "phi1_M",
                "phi2_M",
                "phi_Mkt",
                "phi_xy_thm2",
                "phi_xy_thm3",
                "psi_Mt",
                "psi_identity_relerr",
                "psi_x_thm3",
                "verify_grids",
                "x0",
                "x1",
            ),
        ),
        ("_kernels", ("get_backend",)),
    )
    for name in names
}

__version__ = "0.1.0"

__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
