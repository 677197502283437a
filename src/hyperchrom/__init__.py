"""Exact chromatic polynomials and list-color functions of hypergraphs.

The library computes P(H, k) through a signed expansion over edge
subsets free of broken delta-cycles, counts list colorings both by
brute force and through the matching expansion, computes the list-color
function exactly on small instances, and verifies the family of lower
bounds and thresholds relating the two quantities.

Importing the package loads neither numpy nor mpmath.  numpy is imported
only by ``_kernels``, which the brute-force counts, the exact list-color
function and the assignment scan import when they run; mpmath only by
``closed_forms``, the extended-precision closed forms, C_THM3 and
verify_grids.  Their names here, and ``get_backend``, resolve on first
use through the module ``__getattr__`` (PEP 562) and its ``_LAZY`` table.
"""

import importlib

from .errors import (
    BudgetExceededError,
    GeneratorError,
    HyperchromError,
    InputError,
    UndefinedStatisticError,
)
from .hypercore import (
    EdgeSubset,
    Hypergraph,
    components,
    gamma,
    is_linear,
    rho,
    uniformity,
    validate,
)
from .cycles import (
    DeltaCycleCatalog,
    enumerate_delta_cycles,
    is_delta_cycle,
    nb_subsets,
    normalize_eta,
)
from .chromatic import IntPolynomial, chromatic_polynomial, count_proper_colorings
from .listcolor import (
    AlphaProfile,
    ListAssignment,
    alpha,
    beta,
    count_L_colorings,
    count_L_colorings_expansion,
    list_color_function_exact,
    list_color_function_search,
)
from .bounds import (
    BoundReport,
    C_THM2,
    cor_linear_rhs_exact,
    cor_uniform_rhs_exact,
    prop1_rhs,
    reports_to_csv,
    scan_assignments_one_extra_color,
    theorem_certify,
    thm2_gap_factor,
    thm3_gap_factor,
    threshold_thm1,
    threshold_thm2,
    threshold_thm3,
)

# public name -> the submodule that defines it, imported on first use
_LAZY = {
    **dict.fromkeys(
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
        "closed_forms",
    ),
    "get_backend": "_kernels",
}

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "GeneratorError",
    "HyperchromError",
    "InputError",
    "UndefinedStatisticError",
    "EdgeSubset",
    "Hypergraph",
    "components",
    "gamma",
    "is_linear",
    "rho",
    "uniformity",
    "validate",
    "DeltaCycleCatalog",
    "enumerate_delta_cycles",
    "is_delta_cycle",
    "nb_subsets",
    "normalize_eta",
    "IntPolynomial",
    "chromatic_polynomial",
    "count_proper_colorings",
    "AlphaProfile",
    "ListAssignment",
    "alpha",
    "beta",
    "count_L_colorings",
    "count_L_colorings_expansion",
    "list_color_function_exact",
    "list_color_function_search",
    "BoundReport",
    "C_THM2",
    "C_THM3",
    "Psi_r",
    "cor_linear_rhs",
    "cor_linear_rhs_exact",
    "cor_uniform_rhs",
    "cor_uniform_rhs_exact",
    "phi1_M",
    "phi2_M",
    "phi_Mkt",
    "phi_xy_thm2",
    "phi_xy_thm3",
    "prop1_rhs",
    "psi_Mt",
    "psi_identity_relerr",
    "psi_x_thm3",
    "reports_to_csv",
    "scan_assignments_one_extra_color",
    "theorem_certify",
    "thm2_gap_factor",
    "thm3_gap_factor",
    "threshold_thm1",
    "threshold_thm2",
    "threshold_thm3",
    "verify_grids",
    "x0",
    "x1",
    "get_backend",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
