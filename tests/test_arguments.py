"""The numeric-argument contract, as one table.

Every numeric parameter below passes one of the two gates in
``hyperchrom.errors``: ``require_int`` or ``require_real``.  Each row names
a call with valid arguments, the position of one gated parameter, the name
its refusal carries and whether it takes integers or reals.  From the table:

* a bool, a string, None and NaN (and 2.5 for an integer) are refused with
  an ``InputError`` whose message starts with the parameter's name;
* a numpy integer (and, for a real, a numpy float) gives the same answer
  as the Python number.

The repros at the end each returned a value or raised a raw ``TypeError``,
``AttributeError`` or ``ValueError`` before the gates; the containers
(a hypergraph's edges, an assignment's lists) are among them.  The last
table holds refusals with their messages, each on a line no other test
reaches.
"""

import math
import random
import time
from collections.abc import Iterator

import numpy as np
import pytest

from hyperchrom import (
    EdgeSubset,
    Hypergraph,
    InputError,
    IntPolynomial,
    ListAssignment,
    Psi_r,
    chromatic_polynomial,
    components,
    cor_linear_rhs,
    cor_linear_rhs_exact,
    cor_uniform_rhs,
    cor_uniform_rhs_exact,
    list_color_function_search,
    phi1_M,
    phi2_M,
    phi_Mkt,
    phi_xy_thm2,
    phi_xy_thm3,
    psi_identity_relerr,
    psi_Mt,
    psi_x_thm3,
    scan_assignments_one_extra_color,
    theorem_certify,
    threshold_thm1,
    threshold_thm2,
    threshold_thm3,
    thm2_gap_factor,
    thm3_gap_factor,
    x0,
    x1,
)
from hyperchrom.generators import (
    fig1,
    iter_edge_antichains,
    iter_r_uniform,
    random_antichain,
    random_assignment,
    random_linear_r_uniform,
    random_r_uniform_rho,
    sunflower_free,
    tight_path,
)

E2 = Hypergraph(5, [(1, 2, 3), (3, 4, 5)])
FIG1 = fig1(1)

INT, REAL = "int", "real"


def _antichain(n, m):
    return random_antichain(n, m, random.Random(1))


def _assignment(n, k, universe):
    return random_assignment(n, k, universe, random.Random(2))


# (call, valid arguments, {position: (name in the refusal, kind)});
# a parameter whose None means "the default" is marked by a third entry
CALLS = [
    (threshold_thm1, (9, 2), {0: ("m", INT), 1: ("rho", REAL)}),
    (threshold_thm2, (9,), {0: ("m", INT)}),
    (threshold_thm3, (9,), {0: ("m", INT)}),
    (thm2_gap_factor, (9,), {0: ("m", INT)}),
    (thm3_gap_factor, (9,), {0: ("m", INT)}),
    (cor_uniform_rhs_exact, (5, 2, 3), {0: ("m", INT), 1: ("rho", INT), 2: ("k", INT)}),
    (cor_linear_rhs_exact, (5, 3, 3), {0: ("m", INT), 1: ("r", INT), 2: ("k", INT)}),
    (theorem_certify, (FIG1, 4, 2), {1: ("k", INT), 2: ("which", INT)}),
    (scan_assignments_one_extra_color, (E2, 2, 0.5), {1: ("k", INT), 2: ("gap_factor", REAL)}),
    (cor_uniform_rhs, (5, 2, 3, "sinh"), {0: ("m", INT), 1: ("rho", INT), 2: ("k", REAL)}),
    (cor_linear_rhs, (5, 3, 3, "closed"), {0: ("m", INT), 1: ("r", INT), 2: ("k", REAL)}),
    (psi_Mt, (4, 2), {0: ("M", REAL), 1: ("t", REAL)}),
    (phi_Mkt, (8, 5, 2), {0: ("M", REAL), 1: ("k", REAL), 2: ("t", REAL)}),
    (phi1_M, (2,), {0: ("M", REAL)}),
    (phi2_M, (2,), {0: ("M", REAL)}),
    (phi_xy_thm2, (0.5, 2), {0: ("x", REAL), 1: ("y", REAL)}),
    (phi_xy_thm3, (1.5, 10), {0: ("x", REAL), 1: ("y", REAL)}),
    (psi_x_thm3, (0.67, 0.9), {0: ("x", REAL), 1: ("c", REAL, "default")}),
    (Psi_r, (0.5, 10, 4), {0: ("x", REAL), 1: ("M", REAL), 2: ("r", INT)}),
    (x0, (100, 0.5), {0: ("M", REAL), 1: ("c", REAL, "default")}),
    (x1, (0.9,), {0: ("c", REAL, "default")}),
    (psi_identity_relerr, (10, 3), {0: ("M", REAL), 1: ("t", REAL)}),
    (iter_edge_antichains, (3, 2), {0: ("n", INT), 1: ("m_max", INT)}),
    (iter_r_uniform, (5, 3, 2), {0: ("n", INT), 1: ("r", INT), 2: ("m", INT)}),
    (_antichain, (6, 3), {0: ("n", INT), 1: ("m", INT)}),
    (_assignment, (5, 3, 6), {0: ("n", INT), 1: ("k", INT), 2: ("universe", INT)}),
    (random_linear_r_uniform, (9, 4, 3, 7), {0: ("n", INT), 1: ("m", INT), 2: ("r", INT), 3: ("seed", INT)}),
    (
        random_r_uniform_rho,
        (8, 4, 3, 2, 3),
        {0: ("n", INT), 1: ("m", INT), 2: ("r", INT), 3: ("rho_min", INT), 4: ("seed", INT)},
    ),
    (tight_path, (6, 3), {0: ("n", INT), 1: ("r", INT)}),
    (sunflower_free, (9, 4, 3, 5), {0: ("n", INT), 1: ("m", INT), 2: ("r", INT), 3: ("seed", INT)}),
    (fig1, (1,), {0: ("fig1 index", INT)}),
    (list_color_function_search, (E2, 2, 10, 0), {1: ("k", INT), 2: ("iterations", INT), 3: ("seed", INT)}),
    (EdgeSubset, (4, [1, 3]), {0: ("edge count", INT)}),
    (ListAssignment.from_constant, (3, 2), {0: ("vertex count", INT), 1: ("list size k", INT)}),
    (chromatic_polynomial(E2).eval, (3,), {0: ("k", INT)}),
]

PARAMS = [
    pytest.param(call, args, pos, spec[0], spec[1], len(spec) > 2, id=f"{call.__name__}-{spec[0]}")
    for call, args, gated in CALLS
    for pos, spec in gated.items()
]


def _with(args, pos, value):
    return (*args[:pos], value, *args[pos + 1 :])


def _answer(call, args):
    out = call(*args)
    return list(out) if isinstance(out, Iterator) else out


@pytest.mark.parametrize("call, args, pos, name, kind, none_is_default", PARAMS)
def test_gate_refuses(call, args, pos, name, kind, none_is_default):
    bad = [True, "2", math.nan] + ([2.5] if kind == INT else [])
    if not none_is_default:
        bad.append(None)
    for value in bad:
        with pytest.raises(InputError, match=f"^{name} must be"):
            _answer(call, _with(args, pos, value))


@pytest.mark.parametrize("call, args, pos, name, kind, none_is_default", PARAMS)
def test_gate_takes_numpy_numbers(call, args, pos, name, kind, none_is_default):
    want = _answer(call, args)
    value = args[pos]
    numpy_values = [np.float64(value)] if kind == REAL else []
    if value == int(value):
        numpy_values.append(np.int64(value))
    assert numpy_values
    for numpy_value in numpy_values:
        assert _answer(call, _with(args, pos, numpy_value)) == want


def test_numpy_integers_answer():
    # each was refused, or raised a raw TypeError from mpf
    assert threshold_thm1(np.int64(5), 2) == threshold_thm1(5, 2)
    assert thm3_gap_factor(np.int64(5)) == thm3_gap_factor(5)
    assert Psi_r(0.5, 10, np.int64(4)) == Psi_r(0.5, 10, 4)
    assert cor_uniform_rhs_exact(np.int64(5), 2, 3) == cor_uniform_rhs_exact(5, 2, 3)


@pytest.mark.parametrize(
    "call",
    [
        # NaN passed every comparison's negation and came back as nan
        lambda: phi_Mkt(3, math.nan, 2),
        lambda: psi_Mt(math.nan, 2),
        # mpf parsed the string: 5.878
        lambda: psi_x_thm3("1"),
        # raw TypeErrors
        lambda: phi1_M("5"),
        lambda: random_assignment(3, 2.0, 4, random.Random(1)),
        lambda: random_linear_r_uniform(9.0, 4, 3),
        lambda: components(E2, 5),
        lambda: EdgeSubset(2, None),
        lambda: E2.subset(None),
        lambda: ListAssignment(2, {1: 5}),
        lambda: Hypergraph(3, None),
        lambda: Hypergraph(3, 5),
        lambda: EdgeSubset.from_mask(2.5, 1),
        lambda: EdgeSubset.from_mask(2, 1.0),
        # raw AttributeErrors
        lambda: ListAssignment(2, None),
        lambda: ListAssignment(2, [[1, 2]]),
        # a raw ValueError: negative shift count
        lambda: EdgeSubset.from_mask(-1, 0),
        # a subset whose m, or mask, was True
        lambda: EdgeSubset.from_mask(True, 1),
        lambda: EdgeSubset.from_mask(2, True),
        # True read as fixture 1
        lambda: fig1(True),
        # walked all 2^10 edge sets and yielded nothing
        lambda: list(iter_r_uniform(5, 3, -1)),
        # a fresh instance on every call
        lambda: sunflower_free(12, 4, 3, None),
    ],
    ids=[
        "phi_Mkt-nan",
        "psi_Mt-nan",
        "psi_x_thm3-str",
        "phi1_M-str",
        "random_assignment-float",
        "random_linear_r_uniform-float",
        "components-int",
        "EdgeSubset-None",
        "subset-None",
        "ListAssignment-int-colors",
        "Hypergraph-None",
        "Hypergraph-int",
        "from_mask-float-m",
        "from_mask-float-mask",
        "ListAssignment-None",
        "ListAssignment-list",
        "from_mask-negative-m",
        "from_mask-True",
        "from_mask-True-mask",
        "fig1-True",
        "iter_r_uniform-negative",
        "sunflower_free-None",
    ],
)
def test_repro_refused(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EdgeSubset.from_mask(2, 4), r"^mask 0x4 outside 0\.\.2\^2-1$"),
        (lambda: Hypergraph(3, [(0, 1)]).edge_vertex_masks(), "^vertex 0 is not a positive"),
        (lambda: Hypergraph.from_json('{"n": 3, "edges": 5}'), "^hypergraph field edges must"),
        (lambda: ListAssignment.from_json('{"k": 1, "lists": []}'), '^"lists" must map vertices'),
        (lambda: random_antichain(1, 1, random.Random(0)), "^edges need n >= 2, got n=1$"),
        (lambda: random_r_uniform_rho(5, 1, 3, 2), "^rho needs m >= 2, got 1$"),
        (lambda: x1(0.3), "^c must be > 1/3, got 0.3$"),
        (lambda: IntPolynomial({-1: 1}), "^negative exponent -1$"),
    ],
    ids=[
        "from_mask-wide",
        "edge_vertex_masks-vertex-0",
        "from_json-edges-int",
        "from_json-lists-array",
        "random_antichain-n-1",
        "random_r_uniform_rho-m-1",
        "x1-small-c",
        "IntPolynomial-negative",
    ],
)
def test_refused_with_message(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_fractional_rho_min_refused_before_sampling():
    # spent 10,000 tries before it raised GeneratorError
    start = time.process_time()
    with pytest.raises(InputError, match="^rho_min must be an integer"):
        random_r_uniform_rho(8, 4, 3, 2.5)
    assert time.process_time() - start < 0.1
