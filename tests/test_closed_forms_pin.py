"""Pinned values of the paper's bound layer, compared byte for byte.

``closed_forms_pin.json`` holds, at fixed sample points, every exported
closed form (as ``mp.nstr(value, 30)``), every threshold, gap factor and
psi identity error (as ``repr(float)``), every exact corollary rational
(as ``str(Fraction)``), ``theorem_certify``'s reports on small instances
(as the CLI's JSON), and the stdout of ``verify --grids`` in text and JSON
and its CSV file.  The file was recorded from the tree before these
functions were rewritten to share one expression per closed form, so a
reordered expression, a changed constant or a changed report fails here.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest
from mpmath import mp

import hyperchrom
from hyperchrom import Hypergraph, cli, theorem_certify

PIN = Path(__file__).with_name("closed_forms_pin.json")

# name -> argument tuples; each value is printed with mp.nstr(value, 30)
MPF_SAMPLES = {
    "psi_Mt": [(2, 2), (4, 2), (14, 3), (100, 4), (10**4, 6), (7.5, 2.5)],
    "phi_Mkt": [(0, 1, 2), (8, 5, 2), (100, 7.5, 3), (10**4, 3000, 4), (3, 0.5, 2)],
    "phi1_M": [(0.01,), (0.5,), (1,), (2,), (37.5,), (10**4,)],
    "phi2_M": [(0.01,), (0.5,), (1,), (2,), (37.5,), (10**4,)],
    "phi_xy_thm2": [(0.5, 2), (3.7, 608), (10, 10**5)],
    "phi_xy_thm3": [(0, 2), (1.5, 10), (4.6, 100)],
    "psi_x_thm3": [(0,), (0.67,), (5,), (50,), (1.25, 0.9)],
    "Psi_r": [(0.5, 10, 4), (2.0, 100, 5), (50, 1000, 8)],
    "x0": [(2,), (100,), (100, 0.5)],
    "x1": [(), (0.9,)],
    "cor_uniform_rhs": [
        (m, rho, k, mode)
        for m, rho, k in ((2, 1, 1), (5, 2, 3), (30, 3, 7), (100, 2, 40))
        for mode in ("binomial", "sinh", "phi")
    ]
    + [(9, 2, 2.5, "sinh"), (9, 2, 2.5, "phi")],
    "cor_linear_rhs": [
        (m, r, k, mode)
        for m, r, k in ((2, 3, 1), (5, 3, 2), (30, 4, 7), (100, 5, 40))
        for mode in ("binomial", "closed")
    ],
}

FRACTION_SAMPLES = {
    "cor_uniform_rhs_exact": [
        (m, rho, k) for m in (2, 3, 5, 10, 50, 299) for rho in (1, 2, 3) for k in (1, 2, 7)
    ],
    "cor_linear_rhs_exact": [
        (m, r, k) for m in (2, 3, 5, 10, 50, 299) for r in (3, 4, 6) for k in (1, 2, 7)
    ],
}

# name -> argument tuples; each value is printed with repr(float)
FLOAT_SAMPLES = {
    "threshold_thm1": [(m, rho) for m in range(2, 300) for rho in (1, 2, 3, 2.5)],
    "threshold_thm2": [(m,) for m in range(2, 300)],
    "threshold_thm3": [(m,) for m in range(2, 300)],
    "thm2_gap_factor": [(m,) for m in range(3, 300)],
    "thm3_gap_factor": [(m,) for m in range(3, 300)],
    "psi_identity_relerr": [(4, 2), (10, 3), (14, 3), (100, 2), (1000, 4), (10**4, 6)],
}

INSTANCES = {
    "e1": Hypergraph(3, [(1, 2, 3)]),
    "e2": Hypergraph(5, [(1, 2, 3), (3, 4, 5)]),
    "tri": Hypergraph(3, [(1, 2), (2, 3), (1, 3)]),
    "matching2": Hypergraph(6, [(1, 2, 3), (4, 5, 6)]),
    "tri3": Hypergraph(6, [(1, 2, 3), (3, 4, 5), (5, 6, 1)]),
    "fano5": Hypergraph(7, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (3, 5, 7)]),
    "four4": Hypergraph(10, [(1, 2, 3, 4), (4, 5, 6, 7), (7, 8, 9, 10), (1, 5, 8, 10)]),
    "mixed": Hypergraph(5, [(1, 2, 3), (3, 4), (4, 5, 1)]),
    "empty": Hypergraph(3, []),
}


def _samples() -> dict:
    out = {"C_THM3": mp.nstr(hyperchrom.C_THM3, 40)}
    for name, cases in MPF_SAMPLES.items():
        fn = getattr(hyperchrom, name)
        out[name] = [mp.nstr(fn(*args), 30) for args in cases]
    for name, cases in FRACTION_SAMPLES.items():
        fn = getattr(hyperchrom, name)
        out[name] = [str(fn(*args)) for args in cases]
    for name, cases in FLOAT_SAMPLES.items():
        fn = getattr(hyperchrom, name)
        out[name] = [repr(fn(*args)) for args in cases]
    out["theorem_certify"] = [
        json.dumps(asdict(theorem_certify(H, k, which)), sort_keys=True, default=float)
        for H in INSTANCES.values()
        for which in (1, 2, 3)
        for k in (1, 2, 4, 9)
    ]
    return out


def _grid_outputs(capsys, tmp_path) -> dict:
    out = {}
    for key, flags in (("text", ()), ("json", ("--json",))):
        assert cli.main(["verify", "--grids", *flags]) == 0
        out[key] = capsys.readouterr().out
    csv_path = tmp_path / "grids.csv"
    assert cli.main(["verify", "--grids", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    out["csv"] = csv_path.read_text()
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PIN.read_text())


def test_closed_forms_thresholds_and_reports_match_pin(pinned):
    samples = _samples()
    assert samples.keys() == pinned["samples"].keys()
    for name, values in samples.items():
        assert values == pinned["samples"][name], name


def test_verify_grids_output_matches_pin(pinned, capsys, tmp_path):
    outputs = _grid_outputs(capsys, tmp_path)
    for key in ("text", "json", "csv"):
        assert outputs[key] == pinned["grids"][key], key
