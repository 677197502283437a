"""Which commands load numpy and mpmath, and which of the library's modules.

Most of the library is exact pure Python, so ``import hyperchrom`` and the
commands that walk NB(H), count colorings by brute force or read thresholds
must start without numpy or mpmath.  Each command also imports only the
library modules it runs, and ``import hyperchrom`` none.  Each case runs in
a fresh interpreter: it imports hyperchrom, calls
``hyperchrom.cli.main(argv)`` (or a library function) and reports which of
the libraries or modules ended up in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperchrom import Hypergraph, ListAssignment

ROOT = Path(__file__).resolve().parent.parent

# five lines of the Fano plane: linear 3-uniform, n = 7, m = 5, rho = 2, so
# Theorem 1 applies and k = 4 clears its threshold with n * k = 28 > 12
FANO5 = Hypergraph(7, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7)])

_LOADED = "sorted(m for m in ('mpmath', 'numpy') if m in sys.modules)"

_PROBE = (
    "import json, sys\n"
    "import hyperchrom\n"
    "rc = None\n"
    "if sys.argv[1:]:\n"
    "    import hyperchrom.cli\n"
    "    rc = hyperchrom.cli.main(sys.argv[1:])\n"
    f"print(json.dumps([rc, {_LOADED}]))\n"
)

# the same run, reporting the package's submodules and dataclasses instead
_MODULES_PROBE = _PROBE.replace(
    _LOADED, "sorted(m for m in sys.modules if m.startswith('hyperchrom.') or m == 'dataclasses')"
)


def loaded(code, *argv):
    """The first value code prints, and what it found loaded, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("HYPERCHROM_BUDGET", None)  # the default caps
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    rc, libs = json.loads(proc.stdout.splitlines()[-1])
    return rc, libs


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("footprint")
    paths = {name: root / f"{name}.json" for name in ("fano", "small", "lists")}
    paths["fano"].write_text(FANO5.to_json())
    paths["small"].write_text(Hypergraph(5, [(1, 2, 3), (3, 4, 5)]).to_json())
    lists = {v: (1, 2) if v % 2 else (2, 3) for v in range(1, 8)}
    paths["lists"].write_text(ListAssignment(2, lists).to_json())
    return {name: str(p) for name, p in paths.items()}


def test_import_loads_neither():
    assert loaded(_PROBE) == (None, [])


@pytest.mark.parametrize(
    "argv",
    [
        ("delta-cycles", "{fano}", "--json"),
        ("nb", "{fano}"),
        ("gen", "--family", "fig1", "--index", "1"),
        ("chromatic", "{fano}", "--k", "3", "--json"),
        # the brute-force counts run on Python ints
        ("chromatic", "{fano}", "--k", "3", "--oracle", "--json"),
        ("list-count", "{fano}", "{lists}", "--json"),
        ("verify", "--theorem", "1", "--k", "4", "--effort", "threshold", "{fano}"),
        # auto effort: exact_plk refuses n * k = 28 before any kernel runs
        ("verify", "--theorem", "1", "--k", "4", "{fano}", "--json"),
    ],
    ids=[
        "delta-cycles",
        "nb",
        "gen",
        "chromatic",
        "chromatic-oracle",
        "list-count",
        "verify-threshold",
        "verify-auto-over-cap",
    ],
)
def test_exact_commands_load_neither(files, argv):
    assert loaded(_PROBE, *(a.format(**files) for a in argv)) == (0, [])


@pytest.mark.parametrize("argv", [("plk", "{small}", "--k", "2", "--json")], ids=["plk"])
def test_kernel_commands_load_numpy_only(files, argv):
    assert loaded(_PROBE, *(a.format(**files) for a in argv)) == (0, ["numpy"])


def test_import_loads_no_submodule():
    assert loaded(_MODULES_PROBE) == (None, [])


_NO_COUNTS = {"chromatic", "listcolor", "bounds", "generators", "dataclasses"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("delta-cycles", "{fano}", "--json"), _NO_COUNTS),
        (("nb", "{fano}"), _NO_COUNTS),
        (("chromatic", "{fano}", "--k", "3", "--oracle", "--json"), {"listcolor", "bounds", "generators"}),
        (("list-count", "{fano}", "{lists}", "--json"), {"bounds", "generators", "dataclasses"}),
    ],
    ids=["delta-cycles", "nb", "chromatic-oracle", "list-count"],
)
def test_commands_leave_modules_unloaded(files, argv, unloaded):
    rc, modules = loaded(_MODULES_PROBE, *(a.format(**files) for a in argv))
    assert rc == 0
    assert not {m.removeprefix("hyperchrom.") for m in modules} & unloaded, modules


def test_grids_load_both(tmp_path):
    csv = str(tmp_path / "grids.csv")
    assert loaded(_PROBE, "verify", "--grids", "--csv", csv) == (0, ["mpmath", "numpy"])


def test_edgeless_scan_loads_neither():
    # the scan takes numpy from _kernels only when it has patterns to walk
    code = (
        "import json, sys\n"
        "from hyperchrom import Hypergraph, scan_assignments_one_extra_color\n"
        "res = scan_assignments_one_extra_color(Hypergraph(4, []), 3, gap_factor=0.5)\n"
        f"print(json.dumps([res['checked'], {_LOADED}]))\n"
    )
    assert loaded(code) == (0, [])


def test_theorem_certify_refuses_exact_check_before_kernels(files):
    # the exact P_l check is refused on n * k before P(H, k) or any kernel runs
    code = (
        "import json, sys\n"
        "from hyperchrom import Hypergraph, theorem_certify\n"
        "rep = theorem_certify(Hypergraph.load(sys.argv[1]), 4, 1)\n"
        f"print(json.dumps([rep.verdict, {_LOADED}]))\n"
    )
    assert loaded(code, files["fano"]) == ("holds", [])
