"""The benchmark's trace hooks still bind to the library.

``perfbench/workloads.py`` times library internals by name: it rebinds
``listcolor.nb_subsets``, wraps ``_kernels.edges_csr`` and
``_kernels.broken_csr``, records ``get_backend()`` and passes ``catalog=``.
One traced round of the ``lists`` workload, run as the benchmark runs it,
fails if any of those names or keywords goes away or an answer goes wrong.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_lists_round(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("HYPERCHROM_BUDGET", None)
    argv = [
        sys.executable, "perfbench/worker.py", "--workload", "lists", "--seed", "1",
        "--seconds", "0", "--trace", "1", "--workdir", str(tmp_path),
    ]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert Path(result["hyperchrom"]).is_relative_to(ROOT / "src")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["layers"]["cycles.nb_members"] > 0
