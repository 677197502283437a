"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload poly --seed 1 --seconds 15 --trace 0

Workloads: poly, lists, plk, cli (see perfbench/README.md).  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.

This script imports only the standard library.  The workload runs in a
child process (``worker.py``) with the checkout's ``src`` on PYTHONPATH.
Before it, ``SETUP_PROBES`` more children set up the same workload and
exit, and ``setup_s`` is the median over all of them.  Each run also
writes a results file under ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
DEADLINE_S = 170.0
WORKLOADS = ("poly", "lists", "plk", "cli")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "peak_rss_mb": "MiB"}


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, env, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """Run worker.py once; returns its JSON report or raises RuntimeError."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hyperchrom" / "__init__.py").is_file():
        print(f"perfbench: no src/hyperchrom under {root}; run from a checkout's root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # the workloads are sized for the default caps
    env.pop("HYPERCHROM_BUDGET", None)
    # one thread per process: numpy's BLAS otherwise starts a pool at import
    # whose spinning threads add CPU time to every process, CLI calls included
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = HERE / "out"
    workdir = out / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = start + DEADLINE_S

    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(args, env, workdir, deadline, True)["setup_s"])
        report = _worker(args, env, workdir, deadline, False)
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if not Path(report["hyperchrom"]).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported hyperchrom from {report['hyperchrom']}, not {src}", file=sys.stderr)
        return 1

    if args.trace == 0:
        setups.append(report["setup_s"])
        values = {name: report[name] for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in report["layers"].items()
        }
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": report["backend"],
        "cores": os.cpu_count(),
        "commit": _commit(root),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out / "results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
