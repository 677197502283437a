"""One workload in its own process: set up, run timed rounds, check, report.

Started by ``run.py`` with ``src`` on PYTHONPATH.  With ``--setup-only``
it stops after the warm-up.  Prints one JSON object as its last line of
standard output.

Every time it reports is CPU time (user + system) of this process plus
the children it has waited for.  On the 2-core virtual machine the
benchmark was developed on, the host took CPU away at times ("steal"): in
one minute of the same loop, wall time per batch ranged over 1.16-1.52 s
while CPU time stayed within 1.14-1.27 s, the difference tracking the
steal counter in /proc/stat.  CPU time still counts all the work the
program does, in any thread or child process, but not time it spends
waiting.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hyperchrom
from spans import Recorder
from workloads import WORKLOADS

PER_LAYER_TIMES = [
    "hypercore.build",
    "cycles.catalog",
    "kernels.encode",
    "chromatic.expansion",
    "cycles.nb_stream",
    "listcolor.expansion",
    "listcolor.brute",
    "bounds.prop1",
    "listcolor.plk_exact",
    "bounds.scan",
    "cli.interpreter",
    "cli.import",
    "cli.command",
]
PER_LAYER_COUNTS = [
    "cycles.delta_cycles",
    "cycles.broken_sets",
    "cycles.broken_minimal",
    "cycles.nb_members",
    "bounds.patterns_checked",
]


def cpu_seconds() -> float:
    """CPU time of this process since it started, plus its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _call(fn, i, item, answers, errors) -> float:
    """One operation on item i; records its answer and returns its CPU time."""
    t = cpu_seconds()
    try:
        answers[i].append(fn(item))
    except Exception as exc:  # every failure is counted and reported
        answers[i].append(None)
        errors.append(f"item {i}: {type(exc).__name__}: {exc}")
    return cpu_seconds() - t


def _peak_rss_mb(workload) -> float:
    # ru_maxrss is in KiB on Linux
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _check_all(workload, items, answers) -> tuple[list[str], int]:
    """Check every distinct answer of every item; repeats must be identical.

    Returns the problems found and the number of operations whose answer
    failed: it failed a check, or the item's repeats disagree.
    """
    problems, failed = [], 0
    for i, item in enumerate(items):
        got = [a for a in answers[i] if a is not None]
        if not got:
            continue
        distinct = []
        for a in got:
            if a not in distinct:
                distinct.append(a)
        ref = workload.reference(item)
        bad = []
        for a in distinct:
            found = workload.check(item, a, ref)
            problems += [f"item {i}: {p}" for p in found]
            if found:
                bad.append(a)
        if len(distinct) > 1:
            problems.append(f"item {i}: {len(distinct)} different answers across repeats")
            bad = distinct
        failed += sum(1 for a in got if a in bad)
    return problems, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    items = workload.items
    for item in workload.warmup:
        workload.op(item)
    setup_s = cpu_seconds()
    env = {"backend": hyperchrom.get_backend(), "hyperchrom": hyperchrom.__file__}
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, **env}))
        return 0

    answers = [[] for _ in items]
    latencies: list[float] = []
    errors: list[str] = []
    problems: list[str] = []
    result: dict = {"setup_s": setup_s, **env}
    start = time.monotonic()
    if args.trace == 0:
        while not latencies or time.monotonic() - start < args.seconds:
            for i, item in enumerate(items):
                latencies.append(_call(workload.op, i, item, answers, errors))
        result["peak_rss_mb"] = _peak_rss_mb(workload)
        result["ops_per_s"] = len(latencies) / sum(latencies)
        result["op_p50_ms"] = statistics.median(latencies) * 1000.0
    else:
        # a span costs two clock readings; without children the cheaper
        # process clock is the same clock
        rec = Recorder(cpu_seconds if workload.children else time.process_time)

        def traced(item):
            rec.begin_op()
            return workload.traced(item, rec)

        # each item runs untraced and then traced, back to back, so that the
        # overhead compares operations made at the same speed of the host
        plain_cpu, traced_cpu, layer_rounds, count_rounds = [], [], [], []
        while not traced_cpu or time.monotonic() - start < args.seconds:
            first = len(rec.spans)
            plain_cpu.append(0.0)
            traced_cpu.append(0.0)
            for i, item in enumerate(items):
                plain_cpu[-1] += _call(workload.op, i, item, answers, errors)
                traced_cpu[-1] += _call(traced, i, item, answers, errors)
            layer_rounds.append(rec.self_times(first))
            count_rounds.append(rec.take_counts())
        if any(c != count_rounds[0] for c in count_rounds):
            problems.append(f"per-layer counts differ between traced rounds: {count_rounds}")
        layers = {
            f"{name}_s": statistics.median(r.get(name, 0.0) for r in layer_rounds)
            for name in PER_LAYER_TIMES
        }
        layers.update({name: count_rounds[0].get(name, 0) for name in PER_LAYER_COUNTS})
        layers["trace.overhead_s"] = statistics.median(traced_cpu) - statistics.median(plain_cpu)
        result["layers"] = layers
        result["traced_rounds"] = len(traced_cpu)
        rec.dump(str(Path(args.workdir) / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    found, failed_checks = _check_all(workload, items, answers)
    problems += found
    attempted = sum(len(a) for a in answers)
    failed = sum(1 for a in answers for x in a if x is None) + failed_checks
    for line in errors[:5] + problems[:20]:
        print(line, file=sys.stderr)
    result.update(correct=not problems, attempted=attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
