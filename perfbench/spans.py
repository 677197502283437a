"""In-memory spans for the traced run, and the per-layer figures drawn from them.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` numbers the operation the
span belongs to, so every span of one operation shares it.  Spans stay
in memory until ``dump`` writes them out as JSON lines after the run.

Times come from the clock the recorder is given, a CPU clock of the
worker process (see ``worker.py``).  A span's self time is its duration
minus the time its direct children cover.  The benchmark is
single-threaded and opens spans only from its own calls into the
program, so children nest inside their parent and never overlap one
another.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Recorder"]


class Recorder:
    """Collects spans and counts for one traced pass over a workload."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._op = -1
        self._deferred: list = []

    def begin_op(self) -> None:
        """Start a new operation; spans opened from here on carry its number."""
        self._op += 1

    @contextmanager
    def span(self, name: str):
        idx = self._start(name)
        try:
            yield
        finally:
            self._finish(idx)

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self._op])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _finish(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere (a child process), under the open span."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, self._op])

    def wrap_stream(self, name: str, stream, count_name: str):
        """Yield from ``stream``, with one span around each step of it.

        A generator's work is interleaved with its consumer's, so the time
        spent producing items is the sum of these per-step spans.  Each
        item adds one to ``count_name``.
        """
        it = iter(stream)
        while True:
            idx = self._start(name)
            try:
                item = next(it)
            except StopIteration:
                self._finish(idx)
                return
            self._finish(idx)
            self.counts[count_name] += 1
            yield item

    def count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def defer(self, fn) -> None:
        """Run ``fn()`` at the next ``take_counts``, outside the timed round."""
        self._deferred.append(fn)

    def take_counts(self) -> dict[str, int]:
        """The counts so far, resetting them for the next round."""
        for fn in self._deferred:
            fn()
        self._deferred.clear()
        counts, self.counts = dict(self.counts), defaultdict(int)
        return counts

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over the spans from index ``first`` on."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, _parent, _op = self.spans[i]
            totals[name] += end - start - child_time[i]
        return dict(totals)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
