"""Spans and counts recorded around the benchmark's calls into weaksim.

Every call the benchmark makes into a library layer goes through
``tracer.call(name, fn, *args)``.  The untraced tracer calls straight
through; the recording tracer keeps one span per call (name, start, end,
parent span, question id) and counts in memory until the run ends.  Spans
stop at the library's public functions: nothing inside the library is
traced.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict


class NullTracer:
    """Calls straight through; used for the end-to-end measurements."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, k=1):
        pass

    def question(self, qid):
        return contextlib.nullcontext()


class Tracer:
    """Records spans and counts for the per-layer metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, qid]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._qid = None

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._qid])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            self.counts[name.split(".")[0] + ".recursion_failures"] += 1
            raise
        finally:
            self._close(idx)

    def count(self, name, k=1):
        self.counts[name] += k

    @contextlib.contextmanager
    def question(self, qid):
        """Root span of one library question; its children share the qid."""
        self._qid = qid
        idx = self._open("question")
        try:
            yield
        finally:
            self._close(idx)
            self._qid = None

    def self_times(self, questions_only: bool = False) -> dict[str, tuple[float, int]]:
        """Per span name: (self seconds, calls).  Self time is a span's
        duration minus the durations of its direct children."""
        child_time = defaultdict(float)
        for name, start, end, parent, qid in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for idx, (name, start, end, parent, qid) in enumerate(self.spans):
            if questions_only and qid is None:
                continue
            out[name][0] += end - start - child_time[idx]
            out[name][1] += 1
        return {name: (busy, calls) for name, (busy, calls) in out.items()}

