"""In-memory spans recorded by the benchmark around calls into lapdetect.

A span has a name (``layer.function``), start and end in perf_counter
nanoseconds, the index of its parent span, and the getrusage counts it
consumed: minor faults, user and system CPU time, context switches.
Spans stay in memory and are written out once, when the run ends.

``NULL`` is the tracer of an untraced run: its ``span`` is a reusable
no-op, so untraced timing pays one attribute lookup and one ``with``.
"""

from __future__ import annotations

import json
import resource
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

_NOOP = nullcontext()


def usage() -> tuple[int, float, float, int]:
    """(minor faults, user s, sys s, context switches) of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_minflt, r.ru_utime, r.ru_stime, r.ru_nvcsw + r.ru_nivcsw


class _Span:
    __slots__ = ("tracer", "name", "count", "index")

    def __init__(self, tracer: "Tracer", name: str, count: int):
        self.tracer = tracer
        self.name = name
        self.count = count

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, self.count, usage()])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        rec = t.spans[self.index]
        after = usage()
        rec[2] = time.perf_counter_ns()
        rec[5] = tuple(b - a for a, b in zip(rec[5], after))
        t.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, count: int = 1) -> _Span:
        """Context manager timing one call (or ``count`` calls) of ``name``."""
        return _Span(self, name, count)

    def totals(self, name: str) -> tuple[int, tuple]:
        """(summed count, summed rusage deltas) over the spans named ``name``."""
        n = 0
        use = [0, 0.0, 0.0, 0]
        for s in self.spans:
            if s[0] == name:
                n += s[4]
                use = [a + b for a, b in zip(use, s[5])]
        return n, tuple(use)

    def self_ms_by_layer(self) -> dict[str, float]:
        """Each layer's self time: span time not covered by child spans."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0].split(".")[0]] += (s[2] - s[1] - child_ns[i]) / 1e6
        return dict(sorted(out.items()))

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "count", "usage")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


class _NullTracer:
    def span(self, name: str, count: int = 1):
        return _NOOP


NULL = _NullTracer()
