"""In-memory spans recorded around the benchmark's calls into the program.

A span is (name, start, end, parent span, tag); the tag names the set-up
repetition or the query the span belongs to.  Spans stay in memory and are
written out once, at the end of a run.  A span's self time is its duration
minus the durations of its children; calls nest strictly on one thread, so
the children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

perf = time.perf_counter


class Tracer:
    """Records spans when ``enabled``; otherwise every call passes straight
    through, so the untraced run pays one extra Python call per layer call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, tag]
        self.tag = ""
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, perf(), 0.0, self._stack[-1] if self._stack else -1, self.tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around each call, for patching a call site."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> dict[tuple[str, str], list[float]]:
        """Self time of every span, grouped by (tag, name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], list[float]] = defaultdict(list)
        for k, (name, start, end, parent, tag) in enumerate(self.spans):
            out[(tag, name)].append(end - start - child[k])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "tag": tag}
                ) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one recorded span, net of the bare call it wraps."""
    tracer = Tracer(True)
    noop = lambda: None  # noqa: E731
    t0 = perf()
    for _ in range(n):
        noop()
    bare = perf() - t0
    t0 = perf()
    for _ in range(n):
        tracer.call("x", noop)
    return max(0.0, (perf() - t0 - bare) / n)


@contextmanager
def patched(module, attr: str, replacement):
    """Replace ``module.attr`` for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)
