"""Span recording for the traced run.

A span is one call into a layer, made from the benchmark's own code: its
name, start and end (``perf_counter`` seconds), the span open around it, the
op it serves (None for set-up) and optional work counts.  Spans stay in
memory and are written out once, when the run ends.  With tracing off,
``span`` hands back one shared no-op context, so the untraced run pays a
function call per layer call and nothing more.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

_OFF = nullcontext()


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts", "_tracer")

    def __init__(self, tracer, name, op, parent, counts):
        self._tracer = tracer
        self.name = name
        self.op = op
        self.parent = parent
        self.counts = counts
        self.start = self.end = 0.0

    def __enter__(self):
        self._tracer._stack.append(len(self._tracer.spans))
        self._tracer.spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self._tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, op: int | None = None, **counts):
        """Context manager around one layer call; ``op`` defaults to the
        op of the enclosing span."""
        if not self.enabled:
            return _OFF
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        return Span(self, name, op, parent, counts)

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return [s.end - s.start - child_time[i] for i, s in enumerate(self.spans)]

    def layer_totals(self):
        """{name: [op self time, op calls, set-up self time, set-up calls,
        op counts, set-up counts]}, where op figures come from spans serving
        an op and set-up figures from spans with no op."""
        totals = defaultdict(lambda: [0.0, 0, 0.0, 0, defaultdict(float), defaultdict(float)])
        for s, own in zip(self.spans, self.self_times()):
            entry = totals[s.name]
            base = 2 if s.op is None else 0
            entry[base] += own
            entry[base + 1] += 1
            for key, value in s.counts.items():
                entry[4 + base // 2][key] += value
        return totals

    def replay_time(self, in_ops: bool) -> float:
        """Time of the layer calls directly under "replay" spans, in ops or
        in set-up."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.parent is not None
            and self.spans[s.parent].name == "replay"
            and (s.op is not None) == in_ops
        )

    def write(self, path) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.op, s.counts or None]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"columns": ["name", "start", "end", "parent", "op", "counts"], "spans": rows},
                fh,
            )
