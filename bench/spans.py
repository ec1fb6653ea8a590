"""Spans around the calls into each layer, kept in memory.

The benchmark calls every layer through ``call``.  Untraced, ``Untraced.call``
is a plain call.  Traced, ``Tracer.call`` records a span (name, start, end,
parent, operation id) and ``Tracer.patch`` wraps functions that the program
calls inside itself, so their spans nest under the caller's span.  Spans are
written out when the run ends; a layer's self time is its span's duration
minus the time of its direct children.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns


class Untraced:
    """The untraced run: no spans, no counters."""

    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value) -> None:
        pass


class Tracer(Untraced):
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: list[tuple[str, int, object]] = []  # (name, value, op)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = "setup"

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, perf_counter_ns(), 0, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def count(self, name, value) -> None:
        self.counts.append((name, value, self.op))

    def patch(self, module, attr: str, name: str) -> None:
        """Route the program's own calls of ``module.attr`` through a span."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, ops) -> dict[str, dict]:
        """Per span or counter name: calls, median and self time, in ns.

        ``ops`` decides which spans count: those whose operation id it
        accepts.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if ops(op):
                entry = out.setdefault(name, {"durations": [], "self_ns": 0})
                entry["durations"].append(end - start)
                entry["self_ns"] += end - start - child_ns[i]
        for name, value, op in self.counts:
            if ops(op):
                out.setdefault(name, {"values": []})["values"].append(value)
        for entry in out.values():
            values = entry.pop("durations", None) or entry.pop("values")
            entry["calls"] = len(values)
            entry["median"] = statistics.median(values)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans,
                       "counts": self.counts}, handle)
