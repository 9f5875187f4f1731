"""Spans recorded by the benchmark around calls into the package, plus counters."""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "trace_id", "index")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.trace_ids.append(self.trace_id)
        t.parents.append(t.stack[-1] if t.stack else -1)
        t.ends.append(0)
        t.stack.append(self.index)
        t.starts.append(perf_counter_ns())

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.ends[self.index] = perf_counter_ns()
        t.stack.pop()


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """Spans kept in memory as parallel columns (name, trace id, parent, start, end), plus counters.

    The columns hold strings and machine integers only, so recording spans
    adds no objects for the garbage collector to scan. A disabled tracer
    records nothing; it runs the same code with the span bookkeeping removed,
    which is what the tracing overhead is measured against.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.names: list[str] = []
        self.trace_ids: list[str] = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def span(self, name: str, trace_id: str = "-"):
        return _Span(self, name, trace_id) if self.enabled else _NO_SPAN

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] += int(amount)

    def self_seconds(self) -> dict[str, float]:
        """Per span name, the summed duration minus the time covered by child spans."""
        child_ns = [0] * len(self.names)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Counter[str] = Counter()
        for name, start, end, covered in zip(self.names, self.starts, self.ends, child_ns):
            totals[name] += end - start - covered
        return {name: ns / 1e9 for name, ns in totals.items()}

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span with this name, children included."""
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name) / 1e9


NO_TRACE = Tracer(enabled=False)


def write_trace(path: str, tracers: list[Tracer]) -> None:
    """Write the spans of every traced pass as JSON lines, tagged with the pass index."""
    with open(path, "w", encoding="utf-8") as handle:
        for pass_index, tracer in enumerate(tracers):
            columns = zip(tracer.names, tracer.trace_ids, tracer.parents, tracer.starts, tracer.ends)
            for index, (name, trace_id, parent, start, end) in enumerate(columns):
                record = {"pass": pass_index, "span": index, "parent": parent, "name": name,
                          "trace_id": trace_id, "start_ns": start, "end_ns": end}
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
