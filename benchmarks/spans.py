"""In-memory spans for the traced run.

A span is [id, name, parent id, start ns, end ns, calls].  Spans named
after a per-layer metric ("ball.add_ns.128", "verify.stage_s.bounds")
time `calls` calls into that layer; the metric is the median over such
spans of duration / calls, in the unit the name carries.  Other spans
("query.index", "verify.verify_all") only give the tree its shape.
"""

from __future__ import annotations

import statistics
import time

_NS_PER = {"ns": 1, "us": 10**3, "ms": 10**6, "s": 10**9}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []

    def span(self, name: str, calls: int = 1) -> "_Span":
        return _Span(self, name, calls)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str, calls: int) -> None:
        self.tracer = tracer
        self.rec = [len(tracer.spans), name, tracer.open[-1] if tracer.open else None, 0, 0, calls]

    def __enter__(self) -> None:
        self.tracer.spans.append(self.rec)
        self.tracer.open.append(self.rec[0])
        self.rec[3] = time.perf_counter_ns()

    def __exit__(self, *exc) -> None:
        self.rec[4] = time.perf_counter_ns()
        self.tracer.open.pop()


def unit_of(metric: str) -> str:
    """'ball.add_ns.128' -> 'ns': the suffix of the second dotted part."""
    return metric.split(".")[1].rsplit("_", 1)[1]


def span_metrics(spans, names) -> dict[str, float]:
    """Median per-call time of the spans named after each metric in `names`."""
    per_call: dict[str, list[float]] = {}
    for _id, name, _parent, start, end, calls in spans:
        if name in names:
            per_call.setdefault(name, []).append((end - start) / calls)
    return {name: statistics.median(v) / _NS_PER[unit_of(name)] for name, v in per_call.items()}


def span_cost_ns(count: int = 20000) -> float:
    """Time to open and close one empty span, in a throwaway tracer."""
    t = Tracer()
    start = time.perf_counter_ns()
    for _ in range(count):
        with t.span("empty"):
            pass
    return (time.perf_counter_ns() - start) / count
