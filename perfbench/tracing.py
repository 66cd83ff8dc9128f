"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into
each layer's public function: name, start, end, parent span and
request id.  They stay in memory while the run measures and are
written out once at the end.  A layer's *self* time is its span's
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import collections
import json
import time
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int


class Tracer:
    """Records nested spans; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.request = 0
        self._open: List[int] = []

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span recorded around every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_seconds(self, request: int) -> Dict[str, float]:
        """Per-layer self time of one request's spans, in seconds."""
        own = [(i, s) for i, s in enumerate(self.spans)
               if s is not None and s.request == request]
        covered: Dict[int, float] = collections.defaultdict(float)
        for _, span in own:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: Dict[str, float] = collections.defaultdict(float)
        for i, span in own:
            totals[span.name] += span.end - span.start - covered[i]
        return dict(totals)

    def inclusive_seconds(self, request: int) -> Dict[str, float]:
        """Per-layer inclusive time (children counted) of one request."""
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            if span is not None and span.request == request:
                totals[span.name] += span.end - span.start
        return dict(totals)

    def dump(self, path, header: Dict) -> None:
        """Write every recorded span (JSON lines after a header line)."""
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    handle.write(json.dumps({"id": index, **span._asdict()})
                                 + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._open.append(self.index)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._open.pop()
        parent = tracer._open[-1] if tracer._open else None
        tracer.spans[self.index] = Span(self.name, self.start, end, parent,
                                        tracer.request)
