"""In-memory spans recorded around the benchmark's calls into each layer.

A :class:`Tracer` keeps closed spans (name, start, end, parent, request
id, thread) in a list and writes them once, at the end, as Chrome-trace
JSON.  With tracing off, :meth:`Tracer.span` hands back a shared no-op
context manager.  The simulator's own ``repro.perf.PERF`` spans can be
folded in (:meth:`Tracer.absorb_perf`) so one tree holds both; each
layer's self time is its spans' duration minus the time their child
spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; each thread nests its own."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def _span(self, name: str, request_id: Optional[str]) -> Iterator[None]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        request_id = request_id if request_id is not None else inherited
        span_id = next(self._ids)
        stack.append((span_id, request_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       request_id, threading.get_ident()))

    def span(self, name: str, request_id: Optional[str] = None):
        """Time one call into a layer (no-op while disabled)."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, request_id)

    def absorb_perf(self, records: Sequence[object]) -> None:
        """Add the simulator's ``PERF`` span records (same thread, same
        clock) as children of the innermost benchmark span holding them."""
        thread = threading.get_ident()
        for record in records:
            self.spans.append(Span(next(self._ids), record.name, record.start,
                                   record.end, None, None, thread))
        self.spans = _link_parents(self.spans)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            covered = _union(
                [(c.start, c.end) for c in children.get(span.span_id, ())])
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - covered
        return dict(sorted(out.items()))

    def write_chrome(self, path: pathlib.Path) -> None:
        """Write every span as a Chrome-trace "complete" event."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads = {t: i for i, t in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": f"bench-thread-{tid}"}}
            for tid in threads.values()
        ]
        for span in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            events.append({
                "ph": "X", "pid": 1, "tid": threads[span.thread],
                "name": span.name,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": {"id": span.span_id, "parent": span.parent,
                         "request_id": span.request_id},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fp:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fp)


def _union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _link_parents(spans: List[Span]) -> List[Span]:
    """Re-derive each parentless span's parent by interval containment
    within its thread (PERF records carry no parent id)."""
    out: List[Span] = []
    by_thread: Dict[int, List[Span]] = {}
    for span in spans:
        by_thread.setdefault(span.thread, []).append(span)
    for thread_spans in by_thread.values():
        stack: List[Span] = []
        for span in sorted(thread_spans, key=lambda s: (s.start, -s.end)):
            while stack and stack[-1].end < span.end:
                stack.pop()
            if span.parent is None and stack:
                span = Span(span.span_id, span.name, span.start, span.end,
                            stack[-1].span_id, stack[-1].request_id,
                            span.thread)
            out.append(span)
            stack.append(span)
    return out
