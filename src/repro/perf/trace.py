"""Chrome-trace export of simulator self-time.

Reuses the trace conventions of :mod:`repro.profile.timeline` -- its
metadata helper and its self-time process id (re-exported here as
``PID_SELF``) -- on a dedicated process lane, so a perf trace can stand
alone *or* ride in the same file as a simulated-run trace without
colliding with the simulated GPU/fabric/stage lanes.  Spans are emitted
as duration ("X") events on one wall-clock lane; Perfetto nests them by
time containment, which matches the span stack exactly because spans
close LIFO.
"""

from __future__ import annotations

import json
from typing import IO, List

from repro.perf.spans import PerfProfiler
from repro.profile.timeline import _PID_SELF as PID_SELF
from repro.profile.timeline import _US, _metadata


def perf_chrome_trace_events(perf: PerfProfiler) -> List[dict]:
    """Metadata plus duration events for every recorded span.

    Span timestamps are rebased to the earliest recorded span so the
    trace starts at t=0 regardless of the process's ``perf_counter``
    epoch.  Counters are attached to the process metadata so they travel
    with the trace.
    """
    events: List[dict] = [
        _metadata(PID_SELF, "Simulator self-time"),
        _metadata(PID_SELF, "wall clock", tid=0),
    ]
    if not perf.records:
        return events
    epoch = min(record.start for record in perf.records)
    for record in perf.records:
        events.append(
            {
                "name": record.name,
                "cat": "perf",
                "ph": "X",
                "ts": (record.start - epoch) * _US,
                "dur": record.duration * _US,
                "pid": PID_SELF,
                "tid": 0,
                "args": {"path": record.path, "depth": record.depth},
            }
        )
    return events


def export_perf_chrome_trace(perf: PerfProfiler, fp: IO[str]) -> None:
    """Write a standalone self-time trace (open in ui.perfetto.dev)."""
    trace = {
        "traceEvents": perf_chrome_trace_events(perf),
        "displayTimeUnit": "ms",
    }
    if perf.counters:
        trace["metadata"] = {"perf_counters": perf.counters_dict()}
    json.dump(trace, fp)
