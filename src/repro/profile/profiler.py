"""The profiler: collects interval records during a simulated run.

Since the observability refactor the profiler is a thin gate in front of a
:class:`~repro.obs.bus.EventBus`: while measurement is enabled, every
``record_*`` call constructs a typed event
(:class:`~repro.obs.events.KernelEvent`, ...) and publishes it; while it is
disabled, ``record_*`` returns before building anything.  Other emitters
ask :meth:`Profiler.wants` before building an event.  The familiar record
lists (``.kernels``, ``.transfers``, ``.apis``, ``.spans``) are
maintained by a built-in bus subscriber, so existing aggregation code
keeps working unchanged, while any number of additional subscribers
(metrics bridge, JSONL recorder) can ride the same stream.  While that
built-in subscriber is the only one for a type, ``record_*`` appends the
record itself and builds no event: the lists come out the same.

Measurement can be gated (``profiler.enabled``) so warm-up iterations do
not pollute the statistics, mirroring how nvprof sessions are windowed.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Type, Union

from repro.gpu.kernel import KernelSpec
from repro.obs.bus import EventBus
from repro.obs.events import (
    ApiEvent,
    KernelEvent,
    ObsEvent,
    SpanEvent,
    TransferEvent,
)
from repro.profile.records import ApiRecord, KernelRecord, SpanRecord, TransferRecord

#: A clock is anything with a ``now`` attribute (a simulation
#: :class:`~repro.sim.engine.Environment`) or a zero-argument callable.
Clock = Union[Callable[[], float], object]


class Profiler:
    """Collects kernel/transfer/API/span records and feeds the event bus."""

    def __init__(
        self,
        enabled: bool = True,
        bus: Optional[EventBus] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.enabled = enabled
        self.bus = bus if bus is not None else EventBus()
        self.clock = clock
        self.kernels: List[KernelRecord] = []
        self.transfers: List[TransferRecord] = []
        self.apis: List[ApiRecord] = []
        self.spans: List[SpanRecord] = []
        # List accumulation is itself just one subscriber of the bus.
        self.bus.subscribe(KernelEvent, self._on_kernel)
        self.bus.subscribe(TransferEvent, self._on_transfer)
        self.bus.subscribe(ApiEvent, self._on_api)
        self.bus.subscribe(SpanEvent, self._on_span)

    # ------------------------------------------------------------------
    # Bus plumbing
    # ------------------------------------------------------------------
    def publish(self, event: ObsEvent) -> None:
        """Publish any typed event, honouring the measurement window."""
        if self.enabled:
            self.bus.publish(event)

    def wants(self, event_type: Type[ObsEvent]) -> bool:
        """Whether :meth:`publish` would deliver an ``event_type`` event.

        False outside the measurement window and for types nobody
        subscribed to; emitters check it so they build only events a
        subscriber receives.
        """
        return self.enabled and self.bus.wants(event_type)

    def bind_clock(self, clock: Clock) -> None:
        """Attach the time source :meth:`span` reads (normally the env)."""
        self.clock = clock

    def _now(self) -> float:
        if self.clock is None:
            raise ValueError(
                "Profiler.span() needs a clock; pass clock= to the "
                "constructor or call bind_clock(env)"
            )
        now = getattr(self.clock, "now", None)
        if now is not None:
            return float(now)
        return float(self.clock())

    def _on_kernel(self, e: KernelEvent) -> None:
        self.kernels.append(
            KernelRecord(gpu=e.gpu, name=e.name, layer=e.layer, stage=e.stage,
                         start=e.start, end=e.end)
        )

    def _on_transfer(self, e: TransferEvent) -> None:
        self.transfers.append(
            TransferRecord(kind=e.kind, src=e.src, dst=e.dst, nbytes=e.nbytes,
                           start=e.start, end=e.end)
        )

    def _on_api(self, e: ApiEvent) -> None:
        self.apis.append(ApiRecord(name=e.name, gpu=e.gpu, start=e.start, end=e.end))

    def _on_span(self, e: SpanEvent) -> None:
        self.spans.append(
            SpanRecord(name=e.name, gpu=e.gpu, iteration=e.iteration,
                       start=e.start, end=e.end)
        )

    # ------------------------------------------------------------------
    # Recording hooks (called by devices, communicators, trainer)
    # ------------------------------------------------------------------
    def _record(self, event_type, handler, records, record_type, *fields) -> None:
        """Publish an ``event_type`` event, or append its record directly
        when ``handler`` (this profiler's list handler) is the only
        subscriber.  Each event/record pair shares its field order."""
        if self.bus.delivers_only_to(event_type, handler):
            records.append(record_type(*fields))
        else:
            self.bus.publish(event_type(*fields))

    def record_kernel(self, gpu: int, kernel: KernelSpec, start: float, end: float) -> None:
        if self.enabled:
            self._record(KernelEvent, self._on_kernel, self.kernels, KernelRecord,
                         gpu, kernel.name, kernel.layer, kernel.stage, start, end)

    def record_transfer(
        self, kind: str, src: int, dst: int, nbytes: int, start: float, end: float
    ) -> None:
        if self.enabled:
            self._record(TransferEvent, self._on_transfer, self.transfers,
                         TransferRecord, kind, src, dst, nbytes, start, end)

    def record_api(self, name: str, gpu: int, start: float, end: float) -> None:
        if self.enabled:
            self._record(ApiEvent, self._on_api, self.apis, ApiRecord,
                         name, gpu, start, end)

    def record_span(
        self, name: str, gpu: int, iteration: int, start: float, end: float
    ) -> None:
        if self.enabled:
            self._record(SpanEvent, self._on_span, self.spans, SpanRecord,
                         name, gpu, iteration, start, end)

    @contextlib.contextmanager
    def span(self, name: str, gpu: int = -1, iteration: int = 0) -> Iterator[None]:
        """Record the enclosed block as one span, reading the bound clock.

        Replaces hand-paired ``start = env.now ... record_span(..., start,
        env.now)`` call sites::

            with profiler.span("fp", gpu=dev.index, iteration=it):
                ... run forward kernels ...
        """
        start = self._now()
        try:
            yield
        finally:
            self.record_span(name, gpu, iteration, start, self._now())

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (end of warm-up)."""
        self.kernels.clear()
        self.transfers.clear()
        self.apis.clear()
        self.spans.clear()

    # ------------------------------------------------------------------
    # Simple aggregates
    # ------------------------------------------------------------------
    def kernel_time(self, gpu: Optional[int] = None, stage: Optional[str] = None) -> float:
        """Total kernel busy time, optionally filtered."""
        return sum(
            k.duration
            for k in self.kernels
            if (gpu is None or k.gpu == gpu) and (stage is None or k.stage == stage)
        )

    def bytes_transferred(self, kind: Optional[str] = None) -> int:
        return sum(t.nbytes for t in self.transfers if kind is None or t.kind == kind)

    def api_time(self, name: Optional[str] = None) -> float:
        return sum(a.duration for a in self.apis if name is None or a.name == name)
