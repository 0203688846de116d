"""The three workloads: what one round of each does, timed from outside.

Every call into a library layer is timed here, around the public API
(``SweepRunner.run_point``, ``ShardedResultStore``, ``validate()``,
``repro-experiments serve`` and ``ServiceClient``); nothing inside the
library is changed.  A traced pass additionally switches on the
simulator's own ``repro.perf.PERF`` spans and counters and wraps the
store and check-engine entry points with timers, for that pass only.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.validation import validate
from repro.checks.engine import CheckEngine
from repro.core.config import SimulationConfig
from repro.core.constants import CALIBRATION
from repro.core.errors import OutOfMemoryError
from repro.perf.spans import PERF
from repro.runner import ShardedResultStore, SweepRunner, point_fingerprint
from repro.service.client import ServiceClient
from repro.service.protocol import point_to_dict

from perfbench import inputs, reference
from perfbench.spec import EXACT_COUNTERS
from perfbench.stats import Tally
from perfbench.trace import Tracer

#: Seconds a freshly started server may take to answer ``ping``.
SERVER_START_TIMEOUT = 60.0
#: Seconds a draining server may take to exit before it is killed.
SERVER_STOP_TIMEOUT = 30.0


@dataclass
class Pass:
    """What one pass over a workload's inputs measured."""

    wall_s: float = 0.0
    #: (operation key, host seconds): a point key, or client and step.
    latencies: List[Tuple[str, float]] = field(default_factory=list)
    points: int = 0
    requests: int = 0
    tally: Tally = field(default_factory=Tally)
    layers: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def merge(self, other: "Pass") -> None:
        self.wall_s += other.wall_s
        self.latencies += other.latencies
        self.points += other.points
        self.requests += other.requests
        self.tally.add(other.tally)
        self.extra.update(other.extra)


class Workdir:
    """Fresh scratch directories under the run's output directory."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self._count = 0

    def fresh(self, label: str) -> pathlib.Path:
        self._count += 1
        path = self.root / f"{label}-{self._count}"
        shutil.rmtree(path, ignore_errors=True)
        return path


# ----------------------------------------------------------------------
# Instrumentation for traced passes
# ----------------------------------------------------------------------
@contextlib.contextmanager
def timed_method(owner: Any, name: str, totals: Dict[str, float],
                 label: str, tracer: Optional[Tracer] = None) -> Iterator[None]:
    """Replace ``owner.name`` with a wrapper adding its wall time to
    ``totals[label]`` (and a ``store.<name>`` span, when ``tracer`` is
    given)."""
    original = getattr(owner, name)
    is_class = isinstance(owner, type)
    totals.setdefault(label, 0.0)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"store.{name}"):
                    return original(*args, **kwargs)
            return original(*args, **kwargs)
        finally:
            totals[label] += time.perf_counter() - start

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        if is_class:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


@contextlib.contextmanager
def perf_enabled(on: bool) -> Iterator[None]:
    """Switch the simulator's self-profiling on for one traced pass."""
    if not on:
        yield
        return
    PERF.reset()
    PERF.enable()
    try:
        yield
    finally:
        PERF.disable()


def perf_layers(windows: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Per-layer metrics from the PERF spans and counters of one pass;
    ``windows`` are the (start, end) of its ``run_point`` calls."""
    agg = PERF.aggregate()
    total: Dict[str, float] = {}
    for path, row in agg.items():
        leaf = path.rsplit("/", 1)[-1]
        total[leaf] = total.get(leaf, 0.0) + row.total
    counters = PERF.counters
    events = counters.get("sim.events", 0)
    measure = total.get("trainer.measure", 0.0)
    strategy = sorted(
        (r.start, r.end) for r in PERF.records if r.name.startswith("strategy."))
    overhead = 0.0
    for begin, finish in windows:
        inner = sum(end - start for start, end in strategy
                    if start >= begin and end <= finish)
        overhead += finish - begin - inner
    out = {name: float(counters.get(src, 0)) for name, src in EXACT_COUNTERS.items()}
    out.update({
        "sim.us_per_event": measure / events * 1e6 if events else 0.0,
        "train.compile_s": total.get("trainer.compile", 0.0),
        "train.measure_s": measure,
        "train.iterations": float(counters.get("trainer.iterations", 0)),
        "gpu.schedule_s": total.get("costmodel.schedule", 0.0),
        "comm.pipeline_s": total.get("nccl.pipeline", 0.0),
        "comm.build_s": total.get("nccl.build", 0.0) + total.get("p2p.plan", 0.0),
        "topology.build_s": total.get("trainer.build", 0.0),
        "checks.payloads": float(counters.get("checks.payloads", 0)),
        "runner.overhead_s": overhead,
    })
    return out


# ----------------------------------------------------------------------
# Runner workloads (paper-cold, selfcheck-strict)
# ----------------------------------------------------------------------
def _check_point(key: str, result: Any, refs: Dict[str, Dict[str, Any]],
                 fabric_bytes: Optional[float]) -> List[str]:
    if result is None:
        return [f"{key}: run_point returned no result (the point failed)"]
    measured = reference.summarize(result)
    if fabric_bytes is not None:
        measured["fabric_bytes"] = fabric_bytes
    return reference.mismatches(key, measured, refs)


def run_points(
    points: Sequence[inputs.Keyed],
    runner: SweepRunner,
    refs: Dict[str, Dict[str, Any]],
    tracer: Tracer,
    result: Pass,
    traced: bool,
    deadline: Optional[float] = None,
) -> List[Any]:
    """``run_point`` every input in order, timing and checking each,
    until ``deadline`` (a ``perf_counter`` time) has passed; returns
    each call's (start, end)."""
    windows = []
    for item in points:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        before = PERF.counters.get("fabric.bytes", 0) if traced else 0
        start = time.perf_counter()
        oom = False
        with tracer.span("runner.run_point", request_id=item.key):
            try:
                value = runner.run_point(item.point)
            except OutOfMemoryError:
                value, oom = None, True
        end = time.perf_counter()
        result.latencies.append((item.key, end - start))
        windows.append((start, end))
        result.points += 1
        if oom:
            problems = reference.mismatches(item.key, {"oom": True}, refs)
        else:
            fabric = (PERF.counters.get("fabric.bytes", 0) - before
                      if traced else None)
            problems = _check_point(item.key, value, refs, fabric)
            _note_faults(value, result)
        result.tally.record(problems)
    return windows


def warm_up(points: Sequence[inputs.Keyed], refs, tracer: Tracer,
            invariants: str) -> Tally:
    """Simulate ``points`` once on a throwaway store-less runner, checking
    each against its reference; returns their tally."""
    result = Pass()
    run_points(points, SweepRunner(jobs=1, invariants=invariants), refs,
               tracer, result, traced=False)
    return result.tally


def _note_faults(value: Any, result: Pass) -> None:
    summary = getattr(value, "faults", None)
    if summary is None:
        return
    layers = result.layers
    layers["faults.points"] = layers.get("faults.points", 0.0) + 1
    layers["faults.segments"] = (
        layers.get("faults.segments", 0.0) + len(summary.segments))
    layers["faults.sim_overhead_s"] = (
        layers.get("faults.sim_overhead_s", 0.0) + summary.overhead)


def _runner_layers(runner: SweepRunner) -> Dict[str, float]:
    return {
        "runner.executed": float(runner.stats.executed),
        "runner.memo_hits": float(runner.stats.memory_hits),
        "runner.disk_hits": float(runner.stats.disk_hits),
        "checks.violations": float(
            sum(entry[1] for entry in runner.check_stats.values())),
    }


def paper_pass(points: Sequence[inputs.Keyed], refs, work: Workdir,
               tracer: Tracer, traced: bool = False,
               store: Optional[ShardedResultStore] = None,
               deadline: Optional[float] = None) -> Pass:
    """One cold round: every point into a fresh sharded store (``store``
    when set-up already created it), then ``validate()`` on the same
    runner (the anchors answer from its memo).  A round that
    ``deadline`` cuts short skips ``validate()``."""
    result = Pass()
    start = time.perf_counter()
    timers: Dict[str, float] = {}
    if store is None:
        with tracer.span("store.create"):
            store = ShardedResultStore(work.fresh("paper-store"))
    store_dir = store.root
    runner = SweepRunner(jobs=1, store=store, invariants="off")
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(timed_method(
                store, "store", timers, "runner.store_write_s", tracer))
            stack.enter_context(timed_method(
                store, "load_entry", timers, "runner.store_load_s", tracer))
        stack.enter_context(perf_enabled(traced))
        windows = run_points(points, runner, refs, tracer, result, traced,
                             deadline)
        report = None
        if len(windows) == len(points):
            with tracer.span("analysis.validate"):
                report = validate(runner)
        store.close()
        if traced:
            result.layers.update(perf_layers(windows))
            tracer.absorb_perf(PERF.records)
    result.wall_s = time.perf_counter() - start
    result.layers.update(_runner_layers(runner))
    result.layers.update(timers)
    shutil.rmtree(store_dir, ignore_errors=True)
    if report is not None:
        _check_anchors(report, result)
    return result


def _check_anchors(report: Any, result: Pass) -> None:
    """Count every paper anchor of a ``validate()`` report as one
    operation, and note the largest relative error."""
    errors = []
    for verdict in report.verdicts:
        anchor = verdict.anchor
        problems = [] if verdict.passed else [
            f"paper anchor {anchor.anchor_id} failed: measured "
            f"{verdict.measured:.4f}"]
        result.tally.record(problems)
        if anchor.expected is not None:
            errors.append(abs(verdict.measured / anchor.expected - 1.0))
    result.extra["paper_anchor_max_err"] = max(errors)
    result.extra["paper_anchors_passed"] = report.passed
    result.extra["paper_anchors_total"] = report.total


def strict_pass(points: Sequence[inputs.Keyed], refs, work: Workdir,
                tracer: Tracer, traced: bool = False,
                deadline: Optional[float] = None) -> Pass:
    """One strict round on a store-less runner: every point (until
    ``deadline``) simulated under ``invariants="strict"``; a violation
    fails its point."""
    result = Pass()
    timers: Dict[str, float] = {}
    start = time.perf_counter()
    runner = SweepRunner(jobs=1, invariants="strict")
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(timed_method(
                CheckEngine, "check", timers, "checks.s"))
        stack.enter_context(perf_enabled(traced))
        windows = run_points(points, runner, refs, tracer, result, traced,
                             deadline)
        if traced:
            result.layers.update(perf_layers(windows))
            tracer.absorb_perf(PERF.records)
    result.wall_s = time.perf_counter() - start
    result.layers.update(_runner_layers(runner))
    result.layers.update(timers)
    return result


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
class Server:
    """A ``repro-experiments serve`` subprocess over one store."""

    def __init__(self, root: pathlib.Path, store_dir: pathlib.Path,
                 log_path: pathlib.Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "w")
        self.port: Optional[int] = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--jobs", "1", "--port", "0", "--cache-dir", str(store_dir)],
            stdout=subprocess.PIPE, stderr=self._log, env=env, text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def wait_ready(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while True:
            try:
                with ServiceClient("127.0.0.1", self.port, timeout=10) as client:
                    if client.ping().get("pong"):
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def stats(self) -> Dict[str, Any]:
        with ServiceClient("127.0.0.1", self.port, timeout=30) as client:
            return client.stats()["stats"]

    def peak_rss_kb(self) -> int:
        """Sum of the own peak RSS (``VmHWM``) of the server and of every
        live process under it (its pool workers), read from ``/proc``
        while they run; 0 where ``/proc`` does not show them."""
        total, pending = 0, [self.proc.pid]
        while pending:
            pid = pending.pop()
            with contextlib.suppress(OSError):
                for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                for task in pathlib.Path(f"/proc/{pid}/task").iterdir():
                    pending += [int(c) for c in (task / "children").read_text().split()]
        return total

    def stop(self) -> None:
        """Drain gracefully (kill when it never listened, or after a
        timeout).  Always reaps."""
        try:
            if self.proc.poll() is None:
                if self.port is None:
                    self.proc.kill()
                with contextlib.suppress(OSError):
                    with ServiceClient("127.0.0.1", self.port, timeout=10) as c:
                        c.drain()
                try:
                    self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.send_signal(signal.SIGKILL)
                    self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()


@dataclass
class ServiceSetup:
    store_dir: pathlib.Path
    server: Server
    #: ``runner.*`` counts of the prefill runner (see ``_runner_layers``).
    prefill_layers: Dict[str, float]


def service_setup(plan: inputs.ServicePlan, root: pathlib.Path, work: Workdir,
                  tracer: Tracer, timers: Optional[Dict[str, float]] = None
                  ) -> ServiceSetup:
    """Commit the seed's prefill share to a fresh sharded store, then
    start the server over it and wait until it answers ``ping``."""
    store_dir = work.fresh("service-store")
    wire = inputs.service_points()
    with tracer.span("setup.prefill"):
        store = ShardedResultStore(store_dir)
        runner = SweepRunner(jobs=1, store=store)
        with contextlib.ExitStack() as stack:
            if timers is not None:
                stack.enter_context(timed_method(
                    store, "store", timers, "runner.store_write_s", tracer))
            for key in plan.prefill:
                runner.run_point(wire[key])
        store.close()
    with tracer.span("setup.server"):
        server = Server(root, store_dir, store_dir.parent / f"{store_dir.name}.log")
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
    return ServiceSetup(store_dir, server, _runner_layers(runner))


def _check_response(request: inputs.Request, response: Dict[str, Any],
                    refs) -> List[str]:
    status = response.get("status")
    if status != "ok":
        return [f"{request.kind} request answered {status}: "
                f"{response.get('reason') or response.get('error', '')}"]
    results = response.get("results", [])
    if len(results) != len(request.keys):
        return [f"{request.kind} request: {len(results)} results for "
                f"{len(request.keys)} points"]
    problems: List[str] = []
    for key, payload in zip(request.keys, results):
        kind = payload.get("kind")
        if kind == "oom":
            problems += reference.mismatches(key, {"oom": True}, refs)
        elif kind == "analytic" and payload.get("degraded"):
            unsound = reference.unsound_degraded(
                key, payload["iteration_time"], refs)
            if unsound:
                problems.append(unsound)
        elif kind != "training":
            problems.append(f"{key}: {kind} {payload.get('error_type', '')} "
                            f"{payload.get('message', '')}")
        else:
            problems += reference.mismatches(key, {
                "epoch_time": payload["epoch_time"],
                "iteration_time": payload["iteration_time"],
            }, refs)
    return problems


def _request_class(response: Dict[str, Any]) -> str:
    sourcing = response.get("sourcing", {})
    if sourcing.get("degraded"):
        return "degraded"
    if sourcing.get("executed") or sourcing.get("deduped"):
        return "miss"
    return "hit"


def drive_service(
    plan: inputs.ServicePlan,
    port: int,
    refs,
    tracer: Tracer,
    steps: int,
    deadline: Optional[float] = None,
    min_steps: int = 0,
) -> Pass:
    """Two lock-step closed-loop clients run the plan's first ``steps``
    steps: at every step each client sends its request and waits for
    the reply; both then meet at a barrier before the next step.  Past
    ``deadline`` (a ``perf_counter`` time) and ``min_steps`` they stop
    at the end of the current request cycle, so the request mix stays
    whole."""
    if not 0 < steps <= len(plan.steps):
        raise ValueError(f"steps must be in 1..{len(plan.steps)}, got {steps}")
    wire = {key: point_to_dict(point)
            for key, point in inputs.service_points().items()}
    result = Pass()
    lock = threading.Lock()
    state = {"step": 0, "stop": False}
    classes: Dict[str, List[float]] = {"hit": [], "miss": [], "degraded": []}
    overheads: List[float] = []
    errors: List[BaseException] = []

    def advance() -> None:
        state["step"] += 1
        state["stop"] = state["step"] >= steps or (
            deadline is not None and time.perf_counter() >= deadline
            and state["step"] >= min_steps
            and state["step"] % len(inputs.SERVICE_CYCLE) == 0)

    barrier = threading.Barrier(2, action=advance)

    def client_loop(index: int) -> None:
        try:
            with ServiceClient("127.0.0.1", port, timeout=120) as client:
                while not state["stop"]:
                    step = state["step"]
                    request = plan.steps[step][index]
                    points = [wire[key] for key in request.keys]
                    budget = request.budget if request.budget >= 0 else None
                    start = time.perf_counter()
                    with tracer.span("service.request",
                                     request_id=f"c{index}-s{step}"):
                        response = client.sweep(points, client=f"bench-{index}",
                                                budget=budget)
                    latency = time.perf_counter() - start
                    problems = _check_response(request, response, refs)
                    with lock:
                        result.latencies.append((f"c{index}-s{step}", latency))
                        result.requests += 1
                        result.points += len(points)
                        result.tally.record(problems)
                        if response.get("status") == "ok":
                            classes[_request_class(response)].append(latency)
                            sim = response["sourcing"].get("sim_seconds", 0.0)
                            overheads.append(latency - sim)
                    barrier.wait(timeout=300)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(i,), daemon=True)
               for i in range(2)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - start
    if errors:
        raise errors[0]
    result.extra["classes"] = classes
    result.extra["overheads"] = overheads
    result.extra["steps"] = state["step"]
    return result


def service_layers(result: Pass, stats: Dict[str, Any]) -> Dict[str, float]:
    """The service.* per-layer metrics of one pass."""

    def p50(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    classes = result.extra["classes"]
    executed = stats.get("points_executed", 0)
    deduped = stats.get("points_deduped", 0)
    return {
        "service.hit_request_s_p50": p50(classes["hit"]),
        "service.miss_request_s_p50": p50(classes["miss"]),
        "service.degraded_request_s_p50": p50(classes["degraded"]),
        "service.overhead_s": p50(result.extra["overheads"]),
        "service.points_executed": float(executed),
        "service.points_disk": float(stats.get("points_disk", 0)),
        "service.points_deduped": float(deduped),
        "service.points_degraded": float(stats.get("points_degraded", 0)),
        "service.busy": float(stats.get("busy", 0)),
        "service.rejected": float(stats.get("rejected", 0)),
        "service.rebuilds": float(stats.get("rebuilds", 0)),
        "service.dedup_ratio": (
            deduped / (deduped + executed) if deduped + executed else 0.0),
    }


def replay_hit_loads(plan: inputs.ServicePlan, steps: int,
                     store_dir: pathlib.Path, tracer: Tracer) -> float:
    """Seconds the store's read side takes for the pass's disk hits,
    timed by re-reading them, from this process, from the same store
    with the same ``load_entry`` call the server makes."""
    wire = inputs.service_points()
    sim = SimulationConfig()
    store = ShardedResultStore(store_dir, replay=False)
    total = 0.0
    for pair in plan.steps[:steps]:
        for request in pair:
            if request.kind != "hit":
                continue
            for key in request.keys:
                fingerprint = point_fingerprint(wire[key], sim, CALIBRATION)
                start = time.perf_counter()
                with tracer.span("store.load_entry", request_id=key):
                    entry = store.load_entry(fingerprint)
                total += time.perf_counter() - start
                if entry is None:
                    raise RuntimeError(f"prefilled point {key} is not in the store")
    return total


def check_exact(first: Dict[str, float], second: Dict[str, float]) -> List[str]:
    """Exact work counters must repeat across two traced passes."""
    return [
        f"work counter {name} differs across traced passes: "
        f"{first.get(name)} vs {second.get(name)}"
        for name in EXACT_COUNTERS
        if first.get(name) != second.get(name)
    ]
