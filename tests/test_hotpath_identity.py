"""Exact-output golden for the event-simulation hot path.

Pins, bit for bit, what a set of event-fidelity points produces: the
``repr`` of the epoch time and of every measured iteration time, the
FP/BP/WU stage means, and two sha256 digests over the
``keep_profiler=True`` kernel, transfer, API and span record lists.
``records`` hashes the lists in recording order; ``records_multiset``
hashes each list's sorted ``repr`` lines, so it pins every record but not
the order of records that share a timestamp.  Two observability-attached
runs (P2P and NCCL) additionally pin per-type event counts, the JSONL
stream (``jsonl`` in order, ``jsonl_multiset`` over its sorted lines) and
the Prometheus rendering: gating emitters on subscribers must drop nothing
a subscriber asked for.  The one exception is the engine's queue-depth
sample (``QueueDepthEvent`` and the ``sim_event_queue_depth*`` gauges): it
reads the event heap every Nth dispatched event, so it describes the
engine's own bookkeeping rather than the simulated system, and it moves
whenever that bookkeeping gets cheaper.  It is left out of the hashes.

Every run also pins ``events``, its dispatched-event count (the
``sim.events`` perf counter).  It is the simulation work a point costs,
so any growth in that work fails here by name.

The golden values in ``golden/hotpath_identity.json`` are compared with
``==`` and no tolerance.  They were produced by running this module as a
script (``PYTHONPATH=src python tests/test_hotpath_identity.py``).
The order of records that share a timestamp is not part of the output
contract; the record multiset is.  So a change that only reorders records sharing a
timestamp may regenerate the order-sensitive ``records`` and ``jsonl``
values, and a change that cuts simulation work may regenerate
``events``, but only while every other value, the multiset digests
included, stays equal, and it lists each regenerated key in its change
notes.  Any other value moves only with a change that intends to move
the model's outputs, stated in its change notes.
"""

import hashlib
import io
import json
import pathlib
import sys
from collections import Counter

import pytest

from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.faults import FaultPlan, SlowdownProfile
from repro.obs import ObsSession, render_prometheus, write_events_jsonl
from repro.obs.events import QueueDepthEvent
from repro.perf.spans import PERF
from repro.topology import build_dgx1v
from repro.train import Trainer

GOLDEN = pathlib.Path(__file__).parent / "golden" / "hotpath_identity.json"

P2P = CommMethodName.P2P
NCCL = CommMethodName.NCCL
TUNED = dict(nccl_algorithm="auto", nccl_protocol="auto")

#: name -> (TrainingConfig, extra Trainer keyword arguments).
POINTS = {
    # 8-GPU P2P: staged NVLink relays and AlexNet's sharded fc arrays.
    "p2p-alexnet-b16-g8": (TrainingConfig("alexnet", 16, 8, comm_method=P2P), {}),
    "p2p-googlenet-b16-g8": (TrainingConfig("googlenet", 16, 8, comm_method=P2P), {}),
    "p2p-resnet-b32-g2": (TrainingConfig("resnet", 32, 2, comm_method=P2P), {}),
    "p2p-lenet-b16-g1": (TrainingConfig("lenet", 16, 1, comm_method=P2P), {}),
    "nccl-lenet-b16-g1": (TrainingConfig("lenet", 16, 1, comm_method=NCCL), {}),
    "nccl-alexnet-b16-g8": (TrainingConfig("alexnet", 16, 8, comm_method=NCCL), {}),
    "nccl-googlenet-b16-g4": (TrainingConfig("googlenet", 16, 4, comm_method=NCCL), {}),
    "nccl-auto-alexnet-b16-g4": (
        TrainingConfig("alexnet", 16, 4, comm_method=NCCL, **TUNED), {}),
    "nccl-auto-googlenet-b16-g8": (
        TrainingConfig("googlenet", 16, 8, comm_method=NCCL, **TUNED), {}),
    "local-alexnet-b16-g4": (
        TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.LOCAL), {}),
    "ps-gpu-alexnet-b16-g4": (
        TrainingConfig("alexnet", 16, 4, comm_method=P2P, strategy="ps-gpu"), {}),
    "allreduce-alexnet-b16-g4": (
        TrainingConfig("alexnet", 16, 4,
                       comm_method=CommMethodName.NCCL_ALLREDUCE), {}),
    "async-lenet-b16-g4": (
        TrainingConfig("lenet", 16, 4, comm_method=P2P,
                       strategy="async-update"), {}),
    "hier-lenet-b16-g16-n2": (
        TrainingConfig("lenet", 16, 16, comm_method=NCCL, cluster_nodes=2,
                       cluster_collective="hierarchical-ring",
                       cluster_fast_path="event"), {}),
    "isolate-gpu0-alexnet-b16-g4-nccl": (
        TrainingConfig("alexnet", 16, 4, comm_method=NCCL),
        {"faults": FaultPlan.isolate_gpu(build_dgx1v(), 0)}),
    "straggler-at-googlenet-b16-g4-p2p": (
        TrainingConfig("googlenet", 16, 4, comm_method=P2P),
        {"gpu_speed_factors": {
            2: SlowdownProfile(steps=((0.0, 1.0), (0.05, 1.8)))}}),
}

#: name -> TrainingConfig for the observability-attached runs.
OBS_POINTS = {
    "obs-p2p-alexnet-b16-g4": TrainingConfig("alexnet", 16, 4, comm_method=P2P),
    "obs-nccl-alexnet-b16-g4": TrainingConfig("alexnet", 16, 4, comm_method=NCCL),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record_lists(profiler) -> tuple:
    return (profiler.kernels, profiler.transfers, profiler.apis,
            profiler.spans)


def _records_digest(profiler) -> str:
    """One hash over the four record lists, in recording order."""
    return _sha256(repr(_record_lists(profiler)))


def _records_multiset_digest(profiler) -> str:
    """One hash over the four record lists, each as its sorted reprs."""
    return _sha256(repr([sorted(map(repr, records))
                         for records in _record_lists(profiler)]))


def _run_counted(trainer):
    """Run ``trainer``; return its result and dispatched-event count."""
    assert not PERF.enabled
    PERF.reset()
    PERF.enable()
    try:
        result = trainer.run()
        events = PERF.counters.get("sim.events", 0)
    finally:
        PERF.disable()
        PERF.reset()
    return result, events


def measure_point(name: str) -> dict:
    config, kwargs = POINTS[name]
    result, events = _run_counted(Trainer(
        config, sim=SimulationConfig(), keep_profiler=True, **kwargs))
    stages = result.stages
    out = {
        "epoch_time": repr(result.epoch_time),
        "iteration_times": [repr(t) for t in result.iteration_times],
        "stages": [repr(stages.fp), repr(stages.bp), repr(stages.wu)],
        "events": events,
    }
    if result.profiler is not None:
        out["records"] = _records_digest(result.profiler)
        out["records_multiset"] = _records_multiset_digest(result.profiler)
    return out


def measure_obs_point(name: str) -> dict:
    obs = ObsSession()
    result, sim_events = _run_counted(Trainer(
        OBS_POINTS[name], sim=SimulationConfig(), keep_profiler=True,
        obs=obs))
    events = [e for e in obs.recorder.events
              if not isinstance(e, QueueDepthEvent)]
    buf = io.StringIO()
    write_events_jsonl(events, buf)
    counts = Counter(type(e).__name__ for e in events)
    prometheus = "".join(
        line for line in render_prometheus(obs.registry).splitlines(True)
        if "sim_event_queue_depth" not in line
    )
    jsonl = buf.getvalue()
    return {
        "epoch_time": repr(result.epoch_time),
        "events": sim_events,
        "records": _records_digest(result.profiler),
        "records_multiset": _records_multiset_digest(result.profiler),
        "event_counts": dict(sorted(counts.items())),
        "jsonl": _sha256(jsonl),
        "jsonl_multiset": _sha256("".join(sorted(jsonl.splitlines(True)))),
        "prometheus": _sha256(prometheus),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_point():
    golden = _golden()
    assert sorted(golden["points"]) == sorted(POINTS)
    assert sorted(golden["obs"]) == sorted(OBS_POINTS)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_point_is_bitwise_identical(name):
    assert measure_point(name) == _golden()["points"][name]


@pytest.mark.parametrize("name", sorted(OBS_POINTS))
def test_observed_run_is_bitwise_identical(name):
    assert measure_obs_point(name) == _golden()["obs"][name]


if __name__ == "__main__":
    golden = {
        "points": {name: measure_point(name) for name in sorted(POINTS)},
        "obs": {name: measure_obs_point(name) for name in sorted(OBS_POINTS)},
    }
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
