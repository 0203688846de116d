"""The analytic fast path degraded requests are answered with.

When the service must shed load -- a request over its point budget,
past its deadline, or arriving while the circuit breaker is open -- it
does not refuse: it answers from the closed-form DAG model of S-SGD
(Shi et al., the same model :mod:`repro.checks.dag` uses as a
cross-check oracle)::

    iteration >= max(input + compute, wire) + host

The estimate reuses the trainer's own compilation (kernel schedules,
gradient arrays, topology) but runs *no event simulation*, so it costs
microseconds instead of seconds.  Because the floors are lower bounds,
the answer is a sound optimistic estimate of the simulated number --
clearly marked ``degraded: true`` with its floor breakdown so clients
can tell an analytic answer from a measured one.

Only synchronous points degrade: the DAG model has no notion of
parameter-server staleness, so async points past their budget are
refused instead of answered wrongly.
"""

from __future__ import annotations

import functools
from typing import Any, Dict

from repro.checks.dag import (
    aggregate_peak_bandwidth,
    critical_path_floor,
    device_factor_floor,
)
from repro.checks.expect import expected_sync_bytes
from repro.core.config import TrainingConfig
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.runner.spec import SweepPoint


class AnalyticUnsupported(ValueError):
    """The point cannot be answered analytically (e.g. async mode)."""


@functools.lru_cache(maxsize=256)
def _estimate(
    config: TrainingConfig, constants: CalibrationConstants,
) -> Dict[str, float]:
    """The cached floor breakdown for one configuration.

    Builds a trainer (compilation only -- schedules, cost model, memory
    model) and assembles its system once to read the communicator's
    per-iteration overhead and the topology's aggregate bandwidth;
    nothing is simulated.
    """
    from repro.train.trainer import Trainer

    trainer = Trainer(config, constants=constants, check_memory=False)
    _env, _profiler, fabric, _router, devices, comm = trainer._build_system(
        trainer._base_topology(), range(trainer._simulated_gpus),
        config.cluster_nodes,
    )
    compute = trainer._kernel_seconds * max(
        (device_factor_floor(dev) for dev in devices), default=1.0
    )
    input_floor = (
        constants.input_pipeline_residual
        + constants.input_cost_per_image * config.batch_size
    )
    host = (
        constants.framework_iteration_overhead
        + len(devices) * constants.stream_sync_overhead
        + comm.per_iteration_overhead()
    )
    wire = 0.0
    expected = expected_sync_bytes(
        comm.name,
        trainer._sync_arrays(),
        len(devices),
        gradient_bytes_scale=comm.gradient_bytes_scale,
    )
    if expected:
        agg = aggregate_peak_bandwidth(fabric.topology)
        if agg > 0.0:
            wire = expected / agg
    return {
        "compute": compute, "input": input_floor,
        "wire": wire, "host": host,
    }


def analytic_estimate(
    point: SweepPoint,
    constants: CalibrationConstants = CALIBRATION,
) -> Dict[str, Any]:
    """The degraded (analytic) per-point response payload for ``point``.

    Raises :class:`AnalyticUnsupported` for async points.
    """
    if point.mode != "sync":
        raise AnalyticUnsupported(
            "the analytic DAG model covers synchronous SGD only; "
            "async points cannot degrade"
        )
    if point.overrides:
        raise AnalyticUnsupported(
            "points with trainer overrides cannot degrade analytically"
        )
    floors = _estimate(point.config, constants)
    iteration = critical_path_floor(
        floors["compute"], floors["input"], floors["wire"], floors["host"],
    )
    config = point.config
    epoch = iteration * config.iterations_per_epoch
    return {
        "label": point.describe(),
        "kind": "analytic",
        "degraded": True,
        "path": "analytic-dag",
        "iteration_time": iteration,
        "epoch_time": epoch,
        "images_per_second": (
            config.global_batch_size / iteration if iteration > 0 else 0.0
        ),
        "floors": dict(floors),
    }
