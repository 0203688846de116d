"""The metric names and units declared in ``BENCHMARK.json``, and the
recorded seeds, calibration score and exact work counts in
``baseline.json``."""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional

HERE = pathlib.Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    ``BENCHMARK.json`` order: what a ``--trace 0`` (``--trace 1``) run
    reports.  ``latency_s_*`` time one ``run_point`` call on paper-cold
    and selfcheck-strict and one client request on service-mixed; a
    per-layer metric reads 0 where the workload does not exercise its
    layer."""
    doc = json.loads(BENCHMARK.read_text())
    return {metric["name"]: metric["unit"] for metric in doc[kind]}


#: Work counters that must repeat exactly across traced runs of a seed,
#: and the ``repro.perf.PERF`` counter each one reads.
EXACT_COUNTERS = {
    "sim.events": "sim.events",
    "gpu.kernels": "costmodel.kernels",
    "topology.dmas": "fabric.dmas",
    "topology.bytes": "fabric.bytes",
    "comm.collectives": "nccl.collectives",
    "checks.evaluations": "checks.evaluations",
}


def work_counts(layers: Dict[str, float]) -> Dict[str, int]:
    return {name: int(layers.get(name, 0)) for name in EXACT_COUNTERS}


def load_baseline() -> Dict[str, Any]:
    return json.loads(BASELINE.read_text())


def recorded_counts(workload: str, seed: int) -> Optional[Dict[str, int]]:
    """The committed exact counts for ``seed``, if it is a recorded seed."""
    return load_baseline()["work_counts"].get(workload, {}).get(str(seed))
