"""Unified sweep execution: declarative specs, parallel runner, result cache.

Every artifact in the paper is a sweep over (network, batch size, GPU
count, communication method).  This package gives all of them one
execution path:

* :mod:`repro.runner.spec`        -- :class:`SweepSpec` /
  :class:`SweepPoint`: declarative grid and explicit-point construction,
  OOM policy, free-form tags.
* :mod:`repro.runner.runner`      -- :class:`SweepRunner`: serial or
  process-pool execution (``jobs > 1``), in-process memoization, obs-bus
  progress events, bounded retry-with-backoff and per-point wall-clock
  timeouts (failed points degrade to :class:`FailureInfo` outcomes under
  the spec's :class:`FailurePolicy` instead of aborting the sweep), plus
  a single-point ``get``/``try_get`` interface.
* :mod:`repro.runner.store`       -- :class:`ResultStore`: persistent
  JSON cache keyed by content fingerprint; :class:`ShardedResultStore`
  adds per-shard directories and a write-ahead journal for concurrent
  writers (the :mod:`repro.service` backend).
* :mod:`repro.runner.fingerprint` -- the content hash over config +
  simulation fidelity + calibration constants + schema version that makes
  the disk cache self-invalidating.

See ``docs/RUNNER.md`` for the full contract.
"""

from repro.runner.fingerprint import Unfingerprintable, canonical, point_fingerprint
from repro.runner.runner import (
    PointOutcome,
    RunnerStats,
    SweepResults,
    SweepRunner,
)
from repro.runner.spec import (
    FailureInfo,
    FailurePolicy,
    OomInfo,
    OomPolicy,
    SweepPoint,
    SweepSpec,
)
from repro.runner.store import (
    CacheCorruptionWarning,
    CacheSchemaError,
    ResultStore,
    ShardedResultStore,
)

__all__ = [
    "CacheCorruptionWarning",
    "CacheSchemaError",
    "FailureInfo",
    "FailurePolicy",
    "OomInfo",
    "OomPolicy",
    "PointOutcome",
    "ResultStore",
    "ShardedResultStore",
    "RunnerStats",
    "SweepPoint",
    "SweepResults",
    "SweepRunner",
    "SweepSpec",
    "Unfingerprintable",
    "canonical",
    "point_fingerprint",
]
