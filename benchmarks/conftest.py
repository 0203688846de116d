"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables/figures at a reduced
but shape-preserving scale, asserts the paper's qualitative findings, and
reports the simulation cost via pytest-benchmark.  Simulations are
deterministic, so a single round suffices.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.runner import SweepRunner

#: Reduced fidelity: one warm-up, two measured iterations.
BENCH_SIM = SimulationConfig(warmup_iterations=1, measure_iterations=2)


@pytest.fixture()
def run_once(benchmark):
    """Run ``fn`` exactly once under the benchmark timer."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run


@pytest.fixture()
def cache():
    return SweepRunner(sim=BENCH_SIM)
