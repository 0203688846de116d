"""Tests for the experiment modules (reduced sweeps for speed)."""

import pytest

from repro.core.config import SimulationConfig
from repro.experiments import SweepRunner
from repro.experiments import (
    ablations,
    nccl_ablation,
    fig2_topology,
    fig3_training_time,
    fig4_breakdown,
    fig5_weak_scaling,
    table1_networks,
    table2_nccl_overhead,
    table3_sync_overhead,
    table4_memory,
)

FAST_SIM = SimulationConfig(warmup_iterations=1, measure_iterations=2)


@pytest.fixture(scope="module")
def cache():
    return SweepRunner(sim=FAST_SIM)


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def test_table1_rows_and_render():
    result = table1_networks.run()
    assert len(result.rows) == 5
    text = table1_networks.render(result)
    assert "alexnet" in text and "61.1M" in text


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------
def test_fig2_structure_and_render():
    result = fig2_topology.run()
    assert result.max_hops == 2
    assert all(p == 6 for p in result.nvlink_ports_per_gpu)
    assert result.matrix[0][0] == "X"
    text = fig2_topology.render(result)
    assert "NV2" in text and "NV-2hop" in text


# ----------------------------------------------------------------------
# Figure 3 (reduced sweep)
# ----------------------------------------------------------------------
def test_fig3_reduced(cache):
    result = fig3_training_time.run(
        cache, networks=("lenet",), batch_sizes=(16,), gpu_counts=(1, 4)
    )
    assert len(result.cells) == 4  # 2 methods x 2 gpu counts
    one = result.epoch_time("lenet", "p2p", 16, 1)
    four = result.epoch_time("lenet", "p2p", 16, 4)
    assert four < one
    cell = result.cell("lenet", "p2p", 16, 4)
    assert cell.speedup_vs_1gpu == pytest.approx(one / four)
    assert "lenet" in fig3_training_time.render(result)
    with pytest.raises(KeyError):
        result.cell("lenet", "p2p", 16, 8)


# ----------------------------------------------------------------------
# Table II (reduced)
# ----------------------------------------------------------------------
def test_table2_reduced(cache):
    result = table2_nccl_overhead.run(cache, networks=("lenet",), batch_sizes=(16, 64))
    assert result.overhead("lenet", 16) > 10
    assert result.overhead("lenet", 64) > result.overhead("lenet", 16)
    assert "NCCL Overhead" in table2_nccl_overhead.render(result)


# ----------------------------------------------------------------------
# Figure 4 (reduced)
# ----------------------------------------------------------------------
def test_fig4_reduced(cache):
    result = fig4_breakdown.run(
        cache, networks=("lenet",), batch_sizes=(16,), gpu_counts=(1, 4)
    )
    single = result.cell("lenet", 16, 1)
    multi = result.cell("lenet", 16, 4)
    assert single.wu_epoch == 0.0              # not reported for 1 GPU
    assert multi.wu_epoch > 0.0
    assert multi.fp_bp_epoch < single.fp_bp_epoch
    text = fig4_breakdown.render(result)
    assert "FP+BP" in text


# ----------------------------------------------------------------------
# Table III (reduced)
# ----------------------------------------------------------------------
def test_table3_reduced(cache):
    result = table3_sync_overhead.run(cache, batch_sizes=(16,), gpu_counts=(1, 4))
    assert result.percent(16, 4) > result.percent(16, 1) * 0.5
    assert result.percent(16, 4) > 50  # sync dominates the API profile
    assert "cudaStreamSynchronize" in table3_sync_overhead.render(result)


# ----------------------------------------------------------------------
# Table IV
# ----------------------------------------------------------------------
def test_table4_full():
    result = table4_memory.run()
    row = result.row("alexnet", 64)
    assert row.training_gpu0_gb == pytest.approx(2.37, rel=0.08)
    assert row.gpu0_extra_percent > 0
    assert result.max_batch["inception-v3"] < 128
    assert result.max_batch["resnet"] < 128
    assert result.increase_vs_b16("inception-v3", 64) > 100
    text = table4_memory.render(result)
    assert "Max trainable" in text


# ----------------------------------------------------------------------
# Figure 5 (reduced)
# ----------------------------------------------------------------------
def test_fig5_reduced(cache):
    from repro.core.config import CommMethodName

    result = fig5_weak_scaling.run(
        cache, networks=("lenet",), batch_sizes=(16,), gpu_counts=(1, 4),
        methods=(CommMethodName.NCCL,),
    )
    cell = result.cell("lenet", "nccl", 16, 4)
    assert cell.weak_speedup >= cell.strong_speedup
    assert "weak" in fig5_weak_scaling.render(result)


# ----------------------------------------------------------------------
# Ablations (reduced)
# ----------------------------------------------------------------------
def test_ablations_reduced():
    result = ablations.run(networks=("alexnet",), batch_size=16, num_gpus=4,
                           sim=FAST_SIM)
    assert result.row("pcie-fabric/p2p", "alexnet").slowdown > 1.5
    assert result.row("no-overlap/p2p", "alexnet").slowdown >= 1.0
    assert result.row("no-tensor-cores/nccl", "alexnet").slowdown > 1.0
    assert "Ablation" in ablations.render(result)


def test_nccl_ablation_reduced(cache):
    result = nccl_ablation.run(runner=cache, networks=("alexnet",))
    # Crossover shape: LL wins the small sizes, ring+Simple the large.
    assert result.crossovers[0].protocol == "ll"
    assert (result.crossovers[-1].algorithm,
            result.crossovers[-1].protocol) == ("ring", "simple")
    sizes = [p.nbytes for p in result.crossovers]
    assert sizes == sorted(sizes) and len(sizes) >= 2
    # Per-size wins: LL beats Simple at 4 KiB, Simple wins at 256 MiB.
    small = next(r for r in result.selection if r.nbytes == 4096)
    assert small.protocol == "ll"
    assert small.predicted < small.candidate_time("ring", "simple")
    large = result.selection[-1]
    assert (large.algorithm, large.protocol) == ("ring", "simple")
    # End-to-end: compat epochs match the calibrated default exactly.
    from repro.core.config import CommMethodName, TrainingConfig
    from repro.train import train

    compat = result.epoch("alexnet", "compat", "compat")
    baseline = train(
        TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.NCCL),
        sim=FAST_SIM,
    )
    assert compat == baseline.epoch_time
    rendered = nccl_ablation.render(result)
    assert "Regime crossovers" in rendered and "auto+auto" in rendered


# ----------------------------------------------------------------------
# SweepRunner single-point interface (get / try_get)
# ----------------------------------------------------------------------
def test_run_cache_memoizes(cache):
    from repro.core.config import CommMethodName

    before = len(cache)
    cache.get("lenet", 16, 1, CommMethodName.P2P)
    mid = len(cache)
    cache.get("lenet", 16, 1, CommMethodName.P2P)
    assert len(cache) == mid >= before


def test_run_cache_try_get_oom():
    from repro.core.config import CommMethodName

    cache = SweepRunner(sim=FAST_SIM)
    assert cache.try_get("inception-v3", 512, 1, CommMethodName.P2P) is None


def test_empty_cache_is_still_used(cache):
    """Regression: an empty SweepRunner is falsy (len == 0) but must not be
    replaced by a fresh one inside experiment modules."""
    fresh = SweepRunner(sim=FAST_SIM)
    assert len(fresh) == 0
    fig3_training_time.run(fresh, networks=("lenet",), batch_sizes=(16,),
                           gpu_counts=(1,))
    assert len(fresh) > 0


def test_report_fast_mode():
    from repro.experiments import report

    fresh = SweepRunner(sim=FAST_SIM)
    text = report.generate(fresh, fast=True, timestamp="2026-01-01T00:00:00")
    assert "# Reproduction report" in text
    assert "Table I" in text and "Figure 5" in text
    assert "fast (batch 16, 1/4 GPUs)" in text
    assert f"simulations run: {len(fresh)}" in text
    assert len(fresh) > 0
