"""End-to-end trainer tests."""

import pytest

from repro import (
    CommMethodName,
    OutOfMemoryError,
    ScalingMode,
    SimulationConfig,
    TrainingConfig,
    train,
)
from repro.core.errors import ConfigurationError
from repro.dnn.builder import NetworkBuilder
from repro.dnn.shapes import Shape
from repro.train import Trainer

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)


def _train(net="lenet", batch=16, gpus=1, method=CommMethodName.P2P, **kwargs):
    return train(
        TrainingConfig(net, batch, gpus, comm_method=method), sim=FAST, **kwargs
    )


def test_result_basic_invariants():
    r = _train()
    assert r.iteration_time > 0
    assert r.epoch_time > r.fixed_overhead
    assert r.iterations_per_epoch == 256 * 1024 // 16
    assert len(r.iteration_times) == 2
    assert r.images_per_second > 0


def test_epoch_extrapolation():
    r = _train()
    assert r.epoch_time == pytest.approx(
        r.iterations_per_epoch * r.iteration_time + r.fixed_overhead
    )


def test_determinism():
    a, b = _train(), _train()
    assert a.epoch_time == b.epoch_time
    assert a.iteration_times == b.iteration_times


def test_stage_spans_cover_iteration():
    r = _train(gpus=4, method=CommMethodName.NCCL)
    st = r.stages
    assert 0 < st.fp < st.iteration
    assert 0 < st.bp < st.iteration
    assert st.wu >= 0
    assert st.fp + st.bp + st.wu <= st.iteration + 1e-9


def test_multi_gpu_reduces_epoch_time():
    one = _train(gpus=1)
    four = _train(gpus=4)
    assert four.epoch_time < one.epoch_time


def test_per_iteration_time_grows_with_gpus():
    """Per-iteration cost rises with GPU count (comm + sync overheads)."""
    one = _train(gpus=1)
    eight = _train(gpus=8)
    assert eight.iteration_time > one.iteration_time


def test_oom_configuration_raises():
    with pytest.raises(OutOfMemoryError):
        _train(net="inception-v3", batch=128, gpus=4, method=CommMethodName.NCCL)


def test_oom_check_can_be_disabled():
    r = _train(net="inception-v3", batch=128, gpus=1,
               method=CommMethodName.NCCL, check_memory=False)
    assert r.epoch_time > 0


def test_overlap_helps():
    base = TrainingConfig("googlenet", 16, 4, comm_method=CommMethodName.NCCL)
    no_overlap = TrainingConfig("googlenet", 16, 4, comm_method=CommMethodName.NCCL,
                                overlap_bp_wu=False)
    with_overlap = train(base, sim=FAST)
    without = train(no_overlap, sim=FAST)
    assert with_overlap.epoch_time < without.epoch_time


def test_weak_scaling_runs_more_iterations():
    strong = _train(gpus=4)
    weak = train(
        TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.P2P,
                       scaling=ScalingMode.WEAK),
        sim=FAST,
    )
    assert weak.iterations_per_epoch == 4 * strong.iterations_per_epoch


def test_nccl_has_fixed_overhead_p2p_does_not():
    p2p = _train(method=CommMethodName.P2P)
    nccl = _train(method=CommMethodName.NCCL)
    assert nccl.fixed_overhead > p2p.fixed_overhead


def test_memory_readings_attached():
    r = _train(gpus=4)
    assert len(r.memory) == 8
    phases = {m.phase for m in r.memory}
    assert phases == {"pretraining", "training"}


def test_profiler_kept_on_request():
    r = _train(keep_profiler=True)
    assert r.profiler is not None
    assert r.profiler.kernels
    assert _train().profiler is None


def test_gpu_busy_reported_per_gpu():
    r = _train(gpus=2)
    assert set(r.gpu_busy) == {0, 1}
    assert all(0 < b <= 1 for b in r.gpu_busy.values())


def test_custom_network_override():
    b = NetworkBuilder("custom")
    b.conv(8, 3, pad=1, name="c1")
    b.global_avgpool()
    b.dense(10)
    b.softmax()
    config = TrainingConfig("custom", 16, 2, comm_method=CommMethodName.P2P,
                            custom_network=True)
    trainer = Trainer(config, sim=FAST, network=b.build(), input_shape=Shape(3, 16, 16))
    result = trainer.run()
    assert result.epoch_time > 0


def test_custom_network_requires_input_shape():
    b = NetworkBuilder("custom")
    b.conv(8, 3)
    with pytest.raises(ConfigurationError, match="input_shape"):
        Trainer(TrainingConfig("custom", 16, 1, custom_network=True),
                network=b.build())


def test_speed_factor_for_a_gpu_outside_the_run_is_rejected():
    config = TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.P2P)
    with pytest.raises(ConfigurationError, match="gpu 9"):
        Trainer(config, gpu_speed_factors={9: 2.0})


@pytest.mark.parametrize("factor", [0, -1.5, "slow", None])
def test_non_positive_speed_factor_is_rejected(factor):
    config = TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.P2P)
    with pytest.raises(ConfigurationError, match=r"gpu_speed_factors\[2\]"):
        Trainer(config, gpu_speed_factors={2: factor})


def test_describe_mentions_config():
    r = _train()
    assert "lenet/b16/g1/p2p" in r.describe()


def test_sync_api_recorded():
    r = _train(gpus=4, method=CommMethodName.NCCL)
    assert r.apis.time_of("cudaStreamSynchronize") > 0
    assert r.apis.percent_of("cudaStreamSynchronize") > 50
