"""Tests for the runtime GPU device."""

import pytest

from repro.gpu import GpuDevice
from repro.gpu.kernel import KernelSpec
from repro.profile import Profiler
from repro.sim import Environment
from repro.topology.nodes import GpuNode


def _kernel(name, duration, stage="fp"):
    return KernelSpec(name=name, layer="l", stage=stage, duration=duration,
                      flops=0.0, bytes_moved=0)


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def device(env):
    return GpuDevice(env, GpuNode.named(0), profiler=Profiler())


def test_kernel_takes_its_duration(env, device):
    env.process(device.run_kernel(_kernel("k", 1.5)))
    env.run()
    assert env.now == pytest.approx(1.5)
    assert device.busy_time == pytest.approx(1.5)


def test_kernels_serialize_on_one_gpu(env, device):
    for i in range(3):
        env.process(device.run_kernel(_kernel(f"k{i}", 1.0)))
    env.run()
    assert env.now == pytest.approx(3.0)


def test_different_gpus_run_in_parallel(env):
    d0 = GpuDevice(env, GpuNode.named(0))
    d1 = GpuDevice(env, GpuNode.named(1))
    env.process(d0.run_kernel(_kernel("a", 2.0)))
    env.process(d1.run_kernel(_kernel("b", 2.0)))
    env.run()
    assert env.now == pytest.approx(2.0)


def test_run_kernels_sequences(env, device):
    kernels = [_kernel(f"k{i}", 0.5) for i in range(4)]

    def chain():
        for kernel in kernels:
            yield from device.run_kernel(kernel)

    env.process(chain())
    env.run()
    assert env.now == pytest.approx(2.0)
    assert [k.name for k in device.profiler.kernels] == ["k0", "k1", "k2", "k3"]


def test_profiler_records_kernels(env, device):
    env.process(device.run_kernel(_kernel("k", 1.0, stage="bp")))
    env.run()
    records = device.profiler.kernels
    assert len(records) == 1
    assert records[0].gpu == 0
    assert records[0].stage == "bp"
    assert records[0].duration == pytest.approx(1.0)


def test_device_without_profiler_is_fine(env):
    device = GpuDevice(env, GpuNode.named(3))
    env.process(device.run_kernel(_kernel("k", 1.0)))
    env.run()
    assert device.index == 3
