"""Tests for the discrete-event engine core."""

import heapq

import pytest

from repro.core.errors import SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_starts_at_initial_time():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(2.5)
    env.run()
    assert env.now == 2.5


def test_zero_delay_timeout_is_processed():
    env = Environment()
    t = env.timeout(0.0)
    env.run()
    assert t.triggered
    assert env.now == 0.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_events_processed_in_time_order():
    env = Environment()
    order = []
    for delay in (3.0, 1.0, 2.0):
        env.timeout(delay).callbacks.append(
            lambda ev, d=delay: order.append(d)
        )
    env.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_broken_by_insertion_order():
    env = Environment()
    order = []
    for tag in ("a", "b", "c"):
        env.timeout(1.0).callbacks.append(lambda ev, t=tag: order.append(t))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_deadline_stops_clock_at_deadline():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_deadline_processes_events_at_deadline():
    env = Environment()
    hits = []
    env.timeout(4.0).callbacks.append(lambda ev: hits.append(env.now))
    env.run(until=4.0)
    assert hits == [4.0]


def test_run_until_past_deadline_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "done"

    assert env.run(until=env.process(proc(env))) == "done"


def test_run_until_event_raises_on_failure():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        env.run(until=env.process(proc(env)))


def test_run_until_event_queue_drained_is_error():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_step_on_empty_queue_is_error():
    with pytest.raises(SimulationError):
        Environment().step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.peek() == 1.0


def test_determinism_across_runs():
    def build_and_run():
        env = Environment()
        log = []

        def worker(env, name, delay):
            for _ in range(3):
                yield env.timeout(delay)
                log.append((round(env.now, 9), name))

        for i, d in enumerate((0.3, 0.7, 0.2)):
            env.process(worker(env, f"w{i}", d))
        env.run()
        return log

    assert build_and_run() == build_and_run()


# ----------------------------------------------------------------------
# Guards of the dispatch loop
# ----------------------------------------------------------------------
class _CountingChecks:
    """A stand-in check engine that records every checkpoint it sees."""

    enabled = True

    def __init__(self):
        self.calls = []

    def check(self, point, **payload):
        self.calls.append((point, payload))


def _busy_environment():
    env = Environment()

    def worker(env, delay):
        for _ in range(4):
            yield env.timeout(delay)

    for delay in (0.5, 1.0, 0.0):
        env.process(worker(env, delay))
    return env


def test_step_processes_exactly_one_event():
    env = Environment()
    order = []
    for tag in ("a", "b"):
        env.timeout(1.0).callbacks.append(lambda ev, t=tag: order.append(t))
    env.step()
    assert order == ["a"] and env.dispatched == 1
    env.step()
    assert order == ["a", "b"] and env.dispatched == 2


def test_event_in_the_past_is_rejected():
    env = Environment()
    env.run(until=5.0)
    stale = env.event()
    heapq.heappush(env._queue, (1.0, -1, stale))
    with pytest.raises(SimulationError, match="past"):
        env.step()


def test_yielding_foreign_event_fails_the_process():
    env, other = Environment(), Environment()

    def proc(env):
        yield other.timeout(1.0)

    p = env.process(proc(env))
    with pytest.raises(SimulationError, match="another environment"):
        env.run(until=p)


def test_event_checkpoint_fires_once_per_dispatched_event():
    env = _busy_environment()
    checks = _CountingChecks()
    env.set_checks(checks)
    env.run()
    assert env.dispatched > 0
    assert len(checks.calls) == env.dispatched
    assert {point for point, _ in checks.calls} == {"sim.event"}
    # Each checkpoint sees the popped timestamp before the clock moves.
    assert all(p["when"] >= p["now"] for _, p in checks.calls)


def test_disabled_check_engine_is_not_attached():
    env = _busy_environment()
    checks = _CountingChecks()
    checks.enabled = False
    env.set_checks(checks)
    env.run()
    assert checks.calls == []


@pytest.mark.parametrize("every", [1, 3, 7])
def test_observer_called_every_nth_event(every):
    env = _busy_environment()
    samples = []
    env.set_observer(lambda now, depth: samples.append((now, depth)),
                     every=every)
    env.run()
    assert len(samples) == env.dispatched // every
    assert all(depth >= 0 for _, depth in samples)


def test_observer_sampling_continues_across_runs():
    env = _busy_environment()
    samples = []
    env.set_observer(lambda now, depth: samples.append(now), every=2)
    env.run(until=1.0)
    env.run()
    assert len(samples) == env.dispatched // 2


def test_observer_interval_must_be_positive():
    with pytest.raises(SimulationError):
        Environment().set_observer(lambda now, depth: None, every=0)
