"""Tests of the benchmark's own logic (not of the simulator).

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest -q perfbench/tests
"""

import json
import math

import pytest

from perfbench import inputs, reference, spec
from perfbench.stats import Tally, latency_summary, tail_percentile
from perfbench.trace import Tracer, _union
from perfbench.workloads import _check_response, check_exact


REFS = {
    "a": {"epoch_time": 10.0, "iteration_time": 0.5, "fp_bp": 0.4,
          "wu": 0.1, "fabric_bytes": 1000},
    "b": {"oom": True},
}


# -- tail percentile ----------------------------------------------------
@pytest.mark.parametrize("n, pct", [
    (1000, 99), (200, 95), (64, 84), (40, 75), (20, 50), (15, 50),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


@pytest.mark.parametrize("n", range(20, 400, 7))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    def beyond(pct):  # samples above the nearest-rank percentile
        return n - math.ceil(pct * n / 100)

    pct = tail_percentile(n)
    assert beyond(pct) >= 10
    assert pct == 99 or beyond(pct + 1) < 10


def test_latency_summary_states_percentile_and_count():
    summary = latency_summary([float(i) for i in range(1, 65)])
    assert summary["p50"] == pytest.approx(32.5)
    assert summary["tail"] == pytest.approx(0.84 * 65, rel=0.02)
    assert (summary["tail_pct"], summary["samples"]) == (84, 64)


@pytest.mark.parametrize("q", [0.5, 0.75, 0.84, 0.99])
def test_hd_quantile_matches_reference_implementation(q):
    mstats = pytest.importorskip("scipy.stats.mstats")
    import numpy as np
    from perfbench.stats import hd_quantile

    rng = np.random.default_rng(7)
    samples = rng.lognormal(size=1200)
    expected = float(mstats.hdquantiles(samples, [q])[0])
    assert hd_quantile(samples, q) == pytest.approx(expected, rel=1e-4)


# -- error_rate ---------------------------------------------------------
def test_error_rate_counts_refused_request():
    tally = Tally()
    request = inputs.Request("hit", ("a",))
    tally.record(_check_response(request, {"status": "busy",
                                           "reason": "quota"}, REFS))
    tally.record(_check_response(request, {
        "status": "ok", "sourcing": {},
        "results": [{"kind": "training", "degraded": False,
                     "iteration_time": 0.5, "epoch_time": 10.0}]}, REFS))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.error_rate == 0.5
    assert "busy" in tally.reasons[0]


def test_error_rate_counts_off_reference_result():
    tally = Tally()
    request = inputs.Request("miss", ("a",))
    tally.record(_check_response(request, {
        "status": "ok", "sourcing": {},
        "results": [{"kind": "training", "degraded": False,
                     "iteration_time": 0.5, "epoch_time": 10.001}]}, REFS))
    assert tally.error_rate == 1.0
    assert "epoch_time" in tally.reasons[0]


def test_unsound_degraded_answer_fails_and_sound_one_passes():
    request = inputs.Request("over", ("a",), budget=0)

    def answer(iteration):
        return {"status": "ok", "sourcing": {"degraded": 1}, "results": [
            {"kind": "analytic", "degraded": True,
             "iteration_time": iteration, "epoch_time": 1.0}]}

    assert _check_response(request, answer(0.3), REFS) == []
    assert _check_response(request, answer(0.6), REFS)


def test_expected_oom_is_correct():
    request = inputs.Request("hit", ("b",))
    response = {"status": "ok", "sourcing": {},
                "results": [{"kind": "oom", "degraded": False}]}
    assert _check_response(request, response, REFS) == []


# -- reference mismatch -------------------------------------------------
def test_reference_tolerance_admits_reassociation_drift():
    drifted = {"epoch_time": 10.0 * (1 + 1.5e-13), "iteration_time": 0.5,
               "fp_bp": 0.4 * (1 - 1e-13), "wu": 0.1, "fabric_bytes": 1000}
    assert reference.mismatches("a", drifted, REFS) == []


@pytest.mark.parametrize("field, value", [
    ("epoch_time", 10.00001), ("iteration_time", 0.50001),
    ("fp_bp", 0.39999), ("wu", 0.1001), ("fabric_bytes", 1001),
])
def test_reference_mismatch_catches_model_change(field, value):
    measured = dict(REFS["a"], **{field: value})
    problems = reference.mismatches("a", measured, REFS)
    assert len(problems) == 1 and field in problems[0]


def test_reference_mismatch_unknown_point_and_unexpected_oom():
    assert reference.mismatches("zzz", {"epoch_time": 1.0}, REFS)
    assert reference.mismatches("a", {"oom": True}, REFS)


def test_committed_reference_covers_every_drawable_point():
    refs = reference.load()
    assert {item.key for item in inputs.universe()} <= set(refs)


def test_warmup_points_are_fixed_paper_points():
    keys = [item.key for item in inputs.warmup_points()]
    assert keys == list(inputs.WARMUP_KEYS)
    assert set(keys) <= {item.key for item in inputs.universe()}


# -- measuring for --seconds ---------------------------------------------
def test_run_points_starts_no_point_after_the_deadline():
    import time

    from perfbench.workloads import Pass, run_points

    class Runner:
        calls = 0

        def run_point(self, point):
            Runner.calls += 1
            time.sleep(0.02)

    points = inputs.warmup_points()[:3]
    result = Pass()
    windows = run_points(points, Runner(), REFS, Tracer(False), result,
                         traced=False, deadline=time.perf_counter() + 0.01)
    assert Runner.calls == len(windows) == result.points == 1
    assert result.tally.attempted == 1


# -- exact counters, seeds ----------------------------------------------
def test_exact_counter_check():
    counts = {name: 5.0 for name in spec.EXACT_COUNTERS}
    assert check_exact(counts, dict(counts)) == []
    changed = dict(counts, **{"sim.events": 6.0})
    assert len(check_exact(counts, changed)) == 1


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seeds_are_deterministic_and_distinct(workload):
    seeds = spec.load_baseline()["seeds"]
    first = inputs.describe_inputs(workload, seeds["default"])
    assert first == inputs.describe_inputs(workload, seeds["default"])
    assert first != inputs.describe_inputs(workload, seeds["held_out"])


def test_service_plan_mix_is_fixed_and_misses_are_fresh():
    plan = inputs.service_plan(3)
    kinds = [pair[0].kind for pair in plan.steps[:len(inputs.SERVICE_CYCLE)]]
    assert sorted(kinds) == sorted(inputs.SERVICE_CYCLE)
    fresh = [key for pair in plan.steps for request in pair
             if request.kind in ("miss", "dedup") for key in request.keys]
    dedup = [pair for pair in plan.steps if pair[0].kind == "dedup"]
    assert all(a == b for a, b in dedup)
    assert len(set(fresh)) == len(fresh) - len(dedup)
    assert not set(fresh) & set(plan.prefill)


# -- trace --------------------------------------------------------------
def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("outer", request_id="r1"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert inner.parent == outer.span_id and inner.request_id == "r1"
    rows = tracer.self_times()
    assert rows["outer"]["self_s"] == pytest.approx(
        outer.duration - inner.duration)
    assert _union([(0, 2), (1, 3), (5, 6)]) == 4


def test_disabled_tracer_records_nothing(tmp_path):
    tracer = Tracer(False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []
    tracer.write_chrome(tmp_path / "t.json")
    assert json.loads((tmp_path / "t.json").read_text())["traceEvents"] == []


def test_per_key_medians_keep_one_sample_per_operation():
    from perfbench.stats import per_key_medians

    samples = [("a", 1.0), ("b", 5.0), ("a", 3.0), ("a", 2.0), ("b", 7.0)]
    assert sorted(per_key_medians(samples)) == [2.0, 6.0]


# -- noise record -------------------------------------------------------
def test_noise_flags_a_uniformly_slower_host_as_not_comparable():
    from perfbench.run import _noise

    recorded = spec.load_baseline()["calibration"]["median_s"]
    steady = _noise([recorded] * 5, [recorded * 1.05] * 5)
    assert steady["comparable"] and not steady["noisy"]
    slow = _noise([recorded * 2] * 5, [recorded * 2] * 5)
    assert not slow["comparable"] and not slow["noisy"]
    straddling = _noise([recorded] * 5, [recorded * 1.5] * 5)
    assert straddling["noisy"]
