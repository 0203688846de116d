"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures for ``--seconds`` (rounds of the seed's points,
or lock-step request cycles on service-mixed) and reports the
end-to-end metrics; ``--trace 1`` runs the seed's fixed work once
untraced and twice traced and reports the per-layer metrics, the trace
file and the tracing overhead.  Earlier lines of stdout are a
human-readable report; the last line is the JSON result.  The exit code
is non-zero, with no result line, when the library sources are missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import NoReturn  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Set-up samples per run: this process plus fresh interpreters, this
#: many before the measurement and this many after it, so that the
#: median spans the run's host state rather than its first seconds.
SETUP_PROBES_BEFORE = 1
SETUP_PROBES_AFTER = 1
#: Calibration passes taken before and after the measurement.  A run is
#: flagged ``noisy`` when the spread of all its passes exceeds the spread
#: bound (the host changed speed, or another process competed for the
#: CPU), and ``comparable: false`` when their median departs from the one
#: recorded in ``baseline.json`` -- the host state the bounds were set
#: in -- by more than the ratio bound: its timings then reflect the
#: host's speed, not the program's.
CALIBRATION_PASSES = 5
NOISE_SPREAD_BOUND = 0.30
CALIBRATION_RATIO_BOUND = 1.15
#: Lock-step steps service-mixed measures at least, however long they
#: take: 1,000 requests, so that its tail is always p99.
SERVICE_MIN_STEPS = 500
#: Lock-step steps of the fixed service-mixed work a traced run repeats.
TRACE_SERVICE_STEPS = 200


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up: import, input generation, warm-up, store creation, server
# start, prefill
# ----------------------------------------------------------------------
def _setup(args, work, tracer):
    """Everything before the first point is ready; returns the state."""
    from perfbench import inputs, reference, workloads

    state = {"refs": reference.load()}
    with tracer.span("setup.inputs"):
        if args.workload == "paper-cold":
            state["points"] = inputs.paper_round(args.seed)
        elif args.workload == "selfcheck-strict":
            state["points"] = inputs.strict_round(args.seed)
        else:
            state["plan"] = inputs.service_plan(args.seed)
    if args.workload != "service-mixed":
        invariants = "off" if args.workload == "paper-cold" else "strict"
        with tracer.span("setup.warmup"):
            state["warmup"] = workloads.warm_up(
                inputs.warmup_points(), state["refs"], tracer, invariants)
    if args.workload == "paper-cold":
        with tracer.span("store.create"):
            state["store"] = workloads.ShardedResultStore(work.fresh("paper-store"))
    elif args.workload == "service-mixed":
        state["service"] = workloads.service_setup(
            state["plan"], ROOT, work, tracer)
    return state


def _probe_setup(args) -> float:
    """Set up in a fresh interpreter and return its set-up seconds."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _teardown(state) -> None:
    service = state.get("service")
    if service is not None:
        service.server.stop()
    store = state.get("store")
    if store is not None:
        store.close()


# ----------------------------------------------------------------------
# Noise record
# ----------------------------------------------------------------------
def _calibrate():
    from repro.perf.harness import calibration_score

    return calibration_score(CALIBRATION_PASSES)["samples"]


def _noise(before, after):
    """The noise record of a run from its two calibration sets."""
    from perfbench import spec

    recorded = spec.load_baseline()["calibration"]["median_s"]
    samples = before + after
    spread = (max(samples) - min(samples)) / min(samples)
    ratio = statistics.median(samples) / recorded
    return {
        "loadavg_1m": os.getloadavg()[0],
        "cpus": os.cpu_count(),
        "calibration_samples_s": {"before": before, "after": after},
        "calibration_spread": round(spread, 4),
        "calibration_spread_bound": NOISE_SPREAD_BOUND,
        "noisy": spread > NOISE_SPREAD_BOUND,
        "calibration_ratio": round(ratio, 4),
        "calibration_ratio_bound": CALIBRATION_RATIO_BOUND,
        "comparable": 1 / CALIBRATION_RATIO_BOUND <= ratio <= CALIBRATION_RATIO_BOUND,
    }


def _peak_rss_mb(total) -> float:
    """Peak RSS (MB) of this process, plus the server's and its pool
    workers' own peaks on service-mixed.  The set-up probes run alone,
    never beside the measured work, so they are left out."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + total.extra.get("server_peak_rss_kb", 0)) / 1024.0


def _inputs_problems(workload: str, seed: int):
    """One seed always generates byte-identical inputs; the recorded
    default and held-out seeds generate different ones."""
    from perfbench import inputs, spec

    seeds = spec.load_baseline()["seeds"]
    problems = []
    if inputs.describe_inputs(workload, seed) != inputs.describe_inputs(workload, seed):
        problems.append(f"seed {seed} generated different inputs twice")
    if (inputs.describe_inputs(workload, seeds["default"])
            == inputs.describe_inputs(workload, seeds["held_out"])):
        problems.append("the default and held-out seeds generate equal inputs")
    return problems


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _one_pass(args, state, work, tracer, traced, steps=None, deadline=None,
              min_steps=0):
    from perfbench import workloads

    if args.workload == "paper-cold":
        store = state.pop("store", None)
        return workloads.paper_pass(state["points"], state["refs"], work,
                                    tracer, traced, store=store,
                                    deadline=deadline)
    if args.workload == "selfcheck-strict":
        return workloads.strict_pass(state["points"], state["refs"], work,
                                     tracer, traced, deadline=deadline)
    return _service_pass(args, state, work, tracer, traced, steps, deadline,
                         min_steps)


def _service_pass(args, state, work, tracer, traced, steps, deadline=None,
                  min_steps=0):
    """Drive the load against the set-up server (starting a fresh one
    when the previous pass consumed it), then stop that server."""
    from perfbench import workloads

    timers = {}
    setup = state.pop("service", None)
    if setup is None:
        setup = workloads.service_setup(
            state["plan"], ROOT, work, tracer, timers if traced else None)
    try:
        result = workloads.drive_service(
            state["plan"], setup.server.port, state["refs"], tracer, steps,
            deadline, min_steps)
        stats = setup.server.stats()
        result.extra["server_peak_rss_kb"] = setup.server.peak_rss_kb()
    finally:
        setup.server.stop()
    result.layers.update(workloads.service_layers(result, stats))
    result.layers.update(setup.prefill_layers)
    result.layers.update(timers)
    if traced:
        result.layers["runner.store_load_s"] = workloads.replay_hit_loads(
            state["plan"], result.extra["steps"], setup.store_dir, tracer)
    result.extra["degraded_ratio"] = (
        stats.get("points_degraded", 0) / result.points if result.points else 0.0)
    shutil.rmtree(setup.store_dir, ignore_errors=True)
    return result


def _measure(args, state, work, tracer):
    """The untraced measurement, for ``--seconds``: lock-step request
    cycles on service-mixed (at least ``SERVICE_MIN_STEPS``); on the
    runner workloads one whole round (every point, and the anchors on
    paper-cold), then further rounds, each cold, until the time is up --
    the last one stops between points."""
    from perfbench.workloads import Pass

    deadline = time.perf_counter() + args.seconds
    if args.workload == "service-mixed":
        return _one_pass(args, state, work, tracer, False,
                         len(state["plan"].steps), deadline,
                         SERVICE_MIN_STEPS)
    total = Pass()
    total.merge(_one_pass(args, state, work, tracer, False))
    while time.perf_counter() < deadline:
        total.merge(_one_pass(args, state, work, tracer, False,
                              deadline=deadline))
    return total


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def _end_to_end(args, total, setup_samples):
    from perfbench.stats import latency_summary, per_key_medians

    lat = latency_summary(per_key_medians(total.latencies))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "points_per_s": total.points / total.wall_s,
        "latency_s_p50": lat["p50"],
        "latency_s_tail": lat["tail"],
        "peak_rss_mb": _peak_rss_mb(total),
    }
    service = args.workload == "service-mixed"
    prefix = "request" if service else "point"
    named = {
        "setup_s": (metrics["setup_s"], "s"),
        "points_per_s": (metrics["points_per_s"], "1/s"),
        f"{prefix}_s_p50": (lat["p50"], "s"),
        f"{prefix}_s_tail": (lat["tail"], "s"),
        "error_rate": (total.tally.error_rate, "ratio"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
    }
    if service:
        named["requests_per_s"] = (total.requests / total.wall_s, "1/s")
        named["degraded_ratio"] = (total.extra["degraded_ratio"], "ratio")
    if args.workload == "paper-cold":
        named["paper_anchor_max_err"] = (total.extra["paper_anchor_max_err"], "ratio")
        named["paper_anchors_passed"] = (total.extra["paper_anchors_passed"], "count")
        named["paper_anchors_total"] = (total.extra["paper_anchors_total"], "count")
    report = {
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tail": {"percentile": lat["tail_pct"], "samples": lat["samples"],
                 "of": "request" if service else "run_point"},
        "setup_samples_s": setup_samples,
    }
    return metrics, report


def _print_report(args, report, failures):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, row in report.get("named", {}).items():
        print(f"  {name:<34} {row['value']:>14.6g} {row['unit']}")
    tail = report.get("tail")
    if tail:
        print(f"  (tail = p{tail['percentile']} of {tail['samples']} "
              f"{tail['of']} samples)")
    for name, value in report.get("layers", {}).items():
        print(f"  {name:<34} {value:>14.6g}")
    for name, row in report.get("self_time", {}).items():
        print(f"  self {name:<29} {row['self_s']:>10.4f}s of {row['total_s']:.4f}s "
              f"({row['calls']} calls)")
    for key in ("noise", "trace_file", "work_counts", "recorded_counts"):
        if key in report:
            print(f"  {key}: {json.dumps(report[key], sort_keys=True)}")
    for reason in failures[:20]:
        print(f"  FAILED: {reason}")


def _trace_run(args, state, work, tracer):
    """Fixed work: untraced once, then twice traced (the first traced
    pass records into ``tracer``, which holds the set-up spans, and is
    the one reported); per-layer metrics."""
    from perfbench import workloads
    from perfbench.trace import Tracer
    from repro.dnn import build_network, compile_network, network_input_shape
    from repro.dnn.zoo import PAPER_NETWORKS

    start = time.perf_counter()
    with tracer.span("dnn.compile"):
        for name in PAPER_NETWORKS:
            compile_network(build_network(name), network_input_shape(name))
    dnn_compile = time.perf_counter() - start

    steps = TRACE_SERVICE_STEPS if args.workload == "service-mixed" else None
    if args.workload == "paper-cold":
        state.pop("store").close()
    plain = _one_pass(args, state, work, Tracer(False), False, steps)
    traced = _one_pass(args, state, work, tracer, True, steps)
    again = _one_pass(args, state, work, Tracer(True), True, steps)
    layers = dict(traced.layers)
    layers["dnn.compile_s"] = dnn_compile
    layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome(trace_path)
    tally = plain.tally
    tally.add(traced.tally)
    tally.add(again.tally)
    tally.record(workloads.check_exact(traced.layers, again.layers))
    return layers, tracer.self_times(), trace_path, tally


def _exit_on_sigterm(signum, frame):
    # Unwind through the finally blocks that stop the server.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"library sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, spec
    from perfbench.trace import Tracer
    from perfbench.workloads import Workdir

    if args.workload not in inputs.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {inputs.WORKLOADS}")
    work = Workdir(OUT / f"{args.workload}-{os.getpid()}")
    tracer = Tracer(bool(args.trace))
    state = {}
    try:
        with tracer.span("setup"):
            state = _setup(args, work, tracer)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        inputs_problems = _inputs_problems(args.workload, args.seed)
        calibration = _calibrate()
        if args.trace:
            layers, self_times, trace_path, tally = _trace_run(
                args, state, work, tracer)
            units = spec.metric_units("per_layer")
            metrics = {name: layers.get(name, 0.0) for name in units}
            report = {"layers": metrics, "self_time": self_times,
                      "trace_file": str(trace_path.relative_to(ROOT)),
                      "work_counts": spec.work_counts(layers)}
            recorded = spec.recorded_counts(args.workload, args.seed)
            if recorded is not None:
                report["recorded_counts"] = {
                    "seed": args.seed,
                    "match": recorded == report["work_counts"],
                }
        else:
            setup_samples = [setup_s] + [
                _probe_setup(args) for _ in range(SETUP_PROBES_BEFORE)]
            total = _measure(args, state, work, tracer)
            setup_samples += [
                _probe_setup(args) for _ in range(SETUP_PROBES_AFTER)]
            tally = total.tally
            metrics, report = _end_to_end(args, total, setup_samples)
            units = spec.metric_units("end_to_end")
        report["noise"] = _noise(calibration, _calibrate())
        tally.record(inputs_problems)
        if "warmup" in state:
            tally.add(state["warmup"])
    finally:
        _teardown(state)
        shutil.rmtree(work.root, ignore_errors=True)
    _print_report(args, report, tally.reasons)
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
