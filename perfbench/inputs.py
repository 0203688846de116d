"""Seeded workload inputs: the points and request mixes a run feeds in.

Everything here is a pure function of the workload seed.  Points come
from the library's public constructors only (the experiments'
``sweep_spec()`` builders, ``anchor_sweep_spec()``, ``TrainingConfig``,
``FaultPlan``), and each carries a stable *key* -- the name under which
``reference.json`` stores its expected outputs.  :func:`universe` lists
every point any seed can draw, which is what the reference generator
simulates.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.validation import anchor_sweep_spec
from repro.core.config import CommMethodName, ScalingMode, TrainingConfig
from repro.dnn.zoo import PAPER_NETWORKS
from repro.experiments import (
    fig3_training_time,
    fig4_breakdown,
    fig5_weak_scaling,
    table2_nccl_overhead,
    table3_sync_overhead,
)
from repro.faults import FaultPlan, NodeCrashFault, RailFault, ResiliencePolicy
from repro.runner import SweepPoint
from repro.service.protocol import point_to_dict
from repro.topology import build_dgx1v

WORKLOADS = ("paper-cold", "selfcheck-strict", "service-mixed")

#: Plan seeds ``FaultPlan.random`` may be called with (selfcheck-strict).
RANDOM_PLAN_POOL = 32
#: Random-plan points per selfcheck-strict round.
RANDOM_PLANS_PER_ROUND = 4
#: GPU counts of the strict headline grid (the selfcheck's fast grid).
STRICT_GPUS = (1, 4)

#: Points the runner workloads simulate once, on a throwaway runner,
#: during set-up: every paper network on one GPU, and the 8-GPU P2P and
#: NCCL paths.  The measured rounds then time steady points, not the
#: process's first calls into each code path (which cost up to a quarter
#: more and would land on whichever point the seed happens to put first).
WARMUP_KEYS = tuple(f"{net}/b16/g1/p2p" for net in PAPER_NETWORKS) + (
    "lenet/b16/g8/p2p", "lenet/b16/g8/nccl")

#: service-mixed point universe: small networks, so misses stay cheap.
SERVICE_NETWORKS = ("lenet", "alexnet")
SERVICE_GPUS = (1, 2, 4, 8)
SERVICE_BATCHES = (16, 32, 64)
SERVICE_IMAGES = (256_000, 128_000, 64_000, 32_000)
#: Per stratum: variants committed to the store before the load starts,
#: and variants reserved for over-budget (always degraded) requests.
#: These, the cycle below and the points per request make up an assumed
#: traffic mix that no trace or measurement backs.  They are fixed so that
#: every seed measures the same mix; the seed picks the points that fill
#: each role and orders the steps.
SERVICE_PREFILL = 1
SERVICE_OVER = 2
#: One cycle of lock-step request classes (each client sends one request
#: per step).
SERVICE_CYCLE = ("hit",) * 5 + ("dedup",) + ("miss",) * 2 + ("over",) * 2
HIT_POINTS = 4
OVER_POINTS = 2


def point_key(point: SweepPoint, label: str = "") -> str:
    """Stable name of a point: its config plus any non-default knob."""
    cfg = point.config
    key = cfg.describe()
    if cfg.scaling is ScalingMode.WEAK:
        key += "/weak"
    if not cfg.overlap_bp_wu:
        key += "/serial"
    if cfg.dataset_images != TrainingConfig.__dataclass_fields__[
            "dataset_images"].default:
        key += f"/d{cfg.dataset_images}"
    if cfg.cluster_fast_path != "auto":
        key += f"/{cfg.cluster_fast_path}"
    if label:
        key += f"+{label}"
    return key


@dataclass(frozen=True)
class Keyed:
    """One workload point and its reference key."""

    key: str
    point: SweepPoint


def _dedup(points: Sequence[Keyed]) -> List[Keyed]:
    seen: Dict[str, Keyed] = {}
    for item in points:
        seen.setdefault(item.key, item)
    return list(seen.values())


def _strata(points: Sequence[Keyed]) -> Dict[Tuple[str, str, int], List[Keyed]]:
    """Group by (network, comm method, GPUs): the host-cost classes."""
    out: Dict[Tuple[str, str, int], List[Keyed]] = {}
    for item in points:
        cfg = item.point.config
        out.setdefault(
            (cfg.network, cfg.comm_method.value, cfg.num_gpus), []).append(item)
    return {k: out[k] for k in sorted(out)}


# ----------------------------------------------------------------------
# paper-cold
# ----------------------------------------------------------------------
def paper_universe() -> List[Keyed]:
    """Every Fig. 3/4/5 and Table II/III grid point (240 distinct)."""
    specs = (
        fig3_training_time.sweep_spec(),
        fig4_breakdown.sweep_spec(),
        fig5_weak_scaling.sweep_spec(),
        table2_nccl_overhead.sweep_spec(),
        table3_sync_overhead.sweep_spec(),
    )
    return _dedup([Keyed(point_key(p), p) for spec in specs for p in spec])


def anchor_points() -> List[Keyed]:
    """The cells ``validate()`` reads, so it answers from the memo."""
    return _dedup([Keyed(point_key(p), p) for p in anchor_sweep_spec()])


def warmup_points() -> List[Keyed]:
    """The fixed, seed-independent set-up points (:data:`WARMUP_KEYS`)."""
    by_key = {item.key: item for item in paper_universe()}
    return [by_key[key] for key in WARMUP_KEYS]


def paper_round(seed: int) -> List[Keyed]:
    """The anchor cells plus one seed-drawn point per (network, comm,
    GPUs) stratum -- batch size and scaling drawn, anchors excluded --
    in seed order."""
    rng = random.Random(f"paper-cold:{seed}")
    anchors = anchor_points()
    taken = {item.key for item in anchors}
    drawn = [
        rng.choice([item for item in group if item.key not in taken])
        for group in _strata(paper_universe()).values()
    ]
    points = anchors + drawn
    rng.shuffle(points)
    return points


# ----------------------------------------------------------------------
# selfcheck-strict
# ----------------------------------------------------------------------
def _strict_grid() -> List[Keyed]:
    """The selfcheck's headline grids (Fig. 3, Fig. 4, Table II) at its
    fast GPU counts, every paper batch size."""
    specs = (
        fig3_training_time.sweep_spec(gpu_counts=STRICT_GPUS),
        fig4_breakdown.sweep_spec(gpu_counts=STRICT_GPUS),
        table2_nccl_overhead.sweep_spec(),
    )
    return _dedup([Keyed(point_key(p), p) for spec in specs for p in spec])


def _cluster_config(network: str, fast_path: str = "auto") -> TrainingConfig:
    return TrainingConfig(
        network, 16, 16,
        comm_method=CommMethodName.NCCL_ALLREDUCE,
        cluster_nodes=2, cluster_fabric="single-switch",
        cluster_collective="hierarchical-ring",
        cluster_fast_path=fast_path,
    )


def structural_points() -> List[Keyed]:
    """Fixed strict points: tuner-mode NCCL, the 2-node hierarchical
    pair (event and analytic), the mid-flight isolate-GPU re-ring, and
    the cluster rail-fault and node-crash points."""
    points = [
        SweepPoint.make(TrainingConfig(
            "resnet", 16, 4, comm_method=CommMethodName.NCCL,
            nccl_algorithm="tree", nccl_protocol="simple")),
        SweepPoint.make(TrainingConfig(
            "resnet", 16, 8, comm_method=CommMethodName.NCCL_ALLREDUCE,
            nccl_algorithm="auto", nccl_protocol="auto")),
        SweepPoint.make(_cluster_config("resnet", "event")),
        SweepPoint.make(_cluster_config("resnet", "analytic")),
    ]
    out = [Keyed(point_key(p), p) for p in points]
    isolate = FaultPlan.isolate_gpu(build_dgx1v(), 0, at=0.05)
    rail = FaultPlan(rail_faults=(
        RailFault(node=0, rail=1, at=0.05, bandwidth_scale=0.0),))
    crash = FaultPlan(node_crashes=(NodeCrashFault(node=1, at_iteration=3),),
                      policy=ResiliencePolicy.SHRINK)
    for label, config, plan in (
        ("isolate-gpu0", TrainingConfig(
            "alexnet", 16, 4, comm_method=CommMethodName.NCCL), isolate),
        ("rail-n0r1-down", _cluster_config("alexnet"), rail),
        ("node-crash-n1", _cluster_config("alexnet"), crash),
    ):
        point = SweepPoint.make(config, overrides={"faults": plan})
        out.append(Keyed(point_key(point, label), point))
    return out


def random_plan_point(plan_seed: int) -> Keyed:
    """AlexNet 8-GPU NCCL under ``FaultPlan.random(plan_seed)``: link
    degradations, a straggler and ECC retries starting mid-run, and
    possibly a GPU crash."""
    config = TrainingConfig("alexnet", 16, 8, comm_method=CommMethodName.NCCL)
    point = SweepPoint.make(
        config, overrides={"faults": FaultPlan.random(plan_seed)})
    return Keyed(point_key(point, f"random-plan-{plan_seed}"), point)


def strict_round(seed: int) -> List[Keyed]:
    """One point per headline-grid stratum (batch drawn), the fixed
    structural points and a few seed-drawn random fault plans."""
    rng = random.Random(f"selfcheck-strict:{seed}")
    drawn = [rng.choice(group) for group in _strata(_strict_grid()).values()]
    plans = rng.sample(range(RANDOM_PLAN_POOL), RANDOM_PLANS_PER_ROUND)
    points = drawn + structural_points() + [random_plan_point(s) for s in plans]
    rng.shuffle(points)
    return points


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
def service_universe() -> List[Keyed]:
    """Every point a service-mixed request can carry (768 distinct)."""
    out = []
    for network, comm, gpus, batch, scaling, overlap, images in itertools.product(
            SERVICE_NETWORKS, (CommMethodName.P2P, CommMethodName.NCCL),
            SERVICE_GPUS, SERVICE_BATCHES,
            (ScalingMode.STRONG, ScalingMode.WEAK), (True, False),
            SERVICE_IMAGES):
        point = SweepPoint.make(TrainingConfig(
            network, batch, gpus, comm_method=comm, scaling=scaling,
            overlap_bp_wu=overlap, dataset_images=images))
        out.append(Keyed(point_key(point), point))
    return out


@dataclass(frozen=True)
class Request:
    """One sweep request of one client."""

    kind: str                    # hit | dedup | miss | over
    keys: Tuple[str, ...]
    budget: int = -1             # -1: no budget field (server default)


@dataclass(frozen=True)
class ServicePlan:
    """The store prefill and the lock-step request schedule."""

    prefill: Tuple[str, ...]
    steps: Tuple[Tuple[Request, Request], ...]


def service_plan(seed: int) -> ServicePlan:
    """Seed-drawn prefill points and request schedule for two clients.

    Per (network, comm, GPUs) stratum the seed shuffles the variants:
    the first is committed to the store during set-up (disk hits), the
    next two are only ever requested over budget (analytic answers), and
    the rest are consumed block by block -- one variant of every stratum
    per block -- as fresh misses, so every stretch of the schedule
    simulates the same mix of point costs.
    """
    rng = random.Random(f"service-mixed:{seed}")
    prefill: List[str] = []
    over: List[str] = []
    rest: List[List[str]] = []
    for group in _strata(service_universe()).values():
        keys = [item.key for item in group]
        rng.shuffle(keys)
        prefill += keys[:SERVICE_PREFILL]
        over += keys[SERVICE_PREFILL:SERVICE_PREFILL + SERVICE_OVER]
        rest.append(keys[SERVICE_PREFILL + SERVICE_OVER:])
    fresh: List[str] = []
    for block in zip(*rest):  # every stratum has the same variant count
        block = list(block)
        rng.shuffle(block)
        fresh += block
    steps = []
    while True:
        cycle = list(SERVICE_CYCLE)
        rng.shuffle(cycle)
        needed = sum({"dedup": 1, "miss": 2}.get(kind, 0) for kind in cycle)
        if needed > len(fresh):
            break
        for kind in cycle:
            if kind == "hit":
                pair = tuple(Request("hit", tuple(rng.sample(prefill, HIT_POINTS)))
                             for _ in range(2))
            elif kind == "over":
                pair = tuple(Request("over", tuple(rng.sample(over, OVER_POINTS)),
                                     budget=0) for _ in range(2))
            elif kind == "dedup":
                shared = Request("dedup", (fresh.pop(0),))
                pair = (shared, shared)
            else:
                pair = (Request("miss", (fresh.pop(0),)),
                        Request("miss", (fresh.pop(0),)))
            steps.append(pair)
    return ServicePlan(prefill=tuple(prefill), steps=tuple(steps))


# ----------------------------------------------------------------------
# Shared
# ----------------------------------------------------------------------
def universe() -> List[Keyed]:
    """Every point any seed of any workload can draw."""
    return _dedup(
        paper_universe() + _strict_grid() + structural_points()
        + [random_plan_point(s) for s in range(RANDOM_PLAN_POOL)]
        + service_universe()
    )


def service_points() -> Dict[str, SweepPoint]:
    return {item.key: item.point for item in service_universe()}


def describe_inputs(workload: str, seed: int) -> bytes:
    """Canonical bytes of everything the seed generates for a workload
    (the determinism check compares these)."""
    if workload == "paper-cold":
        doc: object = [item.key for item in paper_round(seed)]
    elif workload == "selfcheck-strict":
        doc = [item.key for item in strict_round(seed)]
    elif workload == "service-mixed":
        plan = service_plan(seed)
        wire = service_points()
        doc = {
            "prefill": list(plan.prefill),
            "steps": [[[r.kind, r.budget, [point_to_dict(wire[k]) for k in r.keys]]
                       for r in pair] for pair in plan.steps],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(doc, sort_keys=True).encode("utf-8")
