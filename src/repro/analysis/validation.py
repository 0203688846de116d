"""Machine-checkable paper anchors.

Every quantitative claim the reproduction targets is encoded here as a
:class:`PaperAnchor` with its source in the paper, the expected value or
ordering, and a tolerance.  ``validate()`` evaluates all of them against a
:class:`~repro.runner.SweepRunner` and renders a verdict table -- the
programmatic counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.config import CommMethodName, ScalingMode, TrainingConfig
from repro.dnn import build_network, compile_network, network_input_shape
from repro.experiments.tables import render_table
from repro.gpu import MemoryModel
from repro.runner import SweepPoint, SweepRunner, SweepSpec

P2P, NCCL = CommMethodName.P2P, CommMethodName.NCCL


@dataclass(frozen=True)
class PaperAnchor:
    """One claim from the paper, evaluated against simulation."""

    anchor_id: str
    source: str                      # e.g. "Fig.3 / Sec.V-A"
    description: str
    measure: Callable[[SweepRunner], float]
    expected: Optional[float] = None  # None for ordering-only anchors
    rel_tol: float = 0.15
    #: For ordering anchors: measured value must be positive.
    ordering: bool = False


@dataclass(frozen=True)
class AnchorVerdict:
    """One paper anchor's measured value and pass/fail verdict."""

    anchor: PaperAnchor
    measured: float

    @property
    def passed(self) -> bool:
        if self.anchor.ordering:
            return self.measured > 0
        assert self.anchor.expected is not None
        return abs(self.measured - self.anchor.expected) <= (
            self.anchor.rel_tol * abs(self.anchor.expected)
        )


@dataclass(frozen=True)
class ValidationReport:
    """All anchor verdicts from one validation run."""

    verdicts: Tuple[AnchorVerdict, ...]

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.passed)

    @property
    def total(self) -> int:
        return len(self.verdicts)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total


def _speedup(cache: SweepRunner, net, batch, gpus, method,
             scaling=ScalingMode.STRONG) -> float:
    base = cache.get(net, batch, 1, method, scaling)
    return cache.get(net, batch, gpus, method, scaling).speedup_over(base)


def _advantage(cache: SweepRunner, net, gpus) -> float:
    p2p = cache.get(net, 16, gpus, P2P)
    nccl = cache.get(net, 16, gpus, NCCL)
    return p2p.epoch_time / nccl.epoch_time


def _t2_overhead(cache: SweepRunner, net, batch) -> float:
    p2p = cache.get(net, batch, 1, P2P)
    nccl = cache.get(net, batch, 1, NCCL)
    return 100.0 * (nccl.epoch_time / p2p.epoch_time - 1.0)


def _memory_gb(net: str, batch: int) -> float:
    stats = compile_network(build_network(net), network_input_shape(net))
    return MemoryModel().training(stats, batch, is_server=True).total_gb


PAPER_ANCHORS: Tuple[PaperAnchor, ...] = (
    PaperAnchor("f3-lenet-p2p-2", "Fig.3/Sec.V-A", "LeNet b16 P2P speedup @2 GPUs",
                lambda c: _speedup(c, "lenet", 16, 2, P2P), expected=1.62),
    PaperAnchor("f3-lenet-p2p-4", "Fig.3/Sec.V-A", "LeNet b16 P2P speedup @4 GPUs",
                lambda c: _speedup(c, "lenet", 16, 4, P2P), expected=2.37),
    PaperAnchor("f3-lenet-p2p-8", "Fig.3/Sec.V-A", "LeNet b16 P2P speedup @8 GPUs",
                lambda c: _speedup(c, "lenet", 16, 8, P2P), expected=3.36),
    PaperAnchor("f3-lenet-nccl-2", "Fig.3/Sec.V-A", "LeNet b16 NCCL speedup @2 GPUs",
                lambda c: _speedup(c, "lenet", 16, 2, NCCL), expected=1.56),
    PaperAnchor("f3-lenet-nccl-4", "Fig.3/Sec.V-A", "LeNet b16 NCCL speedup @4 GPUs",
                lambda c: _speedup(c, "lenet", 16, 4, NCCL), expected=2.27),
    PaperAnchor("f3-lenet-nccl-8", "Fig.3/Sec.V-A", "LeNet b16 NCCL speedup @8 GPUs",
                lambda c: _speedup(c, "lenet", 16, 8, NCCL), expected=2.77),
    PaperAnchor("f3-batch-32", "Sec.V-A", "LeNet g4 P2P epoch gain b16->b32",
                lambda c: (c.get("lenet", 16, 4, P2P).epoch_time
                           / c.get("lenet", 32, 4, P2P).epoch_time),
                expected=1.92, rel_tol=0.1),
    PaperAnchor("f3-batch-64", "Sec.V-A", "LeNet g4 P2P epoch gain b16->b64",
                lambda c: (c.get("lenet", 16, 4, P2P).epoch_time
                           / c.get("lenet", 64, 4, P2P).epoch_time),
                expected=3.67, rel_tol=0.12),
    PaperAnchor("f3-small-nets-p2p", "Sec.V-A",
                "P2P beats NCCL for LeNet & AlexNet @8 GPUs (margin > 0)",
                lambda c: min(
                    c.get(n, 16, 8, NCCL).epoch_time - c.get(n, 16, 8, P2P).epoch_time
                    for n in ("lenet", "alexnet")
                ), ordering=True),
    PaperAnchor("f3-googlenet-adv-8", "Sec.V-A",
                "NCCL advantage for GoogLeNet @8 GPUs",
                lambda c: _advantage(c, "googlenet", 8), expected=1.2, rel_tol=0.1),
    PaperAnchor("f3-inception-adv-8", "Sec.V-A",
                "NCCL advantage for Inception-v3 @8 GPUs",
                lambda c: _advantage(c, "inception-v3", 8), expected=1.25,
                rel_tol=0.12),
    PaperAnchor("t2-lenet-16", "Table II", "LeNet b16 single-GPU NCCL overhead (%)",
                lambda c: _t2_overhead(c, "lenet", 16), expected=21.8, rel_tol=0.25),
    PaperAnchor("t2-lenet-rising", "Table II",
                "LeNet NCCL overhead rises with batch (b64 - b16 > 0)",
                lambda c: _t2_overhead(c, "lenet", 64) - _t2_overhead(c, "lenet", 16),
                ordering=True),
    PaperAnchor("f4-inception-linear", "Sec.V-C",
                "Inception-v3 FP+BP per-epoch ratio 2->8 GPUs (ideal 4.0)",
                lambda c: (c.get("inception-v3", 16, 2, NCCL).epoch_fp_bp_time
                           / c.get("inception-v3", 16, 8, NCCL).epoch_fp_bp_time),
                expected=4.0, rel_tol=0.15),
    PaperAnchor("f4-lenet-nonlinear", "Sec.V-C",
                "LeNet FP+BP sub-linearity margin (3.5 - ratio > 0)",
                lambda c: 3.5 - (c.get("lenet", 16, 2, NCCL).epoch_fp_bp_time
                                 / c.get("lenet", 16, 8, NCCL).epoch_fp_bp_time),
                ordering=True),
    PaperAnchor("t4-alexnet-64", "Table IV/Sec.V-D",
                "AlexNet b64 GPU0 training memory (GB)",
                lambda c: _memory_gb("alexnet", 64), expected=2.37, rel_tol=0.08),
    PaperAnchor("t4-inception-64", "Table IV/Sec.V-D",
                "Inception-v3 b64 GPU0 training memory (GB)",
                lambda c: _memory_gb("inception-v3", 64), expected=11.0,
                rel_tol=0.15),
    PaperAnchor("f5-weak-lenet", "Fig.5/Sec.V-E",
                "LeNet weak-over-strong speedup margin @8 GPUs (> 0)",
                lambda c: (_speedup(c, "lenet", 16, 8, NCCL, ScalingMode.WEAK)
                           - _speedup(c, "lenet", 16, 8, NCCL)),
                ordering=True),
    PaperAnchor("f5-weak-bounded", "Sec.V-E",
                "Inception weak/strong gain below 17% (0.17 - gain > 0)",
                lambda c: 0.17 - (
                    _speedup(c, "inception-v3", 16, 8, NCCL, ScalingMode.WEAK)
                    / _speedup(c, "inception-v3", 16, 8, NCCL) - 1.0
                ),
                ordering=True),
)


#: Every (network, batch, gpus, method, scaling) the default anchors read.
_ANCHOR_CELLS: Tuple[Tuple[str, int, int, CommMethodName, ScalingMode], ...] = (
    tuple(
        ("lenet", 16, g, m, ScalingMode.STRONG)
        for m in (P2P, NCCL) for g in (1, 2, 4, 8)
    )
    + (
        ("lenet", 32, 4, P2P, ScalingMode.STRONG),
        ("lenet", 64, 4, P2P, ScalingMode.STRONG),
        ("lenet", 64, 1, P2P, ScalingMode.STRONG),
        ("lenet", 64, 1, NCCL, ScalingMode.STRONG),
        ("alexnet", 16, 8, P2P, ScalingMode.STRONG),
        ("alexnet", 16, 8, NCCL, ScalingMode.STRONG),
        ("googlenet", 16, 8, P2P, ScalingMode.STRONG),
        ("googlenet", 16, 8, NCCL, ScalingMode.STRONG),
        ("inception-v3", 16, 8, P2P, ScalingMode.STRONG),
        ("inception-v3", 16, 8, NCCL, ScalingMode.STRONG),
        ("inception-v3", 16, 1, NCCL, ScalingMode.STRONG),
        ("inception-v3", 16, 2, NCCL, ScalingMode.STRONG),
        ("lenet", 16, 1, NCCL, ScalingMode.WEAK),
        ("lenet", 16, 8, NCCL, ScalingMode.WEAK),
        ("inception-v3", 16, 1, NCCL, ScalingMode.WEAK),
        ("inception-v3", 16, 8, NCCL, ScalingMode.WEAK),
    )
)


def anchor_sweep_spec() -> SweepSpec:
    """All simulations the default anchor set reads, as one spec.

    Running this spec up front lets a parallel runner fan the anchor
    workload out before the (serial, memo-hitting) ``measure`` lambdas
    evaluate.
    """
    return SweepSpec.explicit(
        "anchors",
        [
            SweepPoint(config=TrainingConfig(
                network=net, batch_size=batch, num_gpus=gpus,
                comm_method=method, scaling=scaling,
            ))
            for net, batch, gpus, method, scaling in _ANCHOR_CELLS
        ],
    )


def validate(
    cache: Optional[SweepRunner] = None,
    anchors: Sequence[PaperAnchor] = PAPER_ANCHORS,
    prewarm: bool = True,
) -> ValidationReport:
    """Evaluate every anchor; OOM or model errors propagate loudly.

    With ``prewarm`` (the default) the full default-anchor sweep is
    executed through the runner first, so ``--jobs N`` parallelism and the
    persistent cache both apply; the measures then answer from the memo.
    """
    cache = cache if cache is not None else SweepRunner()
    if prewarm and anchors is PAPER_ANCHORS:
        cache.run(anchor_sweep_spec())
    verdicts = [
        AnchorVerdict(anchor=a, measured=a.measure(cache)) for a in anchors
    ]
    return ValidationReport(verdicts=tuple(verdicts))


def render(report: ValidationReport) -> str:
    rows = []
    for v in report.verdicts:
        a = v.anchor
        expected = "ordering" if a.ordering else f"{a.expected:g} ±{a.rel_tol:.0%}"
        rows.append(
            (
                a.anchor_id,
                a.source,
                a.description,
                expected,
                f"{v.measured:.3f}",
                "PASS" if v.passed else "FAIL",
            )
        )
    table = render_table(
        ["Anchor", "Source", "Claim", "Expected", "Measured", "Verdict"],
        rows,
        title="Paper-anchor validation",
        align_right_from=3,
    )
    return table + f"\n{report.passed}/{report.total} anchors passed\n"
