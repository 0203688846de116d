"""Extension study: scaling beyond one DGX-1 over InfiniBand.

The paper stops at eight GPUs in one chassis and cites multi-node work
(Awan et al.) as the next frontier.  This study extends the simulation to
a cluster of DGX-1s on EDR InfiniBand: NCCL's rings must cross the
12.5 GB/s IB lanes instead of staying on 25-50 GB/s NVLink, so per-GPU
communication cost jumps at the node boundary -- the crossover every
multi-node deployment has to engineer around.

The study routes through the rail-aware fabric and hierarchical
collectives (``fabric`` selects a ``TrainingConfig.cluster_fabric``; see
docs/SCALING.md).  For the full 8-to-1024-GPU grid use the ``cluster``
experiment (:mod:`repro.experiments.cluster_scaling`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.experiments.tables import render_table
from repro.runner import SweepPoint, SweepRunner, SweepSpec

#: Default cluster-tier knobs.
DEFAULT_FABRIC = "single-switch"
DEFAULT_COLLECTIVE = "hierarchical-ring"


@dataclass(frozen=True)
class MultiNodeRow:
    """Epoch time and scaling efficiency at one node count."""

    network: str
    nodes: int
    num_gpus: int
    epoch_time: float
    images_per_second: float
    wu_per_iteration: float

    @property
    def label(self) -> str:
        return f"{self.nodes}x8"


@dataclass(frozen=True)
class MultiNodeStudyResult:
    """The DGX-1 cluster scaling study over InfiniBand."""

    batch_size: int
    rows: Tuple[MultiNodeRow, ...]

    def row(self, network: str, nodes: int) -> MultiNodeRow:
        for r in self.rows:
            if (r.network, r.nodes) == (network, nodes):
                return r
        raise KeyError((network, nodes))

    def scaling(self, network: str, nodes: int) -> float:
        """Throughput speedup over the single-node run."""
        base = self.row(network, 1)
        return self.row(network, nodes).images_per_second / base.images_per_second


def _point_config(network: str, batch_size: int, nodes: int,
                  fabric: str) -> TrainingConfig:
    return TrainingConfig(
        network, batch_size, 8 * nodes,
        comm_method=CommMethodName.NCCL, cluster_nodes=nodes,
        cluster_fabric=fabric, cluster_collective=DEFAULT_COLLECTIVE,
        cluster_fast_path="auto",
    )


def sweep_spec(
    networks: Tuple[str, ...] = ("resnet", "inception-v3"),
    node_counts: Tuple[int, ...] = (1, 2, 4),
    batch_size: int = 32,
    fabric: str = DEFAULT_FABRIC,
) -> SweepSpec:
    """Explicit points: GPU count is derived (8 per chassis) per node count."""
    return SweepSpec.explicit(
        "multinode",
        [
            SweepPoint.make(
                _point_config(network, batch_size, nodes, fabric),
                tags={"nodes": nodes},
            )
            for network in networks
            for nodes in node_counts
        ],
    )


def run(
    networks: Tuple[str, ...] = ("resnet", "inception-v3"),
    node_counts: Tuple[int, ...] = (1, 2, 4),
    batch_size: int = 32,
    sim: Optional[SimulationConfig] = None,
    runner: Optional[SweepRunner] = None,
    fabric: str = DEFAULT_FABRIC,
) -> MultiNodeStudyResult:
    if runner is None:
        runner = SweepRunner(sim=sim or SimulationConfig())
    results = runner.run(sweep_spec(networks, node_counts, batch_size, fabric))
    rows = tuple(
        MultiNodeRow(
            network=o.point.config.network,
            nodes=o.point.config.cluster_nodes,
            num_gpus=o.point.config.num_gpus,
            epoch_time=o.result.epoch_time,
            images_per_second=o.result.images_per_second,
            wu_per_iteration=o.result.stages.wu,
        )
        for o in results
    )
    return MultiNodeStudyResult(batch_size=batch_size, rows=rows)


def render(result: MultiNodeStudyResult) -> str:
    return render_table(
        ["Network", "Nodes", "GPUs", "Epoch (s)", "img/s",
         "Scaling vs 1 node", "Exposed WU/iter"],
        [
            (
                r.network,
                r.label,
                r.num_gpus,
                f"{r.epoch_time:.2f}",
                f"{r.images_per_second:.0f}",
                f"x{result.scaling(r.network, r.nodes):.2f}",
                f"{r.wu_per_iteration * 1e3:.2f} ms",
            )
            for r in result.rows
        ],
        title=(
            f"Multi-node scaling over EDR InfiniBand rails "
            f"(hierarchical NCCL, batch {result.batch_size}/GPU, "
            f"strong scaling)"
        ),
        max_col_width=24,
    )
