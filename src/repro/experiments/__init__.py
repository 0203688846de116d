"""Regeneration of every table and figure in the paper's evaluation.

Each module exposes ``sweep_spec(...)`` describing its simulations as a
declarative :class:`~repro.runner.SweepSpec` and ``run(...)`` returning a
structured result, plus ``render(result)`` producing the text table or
series; the CLI (``repro-experiments``) drives them.  All sweeps execute
through a shared :class:`~repro.runner.SweepRunner`, which deduplicates
training simulations across experiments, optionally fans them out over a
process pool (``--jobs``), and persists results on disk (``--cache-dir``).

===========  =====================================================
Experiment   Paper artifact
===========  =====================================================
``table1``   Table I  -- network descriptions
``fig2``     Figure 2 -- DGX-1 interconnect topology
``fig3``     Figure 3 -- training time per epoch (P2P vs NCCL)
``table2``   Table II -- NCCL overhead on a single GPU
``fig4``     Figure 4 -- FP+BP vs WU breakdown
``table3``   Table III-- cudaStreamSynchronize overhead (LeNet)
``table4``   Table IV -- GPU memory usage
``fig5``     Figure 5 -- weak scaling
``ablate``   DESIGN.md ablations (overlap, fabric, tensor cores)
``nccl``     extension -- algorithm/protocol ablation + crossover
``faults``   extension -- degradation sensitivity under faults
``strategies``  extension -- the training-strategy matrix
``cluster``  extension -- hierarchical collectives to 1024 GPUs
``cluster-faults``  extension -- rail/node faults on the cluster tier
===========  =====================================================
"""

from repro.runner import SweepRunner, SweepSpec

__all__ = ["SweepRunner", "SweepSpec"]
