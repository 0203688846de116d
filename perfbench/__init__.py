"""End-to-end and per-layer benchmark of the DGX-1 training simulator.

Run ``python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30
--trace 0`` from the repository root; ``perfbench/LAYERS.md`` explains the
workloads and which per-layer metric moves which end-to-end metric.
"""
