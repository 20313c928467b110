"""The repository benchmark: archive→profile at scale, the paper grid, and a loaded job service.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md`` for the workloads,
the metrics and what each per-layer metric is expected to move.
"""
