"""The repository's end-to-end benchmark: four seeded workloads and a layer trace.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; ``README.md`` in this directory describes the
workloads, the metrics and the traced run.
"""
