"""End-to-end benchmark of the repro stack: query replay, updates, page service.

Run from the repository root::

    python3 perfbench/run.py --workload sim_query --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
