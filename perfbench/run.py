"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim_query --seed 1 --seconds 10 --trace 0

Every input is generated from ``--seed``.  The run measures for about
``--seconds`` seconds, checks the program's outputs, prints a report and,
as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced); ``--trace 1``
reports the per-layer metrics from a traced run that interleaves
untraced and traced rounds, plus the layer budget table.  A failed
correctness check prints ``"correct": false`` and exits with status 1.
Without a ``src/repro`` package beside ``perfbench/`` the run exits
with status 2 before printing any result.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import (  # noqa: E402
    CheckFailed,
    MissingSource,
    environment,
    use_source_tree,
)
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SPAN_DIR = Path(".perfbench")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w for w, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the inputs (the benchmark's own tests use a miniature run)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seconds must be positive and --scale in (0, 1]")
    return args


def run_workload(args: argparse.Namespace):
    if args.workload == "serve_mixed":
        from perfbench.serve import run_serve_mixed as runner
    else:
        from perfbench import sim

        runner = sim.run_sim_query if args.workload == "sim_query" else sim.run_sim_update
    return runner(args.seed, args.seconds, bool(args.trace), args.scale)


def result_line(outcome, trace: bool) -> str:
    names = [row[:2] for row in (PER_LAYER if trace else END_TO_END)]
    source = outcome.layer if trace else outcome.metrics
    metrics = {}
    for name, unit in names:
        value, measured_unit = source[name]
        assert measured_unit == unit, f"{name}: unit {measured_unit} != {unit}"
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": True,  # a failed check never reaches this line
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    })


def print_report(args, outcome, env: dict) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale:g}")
    print("# env " + json.dumps({**env, **outcome.env}, sort_keys=True))
    print("# inputs " + json.dumps(outcome.inputs, sort_keys=True))
    for name, value, unit in outcome.report:
        print(f"{name:<34}{value:>16.6g}  {unit}" if isinstance(value, float)
              else f"{name:<34}{value:>16}  {unit}")
    source = outcome.layer if args.trace else outcome.metrics
    for name, (value, unit) in source.items():
        print(f"{name:<34}{value:>16.6g}  {unit}")
    for line in outcome.budget:
        print(line)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_source_tree()
    except MissingSource as exc:
        print(f"perfbench: {exc}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = environment()
    gc.collect()
    try:
        outcome = run_workload(args)
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print_report(args, outcome, env)
    if outcome.tracer is not None:
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        outcome.tracer.write_spans(path)
        print(f"# spans: {len(outcome.tracer.spans)} written to {path}, "
              f"{outcome.tracer.spans_dropped} beyond the in-memory cap not kept")
    print(result_line(outcome, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
