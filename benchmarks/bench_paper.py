"""The paper's evidence as benches: every figure and every ablation.

One test per entry of :data:`~repro.experiments.figures.ALL_FIGURES` and
:data:`~repro.experiments.paper_ablations.ALL_ABLATIONS` regenerates its
table, prints it and writes it to ``benchmarks/results/``.  Run one by
its registry name::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper.py -k figure_13 \\
        --benchmark-disable

Figures 9 and 13 also guard the paper's shape claims.  Figure 14 has its
own test: its mixed stream runs twice the queries per phase, and its
asserts read the adaptation trace rather than the table.
"""

import pytest
from conftest import parse_gain, publish, run_once

from repro.experiments.figures import ALL_FIGURES, figure_14
from repro.experiments.paper_ablations import ALL_ABLATIONS


def _figure_09_shape(result) -> None:
    # Paper shape: the pure spatial strategy is not robust.  On database
    # 1's intensified window sets at the largest buffer, LRU-2 must beat
    # A (the paper's crossover): hot areas hold many objects, so their
    # pages are spatially small and A evicts exactly the hot pages.
    a_col = result.headers.index("A")
    k2_col = result.headers.index("LRU-2")
    int_rows = [
        row
        for row in result.rows
        if row[0] == "db1" and str(row[1]).startswith("INT-W")
        and row[2] == "4.7%"
    ]
    assert int_rows
    for row in int_rows:
        assert parse_gain(row[k2_col]) > parse_gain(row[a_col])


def _figure_13_shape(result) -> None:
    # The paper's central claims for A, SLRU, ASB and LRU-2 vs LRU.
    a_col = result.headers.index("A")
    asb_col = result.headers.index("ASB")
    a_gains = [parse_gain(row[a_col]) for row in result.rows]
    asb_gains = [parse_gain(row[asb_col]) for row in result.rows]
    # 1. The pure spatial policy is NOT robust: it loses >= 10 % somewhere.
    assert min(a_gains) < -0.10, "A should collapse on an intensified set"
    # 2. ASB IS robust: never meaningfully below LRU (noise margin 5 %).
    assert min(asb_gains) > -0.05, "ASB must stay at LRU level or above"
    # 3. ASB keeps real upside where the spatial criterion works.
    assert max(asb_gains) > 0.08


SHAPE_GUARDS = {"figure_09": _figure_09_shape, "figure_13": _figure_13_shape}

EXPERIMENTS = {
    name: job
    for name, job in (ALL_FIGURES | ALL_ABLATIONS).items()
    if name != "figure_14"
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper(benchmark, paper_setup, results_dir, name):
    result = run_once(benchmark, lambda: EXPERIMENTS[name](paper_setup))
    publish(result, results_dir)
    assert result.rows
    if name in SHAPE_GUARDS:
        SHAPE_GUARDS[name](result)


def test_figure_14(benchmark, paper_setup, results_dir):
    # Paper shape: the candidate set shrinks during the intensified phase,
    # grows during the uniform phase and settles in between during the
    # similar phase — all without human intervention.
    result = run_once(
        benchmark,
        lambda: figure_14(paper_setup, queries_per_phase=2 * paper_setup.n_queries),
    )
    publish(result, results_dir)
    trace = result.series["candidate_size"]
    assert trace
    # The knob must actually move: the stream's phases pull in different
    # directions.
    assert max(trace) > min(trace)
    # The adaptation rides on the buffer-event stream: every knob
    # movement corresponds to an `adapt` event with a monotone clock.
    adapt_clocks = result.series["adaptation_clock"]
    assert adapt_clocks, "ASB must emit adapt events over the mixed stream"
    assert adapt_clocks == sorted(adapt_clocks)
    # The rolling hit ratio is sampled once per query alongside the knob.
    hit_ratios = result.series["rolling_hit_ratio"]
    assert len(hit_ratios) == len(trace)
    assert all(0.0 <= ratio <= 1.0 for ratio in hit_ratios)
