"""Tests of the benchmark itself: contract, miniature runs, tripping checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.common import CheckFailed, use_source_tree  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

use_source_tree()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, trace: int, *, cwd: Path = ROOT, seconds: str = "0.6",
              scale: str = "0.02") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json and the metric lists agree, and meet the contract
# ----------------------------------------------------------------------


def test_benchmark_json_mirrors_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == [name for name, _ in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(row) for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(r) for r in PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= spec["run_seconds"] <= 60
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 20) < 3420


# ----------------------------------------------------------------------
# Miniature runs emit every metric with its unit
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
@pytest.mark.parametrize("trace", [0, 1])
def test_miniature_run_emits_every_metric(workload, trace):
    done = run_bench(workload, trace, scale="0.05" if workload == "serve_mixed" else "0.02")
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {row[0]: row[1] for row in (PER_LAYER if trace else END_TO_END)}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    assert "# env " in report and "# inputs " in report
    if trace:
        assert "layer" in report and "trace.overhead" in report


def test_workload_specific_metrics_are_printed():
    named = {
        "sim_query": ["lru_queries_per_s", "asb_queries_per_s",
                      "lru_disk_reads_per_query", "asb_disk_reads_per_query", "error_rate"],
        "sim_update": ["ops_per_s", "disk_reads_per_op", "disk_writes_per_op",
                       "pages_per_1k_objects", "error_rate"],
    }
    for workload, names in named.items():
        done = run_bench(workload, 0)
        assert done.returncode == 0, done.stderr[-3000:]
        for name in names:
            assert re.search(rf"^{name}\s", done.stdout, re.M), (workload, name)


def test_without_the_program_it_fails_before_printing_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("sim_query", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# Each correctness check trips on a deliberately corrupted result
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_db():
    from perfbench import sim

    dataset, tree, _, _ = sim.build_database(3_000, repeats=1)
    return dataset, tree


def test_sim_query_checks_trip_on_a_dropped_hit(small_db):
    from perfbench import sim

    dataset, tree = small_db
    stream = sim.query_stream(dataset, seed=2, per_set=10)
    capacity = sim.capacity_for(tree)
    lru = sim.replay(tree, stream, "LRU", capacity, None)
    asb = sim.replay(tree, stream, "ASB", capacity, None)
    index = next(i for i, found in enumerate(asb.results) if found)
    reference = {index: sorted(lru.results[index])}
    sim.check_results(stream, lru, asb, reference)  # intact: passes
    asb.results[index] = asb.results[index][1:]
    with pytest.raises(CheckFailed, match="LRU and ASB results differ"):
        sim.check_results(stream, lru, asb, reference)
    lru.results[index] = list(asb.results[index])
    with pytest.raises(CheckFailed, match="DirectAccessor"):
        sim.check_results(stream, lru, asb, reference)


def test_sim_query_checks_trip_on_an_unaccounted_read(small_db):
    from perfbench import sim

    dataset, tree = small_db
    stream = sim.query_stream(dataset, seed=2, per_set=5)
    disk = tree.pagefile.disk
    original = disk.read

    def read_twice(page_id):
        original(page_id)
        return original(page_id)

    disk.read = read_twice
    try:
        with pytest.raises(CheckFailed, match="disk reads for"):
            sim.replay(tree, stream, "LRU", sim.capacity_for(tree), None)
    finally:
        del disk.read


def test_sim_update_checks_trip_on_damage(small_db):
    from repro import RStarTree
    from repro.storage.page import PageEntry

    from perfbench import sim

    dataset, _ = small_db
    tree = RStarTree()
    tree.bulk_load(dataset.items(), fill=0.7)
    queries, updates, stream = sim.update_inputs(dataset, seed=2, count=60)
    sim.update_round(tree, stream, sim.capacity_for(tree), None)
    live = sim.live_after(dataset, updates)
    windows = [(q.window, sim.brute_force(live, q.window)) for q in queries[:10]]
    sim.check_tree(tree, live, windows)  # intact: passes

    dropped = dict(live)
    dropped.pop(next(iter(dropped)))
    with pytest.raises(CheckFailed, match="objects, stream leaves"):
        sim.check_tree(tree, dropped, windows)
    window, expected = next((w, e) for w, e in windows if e)
    with pytest.raises(CheckFailed, match="brute force"):
        sim.check_tree(tree, live, [(window, expected[1:])])
    leaf = next(tree.pagefile.disk.peek(p) for p in tree.all_page_ids()
                if tree.pagefile.disk.peek(p).is_leaf)
    entry = leaf.entries[0]
    leaf.entries[0] = PageEntry(mbr=entry.mbr.translated(5.0, 5.0), payload=entry.payload)
    with pytest.raises(CheckFailed, match="validate"):
        sim.check_tree(tree, live, windows)


def test_serve_checks_trip_on_a_flipped_byte_and_a_lost_write():
    from repro.storage.serialization import encode_page

    from perfbench import serve, sim

    dataset, tree, _, _ = sim.build_database(2_000, repeats=1)
    pages = [(pid, encode_page(tree.pagefile.disk.peek(pid), serve.PAGE_SIZE))
             for pid in tree.all_page_ids()]
    leaves = [pid for pid in tree.all_page_ids() if tree.pagefile.disk.peek(pid).is_leaf]
    # The server is given one page with a flipped bit inside an entry: a
    # clear mantissa bit of entry 0's x_max, so the page still decodes.
    victim = leaves[0]
    offset = 8 + 16 + 1  # header, then x_min/y_min, then x_max's second byte
    blob = dict(pages)[victim]
    bit = next(b for b in range(8) if not blob[offset] >> b & 1)
    flipped = blob[:offset] + bytes([blob[offset] | 1 << bit]) + blob[offset + 1:]
    served = [(pid, flipped if pid == victim else blob) for pid, blob in pages]
    server = serve.ServerProcess(served, capacity=16, trace=False)
    try:
        state = serve.LoadState(
            sequences=[(tree.root_id, victim)],
            leaves=leaves[1:],
            acceptable={pid: {blob} for pid, blob in pages},
        )
        phases, stats, _ = asyncio.run(
            serve.drive(server.port, state, [(0.3, False)], server, None, 1))
        assert victim in state.bad_pages
        serve.check_stats(stats["buffer"])  # the identity itself holds
        # A committed image the server does not return: a lost write.
        state.committed[leaves[1]] = pages[0][1]
        with pytest.raises(CheckFailed, match="committed image"):
            asyncio.run(serve.drive(server.port, state, [], server, None, 1))
    finally:
        server.stop()
    broken = dict(stats["buffer"], hits=stats["buffer"]["hits"] - 1)
    with pytest.raises(CheckFailed, match="hits \\+ misses"):
        serve.check_stats(broken)


def _child_pids() -> set:
    """PIDs of this process's live and unreaped children (Linux only)."""
    pids = set()
    for thread_id in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{thread_id}/children") as listing:
            pids.update(int(pid) for pid in listing.read().split())
    return pids


@pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="needs Linux /proc")
def test_server_leaves_no_process_behind():
    from repro.storage.serialization import encode_page

    from perfbench import serve, sim

    _, tree, _, _ = sim.build_database(2_000, repeats=1)
    pages = [(pid, encode_page(tree.pagefile.disk.peek(pid), serve.PAGE_SIZE))
             for pid in tree.all_page_ids()]
    before = _child_pids()
    stopped = serve.ServerProcess(pages, capacity=16, trace=False)
    stopped.stop()
    killed = serve.ServerProcess(pages, capacity=16, trace=False)
    killed.kill()
    assert stopped.process.returncode == 0
    assert killed.process.returncode is not None
    assert _child_pids() == before
