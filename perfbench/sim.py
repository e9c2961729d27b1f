"""The two in-process workloads: the paper's query replay and spatial updates.

``sim_query`` replays one stream that mixes all five query families of the
paper twice per round, each time into a fresh buffer of 4.7 % of the
tree's pages: once under LRU, once under ASB.  ``sim_update`` interleaves
window queries with inserts, deletes and moves, run through an ASB buffer
with ``index.via(buffer)``, on a freshly bulk-loaded tree each round.
Both run on ``SimulatedDisk``; see README.md for why ``sim_update`` cannot
use ``DurableDisk`` yet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from perfbench.common import (
    check,
    digest,
    median,
    peak_rss_mb,
    percentile,
    rotating_cpus,
    settle,
)
from perfbench.metrics import PER_LAYER
from perfbench.trace import Tracer, budget_rows, layer_self_ns

_now = time.perf_counter_ns

#: One point and one window set per query family (Section 3.1 names).
QUERY_SETS = (
    "U-P", "ID-P", "S-P", "INT-P", "IND-P",
    "U-W-333", "ID-W", "S-W-333", "INT-W-333", "IND-W-333",
)
#: The paper's largest relative buffer size.
BUFFER_FRACTION = 0.047
SETUP_REPEATS = 3
PLACES = 1_500
#: The database -- dataset and places file -- is fixed, as the paper's is;
#: ``--seed`` draws the query, update and session streams run against it.
#: Holding it fixed keeps seed-to-seed spread to what the streams cause.
DATABASE_SEED = 1
PLACES_SEED = 42


@dataclass
class Outcome:
    """What a workload hands back to ``run.py`` for printing."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    report: list = field(default_factory=list)  # (name, value, unit) lines
    inputs: dict = field(default_factory=dict)  # input name -> digest
    attempted: int = 0
    failed: int = 0
    budget: list = field(default_factory=list)  # printed budget lines
    tracer: Tracer | None = None
    env: dict = field(default_factory=dict)
    #: Every per-layer metric, zero until the traced run measures it.
    layer: dict = field(
        default_factory=lambda: {name: (0.0, unit) for name, unit, _ in PER_LAYER}
    )


# ----------------------------------------------------------------------
# Set-up: dataset generation and index build, repeated for a median
# ----------------------------------------------------------------------


def build_database(objects: int, repeats: int = SETUP_REPEATS):
    """Generate the dataset and STR-bulk-load the R*-tree ``repeats`` times.

    Returns the last (dataset, tree) and the per-repeat phase timings.
    """
    from repro import RStarTree, us_mainland_like

    generate_s, build_s = [], []
    dataset = tree = None
    with rotating_cpus() as next_cpu:
        for _ in range(repeats):
            dataset = tree = None
            next_cpu()
            start = _now()
            dataset = us_mainland_like(n_objects=objects, seed=DATABASE_SEED)
            mid = _now()
            tree = RStarTree(max_dir_entries=51, max_data_entries=42)
            tree.bulk_load(dataset.items(), fill=0.7)
            generate_s.append((mid - start) / 1e9)
            build_s.append((_now() - mid) / 1e9)
    return dataset, tree, generate_s, build_s


def dataset_digest(dataset) -> str:
    return digest(rect.as_tuple() for rect in dataset.rects)


def capacity_for(tree) -> int:
    return max(8, round(BUFFER_FRACTION * len(tree.all_page_ids())))


def codec_costs_us(pages: list, page_size: int = 4096) -> tuple[float, float]:
    """Per-call ``encode_page`` / ``decode_page`` cost over ``pages`` (µs)."""
    from repro.storage.serialization import decode_page, encode_page

    blobs = [encode_page(page, page_size) for page in pages]
    start = _now()
    for page in pages:
        encode_page(page, page_size)
    mid = _now()
    for page, blob in zip(pages, blobs):
        decode_page(blob, page.page_id)
    end = _now()
    return (mid - start) / 1e3 / len(pages), (end - mid) / 1e3 / len(pages)


def sample_pages(tree, count: int = 400) -> list:
    ids = tree.all_page_ids()
    step = max(1, len(ids) // count)
    return [tree.pagefile.disk.peek(pid) for pid in ids[::step]]


def setup_metrics(outcome: Outcome, generate_s, build_s, spawn_s=None) -> None:
    """``setup_s`` is the median over repeats of all set-up phases summed."""
    phases = [generate_s, build_s] + ([spawn_s] if spawn_s else [])
    outcome.metrics["setup_s"] = (median([sum(parts) for parts in zip(*phases)]), "s")
    outcome.layer["datasets.generate_s"] = (median(generate_s), "s")
    outcome.layer["sam.bulk_load_s"] = (median(build_s), "s")


# ----------------------------------------------------------------------
# sim_query
# ----------------------------------------------------------------------


@dataclass
class Replay:
    policy: str
    seconds: float
    latencies_ns: list
    results: list
    requests: int
    hits: int
    misses: int
    evictions: int
    writebacks: int
    candidate_sizes: list
    overflow_hits: int


def replay(tree, stream, policy_name: str, capacity: int, tracer: Tracer | None) -> Replay:
    """One replay of ``stream`` into a fresh buffer under ``policy_name``."""
    from repro import ASB, LRU, BufferSystem

    disk = tree.pagefile.disk
    traced_asb = tracer is not None and policy_name == "ASB"
    if policy_name == "ASB":
        policy = ASB(record_trace=traced_asb)
    else:
        policy = LRU()
    if traced_asb:
        # Wrapped before the buffer is built.  Only ASB's victim choice is
        # timed; LRU's replay keeps its policy object untouched.
        tracer.install(policy, "select_victim", "policies.select_victim")
    system = BufferSystem.build(policy=policy, capacity=capacity, disk=disk)
    buffer = system.buffer
    if tracer is not None:
        tracer.label = policy_name.lower()
        tracer.install(buffer, "fetch", "buffer.fetch")
        tracer.install(disk, "read", "storage.read")
        tracer.install(tree, "window_query", "sam.search")
        tracer.install(tree, "point_query", "sam.search")
    reads_before = disk.stats.reads
    latencies: list[int] = []
    results: list = []
    candidate_sizes: list[int] = []
    scope = buffer.query_scope
    record = latencies.append
    keep = results.append
    try:
        start = _now()
        if tracer is None:
            for query in stream:
                began = _now()
                with scope():
                    found = query.run(tree, buffer)
                record(_now() - began)
                keep(found)
        else:
            begin, end = tracer.begin, tracer.end
            for query in stream:
                began = _now()
                opened = begin("query")
                with scope():
                    found = query.run(tree, buffer)
                end(opened)
                record(_now() - began)
                keep(found)
                if traced_asb:
                    candidate_sizes.append(policy.candidate_size)
        seconds = (_now() - start) / 1e9
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = buffer.stats
    check(
        stats.hits + stats.misses == stats.requests,
        f"{policy_name}: hits {stats.hits} + misses {stats.misses} "
        f"!= requests {stats.requests}",
    )
    reads = disk.stats.reads - reads_before
    check(
        reads == stats.misses,
        f"{policy_name}: {reads} disk reads for {stats.misses} misses",
    )
    return Replay(
        policy=policy_name,
        seconds=seconds,
        latencies_ns=latencies,
        results=results,
        requests=stats.requests,
        hits=stats.hits,
        misses=stats.misses,
        evictions=stats.evictions,
        writebacks=stats.writebacks,
        candidate_sizes=candidate_sizes,
        overflow_hits=len(policy.trace) if traced_asb else 0,
    )


def check_results(stream, lru: Replay, asb: Replay, reference: dict) -> None:
    """LRU and ASB agree on every query; a sample equals unbuffered reads."""
    check(len(lru.results) == len(stream) == len(asb.results), "a replay lost queries")
    differ = next((i for i, pair in enumerate(zip(lru.results, asb.results))
                   if pair[0] != pair[1]), None)
    check(differ is None, f"query {differ}: LRU and ASB results differ")
    wrong = next((i for i, expected in reference.items()
                  if sorted(lru.results[i]) != expected), None)
    check(wrong is None, f"query {wrong}: buffered result differs from DirectAccessor")


def places_of(dataset) -> list:
    from repro.datasets.places import synthetic_places

    return synthetic_places(dataset, count=PLACES, seed=PLACES_SEED)


def query_stream(dataset, seed: int, per_set: int) -> list:
    from repro.workloads.sets import make_query_set

    places = places_of(dataset)
    return [
        query
        for name in QUERY_SETS
        for query in make_query_set(name, dataset, places, per_set, seed)
    ]


def run_sim_query(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Outcome:
    from repro import DirectAccessor

    objects = max(2_000, int(200_000 * scale))
    per_set = max(5, int(400 * scale))
    outcome = Outcome()
    dataset, tree, generate_s, build_s = build_database(objects)
    setup_metrics(outcome, generate_s, build_s)
    stream = query_stream(dataset, seed, per_set)
    outcome.inputs = {
        "dataset": dataset_digest(dataset),
        "query_stream": digest(stream),
    }
    capacity = capacity_for(tree)
    pages = len(tree.all_page_ids())

    direct = DirectAccessor(tree.pagefile)
    reference = {
        index: sorted(stream[index].run(tree, direct))
        for index in range(0, len(stream), 20)
    }

    rounds: list[tuple[Replay, Replay]] = []
    traced_rounds: list[tuple[Replay, Replay]] = []
    untraced_round_s: list[float] = []
    traced_round_s: list[float] = []
    tracer = Tracer() if trace else None
    first: list | None = None
    deadline = time.monotonic() + seconds
    round_index = 0
    with rotating_cpus() as next_cpu:
        while True:
            traced = trace and round_index % 2 == 1
            active = tracer if traced else None
            next_cpu()
            settle()
            lru = replay(tree, stream, "LRU", capacity, active)
            asb = replay(tree, stream, "ASB", capacity, active)
            check_results(stream, lru, asb, reference)
            observed = [(r.results, r.misses, r.requests) for r in (lru, asb)]
            if first is None:
                first = observed
            for policy, now_, then in zip(("LRU", "ASB"), observed, first):
                check(now_[0] == then[0], f"{policy}: results changed between rounds")
                check(now_[1:] == then[1:], f"{policy}: disk reads changed between rounds")
            lru.results = asb.results = None  # type: ignore[assignment]
            if traced:
                traced_rounds.append((lru, asb))
                traced_round_s.append(lru.seconds + asb.seconds)
            else:
                rounds.append((lru, asb))
                untraced_round_s.append(lru.seconds + asb.seconds)
            round_index += 1
            if time.monotonic() >= deadline and (not trace or traced_rounds):
                break

    queries = len(stream)
    outcome.attempted = queries * 2 * round_index
    lru0, asb0 = rounds[0]
    latencies = [ns for lru, asb in rounds for ns in lru.latencies_ns + asb.latencies_ns]
    m = outcome.metrics
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    m["ops_per_s"] = (median([2 * queries / s for s in untraced_round_s]), "1/s")
    m["op_p50_ms"] = (percentile(latencies, 0.50) / 1e6, "ms")
    m["op_p99_ms"] = (percentile(latencies, 0.99) / 1e6, "ms")
    m["disk_reads_per_op"] = ((lru0.misses + asb0.misses) / (2 * queries), "pages")
    m["pages_per_1k_objects"] = (pages / (tree.entry_count / 1000), "pages")

    lru_rate = median([queries / lru.seconds for lru, _ in rounds])
    asb_rate = median([queries / asb.seconds for _, asb in rounds])
    lru_reads = lru0.misses / queries
    asb_reads = asb0.misses / queries
    outcome.report += [
        ("objects", tree.entry_count, "objects"),
        ("tree_pages", pages, "pages"),
        ("buffer_frames", capacity, f"frames ({BUFFER_FRACTION:.1%} of pages)"),
        ("queries_per_replay", queries, "queries"),
        ("rounds", len(rounds), "LRU+ASB replay pairs (untraced)"),
        ("latency_samples", len(latencies), "queries"),
        ("lru_queries_per_s", lru_rate, "queries/s"),
        ("asb_queries_per_s", asb_rate, "queries/s"),
        ("asb_over_lru_rate", asb_rate / lru_rate, "ratio"),
        ("lru_disk_reads_per_query", lru_reads, "reads (exact)"),
        ("asb_disk_reads_per_query", asb_reads, "reads (exact)"),
        ("asb_read_saving_vs_lru", 1 - asb_reads / lru_reads, "share of LRU reads"),
        ("error_rate", outcome.failed / outcome.attempted,
         f"failed / {outcome.attempted} attempted"),
    ]
    if trace:
        fill_sim_query_layers(outcome, tracer, traced_rounds, traced_round_s,
                              untraced_round_s, tree)
    return outcome


def fill_sim_query_layers(outcome, tracer, traced_rounds, traced_round_s,
                          untraced_round_s, tree) -> None:
    layer = outcome.layer
    n = len(traced_rounds)
    lru, asb = traced_rounds[-1]

    def per_round(table, name, label=None):
        return tracer.total(table, name, label) / n

    layer["sam.search.calls"] = (per_round(tracer.calls, "sam.search"), "count")
    layer["buffer.fetch.calls"] = (per_round(tracer.calls, "buffer.fetch"), "count")
    layer["buffer.fetch.busy_s"] = (per_round(tracer.busy_ns, "buffer.fetch") / 1e9, "s")
    layer["storage.read.calls"] = (per_round(tracer.calls, "storage.read"), "count")
    layer["storage.read.busy_s"] = (per_round(tracer.busy_ns, "storage.read") / 1e9, "s")
    layer["policies.select_victim.calls"] = (
        per_round(tracer.calls, "policies.select_victim"), "count")
    layer["policies.select_victim.busy_s"] = (
        per_round(tracer.busy_ns, "policies.select_victim") / 1e9, "s")
    requests = lru.requests + asb.requests
    layer["buffer.hit_ratio"] = ((lru.hits + asb.hits) / requests, "ratio")
    layer["buffer.evictions"] = (lru.evictions + asb.evictions, "count")
    layer["buffer.writebacks"] = (lru.writebacks + asb.writebacks, "count")
    layer["policies.asb.candidate_size_mean"] = (
        sum(asb.candidate_sizes) / len(asb.candidate_sizes), "pages")
    layer["policies.asb.overflow_hits"] = (asb.overflow_hits, "count")
    layer["policies.asb.overflow_hit_ratio"] = (asb.overflow_hits / asb.hits, "ratio")
    encode_us, decode_us = codec_costs_us(sample_pages(tree))
    layer["storage.encode_page_us"] = (encode_us, "us")
    layer["storage.decode_page_us"] = (decode_us, "us")
    overhead = median(traced_round_s) / median(untraced_round_s) - 1
    layer["trace.overhead"] = (overhead, "ratio")
    fill_budget(outcome, layer_self_ns(tracer),
                {label: layer_self_ns(tracer, label) for label in ("lru", "asb")})
    outcome.budget.append(
        f"suffix split per replay: sam.search.self_s.lru="
        f"{per_round(tracer.self_ns, 'sam.search', 'lru') / 1e9:.4f} "
        f"sam.search.self_s.asb={per_round(tracer.self_ns, 'sam.search', 'asb') / 1e9:.4f} "
        f"buffer.fetch.busy_s.lru={per_round(tracer.busy_ns, 'buffer.fetch', 'lru') / 1e9:.4f} "
        f"buffer.fetch.busy_s.asb={per_round(tracer.busy_ns, 'buffer.fetch', 'asb') / 1e9:.4f}"
    )
    outcome.budget.append(
        f"bases: buffer.hit_ratio = {lru.hits + asb.hits} hits / {requests} requests; "
        f"policies.asb.overflow_hit_ratio = {asb.overflow_hits} overflow hits / "
        f"{asb.hits} ASB hits; candidate_size_mean over {len(asb.candidate_sizes)} "
        f"queries; times are per traced round of {n}; trace.overhead = "
        f"median traced round {median(traced_round_s):.4f}s / untraced "
        f"{median(untraced_round_s):.4f}s - 1"
    )
    outcome.tracer = tracer


def fill_budget(outcome, layer_ns: dict, splits: dict | None = None) -> None:
    """Budget table lines and the ``budget.<layer>.share`` metrics."""
    outcome.budget.append(f"{'layer':<24}{'self_s':>12}{'share':>9}")
    for layer_name, self_s, share in budget_rows(layer_ns):
        outcome.budget.append(f"{layer_name:<24}{self_s:>12.4f}{share:>9.1%}")
        key = f"budget.{layer_name.rsplit('.', 1)[-1]}.share"
        if key in outcome.layer:
            outcome.layer[key] = (share, "ratio")
    for label, split in (splits or {}).items():
        parts = ", ".join(f"{name} {share:.1%}" for name, _, share in budget_rows(split))
        outcome.budget.append(f"  .{label}: {parts}")


# ----------------------------------------------------------------------
# sim_update
# ----------------------------------------------------------------------


def update_inputs(dataset, seed: int, count: int):
    """Window queries interleaved with a 40/30/30 insert/delete/move stream."""
    from repro.workloads.sets import make_query_set
    from repro.workloads.updates import interleave, update_stream

    places = places_of(dataset)
    queries = list(make_query_set("INT-W-333", dataset, places, count, seed))
    updates = update_stream(dataset, count, seed=seed)
    return queries, updates, interleave(queries, updates, seed=seed)


def live_after(dataset, updates) -> dict:
    """Object id -> MBR after the stream, replayed without any index."""
    from repro.workloads.updates import Delete, Insert, Move

    live = dict(enumerate(dataset.rects))
    for op in updates:
        if isinstance(op, Insert):
            live[op.payload] = op.mbr
        elif isinstance(op, Delete):
            del live[op.payload]
        elif isinstance(op, Move):
            live[op.payload] = op.new_mbr
    return live


def brute_force(live: dict, window) -> list:
    return sorted(pid for pid, rect in live.items() if rect.intersects(window))


@dataclass
class UpdateRound:
    seconds: float
    latencies_ns: list
    reads: int
    writes: int
    pages: int
    entries: int
    stats: dict
    candidate_sizes: list
    overflow_hits: int


OP_SPANS = {"Insert": "sam.insert", "Delete": "sam.delete", "Move": "sam.move"}


def update_round(tree, stream, capacity: int, tracer: Tracer | None) -> UpdateRound:
    """Apply the stream through a fresh ASB buffer; flush dirty pages."""
    from repro import ASB, BufferSystem
    from repro.workloads.queries import Query

    disk = tree.pagefile.disk
    policy = ASB(record_trace=tracer is not None)
    if tracer is not None:
        tracer.install(policy, "select_victim", "policies.select_victim")
    system = BufferSystem.build(policy=policy, capacity=capacity, disk=disk)
    buffer = system.buffer
    if tracer is not None:
        tracer.install(buffer, "fetch", "buffer.fetch")
        tracer.install(buffer, "flush", "buffer.flush")
        tracer.install(disk, "read", "storage.read")
        tracer.install(disk, "write", "storage.write")
        tracer.install(tree, "window_query", "sam.search")
        tracer.install(tree.pagefile, "allocate", "sam.allocate")
        tracer.install(tree.pagefile, "free", "sam.free")
    reads0, writes0 = disk.stats.reads, disk.stats.writes
    latencies: list[int] = []
    candidate_sizes: list[int] = []
    record = latencies.append
    scope = buffer.query_scope
    try:
        start = _now()
        with tree.via(buffer):
            for item in stream:
                began = _now()
                opened = tracer.begin("op") if tracer is not None else None
                with scope():
                    if isinstance(item, Query):
                        item.run(tree)
                    elif tracer is None:
                        item.apply(tree)
                    else:
                        with tracer.span(OP_SPANS[type(item).__name__]):
                            item.apply(tree)
                if opened is not None:
                    tracer.end(opened)
                    candidate_sizes.append(policy.candidate_size)
                record(_now() - began)
        buffer.flush()
        seconds = (_now() - start) / 1e9
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = buffer.stats.snapshot()
    reads = disk.stats.reads - reads0
    check(stats["hits"] + stats["misses"] == stats["requests"],
          f"hits + misses != requests: {stats}")
    check(reads == stats["misses"], f"{reads} disk reads for {stats['misses']} misses")
    return UpdateRound(
        seconds=seconds,
        latencies_ns=latencies,
        reads=reads,
        writes=disk.stats.writes - writes0,
        pages=len(tree.all_page_ids()),
        entries=tree.entry_count,
        stats=stats,
        candidate_sizes=candidate_sizes,
        overflow_hits=len(policy.trace),
    )


def check_tree(tree, live: dict, windows: list) -> None:
    """The tree is valid and holds exactly the live objects the stream left."""
    try:
        tree.validate()
    except AssertionError as exc:
        check(False, f"tree.validate() failed after the stream: {exc}")
    check(tree.entry_count == len(live),
          f"tree holds {tree.entry_count} objects, stream leaves {len(live)}")
    for window, expected in windows:
        got = sorted(tree.window_query(window))
        check(got == expected, f"window {window!r}: {len(got)} results, "
              f"brute force finds {len(expected)}")


def run_sim_update(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Outcome:
    from repro import RStarTree

    objects = max(2_000, int(100_000 * scale))
    count = max(50, int(3_000 * scale))
    outcome = Outcome()
    dataset, tree, generate_s, build_s = build_database(objects)
    setup_metrics(outcome, generate_s, build_s)
    queries, updates, stream = update_inputs(dataset, seed, count)
    outcome.inputs = {
        "dataset": dataset_digest(dataset),
        "query_stream": digest(queries),
        "update_stream": digest(updates),
    }
    live = live_after(dataset, updates)
    windows = [(q.window, brute_force(live, q.window)) for q in queries[:: max(1, count // 40)]]
    capacity = capacity_for(tree)
    initial_pages = len(tree.all_page_ids())

    def fresh_tree():
        fresh = RStarTree(max_dir_entries=51, max_data_entries=42)
        fresh.bulk_load(dataset.items(), fill=0.7)
        return fresh

    tracer = Tracer() if trace else None
    rounds: list[UpdateRound] = []
    traced: list[UpdateRound] = []
    deadline = time.monotonic() + seconds
    round_index = 0
    with rotating_cpus() as next_cpu:
        while True:
            is_traced = trace and round_index % 2 == 1
            next_cpu()
            if round_index:
                tree = None
                tree = fresh_tree()
            settle()
            result = update_round(tree, stream, capacity, tracer if is_traced else None)
            check_tree(tree, live, windows)
            if rounds:
                base = rounds[0]
                check((result.reads, result.writes, result.pages)
                      == (base.reads, base.writes, base.pages),
                      "disk reads/writes or page count changed between rounds")
            (traced if is_traced else rounds).append(result)
            round_index += 1
            if time.monotonic() >= deadline and (not trace or traced):
                break

    items = len(stream)
    outcome.attempted = items * round_index
    base = rounds[0]
    latencies = [ns for r in rounds for ns in r.latencies_ns]
    m = outcome.metrics
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    m["ops_per_s"] = (median([items / r.seconds for r in rounds]), "1/s")
    m["op_p50_ms"] = (percentile(latencies, 0.50) / 1e6, "ms")
    m["op_p99_ms"] = (percentile(latencies, 0.99) / 1e6, "ms")
    m["disk_reads_per_op"] = (base.reads / items, "pages")
    m["pages_per_1k_objects"] = (base.pages / (base.entries / 1000), "pages")
    kinds = {}
    for item in stream:
        kinds[type(item).__name__] = kinds.get(type(item).__name__, 0) + 1
    outcome.report += [
        ("objects_before", len(dataset), "objects"),
        ("objects_after", base.entries, "objects"),
        ("tree_pages_before", initial_pages, "pages"),
        ("tree_pages_after", base.pages, "pages"),
        ("buffer_frames", capacity, f"frames ({BUFFER_FRACTION:.1%} of initial pages)"),
        ("stream_items", items, ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))),
        ("rounds", len(rounds), "stream replays (untraced)"),
        ("latency_samples", len(latencies), "stream items"),
        ("ops_per_s", m["ops_per_s"][0], "stream items/s"),
        ("disk_reads_per_op", base.reads / items, "pages (exact)"),
        ("disk_writes_per_op", base.writes / items, "pages (exact)"),
        ("pages_per_1k_objects", m["pages_per_1k_objects"][0], "pages (exact)"),
        ("error_rate", outcome.failed / outcome.attempted,
         f"failed / {outcome.attempted} attempted"),
    ]
    if trace:
        fill_sim_update_layers(outcome, tracer, traced, rounds, tree)
    return outcome


def fill_sim_update_layers(outcome, tracer, traced, rounds, tree) -> None:
    layer = outcome.layer
    n = len(traced)
    last = traced[-1]

    def per_round(table, name):
        return tracer.total(table, name) / n

    for name in ("sam.search", "sam.insert", "sam.delete", "sam.move",
                 "buffer.fetch", "storage.read", "storage.write",
                 "policies.select_victim"):
        if f"{name}.calls" in layer:
            layer[f"{name}.calls"] = (per_round(tracer.calls, name), "count")
        if f"{name}.busy_s" in layer:
            layer[f"{name}.busy_s"] = (per_round(tracer.busy_ns, name) / 1e9, "s")
    layer["sam.pages_allocated"] = (per_round(tracer.calls, "sam.allocate"), "count")
    layer["sam.pages_freed"] = (per_round(tracer.calls, "sam.free"), "count")
    stats = last.stats
    layer["buffer.hit_ratio"] = (stats["hits"] / stats["requests"], "ratio")
    layer["buffer.evictions"] = (stats["evictions"], "count")
    layer["buffer.writebacks"] = (stats["writebacks"], "count")
    layer["policies.asb.candidate_size_mean"] = (
        sum(last.candidate_sizes) / len(last.candidate_sizes), "pages")
    layer["policies.asb.overflow_hits"] = (last.overflow_hits, "count")
    layer["policies.asb.overflow_hit_ratio"] = (last.overflow_hits / stats["hits"], "ratio")
    encode_us, decode_us = codec_costs_us(sample_pages(tree))
    layer["storage.encode_page_us"] = (encode_us, "us")
    layer["storage.decode_page_us"] = (decode_us, "us")
    overhead = median([r.seconds for r in traced]) / median([r.seconds for r in rounds]) - 1
    layer["trace.overhead"] = (overhead, "ratio")
    fill_budget(outcome, layer_self_ns(tracer))
    busy = ", ".join(
        f"{name}.busy_s={per_round(tracer.busy_ns, name) / 1e9:.4f} "
        f"({per_round(tracer.busy_ns, name) / max(1, per_round(tracer.calls, name)) / 1e3:.0f} us/call)"
        for name in ("sam.insert", "sam.delete", "sam.move", "sam.search")
    )
    outcome.budget.append(f"per traced round of {n}: {busy}")
    outcome.budget.append(
        f"bases: buffer.hit_ratio = {stats['hits']} hits / {stats['requests']} requests; "
        f"trace.overhead = median traced round / median untraced round - 1"
    )
    outcome.tracer = tracer
