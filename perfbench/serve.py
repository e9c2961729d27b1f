"""``serve_mixed``: callers waiting on each page of an out-of-process server.

The page server runs in a child process (``server_child.py``) over an
R*-tree of 50k objects on a ``DurableDisk`` with durability on; the
buffer is ASB with four shards at 25 % of the tree's pages.  This process
is the load generator: one asyncio thread, ``min(2, nproc)`` connections,
eight closed-loop sessions per connection.  The load generator runs on
the first allowed CPU and the server on the others.  A read session replays one
INT-W-333 query's page sequence as dependent ``fetch`` calls; one session
in twenty is a write session (fetch a leaf, ``update`` it with one entry
moved, ``commit``).  Write sessions walk a seeded permutation of the
leaves, so concurrent writes never share a leaf.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from perfbench.common import (
    ROOT,
    CheckFailed,
    check,
    digest,
    median,
    percentile,
    settle,
)
from perfbench.server_child import Channel
from perfbench.sim import (
    Outcome,
    build_database,
    codec_costs_us,
    dataset_digest,
    fill_budget,
    places_of,
    setup_metrics,
)
from perfbench.trace import Tracer

_now = time.perf_counter_ns

OBJECTS = 50_000
QUERIES = 4_000
BUFFER_FRACTION = 0.25
SHARDS = 4  # ``repro serve``'s default
PAGE_SIZE = 4096
SESSIONS_PER_CONNECTION = 8
WRITE_EVERY = 20
SETUP_REPEATS = 3
START_TIMEOUT_S = 120
STOP_TIMEOUT_S = 60


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


def split_cpus() -> tuple[list, list]:
    """(load-generator CPUs, server CPUs): the first allowed CPU, the rest.

    Giving each process its own CPUs keeps the scheduler from stacking the
    server's loop and worker threads on the load generator's CPU, which
    otherwise moves served throughput by up to a third from run to run.
    With a single CPU both share it.
    """
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(allowed) < 2:
        return allowed, allowed
    return allowed[:1], allowed[1:]


@contextmanager
def pinned(cpus: list):
    """Run the block on ``cpus`` only; restore the affinity afterwards."""
    if not cpus:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class ServerProcess:
    """A page-server child process; always stopped and waited for by :meth:`stop`.

    A plain ``subprocess`` child with two pipes, not ``multiprocessing``:
    the latter's spawn method leaves a resource-tracker process behind
    that outlives this one.
    """

    def __init__(self, pages: list, capacity: int, trace: bool, cpus: list = ()) -> None:
        to_child = os.pipe()
        from_child = os.pipe()
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "perfbench.server_child",
                 str(to_child[0]), str(from_child[1])],
                cwd=ROOT,
                pass_fds=(to_child[0], from_child[1]),
            )
        except BaseException:
            for fd in (*to_child, *from_child):
                os.close(fd)
            raise
        os.close(to_child[0])
        os.close(from_child[1])
        self.conn = Channel(from_child[0], to_child[1])
        try:
            self.conn.send({
                "pages": pages,
                "capacity": capacity,
                "shards": SHARDS,
                "page_size": PAGE_SIZE,
                "trace": trace,
                "cpus": list(cpus),
            })
            kind, self.port, self.pid, self.build_s = self._receive(START_TIMEOUT_S)
            check(kind == "ready", f"server sent {kind!r} instead of ready")
        except BaseException:
            self.kill()
            raise
        self.spawn_s = time.perf_counter() - started

    def _receive(self, timeout: float):
        if not self.conn.poll(timeout):
            raise CheckFailed(f"server process silent for {timeout}s")
        return self.conn.recv()

    def set_tracing(self, enabled: bool) -> None:
        self.conn.send(("trace", enabled))
        check(self._receive(STOP_TIMEOUT_S) == ("ok",), "server did not ack tracing")

    def stop(self) -> dict:
        """Graceful drain; returns the server's final report."""
        try:
            self.conn.send(("stop",))
            kind, report = self._receive(STOP_TIMEOUT_S)
            check(kind == "done", f"server sent {kind!r} instead of done")
            self.process.wait(STOP_TIMEOUT_S)
            check(self.process.returncode == 0,
                  f"server process exited with {self.process.returncode}")
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        """Close the pipes, then make sure the child has ended and is reaped."""
        self.conn.close()
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


class _Recorder:
    """Unbuffered accessor that records the order pages are requested in."""

    def __init__(self, disk) -> None:
        self.disk = disk
        self.visited: list[int] = []

    def fetch(self, page_id):
        self.visited.append(page_id)
        return self.disk.peek(page_id)


def session_sequences(tree, queries) -> list[tuple]:
    """The page sequence each query's traversal requests, in order."""
    sequences = []
    for query in queries:
        recorder = _Recorder(tree.pagefile.disk)
        query.run(tree, recorder)
        sequences.append(tuple(recorder.visited))
    return sequences


def moved_entry_page(page, index: int):
    """A copy of a leaf with one entry nudged, clipped inside the leaf's MBR."""
    from repro.storage.page import Page, PageEntry

    entries = list(page.entries)
    position = index % len(entries)
    entry = entries[position]
    step = 1e-6 * (1 + index % 7)
    moved = entry.mbr.translated(step, -step).clipped(page.mbr()) or entry.mbr
    entries[position] = PageEntry(mbr=moved, child=entry.child, payload=entry.payload)
    return Page(page_id=page.page_id, page_type=page.page_type, level=page.level,
                entries=entries)


@dataclass
class Phase:
    traced: bool
    seconds: float = 0.0
    query_ns: list = field(default_factory=list)
    write_ns: list = field(default_factory=list)
    session_ns: list = field(default_factory=list)
    requests: int = 0
    attempted: int = 0
    failed: int = 0


@dataclass
class LoadState:
    sequences: list
    leaves: list
    acceptable: dict  # page id -> encoded images a fetch may return
    committed: dict = field(default_factory=dict)  # leaf -> last acked image
    bad_pages: list = field(default_factory=list)
    counter: itertools.count = field(default_factory=itertools.count)
    errors: list = field(default_factory=list)


# ----------------------------------------------------------------------
# The closed-loop load
# ----------------------------------------------------------------------


async def read_session(client, state: LoadState, index: int, phase: Phase):
    sequence = state.sequences[index % len(state.sequences)]
    pages = []
    began = _now()
    for page_id in sequence:
        phase.attempted += 1
        pages.append(await client.fetch(page_id))
        phase.requests += 1
    elapsed = _now() - began
    phase.query_ns.append(elapsed)
    verify(state, pages)
    return elapsed


async def write_session(client, state: LoadState, index: int, phase: Phase):
    from repro.storage.serialization import encode_page

    leaf = state.leaves[index % len(state.leaves)]
    began = _now()
    phase.attempted += 1
    page = await client.fetch(leaf)
    phase.requests += 1
    verify(state, [page])
    moved = moved_entry_page(page, index)
    blob = encode_page(moved, PAGE_SIZE)
    state.acceptable[leaf].add(blob)
    write_began = _now()
    phase.attempted += 2
    await client.update(moved)
    phase.requests += 1
    await client.commit()
    phase.requests += 1
    done = _now()
    phase.write_ns.append(done - write_began)
    state.committed[leaf] = blob
    return done - began


def check_stats(buffer_stats: dict) -> None:
    """The server's STATS keep the hits + misses = requests identity."""
    check(buffer_stats["hits"] + buffer_stats["misses"] == buffer_stats["requests"],
          f"STATS: hits + misses != requests: {buffer_stats}")


def verify(state: LoadState, pages: list) -> None:
    """Each fetched page must decode to an image the client expects."""
    from repro.storage.serialization import encode_page

    for page in pages:
        if encode_page(page, PAGE_SIZE) not in state.acceptable[page.page_id]:
            state.bad_pages.append(page.page_id)


async def session_loop(client, state: LoadState, phase: Phase, deadline: float,
                       tracer: Tracer | None) -> None:
    from repro.client import ConnectionLost, RetryAfter, ServerError

    loop = asyncio.get_running_loop()
    while loop.time() < deadline:
        index = next(state.counter)
        opened = tracer.begin("session") if tracer is not None and tracer.enabled else None
        try:
            if index % WRITE_EVERY == WRITE_EVERY - 1:
                elapsed = await write_session(client, state, index // WRITE_EVERY, phase)
            else:
                elapsed = await read_session(client, state, index, phase)
            phase.session_ns.append(elapsed)
        except (RetryAfter, ServerError) as exc:
            phase.failed += 1
            state.errors.append(repr(exc))
        except ConnectionLost as exc:
            phase.failed += 1
            state.errors.append(repr(exc))
            return
        finally:
            if opened is not None:
                tracer.end(opened)


async def drive(port: int, state: LoadState, plan: list, server: ServerProcess,
                tracer: Tracer | None, connections: int) -> tuple[list, dict, int]:
    """Run every phase of ``plan`` [(seconds, traced)], then the final checks."""
    from repro.client import AsyncPageClient

    clients = [
        await AsyncPageClient.connect("127.0.0.1", port, page_size=PAGE_SIZE)
        for _ in range(connections)
    ]
    threads_during_load = threading.active_count()
    try:
        if tracer is not None:
            import repro.client as client_module

            tracer.install(client_module, "decode_page", "client.page_codec", gated=True)
            tracer.install(client_module, "encode_page", "client.page_codec", gated=True)
            for client in clients:
                for name in ("fetch", "update", "commit"):
                    tracer.install(client, name, f"client.{name}", gated=True)
        phases = []
        loop = asyncio.get_running_loop()
        for seconds, traced in plan:
            if tracer is not None:
                server.set_tracing(traced)
                tracer.enabled = traced
            phase = Phase(traced=traced)
            started = loop.time()
            await asyncio.gather(*(
                session_loop(client, state, phase, started + seconds, tracer)
                for client in clients
                for _ in range(SESSIONS_PER_CONNECTION)
            ))
            phase.seconds = loop.time() - started
            phases.append(phase)
        if tracer is not None:
            server.set_tracing(False)
            tracer.enabled = False
        # Every updated leaf reads back its committed image.
        for leaf, blob in state.committed.items():
            from repro.storage.serialization import encode_page

            page = await clients[0].fetch(leaf)
            check(encode_page(page, PAGE_SIZE) == blob,
                  f"leaf {leaf} does not read back its committed image")
        stats = await clients[0].stats()
    finally:
        if tracer is not None:
            tracer.uninstall()
        for client in clients:
            await client.close()
    return phases, stats, threads_during_load


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def run_serve_mixed(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Outcome:
    from repro.storage.serialization import encode_page
    from repro.workloads.sets import make_query_set

    objects = max(2_000, int(OBJECTS * scale))
    query_count = max(50, int(QUERIES * scale))
    outcome = Outcome()
    generate_s, build_s, spawn_s = [], [], []
    client_cpus, server_cpus = split_cpus()
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            dataset, tree, gen, build = build_database(objects, repeats=1)
            generate_s += gen
            build_s += build
            pages = [(pid, encode_page(tree.pagefile.disk.peek(pid), PAGE_SIZE))
                     for pid in tree.all_page_ids()]
            capacity = max(8, round(BUFFER_FRACTION * len(pages)))
            server = ServerProcess(pages, capacity, trace, server_cpus)
            spawn_s.append(server.spawn_s)
        setup_metrics(outcome, generate_s, build_s, spawn_s)

        queries = list(make_query_set("INT-W-333", dataset, places_of(dataset),
                                      query_count, seed))
        sequences = session_sequences(tree, queries)
        leaves = sorted(pid for pid, _ in pages
                        if tree.pagefile.disk.peek(pid).is_leaf)
        random.Random(seed).shuffle(leaves)
        state = LoadState(
            sequences=sequences,
            leaves=leaves,
            acceptable={pid: {blob} for pid, blob in pages},
        )
        outcome.inputs = {
            "dataset": dataset_digest(dataset),
            "query_stream": digest(queries),
            "session_page_sequences": digest(sequences),
            "write_leaves": digest(leaves),
        }
        connections = max(1, min(2, os.cpu_count() or 1))
        if trace:
            plan = [(seconds / 4, traced) for traced in (False, True, False, True)]
        else:
            plan = [(seconds, False)]
        tracer = Tracer(sampled=("client.fetch", "client.update", "client.commit")) \
            if trace else None
        settle()
        with pinned(client_cpus):
            phases, stats, client_threads = asyncio.run(
                drive(server.port, state, plan, server, tracer, connections)
            )
        server_pid = server.pid
        report = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()

    check(not state.bad_pages,
          f"{len(state.bad_pages)} fetched pages did not match an expected image "
          f"(first: page {state.bad_pages[:1]})")
    buffer_stats = stats["buffer"]
    check_stats(buffer_stats)
    check(server_pid != os.getpid(), "server and load generator share a process")

    untraced = [p for p in phases if not p.traced]
    sessions = [ns for p in untraced for ns in p.session_ns]
    query_ns = [ns for p in untraced for ns in p.query_ns]
    write_ns = [ns for p in untraced for ns in p.write_ns]
    check(sessions and query_ns and write_ns, "the load completed no sessions")
    measured_s = sum(p.seconds for p in untraced)
    all_sessions = sum(len(p.session_ns) for p in phases)
    outcome.attempted = sum(p.attempted for p in phases)
    outcome.failed = sum(p.failed for p in phases)
    outcome.env = {
        "server_pid": server_pid,
        "connections": connections,
        "sessions_per_connection": SESSIONS_PER_CONNECTION,
        "client_threads": client_threads,
        "client_cpus": client_cpus,
        "server_cpus": server_cpus,
        "wal": f"{report['wal']['store']}, group_window={report['wal']['group_window']} "
               "(fsync on every commit; the in-memory store's sync is a no-op)",
    }
    m = outcome.metrics
    m["peak_rss_mb"] = (report["rss_mb"], "MB")
    m["ops_per_s"] = (len(sessions) / measured_s, "1/s")
    m["op_p50_ms"] = (percentile(sessions, 0.50) / 1e6, "ms")
    m["op_p99_ms"] = (percentile(sessions, 0.99) / 1e6, "ms")
    m["disk_reads_per_op"] = (report["disk_reads"] / all_sessions, "pages")
    m["pages_per_1k_objects"] = (len(pages) / (objects / 1000), "pages")
    requests = sum(p.requests for p in untraced)
    outcome.report += [
        ("objects", objects, "objects"),
        ("tree_pages", len(pages), "pages"),
        ("buffer_frames", capacity, f"frames ({BUFFER_FRACTION:.0%} of pages, {SHARDS} shards)"),
        ("server_spawn_s", median(spawn_s), "s (server.spawn_s, median of setups)"),
        ("sessions", len(sessions), f"completed in {measured_s:.2f}s untraced"),
        ("query_p50_ms", percentile(query_ns, 0.50) / 1e6, f"ms ({len(query_ns)} remote queries)"),
        ("query_p99_ms", percentile(query_ns, 0.99) / 1e6, f"ms ({len(query_ns)} remote queries)"),
        ("write_p99_ms", percentile(write_ns, 0.99) / 1e6,
         f"ms per update+commit ({len(write_ns)} writes)"),
        ("requests_per_s", requests / measured_s, "completed requests/s"),
        ("server_hit_ratio", buffer_stats["hit_ratio"], "STATS hits / requests"),
        ("error_rate", outcome.failed / max(1, outcome.attempted),
         f"failed / {outcome.attempted} attempted"),
    ]
    if state.errors:
        outcome.report.append(("first_error", state.errors[0], ""))
    if trace:
        fill_serve_layers(outcome, tracer, report, stats, phases, tree, sequences)
    return outcome


def fill_serve_layers(outcome, tracer, report, stats, phases, tree, sequences) -> None:
    layer = outcome.layer
    server = Tracer()
    server.absorb(report["tracer"], prefix_label="server")
    buffer_stats, admission, service = stats["buffer"], stats["admission"], stats["server"]

    def total(t, table, name):
        return t.total(getattr(t, table), name)

    for name in ("buffer.fetch", "storage.read", "storage.write",
                 "policies.select_victim", "wal.commit"):
        if f"{name}.calls" in layer:
            layer[f"{name}.calls"] = (total(server, "calls", name), "count")
        if f"{name}.busy_s" in layer:
            layer[f"{name}.busy_s"] = (total(server, "busy_ns", name) / 1e9, "s")
    layer["client.fetch.calls"] = (total(tracer, "calls", "client.fetch"), "count")
    layer["buffer.hit_ratio"] = (buffer_stats["hit_ratio"], "ratio")
    layer["buffer.evictions"] = (buffer_stats["evictions"], "count")
    layer["buffer.writebacks"] = (buffer_stats["writebacks"], "count")
    layer["buffer.coalesced"] = (buffer_stats["coalesced"], "count")
    sizes = report["asb"]["candidate_sizes"]
    layer["policies.asb.candidate_size_mean"] = (sum(sizes) / max(1, len(sizes)), "pages")
    layer["policies.asb.overflow_hits"] = (report["asb"]["overflow_hits"], "count")
    layer["policies.asb.overflow_hit_ratio"] = (
        report["asb"]["overflow_hits"] / max(1, buffer_stats["hits"]), "ratio")
    layer["wal.bytes_flushed"] = (report["wal"]["bytes_flushed"], "bytes")
    layer["wal.fsyncs"] = (report["wal"]["fsyncs"], "count")
    layer["server.admission.peak_queued"] = (admission["peak_queued"], "count")
    layer["server.admission.queued_total"] = (admission["queued_total"], "count")
    layer["server.responses_retry"] = (service["responses_retry"], "count")
    layer["server.responses_error"] = (service["responses_error"], "count")
    served = sorted({pid for seq in sequences[:200] for pid in seq})
    encode_us, decode_us = codec_costs_us([tree.pagefile.disk.peek(p) for p in served])
    layer["storage.encode_page_us"] = (encode_us, "us")
    layer["storage.decode_page_us"] = (decode_us, "us")
    traced = [ns for p in phases if p.traced for ns in p.session_ns]
    untraced = [ns for p in phases if not p.traced for ns in p.session_ns]
    layer["trace.overhead"] = (median(traced) / median(untraced) - 1, "ratio")

    # Layer budget of a session.  Client round trips contain the server's
    # work; what the server's own spans do not cover is wire, protocol,
    # event loop, admission and executor hand-off: server.self_s.
    round_trip = sum(total(tracer, "self_ns", f"client.{op}")
                     for op in ("fetch", "update", "commit"))
    server_busy = sum(server.root_ns.values())
    by_layer = {"harness": total(tracer, "self_ns", "session"),
                "repro.client": total(tracer, "self_ns", "client.page_codec"),
                "repro.server": round_trip - server_busy}
    for (name, _), value in server.self_ns.items():
        key = {"buffer": "repro.buffer", "storage": "repro.storage", "wal": "repro.wal",
               "policies": "repro.buffer.policies"}[name.split(".")[0]]
        by_layer[key] = by_layer.get(key, 0) + value
    fill_budget(outcome, by_layer)
    samples = tracer.samples
    outcome.budget += [
        f"server.self_s={by_layer['repro.server'] / 1e9:.4f} "
        f"(client round trips {round_trip / 1e9:.4f}s - server-side busy "
        f"{server_busy / 1e9:.4f}s)",
        f"wal.commit.busy_s={total(server, 'busy_ns', 'wal.commit') / 1e9:.4f} "
        f"client.page_codec_s={by_layer['repro.client'] / 1e9:.4f}",
        "client: " + ", ".join(
            f"{name}.p50_ms={percentile(samples[name], 0.5) / 1e6:.3f} "
            f"{name}.p99_ms={percentile(samples[name], 0.99) / 1e6:.3f} (n={len(samples[name])})"
            for name in ("client.fetch", "client.update", "client.commit") if samples[name]
        ),
        f"bases: buffer.hit_ratio from STATS over the whole load ({buffer_stats['requests']} "
        f"requests); overflow_hit_ratio = overflow hits / STATS hits; candidate_size_mean "
        f"over {len(sizes)} ASB adaptations in {SHARDS} "
        f"shards; times summed over traced phases; trace.overhead = median traced session / "
        f"median untraced session - 1",
    ]
    tracer.absorb(report["tracer"], prefix_label="server")
    outcome.tracer = tracer
