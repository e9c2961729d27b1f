"""The page-server process of ``serve_mixed``.

Started as ``python3 -m perfbench.server_child <read fd> <write fd>``, so
it shares nothing with the load generator but two pipes, over which a
:class:`Channel` carries length-prefixed pickles (written by this
benchmark only):

* parent -> child: one config dict (page images, buffer size, trace flag);
* child -> parent: ``("ready", port, pid, build_s)`` once listening;
* parent -> child: ``("trace", on)`` (answered ``("ok",)``) and ``("stop",)``;
* child -> parent: ``("done", report)`` after a graceful drain.

With tracing requested, wrappers are installed once and gated by
``tracer.enabled``, so the parent can interleave untraced and traced
phases; the server-side spans travel back in the final report.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import select
import struct
import sys
import time

_LENGTH = struct.Struct("!Q")


class Channel:
    """Length-prefixed pickled messages over a pair of pipe descriptors."""

    def __init__(self, read_fd: int, write_fd: int) -> None:
        self.read_fd, self.write_fd = read_fd, write_fd

    def fileno(self) -> int:
        return self.read_fd

    def send(self, message) -> None:
        blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        view = memoryview(_LENGTH.pack(len(blob)) + blob)
        while view:
            view = view[os.write(self.write_fd, view):]

    def recv(self):
        (size,) = _LENGTH.unpack(self._read_exactly(_LENGTH.size))
        return pickle.loads(self._read_exactly(size))

    def poll(self, timeout: float) -> bool:
        return bool(select.select([self.read_fd], [], [], timeout)[0])

    def close(self) -> None:
        """Close both descriptors; a second call does nothing."""
        for fd in (self.read_fd, self.write_fd):
            if fd >= 0:
                os.close(fd)
        self.read_fd = self.write_fd = -1

    def _read_exactly(self, size: int) -> bytes:
        chunks = []
        while size:
            chunk = os.read(self.read_fd, size)
            if not chunk:
                raise EOFError("the other end of the channel closed")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)


def serve(conn) -> None:
    """Process entry point: build the server from the config and serve."""
    from perfbench.common import settle, use_source_tree
    from perfbench.trace import Tracer

    use_source_tree()
    try:
        config = conn.recv()
    except EOFError:  # the load generator went away before sending a config
        return
    started = time.perf_counter()
    if config["cpus"]:  # before any thread exists, so every thread inherits it
        os.sched_setaffinity(0, config["cpus"])

    from repro import ASB, BufferSystem
    from repro.server import PageServer
    from repro.wal.durable import DurableDisk

    trace = config["trace"]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.enabled = False
    disk = DurableDisk(page_size=config["page_size"])
    for page_id, blob in config["pages"]:
        disk.restore(page_id, blob)
    policies = []

    def make_policy():
        policy = ASB(record_trace=trace)
        if tracer is not None:
            tracer.install(policy, "select_victim", "policies.select_victim", gated=True)
        policies.append(policy)
        return policy

    system = BufferSystem.build(
        policy=make_policy,
        capacity=config["capacity"],
        shards=config["shards"],
        durability=True,
        disk=disk,
        page_size=config["page_size"],
    )
    if tracer is not None:
        tracer.install(system.buffer, "fetch", "buffer.fetch", gated=True)
        tracer.install(system.buffer, "install", "buffer.install", gated=True)
        tracer.install(disk, "read", "storage.read", gated=True)
        tracer.install(disk, "write", "storage.write", gated=True)
        tracer.install(system, "commit", "wal.commit", gated=True)
    server = PageServer(system, page_size=config["page_size"])
    settle()
    asyncio.run(_serve(conn, server, system, disk, tracer, policies, started))


async def _serve(conn, server, system, disk, tracer, policies, started) -> None:
    from perfbench.common import peak_rss_mb

    await server.start()
    loop = asyncio.get_running_loop()
    stopping = loop.create_future()

    def on_message() -> None:
        try:
            message = conn.recv()
        except EOFError:  # the load generator is gone: drain and exit
            message = ("stop",)
        if message[0] == "trace" and tracer is not None:
            tracer.enabled = message[1]
            conn.send(("ok",))
        elif message[0] == "stop" and not stopping.done():
            loop.remove_reader(conn.fileno())
            stopping.set_result(None)

    loop.add_reader(conn.fileno(), on_message)
    conn.send(("ready", server.port, os.getpid(), time.perf_counter() - started))
    await stopping
    wal = system.durability.wal.stats
    report = {
        "stats": server.stats_snapshot(),
        "disk_reads": disk.stats.reads,
        "disk_writes": disk.stats.writes,
        "wal": {
            "commits": wal.commits,
            "fsyncs": wal.fsyncs,
            "bytes_flushed": wal.bytes_flushed,
            "group_window": system.durability.wal.group_window,
            "store": type(system.durability.wal.store).__name__,
        },
        "asb": {
            "overflow_hits": sum(len(p.trace) for p in policies),
            "candidate_sizes": [size for p in policies for _, size in p.trace],
        },
        "tracer": tracer.summary() if tracer is not None else None,
        "rss_mb": peak_rss_mb(),
    }
    await server.stop()
    conn.send(("done", report))


if __name__ == "__main__":
    channel = Channel(int(sys.argv[1]), int(sys.argv[2]))
    try:
        serve(channel)
    finally:
        channel.close()
