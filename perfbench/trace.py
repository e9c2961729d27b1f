"""Spans recorded from the benchmark's side of each layer boundary.

The program under test carries no tracing of its own.  A :class:`Tracer`
replaces a public callable of one object (``buffer.fetch``, ``disk.read``,
``policy.select_victim``, ``client.fetch`` ...) with a wrapper that records
one span per call, and puts the original back afterwards.  A span has a
name, a start, an end, a parent and a trace id; spans under one root span
(one query, one stream item, one served session) share the trace id.

Self time -- a span's duration minus its children's -- is aggregated while
spans close, so the layer budget needs no second pass.  Spans stay in
memory (up to ``keep_spans``) and are written out once the run ends.
"""

from __future__ import annotations

import contextvars
import gzip
import inspect
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter_ns

#: Layer of each span-name prefix; root spans (no parent) are the harness.
LAYERS = (
    ("sam.", "repro.sam"),
    ("policies.", "repro.buffer.policies"),
    ("buffer.", "repro.buffer"),
    ("storage.", "repro.storage"),
    ("wal.", "repro.wal"),
    ("client.", "repro.client"),
    ("server.", "repro.server"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "harness"


class Tracer:
    """Collects spans and per-name aggregates; safe to use from threads."""

    def __init__(self, keep_spans: int = 200_000, sampled: tuple = ()) -> None:
        #: Wrappers installed with ``gated=True`` record only while set.
        self.enabled = True
        #: Suffix that splits aggregates, e.g. ``"lru"`` / ``"asb"``.
        self.label = ""
        self.keep_spans = keep_spans
        self.calls: dict = defaultdict(int)
        self.busy_ns: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.root_ns: dict = defaultdict(int)
        #: Per-call durations for the names whose percentiles are reported.
        self.samples: dict = {name: [] for name in sampled}
        self.spans: list = []
        self.spans_dropped = 0
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._installed: list = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def begin(self, name: str) -> tuple:
        parent = self._current.get()
        span_id = next(self._ids)
        trace_id = span_id if parent is None else parent[1]
        # [id, trace id, parent frame, name, child ns, start ns]
        frame = [span_id, trace_id, parent, name, 0, _now()]
        return frame, self._current.set(frame)

    def end(self, opened: tuple) -> None:
        end = _now()
        frame, token = opened
        self._current.reset(token)
        span_id, trace_id, parent, name, child_ns, start = frame
        duration = end - start
        key = (name, self.label)
        with self._lock:
            if parent is None:
                self.root_ns[key] += duration
                parent_id = 0
            else:
                parent[4] += duration
                parent_id = parent[0]
            self.calls[key] += 1
            self.busy_ns[key] += duration
            self.self_ns[key] += duration - child_ns
            samples = self.samples.get(name)
            if samples is not None:
                samples.append(duration)
            if len(self.spans) < self.keep_spans:
                self.spans.append(
                    (span_id, parent_id, trace_id, name, self.label, start, end)
                )
            else:
                self.spans_dropped += 1

    def span(self, name: str) -> "_Span":
        """``with tracer.span(name):`` -- a span around a block of code."""
        return _Span(self, name)

    # ------------------------------------------------------------------
    # Wrapping public callables
    # ------------------------------------------------------------------

    def install(self, owner: object, attr: str, name: str, gated: bool = False) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``gated`` wrappers pass straight through while :attr:`enabled` is
        false (one attribute check), for processes that switch tracing on
        and off between phases.
        """
        original = getattr(owner, attr)
        begin, end = self.begin, self.end
        tracer = self
        if inspect.iscoroutinefunction(original):

            async def traced(*args, **kwargs):
                if gated and not tracer.enabled:
                    return await original(*args, **kwargs)
                opened = begin(name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    end(opened)

        else:

            def traced(*args, **kwargs):
                if gated and not tracer.enabled:
                    return original(*args, **kwargs)
                opened = begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    end(opened)

        own = getattr(owner, "__dict__", {})
        self._installed.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._installed:
            owner, attr, had_own, previous = self._installed.pop()
            if had_own or not hasattr(type(owner), attr):
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def total(self, table: dict, name: str, label: str | None = None) -> int:
        """Sum of ``table`` over one name, for one label or all of them."""
        return sum(
            value
            for (key, key_label), value in table.items()
            if key == name and (label is None or key_label == label)
        )

    def summary(self) -> dict:
        """A picklable snapshot (the server ships this back at shutdown)."""
        return {
            "calls": dict(self.calls),
            "busy_ns": dict(self.busy_ns),
            "self_ns": dict(self.self_ns),
            "root_ns": dict(self.root_ns),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": list(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def absorb(self, summary: dict, prefix_label: str = "") -> None:
        """Merge a :meth:`summary` from another tracer or process."""
        for table in ("calls", "busy_ns", "self_ns", "root_ns"):
            mine = getattr(self, table)
            for key, value in summary[table].items():
                mine[key] += value
        for name, values in summary["samples"].items():
            self.samples.setdefault(name, []).extend(values)
        for span in summary["spans"]:
            if len(self.spans) < self.keep_spans:
                self.spans.append(span[:4] + (prefix_label or span[4],) + span[5:])
            else:
                self.spans_dropped += 1
        self.spans_dropped += summary["spans_dropped"]

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as gzip'd TSV (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span_id\tparent_id\ttrace_id\tname\tlabel\tstart_ns\tend_ns\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "opened")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.opened = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.opened)


def layer_self_ns(tracer: Tracer, label: str | None = None) -> dict[str, int]:
    """Self time per layer (ns), for one label or all of them."""
    per_layer: dict[str, int] = defaultdict(int)
    for (name, key_label), value in tracer.self_ns.items():
        if label is None or key_label == label:
            per_layer[layer_of(name)] += value
    return per_layer


def budget_rows(layer_ns: dict[str, int]) -> list[tuple[str, float, float]]:
    """(layer, self seconds, share) rows, largest first; shares sum to 1."""
    total = sum(layer_ns.values()) or 1
    return [
        (layer, layer_ns[layer] / 1e9, layer_ns[layer] / total)
        for layer in sorted(layer_ns, key=layer_ns.get, reverse=True)
    ]
