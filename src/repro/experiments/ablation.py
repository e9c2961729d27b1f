"""``bench ablation`` — which components are earning their complexity?

The system now carries several load-bearing components: per-shard miss
coalescing, WAL group commit, admission control, ghost-cache sampling,
background write-back and the self-tuning controller.  The survey
literature (PAPERS.md, "Evolution of Buffer Management in Database
Systems") argues such complexity must be justified *per component* —
this harness measures exactly that.  (The paper-figure ablations —
overflow size, updates, joins, … — live in
:mod:`repro.experiments.paper_ablations`.)

Design: a run-ID'd **stage runner** executes a *baseline-plus-one-off*
configuration matrix.  The baseline is a fully equipped
:class:`~repro.api.BufferSystem` (every component on); each variant
disables or weakens exactly one component through the corresponding
``BufferSystem.build`` flag and re-runs the identical operation
schedule.  Per-component **importance scores** are the metric deltas of
the one-off run against the baseline — a component that changes nothing
when removed is not earning its keep.

Workloads come from :mod:`repro.workloads.access_graph`: the matrix
always includes the hostile ``cycle`` string (the worst case for
demand-paged recency policies) next to the locality-structured
``clustered`` walk, so robustness is scored alongside friendly-case
performance.  The live policy deliberately starts naive (MRU) so the
tuning component has something real to fix — with tuning off, the
naivety is what the matrix measures.

Determinism: the operation schedules derive from one seed, and with
``workers=1`` the whole run is serial, so every counter metric
(hit-rate, disk reads, fsyncs, write-backs) is bit-reproducible — the
property the regression gate and the tests rely on.  Wall-clock
throughput is always noisy and is reported separately.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.api import BufferSystem
from repro.experiments.benchmeta import run_metadata
from repro.geometry.rect import Rect
from repro.server.admission import AdmissionRejected, AdmissionTimeout
from repro.storage.page import Page, PageEntry, PageType
from repro.tuning import TuningConfig
from repro.wal.durable import DurableDisk
from repro.workloads.access_graph import ReferenceString, adversarial_suite

#: Metrics that are bit-deterministic for a fixed seed at ``workers=1``
#: (relative deltas of these make up the ``counter_importance`` score).
COUNTER_METRICS = ("hit_rate", "disk_reads", "fsyncs", "writebacks")


# ----------------------------------------------------------------------
# Parameters and the configuration matrix
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AblationParams:
    """Everything that shapes the matrix (hashed into the run id)."""

    capacity: int = 32
    shards: int = 2
    workers: int = 4
    length: int = 4_000
    seed: int = 7
    write_every: int = 4
    commit_every: int = 16
    epoch_length: int = 400
    read_delay_us: float = 20.0
    page_size: int = 256
    clusters: int = 4
    start_policy: str = "MRU"
    group_window: int = 8
    writeback_interval: int = 32
    ghost_sample: float = 0.25

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.length < 1:
            raise ValueError("length must be positive")


@dataclass(frozen=True)
class ComponentSpec:
    """One ablatable component: how to switch it *off* from the baseline."""

    key: str
    description: str
    overrides: dict = field(hash=False)


def _tuning_config(params: AblationParams, sample: float) -> TuningConfig:
    return TuningConfig(
        epoch_length=params.epoch_length,
        hysteresis=0.01,
        patience=1,
        cooldown=1,
        sample=sample,
    )


def baseline_build_kwargs(params: AblationParams) -> dict:
    """The all-components-on configuration, via ``BufferSystem.build`` flags."""
    return {
        "policy": params.start_policy,
        "capacity": params.capacity,
        "shards": params.shards,
        "durability": {"group_window": params.group_window},
        "background_writeback": params.writeback_interval,
        "coalescing": True,
        "admission": {
            "max_inflight": max(2, params.workers),
            "max_queued": 2 * max(2, params.workers),
        },
        "tuning": _tuning_config(params, params.ghost_sample),
        "page_size": params.page_size,
    }


def component_specs(params: AblationParams) -> tuple[ComponentSpec, ...]:
    """The matrix: each spec removes/weakens exactly one component."""
    return (
        ComponentSpec(
            key="miss_coalescing",
            description=(
                "per-shard in-flight table: one disk read per concurrent "
                "miss group (off: every misser reads the disk itself)"
            ),
            overrides={"coalescing": False},
        ),
        ComponentSpec(
            key="group_commit",
            description=(
                f"WAL group commit, window {params.group_window} "
                "(off: window 1 — every commit pays its own fsync)"
            ),
            overrides={"durability": {"group_window": 1}},
        ),
        ComponentSpec(
            key="admission_control",
            description=(
                "bounded in-flight/queued admission in front of the buffer "
                "(off: requests go straight to the shards; the benefit — "
                "bounded overload — is probed by bench serve, the ablation "
                "scores its steady-state cost)"
            ),
            overrides={"admission": None},
        ),
        ComponentSpec(
            key="ghost_sampling",
            description=(
                f"SHARDS-style id-hash sampling of the ghost caches at rate "
                f"{params.ghost_sample:g} (off: every access feeds every "
                "ghost — full-fidelity, full-cost shadowing)"
            ),
            overrides={"tuning": _tuning_config(params, 1.0)},
        ),
        ComponentSpec(
            key="background_writeback",
            description=(
                f"background flusher cleaning cold dirty frames every "
                f"{params.writeback_interval} requests (off: every dirty "
                "page is written back in the eviction latency path)"
            ),
            overrides={"background_writeback": False},
        ),
        ComponentSpec(
            key="tuning",
            description=(
                "ghost caches + epoch controller adapting the live policy "
                f"(off: the buffer stays {params.start_policy} forever)"
            ),
            overrides={"tuning": None},
        ),
    )


def _describe(value: object) -> object:
    """A JSON-able description of a build kwarg (for run ids and reports)."""
    if isinstance(value, TuningConfig):
        return {
            "TuningConfig": {
                name: getattr(value, name)
                for name in (
                    "epoch_length",
                    "hysteresis",
                    "patience",
                    "cooldown",
                    "allow_retune",
                    "allow_switch",
                    "sample",
                )
            }
        }
    if isinstance(value, Mapping):
        return {key: _describe(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _run_id(key: str, build_kwargs: Mapping, params: AblationParams) -> str:
    blob = json.dumps(
        {
            "key": key,
            "kwargs": _describe(dict(build_kwargs)),
            "seed": params.seed,
            "length": params.length,
            "workers": params.workers,
        },
        sort_keys=True,
    ).encode()
    return f"{key}-{hashlib.sha256(blob).hexdigest()[:10]}"


# ----------------------------------------------------------------------
# Workloads and operation schedules
# ----------------------------------------------------------------------

#: One buffer operation: ``("read", page_id)``, ``("write", page_id)`` or
#: ``("commit", None)``.
Op = "tuple[str, int | None]"


def build_schedule(
    reference: ReferenceString, write_every: int, commit_every: int
) -> list["tuple[str, int | None]"]:
    """Turn a reference string into a mixed read/write/commit op list."""
    ops: list[tuple[str, int | None]] = []
    for index, page_id in enumerate(reference.pages):
        if write_every and (index + 1) % write_every == 0:
            ops.append(("write", page_id))
        else:
            ops.append(("read", page_id))
        if commit_every and (index + 1) % commit_every == 0:
            ops.append(("commit", None))
    return ops


def ablation_workloads(params: AblationParams) -> dict[str, ReferenceString]:
    """The matrix workloads: hostile cycle + locality-structured walk."""
    return adversarial_suite(
        params.capacity,
        params.length,
        seed=params.seed,
        clusters=params.clusters,
    )


class _DelayedDurableDisk(DurableDisk):
    """A durable disk whose reads cost simulated I/O wall-clock time.

    The in-memory byte store serves reads in sub-microsecond time, which
    makes every CPU-side component look enormous relative to the I/O it
    saves.  Spinning for an SSD-class latency per read restores the
    regime buffer managers exist for (cf. the same device model in
    ``bench tuning``).
    """

    def __init__(self, page_size: int, read_delay_s: float = 0.0) -> None:
        super().__init__(page_size=page_size)
        self._read_delay_s = read_delay_s

    def read(self, page_id):
        page = super().read(page_id)
        if self._read_delay_s > 0.0:
            deadline = time.perf_counter() + self._read_delay_s
            while time.perf_counter() < deadline:
                pass
        return page


def _seed_page(page_id: int) -> Page:
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(
        PageEntry(mbr=Rect(0.0, 0.0, 1.0, 1.0), payload=page_id)
    )
    return page


def _make_disk(
    params: AblationParams, workloads: Mapping[str, ReferenceString]
) -> _DelayedDurableDisk:
    disk = _DelayedDurableDisk(
        page_size=params.page_size,
        read_delay_s=params.read_delay_us * 1e-6,
    )
    page_ids: set[int] = set()
    for reference in workloads.values():
        page_ids.update(reference.graph.nodes)
    for page_id in sorted(page_ids):
        disk.store(_seed_page(page_id))
    disk.stats.reset()
    return disk


# ----------------------------------------------------------------------
# Driving one configuration
# ----------------------------------------------------------------------


class _AdmissionGate:
    """Synchronous bridge into the (asyncio) admission controller.

    The controller's single-threaded discipline is preserved: all of its
    code runs on one dedicated loop thread, exactly as it does under the
    page server; worker threads block on concurrent futures.
    """

    def __init__(self, controller) -> None:
        self._controller = controller
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="ablation-admission", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def acquire(self, client_id: int) -> None:
        asyncio.run_coroutine_threadsafe(
            self._controller.acquire(client_id), self._loop
        ).result()

    def release(self, client_id: int) -> None:
        self._loop.call_soon_threadsafe(self._controller.release, client_id)

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()


def _run_op(
    system: BufferSystem,
    op: "tuple[str, int | None]",
    gate: "_AdmissionGate | None",
    client_id: int,
) -> None:
    if gate is not None:
        try:
            gate.acquire(client_id)
        except (AdmissionRejected, AdmissionTimeout):
            return
    try:
        kind, page_id = op
        if kind == "read":
            system.fetch(page_id)
        elif kind == "write":
            with system.buffer.pinned(page_id):
                system.mark_dirty(page_id)
        else:
            system.commit()
    finally:
        if gate is not None:
            gate.release(client_id)


def _drive_ops(
    system: BufferSystem,
    ops: Sequence["tuple[str, int | None]"],
    workers: int,
) -> float:
    """Run one schedule; returns wall-clock seconds.

    ``workers == 1`` runs strictly serially (deterministic counters);
    more workers split the schedule round-robin over real threads, so
    coalescing and admission see genuine concurrency.
    """
    gate = (
        _AdmissionGate(system.admission) if system.admission is not None else None
    )
    try:
        started = time.perf_counter()
        if workers <= 1:
            for op in ops:
                _run_op(system, op, gate, 0)
        else:
            schedules = [list(ops[index::workers]) for index in range(workers)]
            barrier = threading.Barrier(workers)
            errors: list[BaseException] = []

            def work(worker_id: int, schedule) -> None:
                try:
                    barrier.wait()
                    for op in schedule:
                        _run_op(system, op, gate, worker_id)
                except BaseException as exc:  # noqa: BLE001 — reraised below
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=work, args=(index, schedule), daemon=True
                )
                for index, schedule in enumerate(schedules)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
        return time.perf_counter() - started
    finally:
        if gate is not None:
            gate.close()


def _totals(system: BufferSystem) -> dict[str, int]:
    stats = system.buffer.stats
    admission = system.admission
    rejected = 0
    if admission is not None:
        rejected = (
            admission.rejected_queue_full
            + admission.rejected_quota
            + admission.timeouts
        )
    return {
        "requests": stats.requests,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "disk_reads": system.disk.stats.reads,
        "fsyncs": system.durability.wal.stats.fsyncs if system.durability else 0,
        "coalesced": getattr(system.buffer, "coalesced_misses", 0),
        "rejected": rejected,
    }


@dataclass(slots=True)
class RunMetrics:
    """Counter + wall-clock outcome of one schedule (or a whole config)."""

    ops: int = 0
    requests: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    disk_reads: int = 0
    fsyncs: int = 0
    coalesced: int = 0
    rejected: int = 0
    seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def throughput(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    @property
    def accounting_ok(self) -> bool:
        return self.hits + self.misses == self.requests

    def add(self, other: "RunMetrics") -> None:
        for name in (
            "ops", "requests", "hits", "misses", "evictions", "writebacks",
            "disk_reads", "fsyncs", "coalesced", "rejected",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.seconds += other.seconds

    def to_dict(self) -> dict:
        return {
            "ops": self.ops,
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "disk_reads": self.disk_reads,
            "fsyncs": self.fsyncs,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "seconds": round(self.seconds, 4),
            "throughput": round(self.throughput, 1),
            "accounting_ok": self.accounting_ok,
        }


@dataclass(slots=True)
class StageRecord:
    """One step of a config run, in execution order (the stage log)."""

    name: str
    seconds: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 4),
            "detail": self.detail,
        }


@dataclass(slots=True)
class ConfigRun:
    """One cell of the matrix: a config, its stages and its metrics."""

    key: str
    run_id: str
    overrides: dict
    stages: list[StageRecord] = field(default_factory=list)
    workloads: dict[str, RunMetrics] = field(default_factory=dict)
    overall: RunMetrics = field(default_factory=RunMetrics)
    tuner: dict = field(default_factory=dict)

    @property
    def accounting_ok(self) -> bool:
        return self.overall.accounting_ok

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "run_id": self.run_id,
            "overrides": self.overrides,
            "stages": [stage.to_dict() for stage in self.stages],
            "workloads": {
                name: metrics.to_dict()
                for name, metrics in self.workloads.items()
            },
            "overall": self.overall.to_dict(),
            "tuner": self.tuner,
        }


def run_config(
    key: str,
    build_kwargs: Mapping,
    overrides: Mapping,
    params: AblationParams,
    workloads: Mapping[str, ReferenceString],
    schedules: Mapping[str, Sequence["tuple[str, int | None]"]],
) -> ConfigRun:
    """The stage runner for one configuration: build → drive → drain."""
    run = ConfigRun(
        key=key,
        run_id=_run_id(key, build_kwargs, params),
        overrides=dict(_describe(dict(overrides))),
    )
    started = time.perf_counter()
    disk = _make_disk(params, workloads)
    system = BufferSystem.build(disk=disk, **build_kwargs)
    run.stages.append(
        StageRecord(
            name="build",
            seconds=time.perf_counter() - started,
            detail=f"{params.shards} shard(s), {params.capacity} frames",
        )
    )
    before = _totals(system)
    for name, schedule in schedules.items():
        seconds = _drive_ops(system, schedule, params.workers)
        after = _totals(system)
        metrics = RunMetrics(
            ops=len(schedule),
            seconds=seconds,
            **{field_: after[field_] - before[field_] for field_ in before},
        )
        run.workloads[name] = metrics
        run.overall.add(metrics)
        run.stages.append(
            StageRecord(
                name=f"drive:{name}",
                seconds=seconds,
                detail=f"{len(schedule)} ops, hit rate {metrics.hit_rate:.1%}",
            )
        )
        before = after
    if system.tuner is not None:
        snapshot = system.tuner.snapshot()
        run.tuner = {
            "live": snapshot.get("live"),
            "epochs": snapshot.get("epochs"),
            "retunes": snapshot.get("retunes"),
            "switches": snapshot.get("switches"),
        }
    started = time.perf_counter()
    system.close()
    run.stages.append(
        StageRecord(name="drain", seconds=time.perf_counter() - started)
    )
    return run


# ----------------------------------------------------------------------
# Importance scoring and the report
# ----------------------------------------------------------------------


def _relative(variant: float, baseline: float) -> "float | None":
    """Relative change of a lower-is-better counter, or None off a 0 base."""
    if baseline == 0:
        return None if variant == 0 else float("inf")
    return variant / baseline - 1.0


@dataclass(slots=True)
class ComponentScore:
    """One component's measured contribution (baseline minus one-off).

    Sign convention: positive deltas mean the component *helps* that
    metric (removing it made the metric worse); negative deltas are the
    component's cost.  ``importance`` ranks by the largest absolute
    effect on any scored metric; ``counter_importance`` restricts that
    to the deterministic counters (the value the tests pin down).
    """

    key: str
    description: str
    run_id: str
    hit_rate_delta: float = 0.0
    disk_reads_rel: "float | None" = None
    fsyncs_rel: "float | None" = None
    writebacks_rel: "float | None" = None
    throughput_rel: float = 0.0

    @property
    def counter_importance(self) -> float:
        values = [abs(self.hit_rate_delta)]
        for value in (self.disk_reads_rel, self.fsyncs_rel, self.writebacks_rel):
            if value is not None and value != float("inf"):
                values.append(abs(value))
        return max(values)

    @property
    def importance(self) -> float:
        return max(self.counter_importance, abs(self.throughput_rel))

    def to_dict(self) -> dict:
        def _round(value):
            if value is None:
                return None
            if value == float("inf"):
                return "inf"
            return round(value, 4)

        return {
            "component": self.key,
            "description": self.description,
            "run_id": self.run_id,
            "deltas": {
                "hit_rate": _round(self.hit_rate_delta),
                "disk_reads": _round(self.disk_reads_rel),
                "fsyncs": _round(self.fsyncs_rel),
                "writebacks": _round(self.writebacks_rel),
                "throughput": _round(self.throughput_rel),
            },
            "counter_importance": _round(self.counter_importance),
            "importance": _round(self.importance),
        }


def score_component(
    spec: ComponentSpec, baseline: RunMetrics, variant_run: ConfigRun
) -> ComponentScore:
    """Deltas of the one-off against the baseline, component-helps-positive."""
    variant = variant_run.overall
    base_throughput = baseline.throughput
    throughput_rel = (
        (base_throughput - variant.throughput) / base_throughput
        if base_throughput > 0
        else 0.0
    )
    return ComponentScore(
        key=spec.key,
        description=spec.description,
        run_id=variant_run.run_id,
        # Removing a helpful component drops the hit rate → positive.
        hit_rate_delta=baseline.hit_rate - variant.hit_rate,
        # Lower-is-better counters: removal increasing them → positive.
        disk_reads_rel=_relative(variant.disk_reads, baseline.disk_reads),
        fsyncs_rel=_relative(variant.fsyncs, baseline.fsyncs),
        writebacks_rel=_relative(variant.writebacks, baseline.writebacks),
        throughput_rel=throughput_rel,
    )


@dataclass(slots=True)
class AblationReport:
    """The full matrix outcome: baseline, one-offs, ranked importance."""

    params: AblationParams
    workloads: dict[str, ReferenceString]
    baseline: ConfigRun
    variants: dict[str, ConfigRun] = field(default_factory=dict)
    scores: list[ComponentScore] = field(default_factory=list)

    def ranked(self) -> list[ComponentScore]:
        return sorted(self.scores, key=lambda score: -score.importance)

    def all_runs(self) -> list[ConfigRun]:
        return [self.baseline, *self.variants.values()]

    def acceptance(self) -> dict:
        return {
            "components_scored": len(self.scores),
            "at_least_6_components": len(self.scores) >= 6,
            "accounting_identity_holds": all(
                run.accounting_ok for run in self.all_runs()
            ),
            "includes_hostile_workload": "cycle" in self.workloads,
        }

    def to_dict(self) -> dict:
        return {
            "benchmark": "ablation",
            "meta": run_metadata(self.params.seed, run_id=self.baseline.run_id),
            "config": {
                "capacity": self.params.capacity,
                "shards": self.params.shards,
                "workers": self.params.workers,
                "length": self.params.length,
                "write_every": self.params.write_every,
                "commit_every": self.params.commit_every,
                "epoch_length": self.params.epoch_length,
                "read_delay_us": self.params.read_delay_us,
                "page_size": self.params.page_size,
                "start_policy": self.params.start_policy,
                "group_window": self.params.group_window,
                "writeback_interval": self.params.writeback_interval,
                "ghost_sample": self.params.ghost_sample,
                "baseline_build": dict(
                    _describe(baseline_build_kwargs(self.params))
                ),
            },
            "workloads": [
                {
                    "name": name,
                    "length": len(reference),
                    "distinct_pages": reference.distinct_pages(),
                    "digest": reference.digest(),
                }
                for name, reference in self.workloads.items()
            ],
            "baseline": self.baseline.to_dict(),
            "components": [score.to_dict() for score in self.ranked()],
            "variants": {
                key: run.to_dict() for key, run in self.variants.items()
            },
            "acceptance": self.acceptance(),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def to_text(self) -> str:
        params = self.params
        lines = [
            f"ablation — {params.capacity} frames, {params.shards} shard(s), "
            f"{params.workers} worker(s), {len(self.workloads)} workloads × "
            f"{params.length} refs, start {params.start_policy}, "
            f"seed {params.seed} (run {self.baseline.run_id})",
            "",
            f"{'config':>21} {'hit rate':>8} {'reads':>7} {'fsyncs':>6} "
            f"{'wbacks':>6} {'coal':>5} {'ops/s':>9}",
        ]
        for run in self.all_runs():
            label = "baseline" if run.key == "baseline" else f"-{run.key}"
            overall = run.overall
            lines.append(
                f"{label:>21} {overall.hit_rate:>8.1%} {overall.disk_reads:>7} "
                f"{overall.fsyncs:>6} {overall.writebacks:>6} "
                f"{overall.coalesced:>5} {overall.throughput:>9.0f}"
            )
        lines.append("")
        lines.append("component importance (baseline minus one-off; positive = helps):")
        lines.append(
            f"{'rank':>4} {'component':>21} {'Δhit':>7} {'Δreads':>8} "
            f"{'Δfsyncs':>8} {'Δops/s':>8} {'score':>7}"
        )

        def _fmt(value):
            if value is None:
                return "n/a"
            if value == float("inf"):
                return "inf"
            return f"{value:+.1%}"

        for rank, score in enumerate(self.ranked(), start=1):
            lines.append(
                f"{rank:>4} {score.key:>21} {score.hit_rate_delta:>+7.1%} "
                f"{_fmt(score.disk_reads_rel):>8} {_fmt(score.fsyncs_rel):>8} "
                f"{score.throughput_rel:>+8.1%} {score.importance:>7.3f}"
            )
        verdict = self.acceptance()
        lines.append("")
        lines.append(
            "acceptance: "
            f"components={verdict['components_scored']} "
            f"accounting={verdict['accounting_identity_holds']} "
            f"hostile-workload={verdict['includes_hostile_workload']}"
        )
        return "\n".join(lines)


def run_ablation(params: AblationParams | None = None, **kwargs) -> AblationReport:
    """Execute the whole matrix: baseline first, then every one-off."""
    if params is None:
        params = AblationParams(**kwargs)
    elif kwargs:
        raise TypeError("pass either an AblationParams or keyword overrides")
    workloads = ablation_workloads(params)
    schedules = {
        name: build_schedule(reference, params.write_every, params.commit_every)
        for name, reference in workloads.items()
    }
    base_kwargs = baseline_build_kwargs(params)
    baseline = run_config(
        "baseline", base_kwargs, {}, params, workloads, schedules
    )
    report = AblationReport(
        params=params, workloads=workloads, baseline=baseline
    )
    for spec in component_specs(params):
        variant_kwargs = dict(base_kwargs)
        variant_kwargs.update(spec.overrides)
        run = run_config(
            spec.key, variant_kwargs, spec.overrides, params, workloads, schedules
        )
        report.variants[spec.key] = run
        report.scores.append(score_component(spec, baseline.overall, run))
    return report

