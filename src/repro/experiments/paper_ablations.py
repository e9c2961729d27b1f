"""The paper-figure ablations: the paper's future-work items and beyond.

Each function answers one question the paper leaves open — overflow
size, random vs sequential I/O, updates, joins, moving objects — or
probes a setting beyond its study (other access methods, adaptive
buffers from the wider literature, concurrent clients, Belady's
optimum).  Every one takes the shared :class:`PaperSetup` and returns a
:class:`FigureResult`, exactly like the figures of
:mod:`repro.experiments.figures`; :data:`ALL_ABLATIONS` registers them
by report label the same way :data:`~repro.experiments.figures.ALL_FIGURES`
registers the figures.
"""

from __future__ import annotations

from typing import Callable

from repro.buffer.policies.asb import ASB
from repro.buffer.policies.clock import Clock
from repro.buffer.policies.fifo import FIFO
from repro.buffer.policies.lfu import LFU
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.lru_k import LRUK
from repro.buffer.policies.mru import MRU
from repro.buffer.policies.random_policy import RandomPolicy
from repro.buffer.policies.spatial import SpatialPolicy
from repro.experiments.figures import FigureResult, PaperSetup
from repro.experiments.harness import (
    buffer_capacity,
    compare_policies,
    gain,
    gains_vs_lru,
    replay,
    replay_mixed,
    run_queries,
)
from repro.experiments.report import format_gain
from repro.sam.quadtree import Quadtree
from repro.sam.zbtree import ZBTree
from repro.workloads.sets import make_query_set

#: Sets probing both regimes: one where the spatial criterion helps and one
#: where it hurts.
ABLATION_SETS = ("U-W-100", "S-W-100", "INT-W-100")

#: The line-up most ablations compare: the baseline, the frequency
#: classic, the pure spatial policy and the paper's ASB.
CORE_POLICIES = {
    "LRU": LRU,
    "LRU-2": lambda: LRUK(k=2),
    "A": lambda: SpatialPolicy("A"),
    "ASB": ASB,
}


def ablation_overflow_size(
    setup: PaperSetup,
    overflow_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """How big should the overflow buffer be?  (Paper future work #1.)

    Overflow fraction 0 degenerates to static SLRU (no adaptation signal);
    very large fractions starve the main part.  The paper fixes 20 %.
    """
    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    rows: list[list[object]] = []
    policies = {
        fraction: lambda fraction=fraction: ASB(overflow_fraction=fraction)
        for fraction in overflow_fractions
    }
    for set_name in ABLATION_SETS:
        query_set = database.query_set(set_name, setup.n_queries, setup.seed)
        gains = gains_vs_lru(database.tree, query_set, policies, capacity)
        rows.append([set_name] + [format_gain(g) for g in gains.values()])
    return FigureResult(
        figure="Ablation overflow-size",
        title="ASB gain vs LRU for different overflow-buffer fractions",
        headers=["query set"]
        + [f"{int(f * 100)}%" for f in overflow_fractions],
        rows=rows,
        notes=f"buffer = {capacity} pages ({buffer_fraction:.1%} of the tree)",
    )


def ablation_step_size(
    setup: PaperSetup,
    step_fractions: tuple[float, ...] = (0.005, 0.01, 0.05, 0.2),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Sensitivity of ASB to the adaptation step (paper: 1 % of the main part)."""
    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    rows: list[list[object]] = []
    policies = {
        step: lambda step=step: ASB(step_fraction=step) for step in step_fractions
    }
    for set_name in ABLATION_SETS:
        query_set = database.query_set(set_name, setup.n_queries, setup.seed)
        gains = gains_vs_lru(database.tree, query_set, policies, capacity)
        rows.append([set_name] + [format_gain(g) for g in gains.values()])
    return FigureResult(
        figure="Ablation step-size",
        title="ASB gain vs LRU for different adaptation step sizes",
        headers=["query set"] + [f"{step:.1%}" for step in step_fractions],
        rows=rows,
        notes=f"buffer = {capacity} pages",
    )


def ablation_sams(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """The policies on other spatial access methods (Section 2.3's claim).

    The spatial criteria are defined for generic page entries — quadtree
    cells and z-values included.  This ablation indexes database 1's
    objects with a bucket quadtree and a z-order B+-tree and repeats the
    A / LRU-2 / ASB comparison on them.
    """
    from repro.sam.gridfile import GridFile

    dataset = setup.db1.dataset
    quadtree = Quadtree(dataset.space, capacity=42)
    for rect, payload in dataset.items():
        quadtree.insert(rect, payload)
    zbtree = ZBTree(dataset.space, max_entries=42)
    zbtree.bulk_load(dataset.items())
    gridfile = GridFile(dataset.space, bucket_capacity=42, max_splits=32)
    for rect, payload in dataset.items():
        gridfile.insert(rect, payload)
    indexes = {"quadtree": quadtree, "z-b+tree": zbtree, "gridfile": gridfile}
    policies = {
        "A": lambda: SpatialPolicy("A"),
        "LRU-2": lambda: LRUK(k=2),
        "ASB": ASB,
    }
    rows: list[list[object]] = []
    for index_name, index in indexes.items():
        pages = index.stats().page_count
        capacity = max(8, round(buffer_fraction * pages))
        for set_name in ABLATION_SETS:
            query_set = make_query_set(
                set_name, dataset, setup.db1.places, setup.n_queries, setup.seed
            )
            gains = gains_vs_lru(index, query_set, policies, capacity)
            rows.append(
                [index_name, set_name] + [format_gain(g) for g in gains.values()]
            )
    return FigureResult(
        figure="Ablation SAMs",
        title="Policy gains vs LRU on non-R-tree spatial access methods",
        headers=["index", "query set", "A", "LRU-2", "ASB"],
        rows=rows,
    )


def ablation_baselines(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Classic baselines (FIFO, CLOCK, LFU, MRU, RANDOM) vs LRU."""
    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    policies = {
        "FIFO": FIFO,
        "CLOCK": Clock,
        "LFU": LFU,
        "MRU": MRU,
        "RANDOM": lambda: RandomPolicy(seed=3),
    }
    rows: list[list[object]] = []
    for set_name in ABLATION_SETS:
        query_set = database.query_set(set_name, setup.n_queries, setup.seed)
        gains = gains_vs_lru(database.tree, query_set, policies, capacity)
        rows.append([set_name] + [format_gain(g) for g in gains.values()])
    return FigureResult(
        figure="Ablation baselines",
        title="Classic replacement baselines vs LRU (database 1)",
        headers=["query set"] + list(policies),
        rows=rows,
    )


def ablation_pinned_levels(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    sets: tuple[str, ...] = ABLATION_SETS,
) -> FigureResult:
    """Pinning top tree levels (Leutenegger & Lopez, the paper's ref [8]).

    LRU-P generalises level pinning; this ablation runs the original:
    LRU with the top 1 / 2 levels fetched once and pinned, against plain
    LRU and LRU-P.  Pinned pages cost their initial fetch but can never be
    evicted — a static commitment LRU-P makes dynamically.
    """
    from repro.buffer.manager import BufferManager
    from repro.buffer.policies.lru_p import LRUP
    from repro.experiments.harness import pin_top_levels

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)

    def run_pinned(levels: int) -> int:
        buffer = BufferManager(database.tree.pagefile.disk, capacity, LRU())
        try:
            pin_top_levels(database.tree, buffer, levels)
        except ValueError:
            return -1  # does not fit at this buffer size
        pin_misses = buffer.stats.misses
        for set_name in sets:
            query_set = database.query_set(set_name, setup.n_queries, setup.seed)
            run_queries(buffer, database.tree, query_set)
        return buffer.stats.misses - pin_misses

    def run_plain(policy_factory) -> int:
        total = 0
        for set_name in sets:
            query_set = database.query_set(set_name, setup.n_queries, setup.seed)
            total += replay(
                database.tree, query_set, policy_factory(), capacity
            ).stats.misses
        return total

    lru = run_plain(LRU)
    rows: list[list[object]] = [["LRU", lru, format_gain(0.0)]]
    for levels in (1, 2):
        misses = run_pinned(levels)
        if misses < 0:
            rows.append([f"LRU + pin top {levels}", "n/a", "does not fit"])
        else:
            rows.append(
                [f"LRU + pin top {levels}", misses, format_gain(gain(lru, misses))]
            )
    lru_p = run_plain(LRUP)
    rows.append(["LRU-P", lru_p, format_gain(gain(lru, lru_p))])
    return FigureResult(
        figure="Ablation pinned-levels",
        title="Static level pinning (ref [8]) vs the dynamic LRU-P",
        headers=["strategy", "reads", "gain vs LRU"],
        rows=rows,
        notes=(
            f"summed over {', '.join(sets)}; buffer = {capacity} pages; "
            "pinned runs keep the pages across sets (no clearing), plain "
            "runs use a fresh buffer per set"
        ),
    )


def ablation_adaptive_buffers(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    sets: tuple[str, ...] = (
        "U-W-100",
        "ID-W",
        "S-W-100",
        "INT-P",
        "INT-W-100",
        "IND-W-100",
    ),
) -> FigureResult:
    """ASB against the wider literature of self-tuning / two-part buffers.

    2Q (Johnson/Shasha 1994) and ARC (Megiddo/Modha 2003) split the buffer
    along the recency-vs-frequency axis; the paper's ASB splits along the
    recency-vs-spatial axis.  GCLOCK with type weights and static domain
    separation represent the type-aware classics.  The question this
    extension answers: does spatial feedback buy anything the
    frequency-based adapters do not already provide?
    """
    from repro.buffer.policies.arc import ARC as ARCPolicy
    from repro.buffer.policies.domain_separation import DomainSeparation
    from repro.buffer.policies.gclock import GClock, type_weight
    from repro.buffer.policies.two_q import TwoQ

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    policies = {
        "ASB": ASB,
        "2Q": TwoQ,
        "ARC": ARCPolicy,
        "LRU-2": lambda: LRUK(k=2),
        "GCLOCK": lambda: GClock(initial_weight=type_weight),
        "DOMAIN": DomainSeparation,
    }
    rows: list[list[object]] = []
    for set_name in sets:
        query_set = database.query_set(set_name, setup.n_queries, setup.seed)
        gains = gains_vs_lru(database.tree, query_set, policies, capacity)
        rows.append([set_name] + [format_gain(g) for g in gains.values()])
    return FigureResult(
        figure="Ablation adaptive-buffers",
        title="ASB vs 2Q, ARC, LRU-2, GCLOCK and domain separation (gains vs LRU)",
        headers=["query set"] + list(policies),
        rows=rows,
        notes=f"database 1, buffer = {capacity} pages",
    )


def ablation_object_pages(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_objects: int = 12_000,
) -> FigureResult:
    """All three page categories in one buffer (Section 2.1's full setting).

    The paper stores object pages in separate files and buffers and
    reports only tree accesses; this ablation runs the window queries with
    ``fetch_objects=True`` against a single shared buffer, so directory,
    data and object pages compete for frames — the setting LRU-T was
    designed for (drop object pages first, keep directory pages longest).
    """
    from repro.buffer.manager import BufferManager
    from repro.buffer.policies.lru_p import LRUP
    from repro.buffer.policies.lru_t import LRUT
    from repro.datasets.synthetic import us_mainland_like
    from repro.sam.rstar import RStarTree
    from repro.storage.objects import build_tree_with_objects

    dataset = us_mainland_like(n_objects=n_objects, seed=setup.seed + 6)
    tree, store = build_tree_with_objects(
        dataset, lambda pagefile: RStarTree(pagefile=pagefile)
    )
    total_pages = tree.stats().page_count + store.page_count
    capacity = max(8, round(buffer_fraction * total_pages))
    windows = [
        query.region
        for query in make_query_set(
            "S-W-100", dataset, setup.db1.places, setup.n_queries, setup.seed
        )
    ]
    # The type- and level-aware LRU variants slot in after the baseline.
    policies = {"LRU": LRU, "LRU-T": LRUT, "LRU-P": LRUP} | CORE_POLICIES
    rows: list[list[object]] = []
    lru_misses: int | None = None
    for name, factory in policies.items():
        buffer = BufferManager(tree.pagefile.disk, capacity, factory())
        for window in windows:
            with buffer.query_scope():
                tree.window_query(window, buffer, fetch_objects=True)
        misses = buffer.stats.misses
        if lru_misses is None:
            lru_misses = misses
        rows.append([name, misses, format_gain(gain(lru_misses, misses))])
    return FigureResult(
        figure="Ablation object-pages",
        title="Three page categories (directory/data/object) in one buffer",
        headers=["policy", "reads", "gain vs LRU"],
        rows=rows,
        notes=(
            f"{tree.stats().page_count} tree pages + {store.page_count} "
            f"object pages; buffer = {capacity} pages; S-W-100 with "
            "fetch_objects=True"
        ),
    )


def ablation_partitioned_buffer(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_objects: int = 12_000,
) -> FigureResult:
    """Shared buffer vs per-category partitions (the paper's architecture).

    The paper buffers object pages separately from the tree; this ablation
    compares, at equal total memory, a single shared buffer against
    partitioned layouts with different policy assignments — including the
    natural hybrid: spatial replacement for the tree partition, LRU for
    the object partition.
    """
    from repro.buffer.manager import BufferManager
    from repro.buffer.partitioned import PartitionedBufferManager
    from repro.datasets.synthetic import us_mainland_like
    from repro.sam.rstar import RStarTree
    from repro.storage.objects import build_tree_with_objects
    from repro.storage.page import PageType

    dataset = us_mainland_like(n_objects=n_objects, seed=setup.seed + 7)
    tree, store = build_tree_with_objects(
        dataset, lambda pagefile: RStarTree(pagefile=pagefile)
    )
    total_pages = tree.stats().page_count + store.page_count
    capacity = max(12, round(buffer_fraction * total_pages))
    tree_share = max(4, round(capacity * 0.5))
    dir_share = max(2, round(tree_share * 0.15))
    data_share = tree_share - dir_share
    object_share = capacity - tree_share
    windows = [
        query.region
        for query in make_query_set(
            "S-W-100", dataset, setup.db1.places, setup.n_queries, setup.seed
        )
    ]

    def run(manager) -> int:
        for window in windows:
            with manager.query_scope():
                tree.window_query(window, manager, fetch_objects=True)
        return manager.stats.misses

    layouts = {
        "shared LRU": lambda: BufferManager(tree.pagefile.disk, capacity, LRU()),
        "shared ASB": lambda: BufferManager(tree.pagefile.disk, capacity, ASB()),
        "split LRU/LRU": lambda: PartitionedBufferManager(
            tree.pagefile.disk,
            {
                PageType.DIRECTORY: (dir_share, LRU()),
                PageType.DATA: (data_share, LRU()),
                PageType.OBJECT: (object_share, LRU()),
            },
        ),
        "split A/LRU": lambda: PartitionedBufferManager(
            tree.pagefile.disk,
            {
                PageType.DIRECTORY: (dir_share, LRU()),
                PageType.DATA: (data_share, SpatialPolicy("A")),
                PageType.OBJECT: (object_share, LRU()),
            },
        ),
    }
    rows: list[list[object]] = []
    baseline: int | None = None
    for name, factory in layouts.items():
        misses = run(factory())
        if baseline is None:
            baseline = misses
        rows.append([name, misses, format_gain(gain(baseline, misses))])
    return FigureResult(
        figure="Ablation partitioned-buffer",
        title="Shared vs per-category buffers at equal total memory",
        headers=["layout", "reads", "gain vs shared LRU"],
        rows=rows,
        notes=(
            f"total = {capacity} frames (dir {dir_share} / data {data_share} "
            f"/ object {object_share} in the split layouts); S-W-100 with "
            "fetch_objects=True"
        ),
    )


def ablation_updates(
    setup: PaperSetup,
    n_updates: int = 600,
    n_queries: int = 300,
    buffer_fraction: float = 0.047,
    moving: bool = False,
) -> FigureResult:
    """Updates and moving objects through the buffer (future work #2/#3).

    Builds a fresh tree per policy (updates mutate it), replays an
    interleaved stream of window queries and index updates, and reports
    disk reads, write-backs and the total-access gain over LRU.  With
    ``moving=True`` the update half is a pure moving-objects stream.
    """
    from repro.datasets.synthetic import us_mainland_like
    from repro.sam.rstar import RStarTree
    from repro.workloads.updates import (
        interleave,
        moving_objects_stream,
        update_stream,
    )

    dataset = us_mainland_like(n_objects=12_000, seed=setup.seed + 5)
    queries = list(
        make_query_set("S-W-100", dataset, setup.db1.places, n_queries, setup.seed)
    )
    if moving:
        updates = moving_objects_stream(dataset, n_updates, seed=setup.seed)
    else:
        updates = update_stream(dataset, n_updates, seed=setup.seed)
    stream = interleave(queries, updates, seed=setup.seed)
    rows: list[list[object]] = []
    lru_total: int | None = None
    capacity = 0
    for name, factory in CORE_POLICIES.items():
        tree = RStarTree()
        tree.bulk_load(dataset.items())
        capacity = max(8, round(buffer_fraction * tree.stats().page_count))
        buffer = replay_mixed(tree, stream, factory(), capacity)
        total = buffer.stats.misses + buffer.stats.writebacks
        if lru_total is None:
            lru_total = total
        rows.append(
            [
                name,
                buffer.stats.misses,
                buffer.stats.writebacks,
                total,
                format_gain(gain(lru_total, total)),
            ]
        )
    kind = "moving objects" if moving else "inserts/deletes/moves"
    return FigureResult(
        figure="Ablation updates" + ("-moving" if moving else ""),
        title=f"Queries interleaved with {kind}, through the buffer",
        headers=["policy", "reads", "writebacks", "total", "gain vs LRU"],
        rows=rows,
        notes=(
            f"{n_queries} S-W-100 queries + {n_updates} updates, "
            f"buffer = {capacity} pages"
        ),
    )


def ablation_multiclient(
    setup: PaperSetup,
    client_sets: tuple[str, ...] = ("U-W-100", "S-W-100", "INT-W-100"),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Concurrent clients sharing one buffer (beyond the paper's protocol).

    Three clients with different distributions interleave at the buffer;
    the same queries also run sequentially for contrast.  Interleaving
    stretches reuse distances, so per-policy behaviour under concurrency
    is a robustness test of its own.
    """
    from repro.workloads.multiclient import ClientStream, replay_clients

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    clients = [
        ClientStream(
            name=set_name,
            queries=database.query_set(
                set_name, setup.n_queries, setup.seed
            ).queries,
        )
        for set_name in client_sets
    ]
    rows: list[list[object]] = []
    lru_interleaved: int | None = None
    for name, factory in CORE_POLICIES.items():
        buffer, _ = replay_clients(
            database.tree, clients, factory(), capacity, seed=setup.seed
        )
        interleaved = buffer.stats.misses
        sequential = 0
        for client in clients:
            sequential += replay(
                database.tree, client.queries, factory(), capacity
            ).stats.misses
        if lru_interleaved is None:
            lru_interleaved = interleaved
        rows.append(
            [
                name,
                interleaved,
                sequential,
                format_gain(gain(lru_interleaved, interleaved)),
            ]
        )
    return FigureResult(
        figure="Ablation multiclient",
        title="Three interleaved clients vs sequential execution",
        headers=["policy", "interleaved reads", "sequential reads", "gain vs LRU"],
        rows=rows,
        notes=(
            f"clients: {', '.join(client_sets)}; "
            f"{setup.n_queries} queries each; buffer = {capacity} pages"
        ),
    )


def ablation_opt_gap(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    sets: tuple[str, ...] = ("U-W-100", "S-W-100", "INT-W-100"),
) -> FigureResult:
    """How far from Belady's optimum does each policy land?

    Records each query set's reference trace once, computes the offline
    OPT miss count, and reports every policy's misses as a percentage
    above OPT.  The gap shows the remaining headroom: where even OPT
    barely beats LRU, no replacement cleverness can pay off.
    """
    from repro.experiments.analysis import opt_misses
    from repro.experiments.trace import record_trace, replay_trace

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    rows: list[list[object]] = []
    for set_name in sets:
        query_set = database.query_set(set_name, setup.n_queries, setup.seed)
        trace = record_trace(database.tree, query_set)
        optimum = opt_misses(trace, capacity)
        cells: list[object] = [set_name, optimum]
        for factory in CORE_POLICIES.values():
            misses = replay_trace(trace, factory(), capacity).misses
            cells.append(f"+{(misses / optimum - 1) * 100:.1f}%")
        rows.append(cells)
    return FigureResult(
        figure="Ablation opt-gap",
        title="Distance from Belady's offline optimum (misses above OPT)",
        headers=["query set", "OPT misses"] + list(CORE_POLICIES),
        rows=rows,
        notes=f"database 1, buffer = {capacity} pages",
    )


def ablation_build_method(
    setup: PaperSetup,
    n_objects: int = 8_000,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """STR vs Hilbert packing vs R* insertion (EXPERIMENTS.md's hypothesis).

    The paper's trees were grown by R* insertion; ours are bulk loaded.
    Insertion-grown trees have looser, more overlapping directory MBRs, so
    queries into sparse regions (database 2's water) descend further —
    which is the suspected cause of the db2-independent deviation.  This
    ablation builds the same world-atlas dataset three ways (smaller
    fanout keeps insertion affordable) and compares structure and query
    cost per build method.
    """
    from repro.datasets.synthetic import world_atlas_like
    from repro.sam.rstar import RStarTree

    dataset = world_atlas_like(n_objects=n_objects, seed=setup.seed + 10)
    items = dataset.items()

    def build(method: str) -> RStarTree:
        tree = RStarTree()  # paper fanout (numpy-accelerated insertion)
        if method == "insert":
            for mbr, payload in items:
                tree.insert(mbr, payload)
        else:
            tree.bulk_load(items, method=method)
        return tree

    def directory_overlap(tree: RStarTree) -> float:
        pages = [
            tree.pagefile.disk.peek(pid)
            for pid in tree.all_page_ids()
        ]
        leaf_mbrs = [page.mbr() for page in pages if page.is_leaf]
        total = 0.0
        for i in range(len(leaf_mbrs)):
            for j in range(i + 1, len(leaf_mbrs)):
                total += leaf_mbrs[i].intersection_area(leaf_mbrs[j])
        return total

    rows: list[list[object]] = []
    for method in ("str", "hilbert", "insert"):
        tree = build(method)
        pages = len(tree.all_page_ids())
        capacity = max(8, round(buffer_fraction * pages))
        query_set = make_query_set(
            "IND-W-100", dataset, setup.db1.places, setup.n_queries, setup.seed
        )
        lru = replay(tree, query_set, LRU(), capacity).stats.misses
        a = replay(tree, query_set, SpatialPolicy("A"), capacity).stats.misses
        rows.append(
            [
                method,
                pages,
                f"{directory_overlap(tree):.2e}",
                lru,
                format_gain(gain(lru, a)),
            ]
        )
    return FigureResult(
        figure="Ablation build-method",
        title="STR vs Hilbert vs R*-insertion builds (db2-like, IND-W-100)",
        headers=["build", "pages", "leaf overlap", "LRU reads", "gain(A)"],
        rows=rows,
        notes=f"{n_objects} objects, paper fanout 51/42, buffer {buffer_fraction:.1%}",
    )


def ablation_join(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_left: int = 15_000,
    n_right: int = 15_000,
) -> FigureResult:
    """Spatial joins through one shared buffer (future work #2, join side).

    Joins two R*-trees (two map layers over the same region) with the
    synchronized-traversal join; both trees share one disk and one buffer.
    The join's access pattern alternates between the trees and revisits
    inner pages heavily — the workload where buffering decides the cost.
    The nested-loop row shows the algorithmic baseline under plain LRU.
    """
    from repro.buffer.manager import BufferManager
    from repro.datasets.synthetic import us_mainland_like
    from repro.sam.join import nested_loop_join, spatial_join
    from repro.sam.rstar import RStarTree
    from repro.storage.pagefile import PageFile

    pagefile = PageFile()
    # Two layers of one map: point features joined with extended features
    # (e.g. places x waterways), so the filter step finds real pairs.
    left = RStarTree(pagefile=pagefile)
    left.bulk_load(us_mainland_like(n_objects=n_left, seed=setup.seed + 8).items())
    right = RStarTree(pagefile=pagefile)
    right.bulk_load(
        us_mainland_like(
            n_objects=n_right,
            seed=setup.seed + 9,
            extended_fraction=1.0,
            mean_extent=0.004,
        ).items()
    )
    total_pages = len(left.all_page_ids()) + len(right.all_page_ids())
    capacity = max(8, round(buffer_fraction * total_pages))
    rows: list[list[object]] = []
    lru_misses: int | None = None
    result_size = 0
    for name, factory in CORE_POLICIES.items():
        buffer = BufferManager(pagefile.disk, capacity, factory())
        with buffer.query_scope():
            pairs = spatial_join(left, right, buffer, buffer)
        result_size = len(pairs)
        misses = buffer.stats.misses
        if lru_misses is None:
            lru_misses = misses
        rows.append(
            ["sync-traversal", name, misses, format_gain(gain(lru_misses, misses))]
        )
    nested = BufferManager(pagefile.disk, capacity, LRU())
    with nested.query_scope():
        nested_loop_join(left, right, nested, nested)
    rows.append(
        [
            "nested-loop",
            "LRU",
            nested.stats.misses,
            format_gain(gain(lru_misses, nested.stats.misses)),
        ]
    )
    return FigureResult(
        figure="Ablation join",
        title="R-tree spatial join through a shared buffer",
        headers=["algorithm", "policy", "reads", "gain vs sync/LRU"],
        rows=rows,
        notes=(
            f"{n_left} x {n_right} objects, {result_size} result pairs, "
            f"buffer = {capacity} pages"
        ),
    )


def ablation_drifting_hotspot(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_queries: int | None = None,
) -> FigureResult:
    """A continuously moving hotspot (non-stationary beyond Figure 14).

    Figure 14 switches the distribution abruptly; real interactive loads
    drift.  The hotspot orbits the map, so the working set never stops
    moving — recency-driven policies follow naturally, a static spatial
    preference chases the past, and ASB's knob must keep re-tuning.
    """
    from repro.workloads.patterns import drifting_hotspot

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    count = n_queries or 2 * setup.n_queries
    queries = drifting_hotspot(
        database.dataset.space, count, seed=setup.seed, extent=0.03
    )
    accesses = compare_policies(database.tree, queries, CORE_POLICIES, capacity)
    rows = [
        [name, misses, format_gain(gain(accesses["LRU"], misses))]
        for name, misses in accesses.items()
    ]
    return FigureResult(
        figure="Ablation drifting-hotspot",
        title="A hotspot orbiting the map (continuously drifting working set)",
        headers=["policy", "reads", "gain vs LRU"],
        rows=rows,
        notes=f"{count} window queries, buffer = {capacity} pages",
    )


def ablation_knn(
    setup: PaperSetup,
    k_values: tuple[int, ...] = (1, 10, 50),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Nearest-neighbour workloads (a query type beyond the paper's study).

    Best-first kNN search re-touches high tree levels through its priority
    queue and spirals outward from the query point; its locality profile
    sits between point and window queries.  Query points follow the
    intensified distribution (the spatial policies' hardest case).
    """
    import random as random_module

    from repro.workloads.queries import KnnQuery

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    rng = random_module.Random(setup.seed)
    weights = [place.weight_intensified for place in database.places]
    rows: list[list[object]] = []
    for k in k_values:
        chosen = rng.choices(database.places, weights=weights, k=setup.n_queries)
        queries = [KnnQuery(point=place.location, k=k) for place in chosen]
        accesses = compare_policies(database.tree, queries, CORE_POLICIES, capacity)
        lru = accesses.pop("LRU")
        rows.append(
            [f"k={k}", lru]
            + [format_gain(gain(lru, misses)) for misses in accesses.values()]
        )
    return FigureResult(
        figure="Ablation knn",
        title="k-nearest-neighbour workloads (intensified query points)",
        headers=["workload", "LRU reads"] + list(CORE_POLICIES)[1:],
        rows=rows,
        notes=f"database 1, buffer = {capacity} pages",
    )


def ablation_io_time(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Random vs sequential I/O (paper future work #1, second half).

    The simulated disk charges a full seek for a random access and only
    the transfer time for a physically adjacent one.  Policies that evict
    structurally close pages together preserve more sequentiality, so the
    time ranking can differ from the pure access-count ranking.
    """
    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    disk = database.tree.pagefile.disk
    rows: list[list[object]] = []
    for set_name in ABLATION_SETS:
        query_set = database.query_set(set_name, setup.n_queries, setup.seed)
        for name, factory in CORE_POLICIES.items():
            reads_before = disk.stats.reads
            sequential_before = disk.stats.sequential_reads
            elapsed_before = disk.stats.elapsed_ms
            replay(database.tree, query_set, factory(), capacity)
            reads = disk.stats.reads - reads_before
            sequential = disk.stats.sequential_reads - sequential_before
            elapsed = disk.stats.elapsed_ms - elapsed_before
            rows.append(
                [
                    set_name,
                    name,
                    reads,
                    f"{sequential / reads:.1%}" if reads else "n/a",
                    f"{elapsed:.0f} ms",
                ]
            )
    return FigureResult(
        figure="Ablation io-time",
        title="Access counts vs simulated I/O time (random 10 ms, seq. 1 ms)",
        headers=["query set", "policy", "reads", "sequential", "sim. time"],
        rows=rows,
    )


#: Every ablation, by report label.  ``ablation_moving_objects`` is the one
#: alias: :func:`ablation_updates` with a pure moving-objects stream.
ALL_ABLATIONS: dict[str, Callable[[PaperSetup], FigureResult]] = {
    "ablation_overflow_size": ablation_overflow_size,
    "ablation_step_size": ablation_step_size,
    "ablation_sams": ablation_sams,
    "ablation_baselines": ablation_baselines,
    "ablation_pinned_levels": ablation_pinned_levels,
    "ablation_adaptive_buffers": ablation_adaptive_buffers,
    "ablation_object_pages": ablation_object_pages,
    "ablation_partitioned_buffer": ablation_partitioned_buffer,
    "ablation_updates": ablation_updates,
    "ablation_moving_objects": lambda setup: ablation_updates(setup, moving=True),
    "ablation_io_time": ablation_io_time,
    "ablation_join": ablation_join,
    "ablation_drifting_hotspot": ablation_drifting_hotspot,
    "ablation_knn": ablation_knn,
    "ablation_multiclient": ablation_multiclient,
    "ablation_opt_gap": ablation_opt_gap,
    "ablation_build_method": ablation_build_method,
}
