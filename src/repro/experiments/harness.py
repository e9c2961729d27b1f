"""Core experiment machinery.

The experimental protocol follows Section 3 of the paper:

* the database is an R*-tree over the dataset (max 51 directory / 42 data
  entries per page for database 1);
* buffer sizes are *relative* to the number of tree pages (0.3 %–4.7 %), so
  results carry over to larger databases;
* the buffer is cleared before each query set;
* every query runs inside a query scope (its page accesses are correlated);
* the reported metric is the number of disk accesses, and comparisons use
  the relative gain over LRU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.access import FullPageAccessor
from repro.buffer.manager import BufferManager
from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.lru import LRU
from repro.datasets.places import Place, synthetic_places
from repro.datasets.synthetic import Dataset
from repro.sam.base import SpatialIndex
from repro.sam.rstar import RStarTree
from repro.workloads.queries import Query
from repro.workloads.sets import QuerySet, make_query_set

#: A fresh policy per replay — policies bind to one buffer manager.
PolicyFactory = Callable[[], ReplacementPolicy]

#: The paper's relative buffer sizes (Section 3): 0.3 % to 4.7 % of the
#: tree's pages.
BUFFER_FRACTIONS = (0.003, 0.006, 0.012, 0.023, 0.047)


@dataclass(slots=True)
class Database:
    """A dataset indexed by an R*-tree, plus its places file."""

    dataset: Dataset
    tree: RStarTree
    places: list[Place]
    _query_sets: dict[tuple[str, int, int], QuerySet] = field(default_factory=dict)

    @property
    def page_count(self) -> int:
        return len(self.tree.all_page_ids())

    def query_set(self, name: str, count: int, seed: int = 0) -> QuerySet:
        """Build (and cache) a named query set for this database."""
        key = (name, count, seed)
        cached = self._query_sets.get(key)
        if cached is None:
            cached = make_query_set(name, self.dataset, self.places, count, seed)
            self._query_sets[key] = cached
        return cached


def build_database(
    dataset: Dataset,
    places: list[Place] | None = None,
    n_places: int = 1_500,
    max_dir_entries: int = 51,
    max_data_entries: int = 42,
    fill: float = 0.7,
    places_seed: int = 42,
) -> Database:
    """Index a dataset with an R*-tree (STR bulk load) and attach places.

    The page capacities default to the paper's database 1 (51/42); the fill
    factor of 0.7 reproduces its ~69 % storage utilisation.
    """
    tree = RStarTree(
        max_dir_entries=max_dir_entries, max_data_entries=max_data_entries
    )
    tree.bulk_load(dataset.items(), fill=fill)
    if places is None:
        places = synthetic_places(dataset, count=n_places, seed=places_seed)
    return Database(dataset=dataset, tree=tree, places=places)


def buffer_capacity(database: Database, fraction: float) -> int:
    """Buffer size in pages for a relative size (e.g. 0.047 for 4.7 %).

    Clamped below at 8 pages so every policy stays meaningful (ASB needs a
    non-empty overflow part, SLRU a non-trivial candidate set).
    """
    if fraction <= 0.0:
        raise ValueError("buffer fraction must be positive")
    return max(8, round(fraction * database.page_count))


def run_queries(
    accessor: FullPageAccessor,
    index: SpatialIndex,
    query_set: Iterable[Query],
    after_query: Callable[[int, FullPageAccessor], None] | None = None,
) -> FullPageAccessor:
    """Drive a query set through *any* page accessor.

    The harness core is accessor-generic: the same loop runs against a
    plain :class:`~repro.buffer.manager.BufferManager`, a partitioned one,
    the concurrent service, or an unbuffered accessor — each query inside
    its own query scope (the correlation unit).  ``after_query`` is an
    optional hook called with (query index, accessor) after each query.
    """
    for position, query in enumerate(query_set):
        with accessor.query_scope():
            query.run(index, accessor)
        if after_query is not None:
            after_query(position, accessor)
    return accessor


def replay(
    index: SpatialIndex,
    query_set: Iterable[Query],
    policy: ReplacementPolicy,
    capacity: int,
    after_query: Callable[[int, BufferManager], None] | None = None,
    observer=None,
) -> BufferManager:
    """Run a query set against a fresh buffer; return the buffer (stats).

    Convenience wrapper over :func:`run_queries` for the paper's standard
    setup: one fresh single-threaded buffer per replay.  ``after_query``
    is an optional hook called with (query index, buffer) after each query
    — used e.g. to sample ASB's candidate-set size for Figure 14.
    ``observer`` is an optional event sink receiving the buffer-event
    stream (see :mod:`repro.obs`).  Construction goes through the
    :meth:`repro.api.BufferSystem.build` facade (defaults are
    bit-identical to the historical hand wiring, which the golden-trace
    tests pin down).
    """
    from repro.api import BufferSystem

    system = BufferSystem.build(
        policy=policy,
        capacity=capacity,
        disk=index.pagefile.disk,
        trace=observer,
    )
    run_queries(system.buffer, index, query_set, after_query)
    return system.buffer


def replay_mixed(
    index: SpatialIndex,
    stream: list,
    policy: ReplacementPolicy,
    capacity: int,
    observer=None,
) -> BufferManager:
    """Run a mixed query/update stream through a buffer.

    Queries execute as usual; update operations (see
    :mod:`repro.workloads.updates`) run inside :meth:`SpatialIndex.via`,
    so their page accesses and dirty pages are charged to the policy.
    Each stream item is one correlated access burst (one query scope).
    Dirty pages remaining at the end are flushed, so the write count is
    complete.
    """
    from repro.workloads.updates import UpdateOp

    buffer = BufferManager(index.pagefile.disk, capacity, policy, observer=observer)
    with index.via(buffer):
        for item in stream:
            with buffer.query_scope():
                if isinstance(item, Query):
                    item.run(index)
                elif isinstance(item, UpdateOp):
                    item.apply(index)
                else:
                    raise TypeError(f"stream item {item!r} is neither query nor update")
    buffer.flush()
    return buffer


def pin_top_levels(
    tree: RStarTree, buffer: FullPageAccessor, levels: int
) -> int:
    """Pre-load and pin the top ``levels`` levels of a tree in a buffer.

    The buffer model of Leutenegger & Lopez (the paper's reference [8]):
    the root and the next ``levels - 1`` directory levels are fetched once
    and pinned, so they never leave the buffer.  Works against any page
    accessor with a ``capacity``.  Returns the number of pinned pages.
    Raises :class:`ValueError` if they would not fit.
    """
    if levels < 1:
        return 0
    if tree.root_id is None:
        return 0
    to_pin = [
        page_id
        for page_id in tree.all_page_ids()
        if tree.pagefile.disk.peek(page_id).level > tree.height - 1 - levels
    ]
    capacity = getattr(buffer, "capacity", None)
    if capacity is not None and len(to_pin) >= capacity:
        raise ValueError(
            f"pinning {len(to_pin)} pages exceeds the {capacity}-frame buffer"
        )
    for page_id in to_pin:
        buffer.fetch(page_id)
        buffer.pin(page_id)
    return len(to_pin)


def gain(lru_accesses: int, policy_accesses: int) -> float:
    """The paper's performance gain: |LRU accesses| / |policy accesses| - 1.

    Positive values mean the policy beats LRU; -0.2 means 20 % more disk
    accesses than LRU.
    """
    if policy_accesses <= 0:
        raise ValueError("policy access count must be positive")
    return lru_accesses / policy_accesses - 1.0


def compare_policies(
    index: SpatialIndex,
    query_set: Iterable[Query],
    policies: Mapping[str, PolicyFactory],
    capacity: int,
) -> dict[str, int]:
    """Disk accesses (buffer misses) per policy for one query set.

    Each policy replays the identical query sequence against its own fresh
    buffer, mirroring the paper's cleared-buffer protocol.
    """
    results: dict[str, int] = {}
    for name, factory in policies.items():
        buffer = replay(index, query_set, factory(), capacity)
        results[name] = buffer.stats.misses
    return results


def gains_vs_lru(
    index: SpatialIndex,
    query_set: Iterable[Query],
    policies: Mapping[str, PolicyFactory],
    capacity: int,
) -> dict[str, float]:
    """Relative gains of each policy over a plain LRU buffer."""
    lru_buffer = replay(index, query_set, LRU(), capacity)
    lru_misses = lru_buffer.stats.misses
    accesses = compare_policies(index, query_set, policies, capacity)
    return {name: gain(lru_misses, misses) for name, misses in accesses.items()}
