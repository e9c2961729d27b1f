"""Equivalence tests for the slot-based hot path.

A seam-free buffer serves hits through the eager closure; attaching an
observer forces the decomposed ``begin_request``/``serve_hit`` path.
These tests pin the contract between the two:

* driving the same reference string through both modes produces the same
  hit/miss decisions, statistics, resident set, recency order, access
  counts, frame stamps and clock, and in both the recency chain is in
  strictly ascending ``last_access`` order;
* management operations (``switch_policy``, ``clear``, ``discard``)
  issued after unscoped hits see every hit fully applied.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.manager import BufferManager
from repro.buffer.policies import make_policy
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType

N_PAGES = 24
CAPACITY = 6

#: Policies covering every fast-path shape: plain no-hook recency (LRU,
#: MRU, SLRU, FIFO), hook-driven promotion (ASB, 2Q) and history-based
#: ranking (LRU-2).
POLICIES = ("LRU", "MRU", "SLRU", "FIFO", "ASB", "2Q", "LRU-2")


class NullSink:
    """An observer that records nothing — its presence alone forces the
    decomposed (seam-checked) fetch path."""

    def emit(self, event) -> None:  # noqa: ARG002
        pass


def make_disk(n_pages: int = N_PAGES) -> SimulatedDisk:
    disk = SimulatedDisk()
    for page_id in range(n_pages):
        page = Page(page_id=page_id, page_type=PageType.DATA)
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload=page_id))
        disk.store(page)
    return disk


def make_buffer(policy_name: str, observed: bool) -> BufferManager:
    buffer = BufferManager(make_disk(), CAPACITY, make_policy(policy_name))
    if observed:
        buffer.observer = NullSink()
    return buffer


def snapshot(buffer: BufferManager) -> dict:
    """Everything both modes must agree on (order matters for recency)."""
    chain = [frame.last_access for frame in buffer.frames.iter_recency()]
    assert all(a < b for a, b in zip(chain, chain[1:])), (
        "recency chain is not in strictly ascending last_access order"
    )
    return {
        "requests": buffer.stats.requests,
        "hits": buffer.stats.hits,
        "misses": buffer.stats.misses,
        "evictions": buffer.stats.evictions,
        "clock": buffer.clock,
        "recency": [frame.page.page_id for frame in buffer.frames.iter_recency()],
        "access_counts": {
            frame.page.page_id: frame.access_count
            for frame in buffer.frames.values()
        },
        "stamps": {
            frame.page.page_id: (frame.last_access, frame.last_query)
            for frame in buffer.frames.values()
        },
    }


# Each step: (page_id, scoped, peek).  ``scoped`` wraps the fetch in a
# query scope (its hits share the scope's query id); ``peek`` records the
# miss counter right after, so decisions are compared mid-trace.
trace_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_PAGES - 1),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


def drive(buffer: BufferManager, steps) -> list[int]:
    """Replay a trace; return the per-step miss counter (the decisions)."""
    decisions = []
    for page_id, scoped, peek in steps:
        if scoped:
            with buffer.query_scope():
                buffer.fetch(page_id)
        else:
            buffer.fetch(page_id)
        if peek:
            decisions.append(buffer.stats.misses)
    decisions.append(buffer.stats.misses)
    return decisions


class TestCrossModeEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(trace_steps, st.sampled_from(POLICIES))
    def test_fast_path_matches_decomposed_path(self, steps, policy_name):
        fast = make_buffer(policy_name, observed=False)
        slow = make_buffer(policy_name, observed=True)
        fast_decisions = drive(fast, steps)
        slow_decisions = drive(slow, steps)
        assert fast_decisions == slow_decisions
        assert snapshot(fast) == snapshot(slow)

    @settings(max_examples=10, deadline=None)
    @given(trace_steps)
    def test_observer_attach_mid_trace_preserves_state(self, steps):
        """Flipping a hot buffer into decomposed mode loses nothing."""
        half = len(steps) // 2
        fast = make_buffer("LRU", observed=False)
        slow = make_buffer("LRU", observed=True)
        drive(fast, steps[:half])
        drive(slow, steps[:half])
        fast.observer = NullSink()  # rebinds fetch to the decomposed path
        drive(fast, steps[half:])
        drive(slow, steps[half:])
        assert snapshot(fast) == snapshot(slow)


class TestManagementAfterUnscopedHits:
    def fill_with_unscoped_hits(self, policy_name: str = "LRU") -> BufferManager:
        buffer = make_buffer(policy_name, observed=False)
        for page_id in range(CAPACITY):
            buffer.fetch(page_id)
        for page_id in (2, 0, 4, 2, 1):  # all hits, outside any query scope
            buffer.fetch(page_id)
        return buffer

    def test_switch_policy_loses_no_pages(self):
        buffer = self.fill_with_unscoped_hits()
        resident_before = set(buffer.frames.keys())
        buffer.switch_policy(make_policy("MRU"))
        assert set(buffer.frames.keys()) == resident_before
        assert len(buffer) == CAPACITY
        stats = buffer.stats
        assert stats.hits + stats.misses == stats.requests
        assert stats.hits == 5
        # The new policy must be able to evict sanely right away.
        buffer.fetch(CAPACITY + 1)
        assert len(buffer) == CAPACITY

    def test_switch_policy_seeds_recency_order(self):
        buffer = self.fill_with_unscoped_hits()
        expected = [f.page.page_id for f in buffer.frames.iter_recency()]
        buffer.switch_policy(make_policy("LRU"))
        assert [f.page.page_id for f in buffer.frames.iter_recency()] == expected

    def test_clear_keeps_the_clock(self):
        buffer = self.fill_with_unscoped_hits()
        requests = CAPACITY + 5
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.stats.requests == 0
        # The clear resets stats, not the clock.
        assert buffer.clock == requests

    def test_discard_drops_only_the_target(self):
        buffer = self.fill_with_unscoped_hits()
        order = [f.page.page_id for f in buffer.frames.iter_recency()]
        buffer = self.fill_with_unscoped_hits()
        evictions = buffer.stats.evictions
        buffer.discard(4)
        assert not buffer.contains(4)
        assert buffer.stats.evictions == evictions + 1
        survivors = [f.page.page_id for f in buffer.frames.iter_recency()]
        assert survivors == [pid for pid in order if pid != 4]

    def test_discard_nonresident_is_noop(self):
        buffer = self.fill_with_unscoped_hits()
        before = snapshot(buffer)
        buffer.discard(N_PAGES + 100)
        assert snapshot(buffer) == before
