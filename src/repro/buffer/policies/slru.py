"""SLRU: the static combination of LRU and a spatial criterion.

Section 4.1 of the paper: (1) LRU computes a *candidate set* — the
least-recently-used fraction of the buffer — and (2) the spatial criterion
selects the victim from the candidates.  A large candidate set gives the
spatial criterion more influence, a small one approaches plain LRU; the
fraction is fixed up front (the paper evaluates 50 % and 25 % in Fig. 12).

The adaptive variant that tunes the candidate-set size at run time is
:class:`repro.buffer.policies.asb.ASB`.
"""

from __future__ import annotations

import math

from repro.buffer.frames import Frame, FrameTable
from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.spatial import SPATIAL_CRITERIA, spatial_criterion
from repro.storage.page import PageId


def select_from_candidates(
    frames: list[Frame], candidate_count: int, criterion: str
) -> Frame:
    """The paper's two-step victim rule on an explicit frame list.

    Takes the ``candidate_count`` least-recently-used frames, then returns
    the candidate with the smallest spatial criterion (LRU order breaks
    ties, because the sort below is stable and sorted by recency first).
    """
    count = max(1, min(candidate_count, len(frames)))
    by_recency = sorted(frames, key=lambda frame: frame.last_access)
    candidates = by_recency[:count]
    return min(candidates, key=lambda frame: spatial_criterion(frame, criterion))


class SLRU(ReplacementPolicy):
    """LRU candidate set of a fixed fraction + spatial victim selection.

    ``candidate_fraction`` is the candidate-set size (the same concept —
    and the same keyword — as ASB's initial candidate fraction).
    """

    def __init__(self, candidate_fraction: float = 0.25, criterion: str = "A") -> None:
        super().__init__()
        if not 0.0 < candidate_fraction <= 1.0:
            raise ValueError("candidate fraction must be in (0, 1]")
        if criterion not in SPATIAL_CRITERIA:
            raise ValueError(f"unknown spatial criterion {criterion!r}")
        self.candidate_fraction = candidate_fraction
        self.criterion = criterion
        self.name = f"SLRU {int(round(candidate_fraction * 100))}%"

    def retune(
        self,
        *,
        candidate_fraction: float | None = None,
        criterion: str | None = None,
        **kwargs,
    ) -> None:
        """Change the candidate fraction / criterion of a live instance."""
        super().retune(**kwargs)
        if criterion is not None:
            if criterion not in SPATIAL_CRITERIA:
                raise ValueError(f"unknown spatial criterion {criterion!r}")
            self.criterion = criterion
        if candidate_fraction is not None:
            if not 0.0 < candidate_fraction <= 1.0:
                raise ValueError("candidate fraction must be in (0, 1]")
            self.candidate_fraction = candidate_fraction
            self.name = f"SLRU {int(round(candidate_fraction * 100))}%"

    def candidate_count(self) -> int:
        """Size of the candidate set for the current buffer capacity."""
        return max(1, math.ceil(self.candidate_fraction * self.buffer.capacity))

    def select_victim(self) -> PageId:
        frames = self.buffer.frames
        if isinstance(frames, FrameTable):
            # The recency chain is ordered by last access, so the first
            # ``candidate_count`` unpinned frames off the LRU head are
            # exactly the stable-sorted candidate prefix the paper's rule
            # asks for — no sort, O(candidates + pinned skips).
            count = self.candidate_count()
            criterion = self.criterion
            frame = frames.head
            victim = None
            best = 0.0
            while frame is not None and count > 0:
                if frame.pin_count == 0:
                    count -= 1
                    value = frame.crit_cache.get(criterion)
                    if value is None:
                        value = spatial_criterion(frame, criterion)
                    if victim is None or value < best:
                        victim = frame
                        best = value
                frame = frame.lru_next
            if victim is None:
                from repro.buffer.manager import BufferFullError

                raise BufferFullError("all resident pages are pinned")
            return victim.page.page_id
        evictable = self._evictable()
        victim = select_from_candidates(
            evictable, self.candidate_count(), self.criterion
        )
        return victim.page_id
