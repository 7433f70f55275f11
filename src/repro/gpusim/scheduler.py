"""RT unit warp scheduling policies (Section 4.3).

* **BASELINE** — oldest warp with any issue-ready ray; drains the oldest
  warp to free warp-buffer space quickly.
* **OMR** (Oldest warp with Matching Ray) — oldest warp with a ready ray
  whose next treelet matches the most recently prefetched treelet;
  falls back to BASELINE when none matches.
* **PMR** (Prioritize Most Rays) — the warp with the most ready rays
  matching the prefetched treelet; falls back to BASELINE.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .warp import WarpSlot

#: A policy's warp choice: ``(warps, prefetched_treelet) -> warp``.
Scheduler = Callable[[List[WarpSlot], Optional[int]], Optional[WarpSlot]]


def select_oldest(
    warps: List[WarpSlot], prefetched_treelet: Optional[int] = None
) -> Optional[WarpSlot]:
    """BASELINE: the oldest warp with an issue-ready ray."""
    for warp in warps:
        if warp.ready_count > 0:
            return warp
    return None


def select_omr(
    warps: List[WarpSlot], prefetched_treelet: Optional[int]
) -> Optional[WarpSlot]:
    """OMR: the oldest ready warp with a ray matching the prefetched
    treelet, else the oldest ready warp (no treelet matches None)."""
    oldest = None
    for warp in warps:
        if warp.ready_count > 0:
            if warp.ready_treelet_counts.get(prefetched_treelet, 0) > 0:
                return warp
            if oldest is None:
                oldest = warp
    return oldest


def select_pmr(
    warps: List[WarpSlot], prefetched_treelet: Optional[int]
) -> Optional[WarpSlot]:
    """PMR: the ready warp with the most rays matching the prefetched
    treelet, else the oldest ready warp.  Age breaks ties: the scan is in
    age order and only a strictly higher count displaces the leader."""
    oldest = None
    best = None
    best_count = 0
    for warp in warps:
        if warp.ready_count > 0:
            if oldest is None:
                oldest = warp
            count = warp.ready_treelet_counts.get(prefetched_treelet, 0)
            if count > best_count:
                best, best_count = warp, count
    return best if best is not None else oldest


SCHEDULERS: Dict[str, Scheduler] = {
    "baseline": select_oldest,
    "omr": select_omr,
    "pmr": select_pmr,
}
SCHEDULER_NAMES = tuple(SCHEDULERS)


def scheduler_for(policy: str) -> Scheduler:
    """The selection function of ``policy``; raises ValueError for an
    unknown name.  An RT unit resolves its policy once, here.

    The function picks the warp the memory scheduler serves this cycle
    from ``warps`` in age order (oldest first), or None when no warp has
    an issue-ready ray.
    """
    try:
        return SCHEDULERS[policy]
    except KeyError:
        raise ValueError(f"unknown scheduler policy {policy!r}") from None
