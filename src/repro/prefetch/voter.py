"""Treelet address majority voters (Section 4.1.1 / Section 6.5).

Two models:

* **full** — an idealized single-cycle majority over every ray in the
  warp buffer (the paper's reference voter; unbuildable in one cycle).
* **pseudo** — the two-level design: a first-level table finds each
  warp's most popular treelet, a second-level 16-entry table finds the
  most popular among the per-warp winners.  Counting takes time, modeled
  as a configurable decision latency (Figure 16's sweep: 512 cycles for
  one shared first-level table down to 32 when fully duplicated).

The module also carries the Section 6.5 area/storage arithmetic so the
overhead numbers are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Dict, Iterable, List, Optional, Tuple

#: Bits per first-level entry: 23-bit treelet root address + 4-bit count.
FIRST_LEVEL_ENTRY_BITS = 23 + 4
FIRST_LEVEL_ENTRIES = 32
#: Bits per second-level entry: 23-bit address + 3-bit count.
SECOND_LEVEL_ENTRY_BITS = 23 + 3
SECOND_LEVEL_ENTRIES = 16
#: FreePDK45 synthesis result for the voter's sequential logic (paper).
SEQUENTIAL_AREA_UM2 = 461.0


def first_level_table_bytes() -> int:
    """108 bytes, matching the paper's arithmetic."""
    return FIRST_LEVEL_ENTRIES * FIRST_LEVEL_ENTRY_BITS // 8


def second_level_table_bytes() -> int:
    """52 bytes, matching the paper's arithmetic."""
    return SECOND_LEVEL_ENTRIES * SECOND_LEVEL_ENTRY_BITS // 8


def voter_storage_bytes(first_level_copies: int = 1) -> int:
    """Total table storage for a design with N first-level table copies."""
    if first_level_copies < 1:
        raise ValueError("need at least one first-level table")
    return (
        first_level_copies * first_level_table_bytes()
        + second_level_table_bytes()
    )


def voter_latency_for_copies(
    first_level_copies: int, warp_size: int = 32, warp_buffer_size: int = 16
) -> int:
    """Decision latency: one thread counted per table per cycle.

    One shared table counts all ``warp_buffer_size * warp_size`` threads
    sequentially (512 cycles); duplicating the table divides the latency
    (4 copies -> 128 cycles, 16 copies -> 32 cycles).
    """
    if first_level_copies < 1:
        raise ValueError("need at least one first-level table")
    total_threads = warp_size * warp_buffer_size
    copies = min(first_level_copies, warp_buffer_size)
    # Ceiling division: a table with a partial share of the threads
    # still takes a full cycle for its last (short) counting pass.
    return -(-total_threads // copies)


@dataclass
class VoterStats:
    decisions: int = 0
    agreements: int = 0  # pseudo winner == full winner

    @property
    def accuracy(self) -> float:
        if self.decisions == 0:
            return 0.0
        return self.agreements / self.decisions


class VoteTally:
    """The warp buffer's alive next-treelet votes, kept as they change.

    ``counts`` maps a treelet to the alive rays voting for it (no zero
    entries, no ``-1`` key) and ``total`` is their sum.  A lazy max-heap
    of ``(-count, treelet)`` entries answers :meth:`top` in amortized
    O(log n): an increment pushes the new count, a decrement pushes
    nothing, so every voted treelet keeps an entry whose count is at
    least its current one, and :meth:`top` re-keys or drops stale heads
    until the head is current.  The heap is rebuilt from ``counts``
    when stale entries outnumber the live ones.
    """

    __slots__ = ("counts", "total", "_heap")

    #: heap entries beyond twice the voted treelets that trigger a rebuild.
    SLACK = 32

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0
        self._heap: List[Tuple[int, int]] = []

    def add(self, treelet: int) -> None:
        """One more alive ray votes for ``treelet``."""
        counts = self.counts
        count = counts.get(treelet, 0) + 1
        counts[treelet] = count
        self.total += 1
        heap = self._heap
        heappush(heap, (-count, treelet))
        if len(heap) > 2 * len(counts) + self.SLACK:
            self._rebuild()

    def remove(self, treelet: int) -> None:
        """One alive ray stops voting for ``treelet``."""
        counts = self.counts
        count = counts[treelet] - 1
        if count:
            counts[treelet] = count
        else:
            del counts[treelet]
        self.total -= 1

    def move(self, old: int, new: int) -> None:
        """A ray's vote moves from ``old`` to ``new`` (``-1``: none):
        :meth:`remove` then :meth:`add`, inlined, as the replay calls
        it on every treelet change of every ray."""
        counts = self.counts
        if old != -1:
            count = counts[old] - 1
            if count:
                counts[old] = count
            else:
                del counts[old]
            self.total -= 1
        if new != -1:
            count = counts.get(new, 0) + 1
            counts[new] = count
            self.total += 1
            heap = self._heap
            heappush(heap, (-count, new))
            if len(heap) > 2 * len(counts) + self.SLACK:
                self._rebuild()

    def _rebuild(self) -> None:
        """Drop every stale heap entry: one entry per voted treelet."""
        heap = self._heap
        heap[:] = [(-count, treelet) for treelet, count in self.counts.items()]
        heapify(heap)

    def top(self) -> Optional[int]:
        """The treelet with the most votes, ties to the lowest id; None
        when nobody votes."""
        heap = self._heap
        counts = self.counts
        while heap:
            negative, treelet = heap[0]
            count = counts.get(treelet, 0)
            if count == -negative:
                return treelet
            if count:
                heapreplace(heap, (-count, treelet))
            else:
                heappop(heap)
        return None


class MajorityVoter:
    """Finds the most popular next-treelet across the warp buffer."""

    def __init__(self, mode: str = "full", latency: int = 0) -> None:
        if mode not in ("full", "pseudo"):
            raise ValueError(f"unknown voter mode {mode!r}")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.mode = mode
        self.latency = latency
        self.stats = VoterStats()
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None
        #: trace track name (the observer stamps in the SM id).
        self.obs_track = "Voter"

    @property
    def period(self) -> int:
        """Cycles between decisions (at least one)."""
        return max(1, self.latency)

    @property
    def reads_warps(self) -> bool:
        """Whether :meth:`decide` reads per-warp vote counts (the pseudo
        voter's first level); the full voter reads the tally only."""
        return self.mode == "pseudo"

    def decide(
        self, tally: VoteTally, warps: Iterable = (), cycle: int = 0
    ) -> Optional[Tuple[int, int, int]]:
        """Return ``(winner_treelet, popularity, total_votes)`` or None.

        ``tally`` holds the warp buffer's merged votes.  ``popularity``
        is the number of warp-buffer rays headed for the winner (the
        "ones counter" output) and ``total_votes`` the number of rays
        that voted — the denominator the popularity heuristics use.
        ``warps`` are :class:`~repro.gpusim.warp.WarpSlot`-likes exposing
        ``alive_treelet_counts`` and ``winner_treelet()``; only the
        pseudo voter reads them.  ``cycle`` is observational only (it
        timestamps trace events).
        """
        full_winner = tally.top()
        if full_winner is None:
            return None
        counts = tally.counts
        if self.mode == "full":
            winner = full_winner
        else:
            # Second level: tally each warp's (winner, count) pair.  Only
            # the per-warp winners survive level one — minority treelets
            # within a warp are invisible to level two, which is exactly
            # where the pseudo voter loses accuracy vs the full majority.
            level_two: Dict[int, int] = {}
            for warp in warps:
                warp_winner = warp.winner_treelet()
                if warp_winner is not None:
                    level_two[warp_winner] = (
                        level_two.get(warp_winner, 0)
                        + warp.alive_treelet_counts[warp_winner]
                    )
            if not level_two:
                return None
            winner = min(level_two, key=lambda t: (-level_two[t], t))
        self.stats.decisions += 1
        if winner == full_winner:
            self.stats.agreements += 1
        popularity = counts[winner]
        if self.obs is not None:
            self.obs.emit(
                "voter.decide",
                cycle,
                self.obs_track,
                args={
                    "mode": self.mode,
                    "winner": winner,
                    "full_winner": full_winner,
                    "agreed": winner == full_winner,
                    "popularity": popularity,
                    "total_votes": tally.total,
                },
            )
        return winner, popularity, tally.total
