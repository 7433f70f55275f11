"""The treelet prefetcher (Section 4.1).

Each decision period the majority voter reads the warp buffer's vote
tally for the most popular next-treelet; the active heuristic decides
whether (and how much of) that treelet to prefetch; the resulting line
addresses enter the prefetch queue, which the RT unit drains one entry
per cycle when a memory port is free.  The prefetcher remembers the last treelet it
prefetched and never enqueues the same treelet twice in a row.

Mapping-table modes (Section 4.4, evaluated in Figure 14):

* ``mapping_mode=None`` — repacked BVH, node addresses derived directly.
* ``"loose"`` — table loads are simply prepended to the prefetch queue
  (best case: metadata could be fetched ahead of time).
* ``"strict"`` — treelet line prefetches are held back until every table
  load has returned (worst case).
"""

from __future__ import annotations

from typing import List, Optional

from .adaptive import AdaptiveThrottle
from .addresses import TreeletAddressMap
from .base import Prefetcher
from .heuristics import PrefetchHeuristic
from .voter import MajorityVoter, VoteTally

#: Default bound on queued prefetch entries (hardware FIFO depth).
DEFAULT_QUEUE_LIMIT = 128


class TreeletPrefetcher(Prefetcher):
    """Voter + heuristic + prefetch queue for one RT unit."""

    def __init__(
        self,
        address_map: TreeletAddressMap,
        heuristic: Optional[PrefetchHeuristic] = None,
        voter: Optional[MajorityVoter] = None,
        mapping_mode: Optional[str] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        adaptive: Optional[AdaptiveThrottle] = None,
    ) -> None:
        super().__init__(queue_limit)
        if mapping_mode not in (None, "loose", "strict"):
            raise ValueError(f"unknown mapping mode {mapping_mode!r}")
        if mapping_mode is not None and address_map.mapping_table is None:
            raise ValueError("mapping modes require a mapping table")
        self.address_map = address_map
        self.heuristic = heuristic or PrefetchHeuristic()
        #: when set, the live throttle replaces the static heuristic.
        self.adaptive = adaptive
        self.voter = voter or MajorityVoter()
        self.mapping_mode = mapping_mode
        #: the warp buffer's alive votes; the owning RT unit keeps it
        #: current as its rays advance.
        self.tally = VoteTally()

    # -- Prefetcher interface -------------------------------------------

    def on_cycle(self, cycle: int, warps, version: int = -1) -> None:
        # The RT unit checks the period and version gates before it
        # calls; direct callers rely on these checks.
        if cycle < self.decision_cycle:
            return
        if self.strict_outstanding:
            return  # Strict Wait: stalled on mapping-table loads
        if version >= 0 and version == self.decided_version:
            return  # identical warp-buffer state -> identical decision
        self.decision_cycle = cycle + self.voter.period
        self.decided_version = version
        decision = self.voter.decide(self.tally, warps, cycle)
        if decision is None:
            return
        winner, popularity, total_votes = decision
        if winner == self.last_prefetched_treelet:
            return  # never prefetch the same treelet twice in a row
        # Popularity ratio: paper divides by the warp buffer's capacity;
        # we divide by the rays actually voting so the POPULARITY
        # thresholds remain meaningful at reduced occupancy (DESIGN.md).
        ratio = min(1.0, popularity / max(1, total_votes))
        if self.adaptive is not None:
            fraction = self.adaptive.fraction_to_prefetch(ratio)
        else:
            fraction = self.heuristic.fraction_to_prefetch(ratio)
        self.stats.decisions += 1
        if self.obs is not None:
            self.obs.emit(
                "prefetch.decision",
                cycle,
                self.obs_track,
                args={
                    "winner": winner,
                    "popularity": popularity,
                    "total_votes": total_votes,
                    "fraction": fraction,
                },
            )
        if fraction <= 0.0:
            return
        lines = self.address_map.prefetch_lines(winner, fraction)
        if not lines:
            return
        self.last_prefetched_treelet = winner
        self.stats.treelets_prefetched += 1
        # Entries become issueable only after the voter latency elapses.
        # The gate is carried per entry: a decision landing while earlier
        # entries are still queued must not re-delay them.
        release = cycle + self.voter.latency
        if self.mapping_mode is None:
            self._enqueue_lines(lines, release=release)
        elif self.mapping_mode == "loose":
            self._enqueue_lines(
                self.address_map.mapping_lines(winner), "mapping",
                release=release,
            )
            self._enqueue_lines(lines, release=release)
        else:  # strict
            self._enqueue_strict(winner, lines, release)

    def on_feedback(self, cycle: int, counts) -> None:
        if self.adaptive is not None:
            self.adaptive.on_cycle(cycle, counts)

    # -- internals --------------------------------------------------------

    def _enqueue_lines(
        self, addresses: List[int], region: str = "node", release: int = 0
    ) -> None:
        for address in addresses:
            self.enqueue(address, region, release)

    def _enqueue_strict(
        self, treelet_id: int, lines: List[int], release: int
    ) -> None:
        """Strict Wait: node prefetches enqueue after table loads return,
        and the prefetcher makes no new decisions until then."""
        mapping = self.address_map.mapping_lines(treelet_id)
        if not mapping:
            self._enqueue_lines(lines, release=release)
            return
        self.strict_outstanding += len(mapping)

        def table_load_done(_cycle: int) -> None:
            self.strict_outstanding -= 1
            if self.strict_outstanding == 0:
                # Table loads returning implies the voter gate elapsed
                # long ago; the original release still applies.
                self._enqueue_lines(lines, release=release)

        for address in mapping:
            if not self.enqueue(address, "mapping", release, table_load_done):
                table_load_done(0)  # don't deadlock the release
