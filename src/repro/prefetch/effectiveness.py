"""Prefetch effectiveness classification (Figure 20).

Every issued prefetch ends up in exactly one bucket:

* **Too Late** — it hit in L1 on a line a previous demand load fetched.
* **Late** — it merged with an in-flight fill and a demand load was (or
  became) the owner: either the prefetch pending-hit a demand fill, or a
  demand load pending-hit the fill this prefetch started.
* **Timely** — a demand load later hit on the line it brought in.
* **Early** — the line it brought in was evicted before any demand use.
* **Unused** — the line it brought in was never demanded.
* (*Redundant* — it targeted a line an earlier prefetch already covers;
  reported separately and folded into Unused for the figure.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..gpusim.cache import AccessOutcome


@dataclass
class EffectivenessCounts:
    timely: int = 0
    late: int = 0
    too_late: int = 0
    early: int = 0
    unused: int = 0
    redundant: int = 0

    @property
    def issued(self) -> int:
        return (
            self.timely
            + self.late
            + self.too_late
            + self.early
            + self.unused
            + self.redundant
        )

    def fractions(self) -> Dict[str, float]:
        """Figure 20 bars: bucket shares (redundant folded into unused)."""
        total = self.issued
        if total == 0:
            return {
                "timely": 0.0,
                "late": 0.0,
                "too_late": 0.0,
                "early": 0.0,
                "unused": 0.0,
            }
        return {
            "timely": self.timely / total,
            "late": self.late / total,
            "too_late": self.too_late / total,
            "early": self.early / total,
            "unused": (self.unused + self.redundant) / total,
        }

    def merge(self, other: "EffectivenessCounts") -> None:
        self.timely += other.timely
        self.late += other.late
        self.too_late += other.too_late
        self.early += other.early
        self.unused += other.unused
        self.redundant += other.redundant


class PrefetchEffectivenessTracker:
    """Tracks one L1's prefetch episodes from memory-system callbacks.

    An *episode* is the life of one prefetch-initiated line: in flight,
    then resident-untouched, then resolved (timely / early / unused).

    A line's ``state`` is the cache's packed line state
    (:data:`~repro.gpusim.cache.DEMANDED`, or the fill cycle of a
    prefetch fill no demand has touched), read before the probe.
    """

    _IN_FLIGHT = "in_flight"
    _RESIDENT = "resident"

    def __init__(self) -> None:
        self.counts = EffectivenessCounts()
        self._episodes: Dict[int, str] = {}

    def on_prefetch_probe(
        self,
        line: int,
        outcome: AccessOutcome,
        prior_state: Optional[int],
        prior_owner_is_prefetch: Optional[bool],
    ) -> None:
        """Classify a prefetch at its L1 probe (pre-probe state supplied)."""
        if outcome is AccessOutcome.HIT:
            assert prior_state is not None
            if prior_state >= 0:
                self.counts.redundant += 1
            else:
                self.counts.too_late += 1
        elif outcome is AccessOutcome.PENDING_HIT:
            if prior_owner_is_prefetch:
                self.counts.redundant += 1
            else:
                self.counts.late += 1
        else:  # MISS: this prefetch starts a fill.
            self._episodes[line] = self._IN_FLIGHT

    def on_demand_probe(
        self,
        line: int,
        outcome: AccessOutcome,
        prior_state: Optional[int],
        prior_owner_is_prefetch: Optional[bool],
    ) -> None:
        """Observe a demand probe; resolves episodes the demand touches."""
        if outcome is AccessOutcome.HIT:
            assert prior_state is not None
            if prior_state >= 0:
                if self._episodes.pop(line, None) is not None:
                    self.counts.timely += 1
        elif outcome is AccessOutcome.PENDING_HIT:
            if prior_owner_is_prefetch:
                # The demand caught the prefetch mid-flight.
                if self._episodes.pop(line, None) is not None:
                    self.counts.late += 1

    def on_fill(self, line: int, filled_by_prefetch: bool) -> None:
        if filled_by_prefetch and self._episodes.get(line) == self._IN_FLIGHT:
            self._episodes[line] = self._RESIDENT

    def on_eviction(self, line: int, state: int) -> None:
        if state >= 0:
            if self._episodes.pop(line, None) is not None:
                self.counts.early += 1

    def finalize(self) -> EffectivenessCounts:
        """Resolve still-open episodes (never demanded) as unused."""
        self.counts.unused += len(self._episodes)
        self._episodes.clear()
        return self.counts
