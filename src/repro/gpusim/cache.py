"""Set-associative / fully-associative LRU caches with MSHRs.

The cache is a *tag* model: no data moves, only presence and timing.
Misses allocate an MSHR, a list of the accesses waiting on the fill;
further accesses to an in-flight line become *pending hits* (the
statistic Figure 12 breaks out).  A resident line's state is one int:
its fill cycle while it is a prefetch fill no demand has touched, else
:data:`DEMANDED`.  That is what the Figure 20 effectiveness
classification needs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Set

from ..core.config import CacheConfig


class AccessOutcome(Enum):
    """What a probe found."""

    HIT = "hit"
    PENDING_HIT = "pending_hit"  # line is in flight (MSHR merge)
    MISS = "miss"


# The members again as plain globals, in definition order: an enum
# member lookup costs about ten global reads on CPython 3.11.
HIT, PENDING_HIT, MISS = AccessOutcome


#: The state of a resident line that a demand brought in or has touched.
#: A prefetch fill no demand has touched holds its fill cycle instead, so
#: ``state >= 0`` is the test for an untouched prefetched line.
DEMANDED = -1


@dataclass
class CacheStats:
    """Raw counters; Figure 12's bars are ratios of these."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_hits_on_prefetched: int = 0
    demand_pending_hits: int = 0
    demand_pending_on_prefetch: int = 0  # demand merged into prefetch fill
    demand_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_hits: int = 0
    prefetch_pending_hits: int = 0
    prefetch_misses: int = 0
    evictions: int = 0
    prefetched_evicted_unused: int = 0

    @property
    def accesses(self) -> int:
        return self.demand_accesses + self.prefetch_accesses


class Cache:
    """One cache level (tag + MSHR timing model).

    The owner drives it with :meth:`probe` and :meth:`fill`; the cache
    itself never talks to the next level — the memory system composes
    levels explicitly so the L1/L2/DRAM path stays easy to follow.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # Geometry, resolved once: the address math runs on every access
        # of every cache level, so chasing config properties there costs
        # more than the lookups themselves.
        self._line_bytes = config.line_bytes
        self._n_sets = config.n_sets
        self._n_ways = (
            config.n_lines if config.associativity == 0 else config.associativity
        )
        self._mshr_capacity = config.mshr_entries
        #: per set index: line -> line state, in LRU order (oldest first).
        self._sets: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(self._n_sets)
        ]
        #: in-flight line -> the waiters its fill serves.
        self._mshrs: Dict[int, list] = {}
        #: the in-flight lines only prefetches want; a demand merging
        #: into one of these fills takes it over.
        self._prefetch_mshrs: Set[int] = set()
        #: called with the evicted line and its state whenever a line is
        #: dropped.
        self.eviction_listener: Optional[Callable[[int, int], None]] = None
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None

    # -- geometry ---------------------------------------------------------

    def line_of(self, address: int) -> int:
        return address // self._line_bytes

    # -- queries ----------------------------------------------------------

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self._n_sets]

    def in_flight(self, line: int) -> bool:
        return line in self._mshrs

    def mshr_full(self) -> bool:
        return len(self._mshrs) >= self._mshr_capacity

    def mshr_owner_is_prefetch(self, line: int) -> Optional[bool]:
        """True/False for an in-flight line's current owner; None if idle."""
        if line not in self._mshrs:
            return None
        return line in self._prefetch_mshrs

    def line_state(self, line: int) -> Optional[int]:
        """A resident line's state (see :data:`DEMANDED`); None if absent."""
        return self._sets[line % self._n_sets].get(line)

    # -- operations -------------------------------------------------------

    def probe(
        self,
        line: int,
        is_prefetch: bool,
        waiter: Optional[Callable[[int], None]] = None,
        cycle: int = 0,
    ) -> AccessOutcome:
        """Look up ``line``, update LRU/stats, and register a waiter.

        * HIT — data resident; the caller schedules the response itself
          after the hit latency.
        * PENDING_HIT — ``waiter`` is queued on the in-flight MSHR and
          will be invoked at fill time.
        * MISS — an MSHR is allocated (``waiter`` queued on it); the
          caller must send the fill request down and eventually call
          :meth:`fill`.

        ``cycle`` is observational only (it timestamps trace events).
        """
        stats = self.stats
        obs = self.obs
        if is_prefetch:
            stats.prefetch_accesses += 1
        else:
            stats.demand_accesses += 1
        set_map = self._sets[line % self._n_sets]
        state = set_map.get(line)
        if state is not None:
            set_map.move_to_end(line)
            if is_prefetch:
                stats.prefetch_hits += 1
            else:
                stats.demand_hits += 1
                if state >= 0:
                    stats.demand_hits_on_prefetched += 1
                    if obs is not None:
                        self.trace_first_hit(cycle, line, state)
                    set_map[line] = DEMANDED
            if obs is not None:
                self.trace_access(cycle, line, "hit", is_prefetch)
            return HIT
        waiters = self._mshrs.get(line)
        if waiters is not None:
            prefetch_mshrs = self._prefetch_mshrs
            if obs is not None:
                self.trace_merge(
                    cycle, line, line in prefetch_mshrs, is_prefetch
                )
            if is_prefetch:
                stats.prefetch_pending_hits += 1
            else:
                stats.demand_pending_hits += 1
                if line in prefetch_mshrs:
                    stats.demand_pending_on_prefetch += 1
                    prefetch_mshrs.remove(line)  # a demand now owns the fill
            if waiter is not None:
                waiters.append(waiter)
            if obs is not None:
                self.trace_access(cycle, line, "pending_hit", is_prefetch)
            return PENDING_HIT
        # Miss: allocate the MSHR.
        if is_prefetch:
            stats.prefetch_misses += 1
            self._prefetch_mshrs.add(line)
        else:
            stats.demand_misses += 1
        self._mshrs[line] = [] if waiter is None else [waiter]
        if obs is not None:
            self.trace_access(cycle, line, "miss", is_prefetch)
        return MISS

    def fill(self, line: int, cycle: int) -> List[Callable[[int], None]]:
        """Install ``line`` (fill from below) and return its waiters.

        The caller invokes/schedules the returned waiters; the cache only
        handles residency, LRU victim selection, and fill attribution.
        """
        waiters = self._mshrs.pop(line, None)
        prefetch_mshrs = self._prefetch_mshrs
        if line in prefetch_mshrs:
            prefetch_mshrs.remove(line)
            state = cycle
        else:
            state = DEMANDED
        set_map = self._sets[line % self._n_sets]
        if line not in set_map:
            if len(set_map) >= self._n_ways:
                victim, victim_state = set_map.popitem(last=False)
                self.stats.evictions += 1
                if victim_state >= 0:
                    self.stats.prefetched_evicted_unused += 1
                if self.eviction_listener is not None:
                    self.eviction_listener(victim, victim_state)
            set_map[line] = state
        return [] if waiters is None else waiters

    def invalidate(self, line: int) -> Optional[int]:
        """Remove a resident line (no-op if absent); returns its state.

        Used by the stream buffer: on a demand hit the line migrates to
        the L1, so it leaves the buffer without counting as an eviction.
        """
        return self._sets[line % self._n_sets].pop(line, None)

    def flush(self) -> None:
        """Drop all resident lines (MSHRs must be idle)."""
        if self._mshrs:
            raise RuntimeError("cannot flush with fills in flight")
        for set_map in self._sets:
            set_map.clear()

    # -- trace emits (callers check ``obs is not None`` first) -------------

    def trace_access(
        self, cycle: int, line: int, outcome: str, is_prefetch: bool
    ) -> None:
        self.obs.emit(
            "cache.access",
            cycle,
            self.name,
            args={"line": line, "outcome": outcome, "prefetch": is_prefetch},
        )

    def trace_merge(
        self, cycle: int, line: int, owner_prefetch: bool, is_prefetch: bool
    ) -> None:
        self.obs.emit(
            "mshr.merge",
            cycle,
            self.name,
            args={
                "line": line,
                "owner_prefetch": owner_prefetch,
                "prefetch": is_prefetch,
            },
        )

    def trace_first_hit(self, cycle: int, line: int, fill_cycle: int) -> None:
        self.obs.emit(
            "prefetch.first_hit",
            cycle,
            self.name,
            args={"line": line, "fill_cycle": fill_cycle},
        )
