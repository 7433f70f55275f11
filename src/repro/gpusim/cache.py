"""Set-associative / fully-associative LRU caches with MSHRs.

The cache is a *tag* model: no data moves, only presence and timing.
Misses allocate an MSHR entry; further accesses to an in-flight line
become *pending hits* (the statistic Figure 12 breaks out).  Lines
remember whether a prefetch or a demand load brought them in, which is
what the Figure 20 effectiveness classification needs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

from ..core.config import CacheConfig


class AccessOutcome(Enum):
    """What a probe found."""

    HIT = "hit"
    PENDING_HIT = "pending_hit"  # line is in flight (MSHR merge)
    MISS = "miss"


# The members again as plain globals, in definition order: an enum
# member lookup costs about ten global reads on CPython 3.11.
HIT, PENDING_HIT, MISS = AccessOutcome


class LineMeta:
    """Per-resident-line metadata.

    A ``__slots__`` class rather than a dataclass: one instance exists
    per resident line and the fields are read on every probe, so the
    slot layout (no per-instance dict) measurably helps the replay
    engine.  The hot paths construct it positionally, which costs about
    half a keyword call.
    """

    __slots__ = ("filled_by_prefetch", "demand_touched", "fill_cycle")

    def __init__(
        self,
        filled_by_prefetch: bool = False,
        demand_touched: bool = False,
        fill_cycle: int = 0,
    ) -> None:
        self.filled_by_prefetch = filled_by_prefetch
        self.demand_touched = demand_touched
        self.fill_cycle = fill_cycle

    def __repr__(self) -> str:  # parity with the old dataclass repr
        return (
            f"LineMeta(filled_by_prefetch={self.filled_by_prefetch!r}, "
            f"demand_touched={self.demand_touched!r}, "
            f"fill_cycle={self.fill_cycle!r})"
        )


class MshrEntry:
    """An in-flight fill and the accesses waiting on it.

    ``__slots__`` for the same reason as :class:`LineMeta` — one
    allocation per miss, touched on every merge and fill.
    """

    __slots__ = ("line", "is_prefetch", "waiters")

    def __init__(
        self,
        line: int,
        is_prefetch: bool,  # True while only prefetches want this line
        waiters: Optional[List[Callable[[int], None]]] = None,
    ) -> None:
        self.line = line
        self.is_prefetch = is_prefetch
        self.waiters = [] if waiters is None else waiters


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
        # set index -> line -> LineMeta, in LRU order (oldest first).
        self._sets: Dict[int, "OrderedDict[int, LineMeta]"] = {}
        self._mshrs: Dict[int, MshrEntry] = {}
        #: called with the evicted line's meta whenever a line is dropped.
        self.eviction_listener: Optional[Callable[[int, LineMeta], None]] = None
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None

    # -- geometry ---------------------------------------------------------

    def line_of(self, address: int) -> int:
        return address // self._line_bytes

    def _set_of(self, line: int) -> int:
        return line % self._n_sets

    # -- queries ----------------------------------------------------------

    def contains(self, line: int) -> bool:
        set_map = self._sets.get(self._set_of(line))
        return bool(set_map) and line in set_map

    def in_flight(self, line: int) -> bool:
        return line in self._mshrs

    def mshr_full(self) -> bool:
        return len(self._mshrs) >= self._mshr_capacity

    def mshr_owner_is_prefetch(self, line: int) -> Optional[bool]:
        """True/False for an in-flight line's current owner; None if idle."""
        entry = self._mshrs.get(line)
        return entry.is_prefetch if entry is not None else None

    def line_meta(self, line: int) -> Optional[LineMeta]:
        set_map = self._sets.get(line % self._n_sets)
        if set_map is None:
            return None
        return set_map.get(line)

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
        * MISS — an MSHR entry is allocated (``waiter`` queued on it);
          the caller must send the fill request down and eventually call
          :meth:`fill`.

        ``cycle`` is observational only (it timestamps trace events).
        """
        stats = self.stats
        obs = self.obs
        if is_prefetch:
            stats.prefetch_accesses += 1
        else:
            stats.demand_accesses += 1
        set_map = self._sets.setdefault(line % self._n_sets, OrderedDict())
        meta = set_map.get(line)
        if meta is not None:
            set_map.move_to_end(line)
            if is_prefetch:
                stats.prefetch_hits += 1
            else:
                stats.demand_hits += 1
                if meta.filled_by_prefetch and not meta.demand_touched:
                    stats.demand_hits_on_prefetched += 1
                    if obs is not None:
                        self.trace_first_hit(cycle, line, meta.fill_cycle)
                meta.demand_touched = True
            if obs is not None:
                self.trace_access(cycle, line, "hit", is_prefetch)
            return AccessOutcome.HIT
        entry = self._mshrs.get(line)
        if entry is not None:
            if obs is not None:
                self.trace_merge(cycle, line, entry.is_prefetch, is_prefetch)
            if is_prefetch:
                stats.prefetch_pending_hits += 1
            else:
                stats.demand_pending_hits += 1
                if entry.is_prefetch:
                    stats.demand_pending_on_prefetch += 1
                    entry.is_prefetch = False  # a demand now owns the fill
            if waiter is not None:
                entry.waiters.append(waiter)
            if obs is not None:
                self.trace_access(cycle, line, "pending_hit", is_prefetch)
            return AccessOutcome.PENDING_HIT
        # Miss: allocate the MSHR.
        if is_prefetch:
            stats.prefetch_misses += 1
        else:
            stats.demand_misses += 1
        self._mshrs[line] = MshrEntry(
            line, is_prefetch, [] if waiter is None else [waiter]
        )
        if obs is not None:
            self.trace_access(cycle, line, "miss", is_prefetch)
        return AccessOutcome.MISS

    def fill(self, line: int, cycle: int) -> List[Callable[[int], None]]:
        """Install ``line`` (fill from below) and return its waiters.

        The caller invokes/schedules the returned waiters; the cache only
        handles residency, LRU victim selection, and fill attribution.
        """
        entry = self._mshrs.pop(line, None)
        set_map = self._sets.setdefault(line % self._n_sets, OrderedDict())
        if line not in set_map:
            if len(set_map) >= self._n_ways:
                victim, victim_meta = set_map.popitem(last=False)
                self.stats.evictions += 1
                if victim_meta.filled_by_prefetch and not victim_meta.demand_touched:
                    self.stats.prefetched_evicted_unused += 1
                if self.eviction_listener is not None:
                    self.eviction_listener(victim, victim_meta)
            set_map[line] = LineMeta(
                entry.is_prefetch if entry else False, False, cycle
            )
        if entry is None:
            return []
        return entry.waiters

    def invalidate(self, line: int) -> Optional[LineMeta]:
        """Remove a resident line (no-op if absent); returns its meta.

        Used by the stream buffer: on a demand hit the line migrates to
        the L1, so it leaves the buffer without counting as an eviction.
        """
        set_map = self._sets.get(self._set_of(line))
        if set_map is None:
            return None
        return set_map.pop(line, None)

    def flush(self) -> None:
        """Drop all resident lines (MSHRs must be idle)."""
        if self._mshrs:
            raise RuntimeError("cannot flush with fills in flight")
        self._sets.clear()

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
