"""The L1 -> L2 -> DRAM request path.

One private L1 per SM, a shared L2, and partitioned DRAM, glued together
by a per-cycle agenda.  This module owns all memory *timing*; the caches
themselves are pure tag models.

Latency accounting matches the paper's reporting: the "memory latency of
demand loads" (Figure 1b) is measured from RT-unit issue to response,
for demand accesses to BVH node data.

Two prefetch destinations are modeled (``GpuConfig.prefetch_destination``):

* ``"l1"`` — prefetched lines fill the L1 directly (the paper's RT-unit
  prefetcher).
* ``"stream"`` — prefetched lines fill a small per-SM stream buffer
  probed on L1 misses; a buffer hit migrates the line into the L1
  (Jouppi-style, Section 2.3).  This trades pollution for an extra
  transfer step and is compared in the ``ablation_destination``
  experiment.

Outstanding work lives in per-cycle *agenda buckets* (``cycle ->
[record tuples]``), and a heap holds each pending bucket's cycle once.
The replay engine flushes due buckets with :meth:`MemorySystem.flush_due`
and the trailing ones with :meth:`MemorySystem.drain`.  A flush
classifies every L2 transfer of its bucket against the L2 tag/MSHR
state in one pass.  MSHR waiters are tuples rather than closures: an
L2 waiter is ``(fill_kind, sm)``, and an L1 demand waiter is the RT
unit's ``(is_node, warp, rays, issue_cycle, address)`` record, which
the fill hands to that unit.  Trace emits sit on this one path, each
under an ``obs is not None`` guard, so an observed run executes exactly
the code an unobserved one does.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.config import GpuConfig
from ..prefetch.effectiveness import PrefetchEffectivenessTracker
from .cache import DEMANDED, HIT, MISS, PENDING_HIT, AccessOutcome, Cache
from .dram import Dram

ResponseCallback = Callable[[int], None]

#: Address-region tags used for statistics.
REGION_NODE = "node"
REGION_PRIMITIVE = "primitive"
REGION_MAPPING = "mapping"

# Agenda record kinds.  Records are plain tuples headed by one of these
# tags; 0-2 are L2 transfers still carrying a byte address, 3-5 are
# fills carrying a line id, 6 wraps an arbitrary callback.
_TO_L2_DEMAND = 0  # (0, sm, address): demand miss heading to L2 -> L1
_TO_L2_PREFETCH = 1  # (1, sm, address): prefetch heading to L2 -> L1
_TO_L2_STREAM = 2  # (2, sm, address): prefetch heading to L2 -> stream buffer
_FILL_L1 = 3  # (3, sm, line): line lands in the SM's L1
_FILL_STREAM = 4  # (4, sm, line): line lands in the SM's stream buffer
_FILL_L2 = 5  # (5, line): DRAM data lands in the L2
_CALL = 6  # (6, callback): a response callback due this cycle


@dataclass
class LatencyStats:
    """Issue-to-response latency accumulator."""

    total_cycles: int = 0
    count: int = 0

    def record(self, latency: int) -> None:
        self.total_cycles += latency
        self.count += 1

    @property
    def average(self) -> float:
        return self.total_cycles / self.count if self.count else 0.0


@dataclass
class L2TrafficStats:
    """Traffic arriving at L2 (the Figure 11 'L2 BW' numerator)."""

    demand_accesses: int = 0
    prefetch_accesses: int = 0
    line_bytes: int = 128

    @property
    def total_bytes(self) -> int:
        return (self.demand_accesses + self.prefetch_accesses) * self.line_bytes


class MemorySystem:
    """Per-GPU memory hierarchy shared by all RT units."""

    def __init__(self, config: GpuConfig) -> None:
        self.config = config
        self.l1s: List[Cache] = [
            Cache(config.l1, name=f"L1[{sm}]") for sm in range(config.n_sms)
        ]
        self.l2 = Cache(config.l2, name="L2")
        self.dram = Dram(config.dram)
        self.node_demand_latency = LatencyStats()
        self.all_demand_latency = LatencyStats()
        self.l2_traffic = L2TrafficStats(line_bytes=config.l2.line_bytes)
        self.trackers: List[PrefetchEffectivenessTracker] = [
            PrefetchEffectivenessTracker() for _ in range(config.n_sms)
        ]
        self.uses_stream_buffers = config.prefetch_destination == "stream"
        self.stream_buffers: List[Cache] = []
        self.stream_buffer_hits = 0
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None
        #: RT units indexed by SM; each unit installs itself.  An L1 fill
        #: hands the demand records parked in its MSHR to its SM's unit,
        #: and every L1 or stream-buffer fill marks that unit dirty so the
        #: replay engine visits it in the cycle the data lands — fills
        #: are also the only transition that frees an MSHR, which makes a
        #: unit's sleep on full MSHRs exact.
        self.units: list = [None] * config.n_sms
        self._agenda: Dict[int, list] = {}
        #: heap of the agenda's bucket cycles, one entry per bucket.
        self.agenda_cycles: List[int] = []
        #: Invariant locals for :meth:`_flush`, packed once so the (hot,
        #: often tiny-bucket) flush unpacks a single attribute instead
        #: of rebinding a dozen.  Every component is stable for this
        #: object's lifetime (``Cache.flush`` clears each set in place).
        self._flush_env = (
            self.l2,
            self.l2.stats,
            self.l2._sets,
            self.l2._mshrs,
            self.l2._prefetch_mshrs,
            self.l2._line_bytes,
            self.l2._n_sets,
            self.l2._n_ways,
            config.l2.latency,
            self.l2_traffic,
        )
        self._l1_latency = config.l1.latency
        if self.uses_stream_buffers:
            self.stream_buffers = [
                Cache(config.stream_buffer, name=f"SB[{sm}]")
                for sm in range(config.n_sms)
            ]
            for sm, buffer in enumerate(self.stream_buffers):
                buffer.eviction_listener = self.trackers[sm].on_eviction

    # -- public API ---------------------------------------------------------

    def can_accept(self, sm: int) -> bool:
        """Whether the SM's L1 has an MSHR free (misses can be absorbed)."""
        return not self.l1s[sm].mshr_full()

    def access(
        self,
        sm: int,
        address: int,
        cycle: int,
        is_prefetch: bool = False,
        region: str = REGION_NODE,
        callback: Optional[ResponseCallback] = None,
    ) -> AccessOutcome:
        """Issue one line access from SM ``sm`` at ``cycle``.

        ``callback(done_cycle)`` fires when the data is available at the
        RT unit.  Prefetches usually pass no callback.  The return value
        is the first-level probe outcome (tests use it).
        """
        if is_prefetch and self.uses_stream_buffers:
            return self._prefetch_into_stream(sm, address, cycle, callback)
        responder = callback
        if not is_prefetch and callback is not None:
            responder = self._latency_recorder(
                cycle, region, callback, sm, address
            )
        return self.l1_access(sm, address, cycle, is_prefetch, responder)

    def drain_complete(self) -> bool:
        """True when no fills are in flight anywhere."""
        caches = self.l1s + self.stream_buffers + [self.l2]
        return not any(cache._mshrs for cache in caches)

    def finalize(self):
        """Close out effectiveness episodes; returns merged counts."""
        from ..prefetch.effectiveness import EffectivenessCounts

        merged = EffectivenessCounts()
        for tracker in self.trackers:
            merged.merge(tracker.finalize())
        return merged

    # -- agenda -------------------------------------------------------------

    def _enqueue(self, cycle: int, record) -> None:
        """Append ``record`` to the agenda bucket for ``cycle``,
        materializing the bucket (and its heap entry) on first use.  A
        bucket being flushed has already been popped, so a same-cycle
        enqueue made during its flush creates a fresh bucket that
        :meth:`flush_due` runs right after it."""
        bucket = self._agenda.get(cycle)
        if bucket is None:
            self._agenda[cycle] = [record]
            heapq.heappush(self.agenda_cycles, cycle)
        else:
            bucket.append(record)

    def flush_due(self, cycle: int) -> None:
        """Flush every agenda bucket due at or before ``cycle``, in cycle
        order, including buckets those flushes add for ``cycle``."""
        cycles = self.agenda_cycles
        while cycles and cycles[0] <= cycle:
            self._flush(heapq.heappop(cycles))

    def drain(self, cycle: int) -> int:
        """Flush every remaining bucket in cycle order; return the later
        of ``cycle`` and the last bucket's cycle.  The replay engine's
        trailing pass: in-flight fills land at their own cycles, and the
        result is the base of every per-cycle rate in ``SimStats``."""
        cycles = self.agenda_cycles
        while cycles:
            at = heapq.heappop(cycles)
            self._flush(at)
            if at > cycle:
                cycle = at
        return cycle

    def _flush(self, at: int) -> None:
        """Process every agenda record due at ``at`` in append order.

        L2 transfers are classified inline against the L2 tag/MSHR
        state (the ``Cache.probe`` body, trace emits included).  DRAM
        misses are collected and serviced after the scan; their
        completion cycles are strictly later than any same-bucket L2 hit
        fill (``done >= request + burst + latency``), so deferring them
        never reorders same-cycle events.
        """
        bucket = self._agenda.pop(at)
        (
            l2,
            l2_stats,
            l2_sets,
            l2_mshrs,
            l2_prefetch_mshrs,
            l2_line_bytes,
            l2_n_sets,
            l2_n_ways,
            l2_latency,
            traffic,
        ) = self._flush_env
        obs = l2.obs
        fill_l1 = self._fill_l1
        fill_stream = self._fill_stream
        # Every L2 hit in this flush lands in the same future bucket
        # (``at + l2_latency``); resolve it once instead of per record.
        # It is strictly in the future, so it can never be the bucket
        # being flushed, and appends here interleave with concurrent
        # ``_enqueue`` calls in exactly the order enqueueing one at a
        # time would produce.
        hit_cycle = at + l2_latency
        hit_bucket: Optional[list] = None
        misses: Optional[list] = None
        for record in bucket:
            kind = record[0]
            if kind <= _TO_L2_STREAM:
                sm = record[1]
                line = record[2] // l2_line_bytes
                if kind == _TO_L2_DEMAND:
                    traffic.demand_accesses += 1
                    l2_stats.demand_accesses += 1
                    is_prefetch = False
                else:
                    traffic.prefetch_accesses += 1
                    l2_stats.prefetch_accesses += 1
                    is_prefetch = True
                fill_kind = _FILL_STREAM if kind == _TO_L2_STREAM else _FILL_L1
                set_map = l2_sets[line % l2_n_sets]
                state = set_map.get(line)
                waiters = l2_mshrs.get(line) if state is None else None
                if state is not None:
                    # Resident: the ``Cache.probe`` hit body, inlined.
                    set_map.move_to_end(line)
                    if is_prefetch:
                        l2_stats.prefetch_hits += 1
                    else:
                        l2_stats.demand_hits += 1
                        if state >= 0:
                            l2_stats.demand_hits_on_prefetched += 1
                            if obs is not None:
                                l2.trace_first_hit(at, line, state)
                            set_map[line] = DEMANDED
                    if obs is not None:
                        l2.trace_access(at, line, "hit", is_prefetch)
                    if hit_bucket is None:
                        hit_bucket = self._agenda.get(hit_cycle)
                        if hit_bucket is None:
                            hit_bucket = self._agenda[hit_cycle] = []
                            heapq.heappush(self.agenda_cycles, hit_cycle)
                    hit_bucket.append((fill_kind, sm, line))
                elif waiters is not None:
                    # In flight: merge into the MSHR as a tuple waiter.
                    if obs is not None:
                        l2.trace_merge(
                            at, line, line in l2_prefetch_mshrs, is_prefetch
                        )
                    if is_prefetch:
                        l2_stats.prefetch_pending_hits += 1
                    else:
                        l2_stats.demand_pending_hits += 1
                        if line in l2_prefetch_mshrs:
                            l2_stats.demand_pending_on_prefetch += 1
                            l2_prefetch_mshrs.remove(line)
                    waiters.append((fill_kind, sm))
                    if obs is not None:
                        l2.trace_access(at, line, "pending_hit", is_prefetch)
                else:
                    # Miss: allocate the MSHR, defer the DRAM trip.
                    if is_prefetch:
                        l2_stats.prefetch_misses += 1
                        l2_prefetch_mshrs.add(line)
                    else:
                        l2_stats.demand_misses += 1
                    l2_mshrs[line] = [(fill_kind, sm)]
                    if obs is not None:
                        l2.trace_access(at, line, "miss", is_prefetch)
                    if misses is None:
                        misses = [(record[2], line)]
                    else:
                        misses.append((record[2], line))
            elif kind == _FILL_L1:
                fill_l1(record[1], record[2], at)
            elif kind == _FILL_STREAM:
                fill_stream(record[1], record[2], at)
            elif kind == _FILL_L2:
                # DRAM data lands: ``Cache.fill`` inlined for the L2.
                line = record[1]
                waiters = l2_mshrs.pop(line, None)
                if line in l2_prefetch_mshrs:
                    l2_prefetch_mshrs.remove(line)
                    state = at
                else:
                    state = DEMANDED
                set_map = l2_sets[line % l2_n_sets]
                if line not in set_map:
                    if len(set_map) >= l2_n_ways:
                        victim, victim_state = set_map.popitem(last=False)
                        l2_stats.evictions += 1
                        if victim_state >= 0:
                            l2_stats.prefetched_evicted_unused += 1
                        if l2.eviction_listener is not None:
                            l2.eviction_listener(victim, victim_state)
                    set_map[line] = state
                if waiters is not None:
                    for fill_kind, sm in waiters:
                        if fill_kind == _FILL_L1:
                            fill_l1(sm, line, at)
                        else:
                            fill_stream(sm, line, at)
            else:  # _CALL
                record[1](at)
        if misses is not None:
            # L2 tag check, then DRAM; DRAM completion fills L2 then up.
            request_cycle = at + l2_latency
            service = self.dram.service
            for address, line in misses:
                self._enqueue(
                    service(address, request_cycle), (_FILL_L2, line)
                )

    # -- L1 path --------------------------------------------------------------

    def l1_access(
        self,
        sm: int,
        address: int,
        cycle: int,
        is_prefetch: bool,
        responder: Optional[ResponseCallback],
    ) -> AccessOutcome:
        """Probe SM ``sm``'s L1 and send a miss below.

        One tag lookup serves both the effectiveness classification and
        the probe, whose stat/LRU/MSHR bodies are inlined from
        ``Cache.probe``; downstream work lands in agenda buckets.
        ``responder(done_cycle)`` fires when the data reaches the RT
        unit.  The RT unit's demand issue inlines this probe with its own
        waiter records (:meth:`RTUnit._issue_demand`); prefetches and
        :meth:`access` callers come through here.
        """
        l1 = self.l1s[sm]
        tracker = self.trackers[sm]
        stats = l1.stats
        obs = l1.obs
        line = address // l1._line_bytes
        set_map = l1._sets[line % l1._n_sets]
        state = set_map.get(line)
        if state is not None:
            if is_prefetch:
                tracker.on_prefetch_probe(line, HIT, state, None)
                stats.prefetch_accesses += 1
                stats.prefetch_hits += 1
            else:
                stats.demand_accesses += 1
                stats.demand_hits += 1
                if state >= 0:
                    # The tracker acts on a first hit to a prefetch only.
                    tracker.on_demand_probe(line, HIT, state, None)
                    stats.demand_hits_on_prefetched += 1
                    if obs is not None:
                        l1.trace_first_hit(cycle, line, state)
                    set_map[line] = DEMANDED
            set_map.move_to_end(line)
            if obs is not None:
                l1.trace_access(cycle, line, "hit", is_prefetch)
            if responder is not None:
                self._enqueue(cycle + self._l1_latency, (_CALL, responder))
            return HIT
        waiters = l1._mshrs.get(line)
        if waiters is not None:
            owner = line in l1._prefetch_mshrs
            if obs is not None:
                l1.trace_merge(cycle, line, owner, is_prefetch)
            if is_prefetch:
                tracker.on_prefetch_probe(line, PENDING_HIT, None, owner)
                stats.prefetch_accesses += 1
                stats.prefetch_pending_hits += 1
            else:
                stats.demand_accesses += 1
                stats.demand_pending_hits += 1
                if owner:
                    # The tracker acts on a demand catching a prefetch.
                    tracker.on_demand_probe(line, PENDING_HIT, None, owner)
                    stats.demand_pending_on_prefetch += 1
                    # A demand now owns the fill.
                    l1._prefetch_mshrs.remove(line)
            if responder is not None:
                waiters.append(responder)
            if obs is not None:
                l1.trace_access(cycle, line, "pending_hit", is_prefetch)
            return PENDING_HIT
        if is_prefetch:
            tracker.on_prefetch_probe(line, MISS, None, None)
            stats.prefetch_accesses += 1
            stats.prefetch_misses += 1
            l1._prefetch_mshrs.add(line)
        else:
            # A demand miss resolves no prefetch episode: no tracker call.
            stats.demand_accesses += 1
            stats.demand_misses += 1
        l1._mshrs[line] = [] if responder is None else [responder]
        if obs is not None:
            l1.trace_access(cycle, line, "miss", is_prefetch)
        if not is_prefetch and self.uses_stream_buffers:
            # The stream buffer may already hold (or be fetching) this
            # line; intercept before going below.
            if self._demand_checks_stream(sm, address, line, cycle):
                return MISS
        # Tag-check time at L1, then go below (``_enqueue``, inlined).
        kind = _TO_L2_PREFETCH if is_prefetch else _TO_L2_DEMAND
        record = (kind, sm, address)
        due = cycle + self._l1_latency
        bucket = self._agenda.get(due)
        if bucket is None:
            self._agenda[due] = [record]
            heapq.heappush(self.agenda_cycles, due)
        else:
            bucket.append(record)
        return MISS

    # -- stream-buffer path -----------------------------------------------------

    def _prefetch_into_stream(
        self,
        sm: int,
        address: int,
        cycle: int,
        callback: Optional[ResponseCallback],
    ) -> AccessOutcome:
        """Prefetch probe when the destination is the stream buffer."""
        l1 = self.l1s[sm]
        buffer = self.stream_buffers[sm]
        tracker = self.trackers[sm]
        line = l1.line_of(address)
        # Already covered by the L1 (resident or in flight)?  Classify
        # without disturbing the L1's LRU state.
        l1_state = l1.line_state(line)
        if l1_state is not None:
            tracker.on_prefetch_probe(line, HIT, l1_state, None)
            if callback is not None:
                self._enqueue(
                    cycle + self.config.l1.latency, (_CALL, callback)
                )
            return HIT
        l1_owner = l1.mshr_owner_is_prefetch(line)
        if l1_owner is not None:
            tracker.on_prefetch_probe(line, PENDING_HIT, None, l1_owner)
            if callback is not None:
                l1.probe(line, is_prefetch=True, waiter=callback, cycle=cycle)
            return PENDING_HIT
        prior_state = buffer.line_state(line)
        prior_owner = buffer.mshr_owner_is_prefetch(line)
        outcome = buffer.probe(
            line, is_prefetch=True, waiter=callback, cycle=cycle
        )
        tracker.on_prefetch_probe(line, outcome, prior_state, prior_owner)
        due = cycle + self.config.stream_buffer.latency
        if outcome is HIT:
            if callback is not None:
                self._enqueue(due, (_CALL, callback))
        elif outcome is MISS:
            self._enqueue(due, (_TO_L2_STREAM, sm, address))
        return outcome

    def _demand_checks_stream(
        self, sm: int, address: int, line: int, cycle: int
    ) -> bool:
        """On an L1 demand miss, try the stream buffer.

        Returns True when the stream buffer covers the request (resident
        or in flight); the L1 MSHR allocated by the caller is serviced by
        a buffer-to-L1 transfer instead of an L2 fill.
        """
        buffer = self.stream_buffers[sm]
        tracker = self.trackers[sm]
        state = buffer.line_state(line)
        if state is not None:
            tracker.on_demand_probe(line, HIT, state, None)
            buffer.invalidate(line)
            self.stream_buffer_hits += 1
            # One buffer-access latency for the transfer, then the line
            # lands in L1 and the parked waiters get their data.
            self._enqueue(
                cycle + self.config.stream_buffer.latency,
                (_FILL_L1, sm, line),
            )
            return True
        owner = buffer.mshr_owner_is_prefetch(line)
        if owner is not None:
            tracker.on_demand_probe(line, PENDING_HIT, None, owner)
            self.stream_buffer_hits += 1

            def transfer(at: int, s=sm, ln=line) -> None:
                self.stream_buffers[s].invalidate(ln)
                self._fill_l1(s, ln, at)

            buffer.probe(line, is_prefetch=False, waiter=transfer, cycle=cycle)
            return True
        return False

    # -- internals ----------------------------------------------------------

    def _latency_recorder(
        self,
        issue_cycle: int,
        region: str,
        callback: ResponseCallback,
        sm: int,
        address: int,
    ) -> ResponseCallback:
        def respond(done_cycle: int) -> None:
            latency = done_cycle - issue_cycle
            self.all_demand_latency.record(latency)
            if region == REGION_NODE:
                self.node_demand_latency.record(latency)
            if self.obs is not None:
                self.trace_demand(sm, address, region, issue_cycle, done_cycle)
            callback(done_cycle)

        return respond

    def trace_demand(
        self, sm: int, address: int, region: str, issue_cycle: int,
        done_cycle: int,
    ) -> None:
        """Emit ``demand.complete`` for one demand response (tracing on)."""
        self.obs.emit(
            "demand.complete",
            done_cycle,
            f"SM{sm}",
            args={
                "sm": sm,
                "line": self.l2.line_of(address),
                "region": region,
                "latency": done_cycle - issue_cycle,
                "issue_cycle": issue_cycle,
            },
        )

    def _fill_l1(self, sm: int, line: int, cycle: int) -> None:
        """A line lands in SM ``sm``'s L1: the ``Cache.fill`` body
        inlined around a single MSHR pop (the pop serves both the
        prefetch attribution and the fill), then the waiters run."""
        l1 = self.l1s[sm]
        waiters = l1._mshrs.pop(line, None)
        prefetch_mshrs = l1._prefetch_mshrs
        filled_by_prefetch = line in prefetch_mshrs
        if filled_by_prefetch:
            prefetch_mshrs.remove(line)
        set_map = l1._sets[line % l1._n_sets]
        if line not in set_map:
            if len(set_map) >= l1._n_ways:
                victim, victim_state = set_map.popitem(last=False)
                stats = l1.stats
                stats.evictions += 1
                if victim_state >= 0:
                    stats.prefetched_evicted_unused += 1
                    # The effectiveness tracker acts on these only.
                    self.trackers[sm].on_eviction(victim, victim_state)
            set_map[line] = cycle if filled_by_prefetch else DEMANDED
        if filled_by_prefetch:  # the tracker ignores demand fills
            self.trackers[sm].on_fill(line, True)
        unit = self.units[sm]
        if unit is not None:
            unit.dirty = True
        if filled_by_prefetch and self.obs is not None:
            self.obs.emit(
                "prefetch.fill", cycle, l1.name, args={"sm": sm, "line": line}
            )
        if waiters is not None:
            # A demand record goes straight to its unit; anything else
            # parked here is a callback.
            for waiter in waiters:
                if waiter.__class__ is tuple:
                    unit._respond(waiter, cycle)
                else:
                    waiter(cycle)

    def _fill_stream(self, sm: int, line: int, cycle: int) -> None:
        tracker = self.trackers[sm]
        buffer = self.stream_buffers[sm]
        was_prefetch = buffer.mshr_owner_is_prefetch(line)
        waiters = buffer.fill(line, cycle)
        tracker.on_fill(line, bool(was_prefetch))
        unit = self.units[sm]
        if unit is not None:
            unit.dirty = True
        if was_prefetch and self.obs is not None:
            self.obs.emit(
                "prefetch.fill",
                cycle,
                buffer.name,
                args={"sm": sm, "line": line},
            )
        for waiter in waiters:
            waiter(cycle)
