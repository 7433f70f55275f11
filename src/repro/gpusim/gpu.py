"""Top-level GPU: SMs with RT units over a shared memory system.

``GpuModel.run`` replays a batch of per-ray traversal traces to
completion and returns :class:`~repro.gpusim.stats.SimStats`.  The
replay engine is event-driven: the loop advances in time buckets (the
memory system's agenda cycles plus per-unit wake cycles).  In each
bucket it flushes the due agenda, then makes one pass over the units:
each unit a fill reached or whose wake is due gets its due deliveries
and, when the step can act, one step; the stall cycles it skipped are
credited in bulk.  Per-unit wake cycles come from :meth:`RTUnit.step`,
which folds in the prefetcher's self-scheduled activity (queue
releases, decision gates, adaptive epochs) so no decision point is
ever skipped, and from the heads of the unit's delivery FIFOs.  The
SimStats digests in ``tests/golden/replay_simstats.json`` pin its
results.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..bvh import FlatBVH, NodeLayout
from ..core.config import GpuConfig
from ..prefetch.base import Prefetcher
from ..traversal import TraceSet
from .memsys import MemorySystem
from .rtunit import NO_WAKE, RTUnit
from .stats import SimStats, merge_cache_stats
from .timeline import TimelineSampler, unit_reading
from .warp import RayTask, next_treelets, visit_prims

PrefetcherFactory = Callable[[int], Optional[Prefetcher]]


class SimulationLimitError(RuntimeError):
    """The run exceeded ``max_cycles`` (deadlock guard)."""


class GpuModel:
    """A configured GPU ready to replay one traversal workload."""

    def __init__(
        self,
        config: GpuConfig,
        scheduler_policy: str = "baseline",
        prefetcher_factory: Optional[PrefetcherFactory] = None,
        timeline: Optional[TimelineSampler] = None,
        observer=None,
    ) -> None:
        self.config = config
        #: Optional occupancy sampler (observational only).
        self.timeline = timeline
        self.memsys = MemorySystem(config)
        self.units: List[RTUnit] = []
        for sm in range(config.n_sms):
            prefetcher = prefetcher_factory(sm) if prefetcher_factory else None
            self.units.append(
                RTUnit(
                    sm,
                    config,
                    self.memsys,
                    scheduler_policy=scheduler_policy,
                    prefetcher=prefetcher,
                )
            )
        self._ray_count = 0
        self._warp_count = 0
        #: The cumulative cycle counter; each :meth:`run` continues it.
        self._current_cycle = 0
        #: Optional repro.obs.Observer; attaching is observational only.
        self.observer = observer
        if observer is not None:
            observer.attach(self)

    def load(
        self,
        traces: TraceSet,
        bvh: FlatBVH,
        layout: NodeLayout,
    ) -> int:
        """Pack traces into warps and distribute them over the SMs.

        Rays are grouped in trace order (neighboring pixels share a warp,
        like a real ray-generation shader) and warps round-robin across
        SMs; rays without visits are skipped.  Returns the number of
        warps created.
        """
        warp_size = self.config.warp_size
        line_bytes = self.config.l1.line_bytes
        # One pass over the trace set's node-id column resolves each
        # visit's byte address and treelet id (a numpy gather from the
        # layout's columns) and, through the tree's memo, its primitive
        # lines.  The four lists are the batch's visit columns: every
        # ray reads its ``[start, end)`` slice of them in place.
        node_ids = traces.node_ids
        addresses = layout.node_address[node_ids].tolist()
        treelet_ids = layout.node_treelet[node_ids]
        treelets = treelet_ids.tolist()
        offsets = traces.offsets
        visited = offsets[1:] > offsets[:-1]
        starts = offsets[:-1][visited]
        lookahead = next_treelets(treelet_ids, starts)
        prims = visit_prims(node_ids.tolist(), bvh, layout, line_bytes)
        tasks = [
            RayTask(addresses, treelets, lookahead, prims, start, end)
            for start, end in zip(
                starts.tolist(), offsets[1:][visited].tolist()
            )
        ]
        warps = [
            tasks[i : i + warp_size] for i in range(0, len(tasks), warp_size)
        ]
        for index, warp in enumerate(warps):
            self.units[index % len(self.units)].add_warp(warp)
        self._ray_count += len(tasks)
        self._warp_count += len(warps)
        return len(warps)

    def run(self) -> SimStats:
        """Simulate the loaded work to completion; returns cumulative stats.

        May be called repeatedly: each call continues the cycle counter
        and keeps caches warm, so ``load(); run(); load(); run()``
        models back-to-back frames.  Statistics are cumulative across
        calls; use :meth:`run_frame` for per-frame deltas.

        The deadlock guard is per-run: each call may simulate up to
        ``config.max_cycles`` fresh cycles regardless of how far the
        cumulative counter has advanced.
        """
        cycle = self._simulate()
        # Drain the trailing agenda (e.g. late prefetch fills).  The
        # drain advances the cycle base past the loop exit, and
        # ``_collect`` denominates every rate (DRAM utilization, stall
        # fractions, IPC) by that extended count, so utilization covers
        # the cycles in which the memory system was genuinely active.
        cycle = self.memsys.drain(cycle)
        self._current_cycle = cycle
        return self._collect(cycle)

    def _simulate(self) -> int:
        """Advance in time buckets, stepping only units with actionable
        work; returns the cycle one past the last worked cycle.

        A bucket is processed at every agenda cycle and at every
        per-unit wake cycle.  Fills mark their unit dirty so data is
        acted on in the cycle it lands.  After the flush, one pass over
        the units delivers each dirty or woken unit's due responses and
        test completions and steps it: a unit's deliveries touch only
        its own state and additive counters.  Cycles a unit skips are
        cycles its step would only have counted as stalls; they are
        credited in bulk at its next visit with the stall kind captured
        when the skip began.

        A visit whose deliveries leave nothing for the step to do costs
        no step: when the unit's last step found no selectable warp
        (kind 1), no delivery set ``must_step`` (no test completed, no
        ray became ready, no prefetch completion ran) and its own wake
        (:meth:`RTUnit.step`'s, before the FIFO heads are folded in) is
        still ahead, the step would only count a stall, so the engine
        counts it and emits its ``rtunit.stall`` event.  A fill to a
        unit blocked on full MSHRs (kind 2) always steps it.

        A timeline sample due at a bucket reads each unit after its
        deliveries and before its step; one due between buckets reads
        the state the last bucket left.
        """
        config = self.config
        memsys = self.memsys
        units = self.units
        timeline = self.timeline
        start = self._current_cycle
        cycle = start
        max_cycles = config.max_cycles
        n = len(units)
        indices = tuple(range(n))
        wakes = [start] * n
        #: each unit's own wake, from its last step (FIFO heads apart).
        owns = [start] * n
        last_step = [start - 1] * n
        kinds = [0] * n
        agenda = memsys.agenda_cycles
        flush_due = memsys.flush_due
        readings: Optional[list] = None
        if not any(unit.buffer or unit.pending_warps for unit in units):
            return cycle
        while True:
            if cycle - start > max_cycles:
                raise SimulationLimitError(
                    f"exceeded {max_cycles} cycles; "
                    "likely a lost memory response"
                )
            if agenda and agenda[0] <= cycle:
                flush_due(cycle)
            if timeline is not None and timeline.due <= cycle:
                readings = [None] * n
            stepped = False
            for i in indices:
                unit = units[i]
                if unit.dirty or wakes[i] <= cycle:
                    # Deliveries, behind an inline check of the FIFO
                    # heads (each FIFO is in due order).
                    box_tests = unit._box_tests
                    prim_tests = unit._prim_tests
                    hits = unit._hit_responses
                    if (
                        (hits and hits[0][0] <= cycle)
                        or (box_tests and box_tests[0][0] <= cycle)
                        or (prim_tests and prim_tests[0][0] <= cycle)
                    ):
                        unit.run_tests_due(cycle)
                    unit.dirty = False
                    if readings is not None:
                        readings[i] = unit_reading(unit)
                    stepped = True
                    gap = cycle - last_step[i] - 1
                    kind = kinds[i]
                    if gap > 0 and kind:
                        if kind == 1:
                            unit.stats.stall_cycles += gap
                        else:
                            unit.stats.mshr_stall_cycles += gap
                        if unit.obs is not None:
                            unit.obs.emit(
                                "rtunit.stall",
                                last_step[i] + 1,
                                f"RT{unit.sm_id}",
                                dur=gap,
                                args=None if kind == 1 else {"reason": "mshr"},
                            )
                    last_step[i] = cycle
                    wake = owns[i]
                    if kind == 1 and wake > cycle and not unit.must_step:
                        # The step would only count this stall cycle.
                        unit.stats.stall_cycles += 1
                        if unit.obs is not None:
                            unit.obs.emit(
                                "rtunit.stall", cycle, f"RT{unit.sm_id}",
                                dur=1,
                            )
                    else:
                        unit.must_step = False
                        wake, kinds[i] = unit.step(cycle)
                        owns[i] = wake
                    if wake > cycle + 1:
                        if box_tests and box_tests[0][0] < wake:
                            wake = box_tests[0][0]
                        if prim_tests and prim_tests[0][0] < wake:
                            wake = prim_tests[0][0]
                        if hits and hits[0][0] < wake:
                            wake = hits[0][0]
                    wakes[i] = wake
                elif readings is not None:
                    readings[i] = unit_reading(unit)
            # Test-FIFO and hit-response due cycles are folded into each
            # unit's wake, so the wakes and the agenda bound the jump.
            nxt = min(wakes)
            if agenda and agenda[0] < nxt:
                nxt = agenda[0]
            if readings is not None:
                timeline.record(cycle, readings)
                readings = None
            # A unit only goes idle in its deliveries or step, so the
            # completion check is needed only on buckets that visited
            # someone.
            if stepped:
                for unit in units:
                    if unit.buffer or unit.pending_warps:
                        break
                else:
                    # The counter rests one past the last worked cycle.
                    return cycle + 1
            if nxt == NO_WAKE:
                raise SimulationLimitError(
                    "work remains but no agenda or unit activity is "
                    "pending; likely a lost memory response"
                )
            nxt = nxt if nxt > cycle else cycle + 1
            if timeline is not None:
                while timeline.due < nxt:
                    timeline.maybe_sample(timeline.due, units)
            cycle = nxt

    def run_frame(
        self,
        traces: TraceSet,
        bvh: FlatBVH,
        layout: NodeLayout,
    ) -> int:
        """Load one frame's traces, run it, and return the frame's cycles.

        Caches (and the prefetcher's state) stay warm between frames —
        the real-time rendering regime where consecutive frames revisit
        mostly the same treelets.
        """
        start = self._current_cycle
        self.load(traces, bvh, layout)
        self.run()
        return self._current_cycle - start

    def _collect(self, cycles: int) -> SimStats:
        stats = SimStats(cycles=max(1, cycles))
        stats.ray_count = self._ray_count
        stats.warp_count = self._warp_count
        warp_latency = 0
        warps_retired = 0
        for unit in self.units:
            stats.visits_completed += unit.stats.visits_completed
            stats.node_fetches += unit.stats.node_fetches_issued
            stats.primitive_fetches += unit.stats.primitive_fetches_issued
            stats.prefetches_issued += unit.stats.prefetches_issued
            stats.busy_cycles += unit.stats.busy_cycles
            stats.stall_cycles += unit.stats.stall_cycles
            stats.mshr_stall_cycles += unit.stats.mshr_stall_cycles
            warp_latency += unit.stats.warp_latency_total
            warps_retired += unit.stats.warps_retired
        if warps_retired:
            stats.warp_latency_avg = warp_latency / warps_retired
        memsys = self.memsys
        stats.avg_node_demand_latency = memsys.node_demand_latency.average
        stats.avg_demand_latency = memsys.all_demand_latency.average
        stats.dram_utilization = memsys.dram.stats.utilization(stats.cycles)
        stats.dram_accesses = memsys.dram.stats.accesses
        stats.dram_imbalance = memsys.dram.stats.imbalance()
        stats.dram_per_partition = list(memsys.dram.stats.per_partition_accesses)
        stats.l2_bytes = memsys.l2_traffic.total_bytes
        stats.l2_demand_accesses = memsys.l2_traffic.demand_accesses
        stats.l2_prefetch_accesses = memsys.l2_traffic.prefetch_accesses
        stats.stream_buffer_hits = memsys.stream_buffer_hits
        stats.l1 = merge_cache_stats([l1.stats for l1 in memsys.l1s])
        stats.l2 = memsys.l2.stats
        stats.effectiveness = memsys.finalize()
        decisions = 0
        agreements = 0
        for unit in self.units:
            voter = getattr(unit.prefetcher, "voter", None)
            if voter is not None:
                decisions += voter.stats.decisions
                agreements += voter.stats.agreements
        stats.voter_decisions = decisions
        stats.voter_accuracy = (agreements / decisions) if decisions else 0.0
        return stats
