"""The RT unit: warp buffer, memory scheduler, op units, prefetch port.

Per cycle the unit (1) admits one pending warp into the warp buffer if
there is space, (2) lets the warp scheduler pick a warp and issues up to
``mem_ports`` coalesced demand line loads for its ready rays, (3) issues
the prefetcher's queue head if a port is left over ("when the memory
scheduler is not busy servicing demand loads") and the head is
released, and (4) runs the prefetcher's decision logic when its period
has passed and the warp buffer's vote state has moved.  The unit keeps
the counts these steps read as its rays move: the buffer's issue-ready
rays (``ready_rays``) and, for a prefetcher with a voter, its vote
tally (:class:`~repro.prefetch.voter.VoteTally`).

The replay engine (:class:`~repro.gpusim.gpu.GpuModel`) steps a unit
only in cycles where it can act.  Box/primitive test completions and
L1-hit responses wait in per-unit FIFO queues (their latencies are
constants, so due cycles are appended in order);
:meth:`RTUnit.run_tests_due` delivers them right before a step, and
:meth:`RTUnit.step` returns when the unit can next act on its own.
A demand miss parks a ``(is_node, warp, rays, issue_cycle, address)``
record in its L1 MSHR, and the fill hands it to :meth:`RTUnit._respond`.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..core.config import GpuConfig
from ..prefetch.base import Prefetcher
from .cache import DEMANDED, HIT, PENDING_HIT
from .memsys import (
    _TO_L2_DEMAND, MemorySystem, REGION_NODE, REGION_PRIMITIVE,
)
from .scheduler import scheduler_for
from .warp import (
    DONE, FETCH_READY, PRIM_READY, TESTING, WAIT_NODE, WAIT_PRIM, RayTask,
    WarpSlot,
)

#: The wake of a unit that waits for a memory response (later than any
#: cycle), so the engine takes the next wake with a plain ``min``.
NO_WAKE = 1 << 62

#: What a demand miss parks in its L1 MSHR, and a queued hit response
#: carries: ``(is_node, warp, rays, issue_cycle, address)``.
DemandRecord = Tuple[bool, WarpSlot, List[RayTask], int, int]


def _overridden(prefetcher: Prefetcher, name: str):
    """``prefetcher``'s bound hook ``name``, or None when its class
    keeps the base class's empty one."""
    if getattr(type(prefetcher), name) is getattr(Prefetcher, name):
        return None
    return getattr(prefetcher, name)


@dataclass
class RTUnitStats:
    node_fetches_issued: int = 0
    primitive_fetches_issued: int = 0
    prefetches_issued: int = 0
    visits_completed: int = 0
    warps_retired: int = 0
    warp_latency_total: int = 0
    busy_cycles: int = 0  # cycles with at least one demand issue
    stall_cycles: int = 0  # cycles with resident warps but no ready ray
    mshr_stall_cycles: int = 0  # ready ray but L1 MSHRs full


class RTUnit:
    """One SM's ray tracing accelerator."""

    def __init__(
        self,
        sm_id: int,
        config: GpuConfig,
        memsys: MemorySystem,
        scheduler_policy: str = "baseline",
        prefetcher: Optional[Prefetcher] = None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.memsys = memsys
        self.scheduler_policy = scheduler_policy
        #: the policy's selection function, resolved (and validated) once.
        self._select_warp = scheduler_for(scheduler_policy)
        self.prefetcher = prefetcher or Prefetcher()
        self.pending_warps: Deque[List[RayTask]] = deque()
        self.buffer: List[WarpSlot] = []
        self.stats = RTUnitStats()
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None
        self._next_warp_id = 0
        #: bumped whenever warp-buffer vote state changes (voter gate);
        #: it stays 0 when the prefetcher has no voter to gate.
        self.vote_version = 0
        #: set by every fill into this SM's L1 or stream buffer (and by
        #: prefetch completion callbacks), so the replay engine visits
        #: this unit in the cycle the data lands.  The engine clears it.
        self.dirty = False
        #: set when a delivery changes what a step can do: a test
        #: completion, a ray made issue-ready, a prefetch completion
        #: callback.  A unit whose last step found no ready warp is
        #: stepped on a fill only when this is set (or its own wake is
        #: due); otherwise the engine credits the stall cycle the step
        #: would have counted.  A step clears it.
        self.must_step = False
        #: op-unit pipelines: FIFOs of ``(due, warp, rays)`` test
        #: completions, one entry per response group.  Box and primitive
        #: test latencies are each a constant, so within one queue due
        #: cycles are appended in nondecreasing order and a deque is the
        #: whole schedule.
        self._box_tests: Deque[Tuple[int, WarpSlot, List[RayTask]]] = deque()
        self._prim_tests: Deque[Tuple[int, WarpSlot, List[RayTask]]] = deque()
        #: L1-hit responses awaiting delivery, as ``(due, record)``.  Hit
        #: latency is a constant, so due cycles are appended in
        #: nondecreasing order.
        self._hit_responses: Deque[Tuple[int, DemandRecord]] = deque()
        # Hot-loop constants, resolved once per unit.
        self._baseline_sched = scheduler_policy == "baseline"
        prefetcher = self.prefetcher
        #: exactly the no-op base prefetcher: the step skips its
        #: (empty) queue and hooks wholesale.  Exact-type test so every
        #: subclass keeps full behavior.
        self._null_prefetcher = type(prefetcher) is Prefetcher
        #: the prefetcher's queue; the step pops only a released head.
        self._prefetch_queue = prefetcher.queue
        #: the prefetcher's hooks, bound when overridden, else None: the
        #: step and the demand issue path skip the base class's empty
        #: ones (the treelet prefetcher does not observe demand issues,
        #: the classic ones make no decisions).  Only an adaptive
        #: prefetcher takes feedback.
        self._demand_hook = _overridden(prefetcher, "on_demand_issue")
        self._decide = _overridden(prefetcher, "on_cycle")
        #: the adaptive throttle, whose epochs also wake the unit, or None.
        self._adaptive = getattr(prefetcher, "adaptive", None)
        self._feedback = (
            _overridden(prefetcher, "on_feedback")
            if self._adaptive is not None
            else None
        )
        self._warp_buffer_size = config.warp_buffer_size
        self._mem_ports = config.mem_ports
        self._line_bytes = config.l1.line_bytes
        self._box_latency = config.box_test_latency
        self._prim_latency = config.primitive_test_latency
        self._l1 = memsys.l1s[sm_id]
        self._tracker = memsys.trackers[sm_id]
        self._all_latency = memsys.all_demand_latency
        self._node_latency = memsys.node_demand_latency
        #: the buffer's issue-ready rays: the sum of its warps'
        #: ``ready_count``, kept as rays move.
        self.ready_rays = 0
        #: the prefetcher's vote tally, which this unit keeps equal to
        #: the buffer's alive next-treelet votes; only a prefetcher with
        #: a voter has one.  The tally and ``vote_version`` are kept
        #: only for such a prefetcher, the warps' own vote counts only
        #: for a voter that reads them (the pseudo voter), and their
        #: ready-treelet counts only for the treelet schedulers:
        #: nothing else reads them.
        self._tally = getattr(prefetcher, "tally", None)
        self._warp_votes = (
            self._tally is not None and prefetcher.voter.reads_warps
        )
        self._count_ready = not self._baseline_sched
        l1 = self._l1
        #: what :meth:`_issue_demand` reads, unpacked in one go.
        self._issue_env = (
            self._mem_ports, self._line_bytes, config.l1.latency, sm_id,
            l1, l1.stats, l1._sets, l1._n_sets, l1._mshrs,
            l1._prefetch_mshrs, self._tracker, memsys,
            memsys.uses_stream_buffers, self._hit_responses,
            self._demand_hook, self.stats,
        )
        # Fills hand this SM's demand records to this unit.
        memsys.units[sm_id] = self

    # -- workload loading -------------------------------------------------

    def add_warp(self, rays: List[RayTask]) -> None:
        if len(rays) > self.config.warp_size:
            raise ValueError("warp exceeds the warp size")
        self.pending_warps.append(rays)

    def busy(self) -> bool:
        return bool(self.pending_warps) or bool(self.buffer)

    def ready_total(self) -> int:
        """Issue-ready rays across the warp buffer."""
        return self.ready_rays

    # -- per-cycle step -----------------------------------------------------

    def step(self, cycle: int) -> Tuple[int, int]:
        """One cycle of the unit: admit, demand issue, prefetch, tick.

        Deliver due test completions and hit responses first
        (:meth:`run_tests_due`); the engine does so before every step.

        Returns ``(wake, kind)``: the unit's own wake, and what each
        skipped cycle until then counts as.  ``wake`` is the earliest
        future cycle the unit can act absent deliveries: an admit, an
        issue-ready ray with a free MSHR, or the prefetcher's
        self-scheduled activity.  :data:`NO_WAKE` means the unit waits
        for a delivery.  The engine folds in the heads of the test and
        hit-response FIFOs.  A selectable warp held off by full MSHRs
        sleeps until a fill dirties the unit — fills are the only way
        MSHRs free up.

        ``kind`` is 0 (empty warp buffer: nothing), 1 (resident warps,
        none selectable: ``stall_cycles``) or 2 (selectable warp blocked
        by full L1 MSHRs: ``mshr_stall_cycles``).  It holds for the whole
        gap: warp state changes only in a step or a delivery, and a
        delivery that can change what a step does sets ``must_step``.
        """
        buffer = self.buffer
        stats = self.stats
        prefetcher = self.prefetcher
        tally = self._tally
        if self.pending_warps and len(buffer) < self._warp_buffer_size:
            rays = self.pending_warps.popleft()
            slot = WarpSlot(
                self._next_warp_id,
                rays,
                cycle,
                tally=tally,
                count_votes=self._warp_votes,
                count_ready=self._count_ready,
            )
            self._next_warp_id += 1
            if slot.done:
                stats.warps_retired += 1
            else:
                buffer.append(slot)
                self.ready_rays += slot.ready_count
                if tally is not None:
                    self.vote_version += 1
                if self.obs is not None:
                    self.obs.emit(
                        "warp.issue",
                        cycle,
                        f"SM{self.sm_id}",
                        args=slot.trace_args(),
                    )
        issued = 0
        l1 = self._l1
        if not self.ready_rays:
            if buffer:
                stats.stall_cycles += 1
                if self.obs is not None:
                    self.obs.emit(
                        "rtunit.stall", cycle, f"RT{self.sm_id}", dur=1
                    )
        elif len(l1._mshrs) >= l1._mshr_capacity:
            # Every policy picks a warp when a ray is ready, and none
            # could issue: skip the pick.
            stats.mshr_stall_cycles += 1
            if self.obs is not None:
                self.obs.emit(
                    "rtunit.stall", cycle, f"RT{self.sm_id}", dur=1,
                    args={"reason": "mshr"},
                )
        else:
            if (
                self._baseline_sched
                or prefetcher.last_prefetched_treelet is None
            ):
                # ``select_oldest``, inlined.
                for warp in buffer:
                    if warp.ready_count:
                        break
            else:
                warp = self._select_warp(
                    buffer, prefetcher.last_prefetched_treelet
                )
            issued = self._issue_demand(warp, cycle)
            if issued:
                stats.busy_cycles += 1
        null_prefetcher = self._null_prefetcher
        # Exactly the base prefetcher: its queue stays empty and its
        # hooks are empty — skip them all.  Otherwise pop a released
        # queue head into a spare port, and decide only when the
        # decision period has passed and the vote state has moved.
        if not null_prefetcher:
            queue = self._prefetch_queue
            if (
                queue
                and issued < self._mem_ports
                and queue[0].release_cycle <= cycle
            ):
                request = prefetcher.pop_prefetch(cycle)
                if request is not None:
                    self._issue_prefetch(request, cycle)
            if self._feedback is not None:
                self._feedback(cycle, self._tracker.counts)
            if (
                self._decide is not None
                and cycle >= prefetcher.decision_cycle
                and self.vote_version != prefetcher.decided_version
            ):
                self._decide(cycle, buffer, self.vote_version)

        # When to step next (see the docstring).
        ready = self.ready_rays > 0
        kind = 2 if ready else (1 if buffer else 0)
        if self.pending_warps and len(buffer) < self._warp_buffer_size:
            return cycle + 1, kind  # an admit can happen next cycle
        if ready and len(l1._mshrs) < l1._mshr_capacity:
            return cycle + 1, kind
        if null_prefetcher:
            return NO_WAKE, kind
        # The prefetcher's own next act: its queue head's release, the
        # adaptive throttle's next epoch, and a decision once the vote
        # state has moved (Strict Wait holds decisions until the table
        # loads return, and a completion callback wakes the unit).
        wake = NO_WAKE
        queue = self._prefetch_queue
        if queue:
            wake = queue[0].release_cycle
        adaptive = self._adaptive
        if adaptive is not None and adaptive.next_epoch_cycle < wake:
            wake = adaptive.next_epoch_cycle
        if (
            self._decide is not None
            and self.vote_version != prefetcher.decided_version
            and not prefetcher.strict_outstanding
            and prefetcher.decision_cycle < wake
        ):
            wake = prefetcher.decision_cycle
        return (wake if wake > cycle else cycle + 1), kind

    def _issue_prefetch(self, request, cycle: int) -> None:
        """Send the prefetcher's popped ``request`` to the memory system."""
        self.stats.prefetches_issued += 1
        if self.obs is not None:
            self.obs.emit(
                "prefetch.issue",
                cycle,
                f"RT{self.sm_id}",
                args={
                    "sm": self.sm_id,
                    "address": request.address,
                    "line": request.address // self._line_bytes,
                    "region": request.region,
                },
            )
        callback = request.on_complete
        if callback is not None:
            callback = self._wake_on(callback)
        self.memsys.access(
            self.sm_id,
            request.address,
            cycle,
            is_prefetch=True,
            region=request.region,
            callback=callback,
        )

    # -- demand path --------------------------------------------------------

    def _issue_demand(self, warp: WarpSlot, cycle: int) -> int:
        """Issue coalesced line loads for the warp's ready rays.

        Rays of one warp touching the same line in the same cycle share
        a single L1 access (the GPU coalescer); returns lines issued.
        ``warp.ready_mask`` has exactly one bit set per ray in
        ``FETCH_READY`` or ``PRIM_READY``, so the scan walks only the
        ready rays, lowest slot first.  A ports-full skip keeps a ray's
        bit, and the scan keeps going because later rays can still
        coalesce into already-claimed lines.

        One pass: the first ray to claim a node line probes it at once,
        and later rays on that line join the probe's demand record
        (queued or parked, it is not delivered before a later cycle).
        Primitive lines are probed after the scan, in first-claim
        order, so the L1 sees node lines first.

        Each line's L1 probe is inlined here, for every run, observed
        or not and whatever the prefetch destination: a resident hit
        queues its response on the unit's hit FIFO; a pending hit
        appends the demand record to the in-flight MSHR; a miss
        allocates an MSHR holding the record, lets the stream buffer
        intercept it when there is one, and otherwise sends the line
        below.  The fill hands each record to :meth:`_respond`.
        """
        mask = warp.ready_mask
        if not mask:
            return 0
        (
            ports, line_bytes, l1_latency, sm_id, l1, lstats, sets, n_sets,
            mshrs, prefetch_mshrs, tracker, memsys, stream, responses,
            demand_hook, stats,
        ) = self._issue_env
        obs = l1.obs
        slot_rays = warp.rays
        ready_treelets = warp.ready_treelet_counts
        warp_id = warp.warp_id
        fetch_ready = FETCH_READY
        wait_node = WAIT_NODE
        node_rays: Dict[int, List[RayTask]] = {}
        # Primitive lines, ``line -> rays`` and, in first-claim order,
        # ``(address, rays)``: made by the first ``PRIM_READY`` ray.
        prim_rays: Optional[Dict[int, List[RayTask]]] = None
        prim_lines = ()
        next_prim = 0
        claimed = 0
        kept = 0  # the ready rays the scan leaves ready
        # Hit responses and L1 -> L2 requests are both due after the L1
        # latency; the agenda bucket for that cycle is resolved on first
        # use.
        due = cycle + l1_latency
        below = None

        while True:
            is_node = False
            while mask:
                low = mask & -mask
                mask -= low
                ray = slot_rays[low.bit_length() - 1]
                cursor = ray.cursor
                if ray.state is fetch_ready:
                    address = ray.addresses[cursor]
                    line = address // line_bytes
                    rays = node_rays.get(line)
                    if rays is not None:
                        rays.append(ray)
                    elif claimed >= ports:
                        kept |= low
                        continue
                    else:
                        rays = node_rays[line] = [ray]
                        claimed += 1
                        is_node = True  # probe the line after this claim
                    ray.state = wait_node
                else:  # PRIM_READY
                    pending = ray.prim_lines_pending
                    if not pending:
                        kept |= low
                        continue
                    if prim_rays is None:
                        prim_rays = {}
                        prim_lines = []
                    while pending:
                        address = pending[0]
                        line = address // line_bytes
                        rays = prim_rays.get(line)
                        if rays is None:
                            if claimed >= ports:
                                break
                            rays = prim_rays[line] = [ray]
                            prim_lines.append((address, rays))
                            claimed += 1
                        else:
                            rays.append(ray)
                        pending.pop(0)
                        ray.prim_lines_outstanding += 1
                    if pending:
                        kept |= low
                        continue
                    ray.state = WAIT_PRIM
                # The claim succeeded: the ray leaves the ready set.
                if ready_treelets is not None:
                    ready_treelets[ray.treelets[cursor]] -= 1
                if is_node:
                    break
            else:
                # The scan is over: probe the primitive lines.
                if next_prim == len(prim_lines):
                    break
                address, rays = prim_lines[next_prim]
                next_prim += 1
                line = address // line_bytes

            if demand_hook is not None:
                demand_hook(warp_id, address, cycle)
            set_map = sets[line % n_sets]
            state = set_map.get(line)
            record = (is_node, warp, rays, cycle, address)
            lstats.demand_accesses += 1
            if state is not None:
                # Resident hit: classify on the pre-probe state (the
                # tracker acts only on a first hit to a prefetched
                # line), then the probe's hit body.
                lstats.demand_hits += 1
                if state >= 0:
                    tracker.on_demand_probe(line, HIT, state, None)
                    lstats.demand_hits_on_prefetched += 1
                    if obs is not None:
                        l1.trace_first_hit(cycle, line, state)
                    set_map[line] = DEMANDED
                set_map.move_to_end(line)
                if obs is not None:
                    l1.trace_access(cycle, line, "hit", False)
                responses.append((due, record))
                continue
            waiters = mshrs.get(line)
            if waiters is not None:
                # Pending hit: the record waits on the in-flight fill.
                owner = line in prefetch_mshrs
                if obs is not None:
                    l1.trace_merge(cycle, line, owner, False)
                lstats.demand_pending_hits += 1
                if owner:
                    # The tracker acts on a demand catching a
                    # prefetch, which now owns the fill.
                    tracker.on_demand_probe(line, PENDING_HIT, None, owner)
                    lstats.demand_pending_on_prefetch += 1
                    prefetch_mshrs.remove(line)
                waiters.append(record)
                if obs is not None:
                    l1.trace_access(cycle, line, "pending_hit", False)
                continue
            # Miss; a demand miss resolves no prefetch episode.
            lstats.demand_misses += 1
            mshrs[line] = [record]
            if obs is not None:
                l1.trace_access(cycle, line, "miss", False)
            if stream and memsys._demand_checks_stream(
                sm_id, address, line, cycle
            ):
                continue
            if below is None:
                below = memsys._agenda.get(due)
                if below is None:
                    below = memsys._agenda[due] = []
                    heapq.heappush(memsys.agenda_cycles, due)
            below.append((_TO_L2_DEMAND, sm_id, address))

        # Every ready ray was scanned: only the ones it kept stay ready.
        warp.ready_mask = kept
        ready = bin(kept).count("1") if kept else 0
        self.ready_rays += ready - warp.ready_count
        warp.ready_count = ready
        stats.node_fetches_issued += len(node_rays)
        stats.primitive_fetches_issued += len(prim_lines)
        return claimed

    # -- response / op-unit path ---------------------------------------------

    def _wake_on(self, callback):
        """``callback`` wrapped to make the engine step this unit in the
        cycle it runs (a completion may change the prefetcher's state)."""
        def wrapped(cycle: int) -> None:
            self.dirty = True
            self.must_step = True
            callback(cycle)

        return wrapped

    def _respond(self, record: DemandRecord, cycle: int) -> None:
        """Demand data for ``record``'s rays reaches the unit at ``cycle``.

        Records the demand latency.  Node data then starts each ray's
        box test (or, at a leaf, its primitive fetches); primitive data
        starts a ray's primitive test once all of its lines are in.  The
        rays whose test starts here are queued as one group.
        """
        is_node, warp, rays, issue_cycle, address = record
        latency = cycle - issue_cycle
        all_lat = self._all_latency
        all_lat.total_cycles += latency
        all_lat.count += 1
        memsys = self.memsys
        if memsys.obs is not None:
            memsys.trace_demand(
                self.sm_id,
                address,
                REGION_NODE if is_node else REGION_PRIMITIVE,
                issue_cycle,
                cycle,
            )
        testing = TESTING
        group = []
        if is_node:
            node_lat = self._node_latency
            node_lat.total_cycles += latency
            node_lat.count += 1
            ready_treelets = warp.ready_treelet_counts
            readied = 0
            for ray in rays:
                cursor = ray.cursor
                lines = ray.prims[cursor]
                if lines is None:
                    ray.state = testing
                    group.append(ray)
                    continue
                ray.prim_lines_pending = list(lines)
                ray.prim_lines_outstanding = 0
                ray.state = PRIM_READY
                # The ray rejoins the warp's ready set.
                readied += 1
                warp.ready_mask |= 1 << ray.slot_index
                if ready_treelets is not None:
                    ready_treelets[ray.treelets[cursor]] += 1
            if readied:
                self.must_step = True
                warp.ready_count += readied
                self.ready_rays += readied
            if group:
                self._box_tests.append(
                    (cycle + self._box_latency, warp, group)
                )
        else:
            wait_prim = WAIT_PRIM
            for ray in rays:
                ray.prim_lines_outstanding -= 1
                if (
                    ray.state is wait_prim
                    and ray.prim_lines_outstanding == 0
                ):
                    ray.state = testing
                    group.append(ray)
            if group:
                self._prim_tests.append(
                    (cycle + self._prim_latency, warp, group)
                )

    def run_tests_due(self, cycle: int) -> None:
        """Deliver every queued hit response and test completion due.

        The engine calls this right before it steps the unit, after the
        bucket's agenda flush, so responses and test completions land in
        their due cycle.  Within one cycle the deliveries commute with
        each other, with the flush and with other units' steps: they
        touch this unit's rays only, disjoint ones (a queued response's
        rays wait in WAIT_*, a queued test's rays are TESTING, a fill's
        waiters are other misses' rays), and all shared counters are
        additive.
        """
        responses = self._hit_responses
        while responses and responses[0][0] <= cycle:
            due, record = responses.popleft()
            self._respond(record, due)
        box_tests = self._box_tests
        prim_tests = self._prim_tests
        if not (
            (box_tests and box_tests[0][0] <= cycle)
            or (prim_tests and prim_tests[0][0] <= cycle)
        ):
            return
        # Drain due test completions inline: this fires once per
        # completed visit, so a call per test would be the engine's
        # single largest fixed cost.
        self.must_step = True
        fetch_ready = FETCH_READY
        done_state = DONE
        tally = self._tally
        warp_votes = self._warp_votes
        count_ready = self._count_ready
        completed = 0
        finished = 0
        for tests in (box_tests, prim_tests):
            while tests and tests[0][0] <= cycle:
                due, warp, group = tests.popleft()
                completed += len(group)
                for ray in group:
                    cursor = ray.cursor + 1
                    ray.cursor = cursor
                    if cursor >= ray.end:
                        ray.state = done_state
                        finished += 1
                        if tally is not None:
                            old_vote = ray.lookahead[cursor - 1]
                            if old_vote != -1:
                                tally.remove(old_vote)
                                if warp_votes:
                                    warp.note_vote_change(old_vote, -1)
                                self.vote_version += 1
                        warp.done_count += 1
                        if warp.done_count >= len(warp.rays):
                            self._retire(warp, due)
                        continue
                    ray.state = fetch_ready
                    if tally is not None:
                        lookahead = ray.lookahead
                        old_vote = lookahead[cursor - 1]
                        new_vote = lookahead[cursor]
                        if new_vote != old_vote:
                            tally.move(old_vote, new_vote)
                            if warp_votes:
                                warp.note_vote_change(old_vote, new_vote)
                            self.vote_version += 1
                    # The ray rejoins the warp's ready set.
                    warp.ready_count += 1
                    warp.ready_mask |= 1 << ray.slot_index
                    if count_ready:
                        warp.ready_treelet_counts[ray.treelets[cursor]] += 1
        self.stats.visits_completed += completed
        # Every completed ray that did not finish rejoined a ready set.
        self.ready_rays += completed - finished

    def _retire(self, warp: WarpSlot, cycle: int) -> None:
        self.buffer.remove(warp)
        self.stats.warps_retired += 1
        self.stats.warp_latency_total += cycle - warp.entry_cycle
        if self.obs is not None:
            self.obs.emit(
                "warp.retire",
                warp.entry_cycle,
                f"SM{self.sm_id}",
                dur=cycle - warp.entry_cycle,
                args=warp.trace_args(),
            )
