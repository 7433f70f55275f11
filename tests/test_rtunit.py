"""Focused unit tests for the RT unit: coalescing, port limits, prefetch
arbitration, and the primitive-fetch flow."""

import pytest

from conftest import ray_task
from repro.bvh import dfs_layout
from repro.core.config import CacheConfig, GpuConfig
from repro.gpusim import (
    GpuModel, MemorySystem, RTUnit, RayState, RayTask, WarpSlot,
)
from repro.prefetch import (
    AdaptiveConfig, AdaptiveThrottle, MajorityVoter, Prefetcher,
    TreeletAddressMap, TreeletPrefetcher,
)
from repro.treelet import form_treelets, treelet_layout


def tiny_config(**kw):
    defaults = dict(
        n_sms=1,
        warp_buffer_size=4,
        mem_ports=2,
        l1=CacheConfig(size_bytes=2048, line_bytes=128, latency=20),
        l2=CacheConfig(
            size_bytes=8 * 1024, line_bytes=128, associativity=8, latency=160
        ),
    )
    defaults.update(kw)
    return GpuConfig(**defaults)


def make_unit(config=None, prefetcher=None, policy="baseline"):
    config = config or tiny_config()
    memsys = MemorySystem(config)
    unit = RTUnit(0, config, memsys,
                  scheduler_policy=policy, prefetcher=prefetcher)
    return unit, memsys


def run(unit, memsys, max_cycles=100_000):
    cycle = 0
    while unit.busy():
        memsys.flush_due(cycle)
        unit.run_tests_due(cycle)
        unit.step(cycle)
        cycle += 1
        assert cycle < max_cycles, "RT unit did not drain"
    memsys.drain(cycle)
    return cycle


class TestCoalescing:
    def test_same_node_same_cycle_single_access(self, small_bvh):
        """32 rays fetching the root in one cycle coalesce to one load."""
        layout = dfs_layout(small_bvh)
        unit, memsys = make_unit()
        rays = [
            ray_task(
                [0], small_bvh, layout, 128
            )
            for i in range(8)
        ]
        unit.add_warp(rays)
        run(unit, memsys)
        assert unit.stats.node_fetches_issued == 1
        assert unit.stats.visits_completed == 8

    def test_distinct_lines_up_to_port_limit(self, small_bvh):
        """Rays on different lines issue separately, capped per cycle."""
        layout = dfs_layout(small_bvh)
        # Pick nodes on distinct cache lines.
        line_bytes = 128
        chosen = []
        seen_lines = set()
        for node in small_bvh.nodes:
            line = layout.address_of(node.node_id) // line_bytes
            if line not in seen_lines:
                seen_lines.add(line)
                chosen.append(node.node_id)
            if len(chosen) == 4:
                break
        unit, memsys = make_unit(tiny_config(mem_ports=2))
        rays = [
            ray_task(
                [node_id], small_bvh, layout, line_bytes
            )
            for i, node_id in enumerate(chosen)
        ]
        unit.add_warp(rays)
        memsys.flush_due(0)
        unit.step(0)  # admission + first issue cycle
        assert unit.stats.node_fetches_issued <= 2  # port limit per cycle
        unit.step(1)
        assert unit.stats.node_fetches_issued <= 4
        run(unit, memsys)
        assert unit.stats.node_fetches_issued == len(chosen)


class TestPrimitiveFlow:
    def test_leaf_generates_primitive_fetches(self, small_bvh):
        layout = dfs_layout(small_bvh)
        leaf_id = small_bvh.leaf_ids()[0]
        unit, memsys = make_unit()
        ray = ray_task(
            [leaf_id], small_bvh, layout, 128
        )
        unit.add_warp([ray])
        run(unit, memsys)
        assert unit.stats.primitive_fetches_issued >= 1
        assert ray.done

    def test_internal_node_no_primitive_fetch(self, small_bvh):
        layout = dfs_layout(small_bvh)
        unit, memsys = make_unit()
        ray = ray_task(
            [small_bvh.ROOT_ID], small_bvh, layout, 128
        )
        unit.add_warp([ray])
        run(unit, memsys)
        assert unit.stats.primitive_fetches_issued == 0


class TestProbeOrder:
    def test_node_lines_then_primitive_lines_in_claim_order(self, small_bvh):
        """One warp, ready rays mixing PRIM_READY and FETCH_READY in slot
        order: the L1 sees node lines in claim order, then primitive
        lines in claim order; a later ray on a probed node line rides
        its record; a ray skipped on full ports stays ready."""
        layout = dfs_layout(small_bvh)
        leaves = small_bvh.leaf_ids()
        lines = {}
        for node in small_bvh.nodes:
            lines.setdefault(layout.address_of(node.node_id) // 128,
                             node.node_id)
        node_a, node_b, node_c = list(lines.values())[:3]
        prim_a = ray_task([leaves[0]], small_bvh, layout)
        fetch_a = ray_task([node_a], small_bvh, layout)
        prim_b = ray_task([leaves[-1]], small_bvh, layout)
        fetch_b = ray_task([node_b], small_bvh, layout)
        fetch_a_again = ray_task([node_a], small_bvh, layout)
        fetch_c = ray_task([node_c], small_bvh, layout)
        rays = [prim_a, fetch_a, prim_b, fetch_b, fetch_a_again, fetch_c]
        prim_lines = list(dict.fromkeys(
            address // 128
            for ray in (prim_a, prim_b) for address in ray.prims[0]
        ))
        # Every line but ``node_c``'s fits in the ports.
        unit, memsys = make_unit(tiny_config(mem_ports=2 + len(prim_lines)))
        for ray in (prim_a, prim_b):
            ray.state = RayState.PRIM_READY
            ray.prim_lines_pending = list(ray.prims[0])
        # A new slot readies only its FETCH_READY rays.
        warp = WarpSlot(0, rays, 0, count_votes=False, count_ready=False)
        warp.ready_mask |= 1 << prim_a.slot_index | 1 << prim_b.slot_index
        warp.ready_count += 2
        unit.buffer.append(warp)

        assert unit._issue_demand(warp, 0) == 2 + len(prim_lines)
        l1 = memsys.l1s[0]
        node_lines = [layout.address_of(n) // 128 for n in (node_a, node_b)]
        assert list(l1._mshrs) == node_lines + prim_lines
        ((_, _, riders, _, _),) = l1._mshrs[node_lines[0]]
        assert riders == [fetch_a, fetch_a_again]
        assert l1.stats.demand_accesses == 2 + len(prim_lines)
        assert warp.ready_mask == 1 << fetch_c.slot_index
        assert warp.ready_count == 1
        assert fetch_c.state is RayState.FETCH_READY
        memsys.drain(0)
        assert memsys.node_demand_latency.count == 2
        assert memsys.all_demand_latency.count == 2 + len(prim_lines)
        assert fetch_a.state is fetch_a_again.state is RayState.TESTING


class TestPrefetchArbitration:
    class CountingPrefetcher(Prefetcher):
        """Queues a fixed list of prefetches; records pop cycles."""

        def __init__(self, addresses):
            super().__init__()
            for address in addresses:
                self.enqueue(address)
            self.pop_cycles = []

        def pop_prefetch(self, cycle):
            self.pop_cycles.append(cycle)
            return super().pop_prefetch(cycle)

    def test_at_most_one_prefetch_per_cycle(self, small_bvh):
        layout = dfs_layout(small_bvh)
        prefetcher = self.CountingPrefetcher(
            [0x9000 + i * 128 for i in range(6)]
        )
        unit, memsys = make_unit(prefetcher=prefetcher)
        unit.add_warp([
            ray_task(
                [0], small_bvh, layout, 128
            )
        ])
        run(unit, memsys)
        assert len(prefetcher.pop_cycles) == 6
        assert len(set(prefetcher.pop_cycles)) == 6  # one per cycle
        assert unit.stats.prefetches_issued == 6

    def test_prefetches_drain_even_after_warps_finish(self, small_bvh):
        layout = dfs_layout(small_bvh)
        prefetcher = self.CountingPrefetcher([0x9000])
        unit, memsys = make_unit(prefetcher=prefetcher)
        unit.add_warp([
            ray_task(
                [0], small_bvh, layout, 128
            )
        ])
        run(unit, memsys)
        assert prefetcher.queue_depth() == 0


    def test_treelet_hooks_run_only_when_they_can_act(
        self, small_bvh, decomposition
    ):
        """The unit pops only a released queue head, and every
        ``on_cycle`` it makes reaches the voter."""
        layout = treelet_layout(decomposition)
        prefetcher = TreeletPrefetcher(
            TreeletAddressMap(decomposition, layout, 128),
            voter=MajorityVoter(latency=8),
        )
        pops, decisions, votes = [], [], []
        pop, on_cycle, decide = (
            prefetcher.pop_prefetch, prefetcher.on_cycle,
            prefetcher.voter.decide,
        )

        def counted_pop(cycle):
            queue = prefetcher.queue
            pops.append(bool(queue) and queue[0].release_cycle <= cycle)
            return pop(cycle)

        def counted_on_cycle(cycle, warps, version=-1):
            decisions.append(cycle)
            on_cycle(cycle, warps, version)

        def counted_decide(tally, warps=(), cycle=0):
            votes.append(cycle)
            return decide(tally, warps, cycle)

        prefetcher.pop_prefetch = counted_pop
        prefetcher.on_cycle = counted_on_cycle
        prefetcher.voter.decide = counted_decide
        unit, memsys = make_unit(prefetcher=prefetcher)
        for paths in (leaf_paths(small_bvh)[:8], leaf_paths(small_bvh)[8:16]):
            unit.add_warp([ray_task(p, small_bvh, layout) for p in paths])
        cycles = run(unit, memsys)
        assert unit.stats.prefetches_issued == len(pops) > 0
        assert all(pops)
        assert decisions == votes
        assert 0 < len(decisions) < cycles


    def test_wake_follows_the_prefetcher_state(self, decomposition):
        """A unit with nothing to issue wakes for its prefetcher's
        released queue head, its adaptive epoch, and a decision once
        the votes have moved, unless Strict Wait holds decisions."""
        layout = treelet_layout(decomposition)
        prefetcher = TreeletPrefetcher(
            TreeletAddressMap(decomposition, layout, 128),
            voter=MajorityVoter(latency=8),
            adaptive=AdaptiveThrottle(AdaptiveConfig(epoch_cycles=1000)),
        )
        unit, _ = make_unit(prefetcher=prefetcher)
        # The first step decides on the empty buffer (next gate: 8).
        assert unit.step(0) == (1000, 0)
        assert prefetcher.decision_cycle == 8
        prefetcher.enqueue(0x9000, release=40)
        assert unit.step(1) == (40, 0)
        unit.vote_version += 1  # the votes moved
        assert unit.step(2) == (8, 0)
        prefetcher.strict_outstanding = 1
        assert unit.step(3) == (40, 0)
        prefetcher.strict_outstanding = 0
        assert unit.step(8)[0] == 40  # decided at 8, gate now 16
        assert unit.step(40)[0] == 1000  # popped the head at 40


class TestWarpBufferFlow:
    def test_buffer_capacity_respected(self, small_bvh):
        layout = dfs_layout(small_bvh)
        config = tiny_config(warp_buffer_size=2)
        unit, memsys = make_unit(config)
        for i in range(5):
            unit.add_warp([
                ray_task(
                    [0], small_bvh, layout, 128
                )
            ])
        memsys.flush_due(0)
        unit.step(0)
        unit.step(1)
        unit.step(2)
        assert len(unit.buffer) <= 2
        run(unit, memsys)
        assert unit.stats.warps_retired == 5

    def test_warp_latency_recorded(self, small_bvh):
        layout = dfs_layout(small_bvh)
        unit, memsys = make_unit()
        unit.add_warp([
            ray_task(
                [0], small_bvh, layout, 128
            )
        ])
        run(unit, memsys)
        assert unit.stats.warp_latency_total > 0

    def test_oversized_warp_rejected(self, small_bvh):
        layout = dfs_layout(small_bvh)
        unit, memsys = make_unit()
        rays = [
            ray_task(
                [0], small_bvh, layout, 128
            )
            for i in range(33)
        ]
        with pytest.raises(ValueError):
            unit.add_warp(rays)


class TestStallAccounting:
    def test_mshr_full_counted_separately(self, small_bvh):
        """A selectable warp blocked on full L1 MSHRs is a bandwidth
        stall (mshr_stall_cycles), not a latency stall (stall_cycles)."""
        layout = dfs_layout(small_bvh)
        config = tiny_config(
            mem_ports=1,
            l1=CacheConfig(
                size_bytes=2048, line_bytes=128, latency=200,
                mshr_entries=1,
            ),
        )
        unit, memsys = make_unit(config)
        # Two single-ray warps touching distinct lines.
        line_bytes = 128
        chosen = []
        seen_lines = set()
        for node in small_bvh.nodes:
            line = layout.address_of(node.node_id) // line_bytes
            if line not in seen_lines:
                seen_lines.add(line)
                chosen.append(node.node_id)
            if len(chosen) == 2:
                break
        for i, node_id in enumerate(chosen):
            unit.add_warp([
                ray_task(
                    [node_id], small_bvh, layout, line_bytes
                )
            ])
        memsys.flush_due(0)
        unit.step(0)  # warp 0 issues; the single MSHR fills
        unit.step(1)  # warp 1 admitted + ready, but MSHRs full
        assert unit.stats.mshr_stall_cycles >= 1
        assert unit.stats.stall_cycles == 0
        run(unit, memsys)
        assert unit.stats.visits_completed == 2

    def test_latency_stall_unchanged(self, small_bvh):
        """With ample MSHRs, waiting on memory is still stall_cycles."""
        layout = dfs_layout(small_bvh)
        unit, memsys = make_unit()
        unit.add_warp([
            ray_task(
                [0], small_bvh, layout, 128
            )
        ])
        run(unit, memsys)
        assert unit.stats.stall_cycles > 0
        assert unit.stats.mshr_stall_cycles == 0

    def test_sim_stats_fractions_split(self):
        from repro.gpusim import SimStats

        stats = SimStats(
            busy_cycles=2, stall_cycles=1, mshr_stall_cycles=1
        )
        assert stats.stall_fraction == pytest.approx(0.25)
        assert stats.mshr_stall_fraction == pytest.approx(0.25)


class TestVoteVersion:
    def test_version_advances_with_progress(self, small_bvh, decomposition):
        layout = treelet_layout(decomposition)
        prefetcher = TreeletPrefetcher(
            TreeletAddressMap(decomposition, layout, 128)
        )
        unit, memsys = make_unit(prefetcher=prefetcher)
        path = [0] + list(small_bvh.root.child_ids[:1])
        unit.add_warp([
            ray_task(
                path, small_bvh, layout, 128
            )
        ])
        initial = unit.vote_version
        run(unit, memsys)
        assert unit.vote_version > initial
        # Every ray finished, so its vote left the tally.
        assert (prefetcher.tally.counts, prefetcher.tally.total) == ({}, 0)

    def test_no_voter_keeps_no_vote_state(self, small_bvh, decomposition):
        # Only a voter reads the vote counts and their version, and only
        # the treelet schedulers read the ready-treelet counts.
        layout = treelet_layout(decomposition)
        unit, memsys = make_unit()
        path = [0] + list(small_bvh.root.child_ids[:1])
        unit.add_warp([ray_task(path, small_bvh, layout, 128)])
        unit.step(0)
        (slot,) = unit.buffer
        assert slot.alive_treelet_counts is None
        assert slot.ready_treelet_counts is None
        run(unit, memsys)
        assert unit.vote_version == 0
        assert unit.stats.visits_completed == len(path)

    @pytest.mark.parametrize("policy", ["omr", "pmr"])
    def test_treelet_scheduler_keeps_ready_counts(
        self, small_bvh, decomposition, policy
    ):
        layout = treelet_layout(decomposition)
        unit, memsys = make_unit(policy=policy)
        path = [0] + list(small_bvh.root.child_ids[:1])
        unit.add_warp([ray_task(path, small_bvh, layout, 128)])
        unit.step(0)
        (slot,) = unit.buffer
        assert slot.alive_treelet_counts is None
        assert sum(slot.ready_treelet_counts.values()) == slot.ready_count


def leaf_paths(bvh):
    """Every root-to-leaf path of ``bvh``, in depth-first order."""
    paths, stack = [], [[bvh.ROOT_ID]]
    while stack:
        path = stack.pop()
        node = bvh.nodes[path[-1]]
        if node.is_leaf:
            paths.append(path)
        else:
            stack.extend(path + [child] for child in node.child_ids)
    return paths


def interior_path(bvh):
    """The root and an interior child of it: two visits, no leaf."""
    child = next(
        node_id for node_id in bvh.root.child_ids
        if not bvh.nodes[node_id].is_leaf
    )
    return [bvh.ROOT_ID, child]


class TestStandaloneDelivery:
    def test_fill_hands_the_record_to_a_standalone_unit(self, small_bvh):
        """A unit built without a GpuModel installs itself, so the fill
        of a demand miss reaches the record parked in its MSHR."""
        layout = dfs_layout(small_bvh)
        unit, memsys = make_unit()
        assert memsys.units == [unit]
        ray = ray_task([small_bvh.ROOT_ID], small_bvh, layout, 128)
        unit.add_warp([ray])
        unit.step(0)
        line = layout.address_of(small_bvh.ROOT_ID) // 128
        ((is_node, _warp, rays, issue_cycle, address),) = (
            memsys.l1s[0]._mshrs[line]
        )
        assert (is_node, rays, issue_cycle) == (True, [ray], 0)
        assert address == layout.address_of(small_bvh.ROOT_ID)
        assert ray.state is RayState.WAIT_NODE
        memsys.drain(0)
        assert ray.state is RayState.TESTING
        assert memsys.node_demand_latency.count == 1

    def test_ray_in_a_batch_fetches_only_its_own_visits(self, small_bvh):
        class DemandLog(Prefetcher):
            def __init__(self):
                super().__init__()
                self.addresses = []

            def on_demand_issue(self, warp_id, address, cycle):
                self.addresses.append(address)

        layout = dfs_layout(small_bvh)
        path = interior_path(small_bvh)
        before, after = [small_bvh.leaf_ids()[0]], [small_bvh.leaf_ids()[-1]]
        batch = ray_task(before + path + after, small_bvh, layout, 128)
        ray = RayTask(
            batch.addresses, batch.treelets, batch.lookahead, batch.prims,
            len(before), len(before) + len(path),
        )
        log = DemandLog()
        unit, memsys = make_unit(prefetcher=log)
        unit.add_warp([ray])
        run(unit, memsys)
        assert log.addresses == [layout.address_of(n) for n in path]
        assert unit.stats.visits_completed == len(path)
        assert ray.cursor == ray.end and ray.done


class TestStepsOnlyWhenTheStepCanAct:
    def test_interior_node_responses_cost_no_step(self, small_bvh):
        """A node response on an interior node only queues a box test:
        the engine steps the unit at its admit and at each test
        completion, never for the fill, and the stall cycles equal a
        unit stepped in every cycle."""
        layout = dfs_layout(small_bvh)
        path = interior_path(small_bvh)
        reference, memsys = make_unit()
        reference.add_warp([ray_task(path, small_bvh, layout, 128)])
        run(reference, memsys)

        model = GpuModel(tiny_config())
        (unit,) = model.units
        unit.add_warp([ray_task(path, small_bvh, layout, 128)])
        steps = []
        step = unit.step
        unit.step = lambda cycle: steps.append(cycle) or step(cycle)
        model.run()
        assert len(steps) == 1 + len(path)
        assert unit.stats.node_fetches_issued == len(path)
        assert unit.stats.stall_cycles == reference.stats.stall_cycles > 0
        assert unit.stats.busy_cycles == reference.stats.busy_cycles
        assert unit.stats.mshr_stall_cycles == 0
        assert unit.stats.warp_latency_total == (
            reference.stats.warp_latency_total
        )

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="random"):
            make_unit(policy="random")
