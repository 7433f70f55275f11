"""Unit tests for RayTask/WarpSlot state and the warp schedulers."""

import pytest

from conftest import ray_task
from repro.bvh import dfs_layout
from repro.gpusim import RayState, WarpSlot, select_warp
from repro.gpusim.warp import next_treelets, visit_prims
from repro.treelet import form_treelets, treelet_layout


@pytest.fixture
def layout(small_bvh, decomposition):
    return treelet_layout(decomposition)


def make_task(small_bvh, layout, node_ids):
    return ray_task(node_ids, small_bvh, layout, 128)


class TestRayTask:
    def test_empty_trace_starts_done(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [])
        assert task.done

    def test_advance_walks_visits(self, small_bvh, layout):
        path = [0, small_bvh.root.child_ids[0]]
        task = make_task(small_bvh, layout, path)
        assert task.current_node_address() == layout.address_of(0)
        task.advance()
        assert task.current_node_address() == layout.address_of(path[1])
        task.advance()
        assert task.done

    def test_current_node_address_matches_layout(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        assert task.current_node_address() == layout.address_of(0)

    def test_current_treelet_matches_layout(self, small_bvh, layout, decomposition):
        task = make_task(small_bvh, layout, [0])
        assert task.current_treelet() == decomposition.treelet_of(0)

    def test_lookahead_is_next_different_treelet(
        self, small_bvh, layout, decomposition
    ):
        # Build a path crossing a treelet boundary.
        path = None
        for node in small_bvh.nodes:
            for child in node.child_ids:
                if not decomposition.same_treelet(node.node_id, child):
                    path = [node.node_id, child]
                    break
            if path:
                break
        assert path is not None, "fixture tree should have >1 treelet"
        task = make_task(small_bvh, layout, path)
        assert task.lookahead_treelet() == decomposition.treelet_of(path[1])
        task.advance()
        assert task.lookahead_treelet() == -1

    def test_prims_cover_leaf(self, small_bvh, layout):
        leaf_id = small_bvh.leaf_ids()[0]
        task = make_task(small_bvh, layout, [0, leaf_id])
        assert task.n_visits == 2
        assert task.prims[0] is None  # an internal node fetches no triangles
        lines = task.prims[1]
        assert lines  # leaf with primitives needs at least one line
        assert len(set(lines)) == len(lines)
        assert all(addr % 128 == 0 for addr in lines)

    def test_prims_come_from_the_layout_memo(self, small_bvh, layout):
        """A directly built task and a loaded batch share one tuple per
        leaf: both read the one memo of the layout's primitive lines."""
        leaf_id = small_bvh.leaf_ids()[0]
        first = make_task(small_bvh, layout, [leaf_id])
        second = make_task(small_bvh, layout, [0, leaf_id])
        batch = visit_prims([leaf_id], small_bvh, layout, 128)
        assert first.prims[0] is second.prims[1] is batch[0]

    def test_lookahead_matches_a_scalar_scan(self, small_bvh, layout):
        """The vectorized lookahead over rays laid end to end equals a
        per-ray backward scan."""
        import numpy as np

        rays = [[3, 3, 5, 5, 2], [7], [1, 1], [4, 6, 6, 4]]
        flat = np.asarray([t for ray in rays for t in ray], dtype=np.int64)
        starts = np.cumsum([0] + [len(ray) for ray in rays])[:-1]
        expected = []
        for ray in rays:
            look = [-1] * len(ray)
            for i in range(len(ray) - 2, -1, -1):
                look[i] = ray[i + 1] if ray[i + 1] != ray[i] else look[i + 1]
            expected.extend(look)
        assert next_treelets(flat, starts) == expected

    def test_done_ray_reports_no_treelet(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        task.advance()
        assert task.current_treelet() == -1
        assert task.lookahead_treelet() == -1


class TestWarpSlot:
    def test_initial_counters(self, small_bvh, layout):
        tasks = [make_task(small_bvh, layout, [0]) for _ in range(4)]
        slot = WarpSlot(0, tasks, entry_cycle=0)
        assert slot.ready_count == 4
        assert not slot.done

    def test_done_detection(self, small_bvh, layout):
        tasks = [make_task(small_bvh, layout, []) for _ in range(2)]
        slot = WarpSlot(0, tasks, entry_cycle=0)
        assert slot.done

    def test_ready_transitions(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        slot = WarpSlot(0, [task], entry_cycle=0)
        treelet = task.current_treelet()
        slot.note_unready(task, treelet)
        assert slot.ready_count == 0
        assert treelet not in slot.ready_treelet_counts
        slot.note_ready(task)
        assert slot.ready_count == 1

    def test_vote_change_moves_counts(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        slot = WarpSlot(0, [task], entry_cycle=0)
        slot.note_vote_change(task.lookahead_treelet(), 99)
        assert slot.alive_treelet_counts.get(99) == 1

    def test_winner_treelet_plurality(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        slot = WarpSlot(0, [task], entry_cycle=0)
        slot.alive_treelet_counts.clear()
        slot.alive_treelet_counts.update({3: 5, 7: 2})
        assert slot.winner_treelet() == 3

    def test_winner_tie_breaks_to_lowest_id(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        slot = WarpSlot(0, [task], entry_cycle=0)
        slot.alive_treelet_counts.clear()
        slot.alive_treelet_counts.update({9: 3, 2: 3})
        assert slot.winner_treelet() == 2


class FakeWarp:
    """Minimal WarpSlot stand-in for scheduler tests."""

    def __init__(self, ready_count, matching=0, treelet=1):
        self.ready_count = ready_count
        self.ready_treelet_counts = {treelet: matching} if matching else {}


class TestSchedulers:
    def test_baseline_picks_oldest_ready(self):
        warps = [FakeWarp(0), FakeWarp(2), FakeWarp(5)]
        assert select_warp("baseline", warps, None) is warps[1]

    def test_none_when_no_ready(self):
        assert select_warp("baseline", [FakeWarp(0)], None) is None
        assert select_warp("pmr", [], 1) is None

    def test_omr_prefers_oldest_matching(self):
        warps = [FakeWarp(2, matching=0), FakeWarp(1, matching=1)]
        assert select_warp("omr", warps, 1) is warps[1]

    def test_omr_falls_back_to_baseline(self):
        warps = [FakeWarp(2, matching=0), FakeWarp(1, matching=0)]
        assert select_warp("omr", warps, 1) is warps[0]

    def test_pmr_maximizes_matching_rays(self):
        warps = [
            FakeWarp(4, matching=1),
            FakeWarp(4, matching=3),
            FakeWarp(4, matching=2),
        ]
        assert select_warp("pmr", warps, 1) is warps[1]

    def test_pmr_tie_prefers_older(self):
        warps = [FakeWarp(4, matching=2), FakeWarp(4, matching=2)]
        assert select_warp("pmr", warps, 1) is warps[0]

    def test_pmr_without_prefetch_is_baseline(self):
        warps = [FakeWarp(1), FakeWarp(5)]
        assert select_warp("pmr", warps, None) is warps[0]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            select_warp("random", [FakeWarp(1)], None)
