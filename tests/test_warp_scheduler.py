"""Unit tests for RayTask/WarpSlot state and the warp schedulers."""

import pytest

from conftest import ray_task
from repro.bvh import dfs_layout
from repro.gpusim import RayState, RayTask, WarpSlot
from repro.gpusim.scheduler import (
    SCHEDULER_NAMES, scheduler_for, select_oldest, select_omr, select_pmr,
)
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

    def test_cursor_indexes_the_visit_columns(self, small_bvh, layout):
        path = [0, small_bvh.root.child_ids[0]]
        task = make_task(small_bvh, layout, path)
        assert (task.start, task.cursor, task.end) == (0, 0, 2)
        assert task.n_visits == 2
        assert [task.addresses[i] for i in range(task.start, task.end)] == [
            layout.address_of(node_id) for node_id in path
        ]

    def test_current_node_address_matches_layout(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        assert task.addresses[task.cursor] == layout.address_of(0)

    def test_current_treelet_matches_layout(self, small_bvh, layout, decomposition):
        task = make_task(small_bvh, layout, [0])
        assert task.treelets[task.cursor] == decomposition.treelet_of(0)

    def test_ray_in_a_batch_reads_its_own_slice(self, small_bvh, layout):
        """Rays of one batch share its visit columns; a ray in the middle
        starts at its own first visit and ends before the next ray's."""
        paths = [
            [0], [0, small_bvh.root.child_ids[0]], [small_bvh.leaf_ids()[0]]
        ]
        batch = make_task(small_bvh, layout, sum(paths, []))
        middle = RayTask(
            batch.addresses, batch.treelets, batch.lookahead, batch.prims, 1, 3
        )
        assert middle.addresses is batch.addresses  # shared, not copied
        assert (middle.cursor, middle.n_visits) == (1, 2)
        assert middle.state is RayState.FETCH_READY
        assert batch.addresses[middle.start:middle.end] == [
            layout.address_of(node_id) for node_id in paths[1]
        ]
        assert RayTask(batch.addresses, batch.treelets, batch.lookahead,
                       batch.prims, 2, 2).done

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
        assert task.lookahead[0] == decomposition.treelet_of(path[1])
        assert task.lookahead[1] == -1

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

    def test_last_visit_has_no_lookahead(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        assert task.lookahead[task.end - 1] == -1


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

    def test_ready_ray_is_counted_by_its_treelet(self, small_bvh, layout):
        tasks = [make_task(small_bvh, layout, [0]) for _ in range(2)]
        tasks.append(make_task(small_bvh, layout, []))
        slot = WarpSlot(0, tasks, entry_cycle=0)
        assert [task.slot_index for task in tasks] == [0, 1, 2]
        assert (slot.ready_count, slot.ready_mask, slot.done_count) == (
            2, 0b11, 1
        )
        assert slot.ready_treelet_counts == {tasks[0].treelets[0]: 2}

    def test_vote_change_moves_counts(self, small_bvh, layout):
        task = make_task(small_bvh, layout, [0])
        slot = WarpSlot(0, [task], entry_cycle=0)
        slot.note_vote_change(task.lookahead[task.cursor], 99)
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
        assert select_oldest(warps) is warps[1]

    def test_none_when_no_ready(self):
        assert select_oldest([FakeWarp(0)]) is None
        assert select_pmr([], 1) is None

    def test_omr_prefers_oldest_matching(self):
        warps = [FakeWarp(2, matching=0), FakeWarp(1, matching=1)]
        assert select_omr(warps, 1) is warps[1]

    def test_omr_falls_back_to_baseline(self):
        warps = [FakeWarp(2, matching=0), FakeWarp(1, matching=0)]
        assert select_omr(warps, 1) is warps[0]

    def test_pmr_maximizes_matching_rays(self):
        warps = [
            FakeWarp(4, matching=1),
            FakeWarp(4, matching=3),
            FakeWarp(4, matching=2),
        ]
        assert select_pmr(warps, 1) is warps[1]

    def test_pmr_tie_prefers_older(self):
        warps = [FakeWarp(4, matching=2), FakeWarp(4, matching=2)]
        assert select_pmr(warps, 1) is warps[0]

    def test_pmr_without_prefetch_is_baseline(self):
        warps = [FakeWarp(1), FakeWarp(5)]
        assert select_pmr(warps, None) is warps[0]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="random"):
            scheduler_for("random")

    def test_policies_resolve_to_their_functions(self):
        assert SCHEDULER_NAMES == ("baseline", "omr", "pmr")
        assert [scheduler_for(name) for name in SCHEDULER_NAMES] == [
            select_oldest, select_omr, select_pmr
        ]
