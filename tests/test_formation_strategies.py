"""Unit tests for the alternative treelet formation strategies."""

import numpy as np
import pytest

from repro.bvh import NODE_SIZE_BYTES
from repro.treelet import FORMATION_STRATEGIES, form_treelets
from conftest import treelet_members


class TestAllStrategies:
    @pytest.mark.parametrize("strategy", FORMATION_STRATEGIES)
    def test_valid_decomposition(self, small_bvh, strategy):
        dec = form_treelets(small_bvh, 512, strategy)
        dec.validate()

    @pytest.mark.parametrize("strategy", FORMATION_STRATEGIES)
    def test_partition_complete(self, small_bvh, strategy):
        dec = form_treelets(small_bvh, 512, strategy)
        assert sorted(dec.members.tolist()) == list(range(len(small_bvh)))
        assert (dec.node_treelet >= 0).all()

    @pytest.mark.parametrize("strategy", FORMATION_STRATEGIES)
    def test_deterministic(self, small_bvh, strategy):
        a = form_treelets(small_bvh, 512, strategy)
        b = form_treelets(small_bvh, 512, strategy)
        for column in ("node_treelet", "offsets", "members"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_unknown_strategy_rejected(self, small_bvh):
        with pytest.raises(ValueError):
            form_treelets(small_bvh, 512, "random")


class TestStrategyShapes:
    def test_bfs_orders_by_depth(self, small_bvh):
        dec = form_treelets(small_bvh, 512, "bfs")
        for node_ids in treelet_members(dec):
            depths = [small_bvh.node(n).depth for n in node_ids]
            assert depths == sorted(depths)

    def test_dfs_makes_deeper_treelets(self, small_bvh):
        """DFS fill follows one spine, reaching deeper levels per treelet
        than BFS fill for the same budget."""

        def max_span(dec):
            spans = []
            for node_ids in treelet_members(dec):
                depths = [small_bvh.node(n).depth for n in node_ids]
                spans.append(max(depths) - min(depths))
            return max(spans)

        bfs = form_treelets(small_bvh, 512, "bfs")
        dfs = form_treelets(small_bvh, 512, "dfs")
        assert max_span(dfs) >= max_span(bfs)

    def test_sah_prefers_big_boxes(self, small_bvh):
        """SAH fill absorbs the largest-area frontier node first, so the
        root treelet's total area is at least BFS's."""
        bfs = form_treelets(small_bvh, 512, "bfs")
        sah = form_treelets(small_bvh, 512, "sah")

        def area(dec):
            return sum(
                small_bvh.node(n).bounds.surface_area()
                for n in treelet_members(dec)[0]
            )

        assert area(sah) >= area(bfs) - 1e-9

    def test_strategies_agree_on_tiny_cap(self, small_bvh):
        """With one node per treelet, order does not matter: all
        strategies produce the same singleton partition."""
        decs = [
            form_treelets(small_bvh, NODE_SIZE_BYTES, s)
            for s in FORMATION_STRATEGIES
        ]
        for dec in decs:
            assert dec.treelet_count == len(small_bvh)
