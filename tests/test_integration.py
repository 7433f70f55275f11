"""End-to-end integration tests: the paper's headline shapes at smoke scale.

These run the full pipeline (scene -> BVH -> treelets -> traces -> timing
sim) and assert the *qualitative* results the reproduction must deliver.
Quantitative shapes are exercised at larger scale by the benchmark
harness; here we only pin down directions and invariants that must hold
even on miniature workloads.
"""

import pytest

from repro import (
    BASELINE,
    SMOKE,
    TREELET_PREFETCH,
    TREELET_TRAVERSAL_ONLY,
    Technique,
    run,
)
from repro.core.pipeline import DEFAULT, get_traces
from repro.power import evaluate_power
from repro.prefetch import PrefetchHeuristic

SCENES = ["WKND", "SHIP", "BUNNY"]


class TestWorkConservation:
    """All techniques complete exactly the work their traces specify."""

    @pytest.mark.parametrize("scene", SCENES)
    def test_visits_match_traces(self, scene):
        result = run(scene, TREELET_PREFETCH, SMOKE)
        traces = get_traces(scene, SMOKE, "treelet", 512)
        assert result.stats.visits_completed == sum(
            len(t.visits) for t in traces
        )

    @pytest.mark.parametrize("scene", SCENES)
    def test_baseline_never_prefetches(self, scene):
        result = run(scene, BASELINE, SMOKE)
        assert result.stats.prefetches_issued == 0
        assert result.stats.effectiveness.issued == 0

    @pytest.mark.parametrize("scene", SCENES)
    def test_prefetch_issues_requests(self, scene):
        result = run(scene, TREELET_PREFETCH, SMOKE)
        assert result.stats.prefetches_issued > 0
        assert result.stats.effectiveness.issued > 0


class TestHeadlineShapes:
    def test_prefetch_beats_traversal_only_on_medium_scene(self):
        trav = run("BUNNY", TREELET_TRAVERSAL_ONLY, SMOKE)
        pref = run("BUNNY", TREELET_PREFETCH, SMOKE)
        assert pref.cycles <= trav.cycles

    def test_prefetch_reduces_node_latency(self):
        base = run("BUNNY", BASELINE, SMOKE)
        pref = run("BUNNY", TREELET_PREFETCH, SMOKE)
        assert (
            pref.stats.avg_node_demand_latency
            < base.stats.avg_node_demand_latency
        )

    def test_prefetch_raises_l2_traffic(self):
        base = run("BUNNY", BASELINE, SMOKE)
        pref = run("BUNNY", TREELET_PREFETCH, SMOKE)
        assert pref.stats.l2_bytes >= base.stats.l2_bytes

    def test_power_roughly_flat(self):
        base = run("BUNNY", BASELINE, SMOKE)
        pref = run("BUNNY", TREELET_PREFETCH, SMOKE)
        ratio = pref.power.avg_power / base.power.avg_power
        assert 0.8 <= ratio <= 1.3

    def test_voter_decisions_recorded(self):
        pref = run("BUNNY", TREELET_PREFETCH, SMOKE)
        assert pref.stats.voter_decisions > 0
        assert pref.stats.voter_accuracy == 1.0  # full voter default


class TestTechniqueMatrix:
    """Every point of the design space runs to completion at smoke scale."""

    @pytest.mark.parametrize("scheduler", ["baseline", "omr", "pmr"])
    def test_schedulers(self, scheduler):
        technique = Technique(
            traversal="treelet",
            layout="treelet",
            prefetch="treelet",
            scheduler=scheduler,
        )
        assert run("SHIP", technique, SMOKE).cycles > 0

    @pytest.mark.parametrize(
        "heuristic",
        [
            PrefetchHeuristic("always"),
            PrefetchHeuristic("popularity", threshold=0.25),
            PrefetchHeuristic("popularity", threshold=0.75),
            PrefetchHeuristic("partial"),
        ],
    )
    def test_heuristics(self, heuristic):
        technique = Technique(
            traversal="treelet",
            layout="treelet",
            prefetch="treelet",
            heuristic=heuristic,
        )
        assert run("SHIP", technique, SMOKE).cycles > 0

    @pytest.mark.parametrize("treelet_bytes", [256, 512, 1024, 2048])
    def test_treelet_sizes(self, treelet_bytes):
        technique = Technique(
            traversal="treelet",
            layout="treelet",
            prefetch="treelet",
            treelet_bytes=treelet_bytes,
        )
        assert run("SHIP", technique, SMOKE).cycles > 0

    @pytest.mark.parametrize("latency", [0, 32, 128])
    def test_voter_latencies(self, latency):
        technique = Technique(
            traversal="treelet",
            layout="treelet",
            prefetch="treelet",
            voter_mode="pseudo",
            voter_latency=latency,
        )
        result = run("SHIP", technique, SMOKE)
        assert result.cycles > 0
        assert 0.0 <= result.stats.voter_accuracy <= 1.0

    @pytest.mark.parametrize("kind", ["mta", "stride", "stream", "ghb"])
    def test_baseline_prefetchers(self, kind):
        assert run("SHIP", Technique(prefetch=kind), SMOKE).cycles > 0


class TestCrossTechniqueInvariants:
    def test_same_hits_regardless_of_traversal(self):
        dfs_traces = get_traces("BUNNY", SMOKE, "dfs", 512)
        two_traces = get_traces("BUNNY", SMOKE, "treelet", 512)
        assert len(dfs_traces) == len(two_traces)
        for a, b in zip(dfs_traces, two_traces):
            assert (a.hit is None) == (b.hit is None)
            if a.hit is not None:
                assert a.hit.primitive_id == b.hit.primitive_id or (
                    abs(a.hit.t - b.hit.t) < 1e-9
                )

    def test_voter_latency_degrades_or_equals(self):
        fast = run(
            "BUNNY",
            Technique(
                traversal="treelet",
                layout="treelet",
                prefetch="treelet",
                voter_latency=0,
            ),
            SMOKE,
        )
        slow = run(
            "BUNNY",
            Technique(
                traversal="treelet",
                layout="treelet",
                prefetch="treelet",
                voter_latency=512,
            ),
            SMOKE,
        )
        # A 512-cycle voter can't beat the ideal one by more than noise.
        assert slow.cycles >= fast.cycles * 0.9
