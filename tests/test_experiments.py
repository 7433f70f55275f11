"""The experiment table (repro.analysis.experiments) at smoke scale.

The whole table runs once per module: every row must record the keys
its experiment has always recorded, every check that runs at smoke must
hold, and DESIGN.md's experiment index and expected shapes must name
the table's rows, checks and divergences one for one.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import EXPERIMENTS, evaluate, render_markdown
from repro.analysis.experiments import SMOKE_SCENES, scenes_for
from repro.core import DEFAULT, FULL, SMOKE, clear_caches, pipeline
from repro.exec import get_artifact_cache, set_artifact_cache

DESIGN = (Path(__file__).resolve().parents[1] / "DESIGN.md").read_text()

SCENE = "<scene>"  # stands for each of the scale's scenes

#: The keys each row records (``scale`` aside).  A string lists leaf
#: keys; a dict nests.
RECORDED = {
    "table2_scene_stats": {SCENE: "depth paper_size_mb size_mb treelets"},
    "table3_nodes_per_ray": {
        SCENE: "avg_diff dfs_avg dfs_max max_diff treelet_avg treelet_max",
        "gmean": "avg_diff max_diff",
    },
    "fig01_memory_stats": {
        SCENE: "dram_util_base dram_util_pref latency_base latency_pref",
        "gmean_latency_reduction": None,
    },
    "fig07_overall_speedup": {
        SCENE: "base_cycles power_ratio pref_cycles speedup",
        "gmean_power_ratio": None, "gmean_speedup": None,
    },
    "fig08_prior_work": {
        SCENE: "mta_speedup mta_timely_fraction ours_speedup",
        "gmean_mta": None, "gmean_ours": None,
    },
    "fig09_breakdown": {
        SCENE: "prefetch_extra total traversal_only",
        "gmean_total": None, "gmean_traversal_only": None,
    },
    "fig10_heuristics":
        "ALWAYS PARTIAL POPULARITY:0.25 POPULARITY:0.5 POPULARITY:0.75",
    "fig11_l2_bandwidth":
        "ALWAYS PARTIAL POPULARITY:0.25 POPULARITY:0.5 POPULARITY:0.75",
    "fig12_l1_breakdown": {
        label: "demand_hits misses pending_hits prefetch_hits"
        for label in ("ALWAYS", "Baseline", "PARTIAL", "POPULARITY:0.25",
                      "POPULARITY:0.5", "POPULARITY:0.75")
    },
    "fig13_schedulers": "baseline omr pmr",
    "fig14_repacking": "LooseWait Repacked StrictWait",
    "fig15_load_balancing": "gmean_strided_vs_packed mean_packed_imbalance "
                            "mean_strided_imbalance",
    "fig16_prefetcher_latency": "0 32 128 512",
    "fig17_voter_accuracy": "0 32 128",
    "fig18_voter_performance": "full pseudo",
    "fig19_treelet_sizes": "256 512 1024 2048",
    "fig20_effectiveness": "early late timely too_late unused",
    "sec51_resolution": "gmean_high gmean_low",
    "sec65_area": {
        "copies_1": "latency_cycles storage_bytes",
        "copies_4": "latency_cycles storage_bytes",
        "copies_16": "latency_cycles storage_bytes",
        "first_level_bytes": None, "second_level_bytes": None,
        "sequential_area_um2": None,
    },
    "ablation_classic_prefetchers": "ghb mta stream stride treelet",
    "ablation_deferred_order": "fifo lifo nearest",
    "ablation_formation": "bfs dfs sah",
    "ablation_destination": "l1 stream",
    "ablation_warp_buffer": "4 8 16 32",
    "ablation_cache_size": "2 8 32 256",
    "ablation_ray_population": "primary_only with_secondary",
    "ablation_animation": "cold_frame steady_state",
    "ablation_adaptive": "ADAPTIVE ALWAYS POPULARITY:0.5",
    "sec24_motivation": {
        kind: "mean_nodes_per_ray mean_warp_overlap"
        for kind in ("primary", "secondary", "shadow")
    },
}


def _expand(spec):
    if spec is None:
        return None
    if isinstance(spec, str):
        return {key: None for key in spec.split()}
    tree = {}
    for key, value in spec.items():
        for name in (SMOKE_SCENES if key == SCENE else (key,)):
            tree[name] = _expand(value)
    return tree


def _keys(payload):
    if not isinstance(payload, dict):
        return None
    return {key: _keys(value) for key, value in payload.items()}


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A fresh artifact cache, active for the module, with a cold memo:
    the table's first pass stores every result in it."""
    previous = get_artifact_cache()
    cache = set_artifact_cache(tmp_path_factory.mktemp("artifacts"))
    clear_caches()
    yield cache
    set_artifact_cache(previous)


@pytest.fixture(scope="module")
def evaluation(stored):
    return evaluate(SMOKE)


def test_table_has_one_row_per_recorded_experiment():
    assert [e.id for e in EXPERIMENTS] == list(RECORDED)


@pytest.mark.parametrize("experiment_id", list(RECORDED))
def test_row_records_its_keys(evaluation, experiment_id):
    payload = dict(evaluation.results[experiment_id])
    assert payload.pop("scale") == "smoke"
    assert _keys(payload) == _expand(RECORDED[experiment_id])


def test_smoke_checks_hold(evaluation):
    assert evaluation.failures == []


def test_warm_table_replays_nothing(evaluation, stored, monkeypatch):
    """With the memo cleared and the artifact cache kept, a second pass
    loads every stored result, the GPU variants' included, and records
    the same payloads: Abl. H's animation frames are the only
    simulation left."""
    set_artifact_cache(stored)
    clear_caches()
    replays = []
    replay = pipeline.Replay.run

    def counted(self, *args, **kwargs):
        replays.append(self.technique)
        return replay(self, *args, **kwargs)

    monkeypatch.setattr(pipeline.Replay, "run", counted)
    again = evaluate(SMOKE)
    assert replays == []
    assert again.results == evaluation.results
    assert again.failures == evaluation.failures


def test_sec24_reads_the_stored_dfs_traces(stored, monkeypatch):
    """§2.4 reads the DFS trace set the memo holds, so over a warm memo
    it traces no ray."""
    from repro import traversal
    from repro.analysis import experiments

    set_artifact_cache(stored)
    warm = experiments._sec24(SMOKE, SMOKE_SCENES)

    def refuse(*_args, **_kwargs):
        raise AssertionError("§2.4 traced rays over a warm memo")

    monkeypatch.setattr(pipeline, "traverse_forest_jobs", refuse)
    monkeypatch.setattr(traversal, "traverse_dfs_batch", refuse)
    monkeypatch.setattr(experiments, "traverse_dfs_batch", refuse,
                        raising=False)
    assert experiments._sec24(SMOKE, SMOKE_SCENES) == warm


def test_every_row_renders(evaluation):
    text = render_markdown(evaluation.results)
    assert "not yet recorded" not in text
    for experiment in EXPERIMENTS:
        assert f"## {experiment.title}\n" in text


def test_scene_sets_follow_the_scale():
    assert scenes_for(SMOKE) == list(SMOKE_SCENES)
    assert len(scenes_for(DEFAULT)) == 10
    assert len(scenes_for(FULL)) == 16


def test_check_and_divergence_names_are_unique():
    names = [c.name for e in EXPERIMENTS for c in e.checks]
    names += [d.name for e in EXPERIMENTS for d in e.divergences]
    assert len(names) == len(set(names))


def _design_section(heading: str) -> str:
    start = DESIGN.index(heading)
    end = DESIGN.find("\n## ", start + 1)
    return DESIGN[start:end]


def test_design_index_names_every_row_once():
    index = _design_section("## Experiment index")
    rows = [line.strip(" |").split(" | ") for line in index.splitlines()
            if line.startswith("| ") and not line.startswith("| Exp ")]
    named = {}
    for row in rows:
        for experiment_id in re.findall(r"`(\w+)`", row[-1]):
            assert experiment_id not in named, experiment_id
            named[experiment_id] = row[0]
    assert named == {e.id: e.exp for e in EXPERIMENTS}


def _shape_bullets():
    section = DESIGN.split("Expected *shape*", 1)[1]
    bullets = []
    for line in section.splitlines()[1:]:
        if line.startswith("- "):
            bullets.append(line)
        elif line.startswith("  ") and bullets:
            bullets[-1] += line
        elif bullets and not line.strip():
            break
    return bullets


def test_each_expected_shape_names_one_check_or_divergence():
    bullets = _shape_bullets()
    assert len(bullets) == 10
    kinds = {
        "Check": [c.name for e in EXPERIMENTS for c in e.checks],
        "Divergence": [d.name for e in EXPERIMENTS for d in e.divergences],
    }
    mapped = []
    for bullet in bullets:
        named = re.findall(r"(Check|Divergence) `(\w+)`", bullet)
        assert len(named) == 1, bullet
        kind, name = named[0]
        assert kinds[kind].count(name) == 1, bullet
        mapped.append(name)
    assert len(set(mapped)) == len(mapped)
