"""The repro.api facade: run/sweep/compare, technique specs and the
request wire format.

Technique spec strings resolve to exactly the Technique objects the
presets/fields describe, and retired runtime knobs are rejected loudly.
"""

import dataclasses

import pytest

from repro.api import (
    RunRequest,
    RunResult,
    SweepRequest,
    TECHNIQUE_PRESETS,
    compare,
    describe_techniques,
    parse_technique,
    run,
    sweep,
    technique_fields,
    technique_to_spec,
)
from repro.core import (
    BASELINE,
    SMOKE,
    TREELET_PREFETCH,
    TREELET_TRAVERSAL_ONLY,
    Technique,
    build_counts,
    reset_build_counts,
)
from repro.core.pipeline import _run_experiment
from repro.obs import simstats_to_dict

#: Wire fields of runtime knobs that no longer exist.
RETIRED_FIELDS = ("replay_backend", "trace_backend")


class TestParseTechnique:
    def test_presets_resolve(self):
        assert parse_technique("baseline") is BASELINE
        assert parse_technique("treelet-prefetch") is TREELET_PREFETCH
        assert parse_technique("treelet-traversal") is TREELET_TRAVERSAL_ONLY

    def test_technique_objects_pass_through(self):
        assert parse_technique(TREELET_PREFETCH) is TREELET_PREFETCH

    def test_preset_with_overrides(self):
        technique = parse_technique(
            "treelet-prefetch,treelet_bytes=8192,deferred_order=lifo"
        )
        assert technique == dataclasses.replace(
            TREELET_PREFETCH, treelet_bytes=8192, deferred_order="lifo"
        )

    def test_field_aliases(self):
        spec = "treelet-prefetch,bytes=16384,order=fifo,stride=2"
        technique = parse_technique(spec)
        assert technique.treelet_bytes == 16384
        assert technique.deferred_order == "fifo"
        assert technique.layout_stride == 2

    def test_bare_overrides_start_from_baseline_fields(self):
        technique = parse_technique("traversal=treelet,bytes=1024")
        assert technique.traversal == "treelet"
        assert technique.treelet_bytes == 1024

    def test_none_fields(self):
        technique = parse_technique("treelet-prefetch,prefetch=none")
        assert technique.prefetch is None

    def test_bool_field(self):
        assert parse_technique(
            "treelet-prefetch,adaptive=true"
        ).adaptive is True
        assert parse_technique(
            "treelet-prefetch,adaptive=false"
        ).adaptive is False

    def test_popularity_heuristic_with_threshold(self):
        technique = parse_technique(
            "treelet-prefetch,heuristic=popularity:0.25"
        )
        assert technique.heuristic.kind == "popularity"
        assert technique.heuristic.threshold == 0.25

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown technique preset"):
            parse_technique("warp-speed")

    def test_unknown_preset_suggests_near_miss(self):
        with pytest.raises(
            ValueError, match=r"did you mean 'treelet-prefetch'\?"
        ):
            parse_technique("treelet-prefech")

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError):
            parse_technique("treelet-prefetch,warp=9")

    def test_unknown_field_suggests_near_miss(self):
        with pytest.raises(ValueError, match=r"did you mean 'bytes'\?"):
            parse_technique("treelet-prefetch,byts=8192")

    def test_empty_spec_raises(self):
        with pytest.raises(ValueError, match="empty technique spec"):
            parse_technique("")
        with pytest.raises(ValueError, match="empty technique spec"):
            parse_technique("  , ,")

    def test_non_string_spec_raises(self):
        with pytest.raises(ValueError, match="must be a string"):
            parse_technique(42)
        with pytest.raises(ValueError, match="must be a string"):
            parse_technique(None)

    def test_duplicate_field_raises(self):
        with pytest.raises(ValueError, match="duplicate technique field"):
            parse_technique("treelet-prefetch,bytes=4096,bytes=8192")

    def test_duplicate_via_alias_raises(self):
        # 'bytes' is an alias for 'treelet_bytes': same field twice.
        with pytest.raises(
            ValueError, match="duplicate technique field 'treelet_bytes'"
        ):
            parse_technique("treelet-prefetch,bytes=4096,treelet_bytes=8192")

    def test_bad_int_raises(self):
        with pytest.raises(ValueError):
            parse_technique("treelet-prefetch,bytes=many")

    def test_registry_descriptions_cover_presets(self):
        names = {name for name, _label, _note in describe_techniques()}
        assert names == set(TECHNIQUE_PRESETS)
        fields = technique_fields()
        assert any(field.startswith("bytes") for field in fields)


class TestRun:
    def test_run_matches_canonical_pipeline(self):
        result = run("WKND", TREELET_PREFETCH, SMOKE)
        canonical = _run_experiment("WKND", TREELET_PREFETCH, SMOKE)
        assert isinstance(result, RunResult)
        assert simstats_to_dict(result.stats) == simstats_to_dict(
            canonical.stats
        )
        assert result.cycles == canonical.cycles

    def test_run_accepts_spec_strings(self):
        result = run("WKND", "treelet-prefetch", "smoke")
        assert result.technique is TREELET_PREFETCH
        assert result.scale is SMOKE

    def test_run_accepts_request_object(self):
        request = RunRequest(
            scene="WKND", technique="baseline", scale="smoke"
        )
        result = run(request)
        assert result.technique is BASELINE
        assert result.cycles > 0

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run("WKND", "baseline", "galactic")

    def test_speedup_over(self):
        base = run("WKND", BASELINE, SMOKE)
        cand = run("WKND", TREELET_PREFETCH, SMOKE)
        assert cand.speedup_over(base) == pytest.approx(
            base.cycles / cand.cycles
        )


class TestSweepCompare:
    SCENES = ["WKND", "SHIP"]

    def test_sweep_outcomes_match_single_runs(self):
        outcome = sweep("treelet-prefetch", self.SCENES, SMOKE)
        assert outcome.scenes == self.SCENES
        for scene in self.SCENES:
            single = run(scene, TREELET_PREFETCH, SMOKE)
            assert simstats_to_dict(
                outcome.outcomes[scene].candidate.stats
            ) == simstats_to_dict(single.stats)
        assert outcome.gmean_speedup > 0

    def test_compare_shares_baseline(self):
        results = compare(
            {"ours": "treelet-prefetch", "traversal": "treelet-traversal"},
            ["WKND"],
            SMOKE,
        )
        assert set(results) == {"ours", "traversal"}
        ours = results["ours"].outcomes["WKND"]
        other = results["traversal"].outcomes["WKND"]
        assert simstats_to_dict(ours.baseline.stats) == simstats_to_dict(
            other.baseline.stats
        )


class TestWireRoundTrip:
    """Satellite contract: RunRequest/SweepRequest survive a JSON
    round-trip and from_dict rejects unknown keys with near-miss
    suggestions — POST bodies are parsed by the facade's own schema."""

    def test_run_request_round_trips(self):
        request = RunRequest(scene="WKND", technique="treelet-prefetch",
                             scale=SMOKE)
        wire = request.to_dict()
        assert wire == {"scene": "WKND", "technique": "treelet-prefetch",
                        "scale": "smoke"}
        rebuilt = RunRequest.from_dict(wire)
        assert rebuilt.scene == request.scene
        assert parse_technique(rebuilt.technique) == parse_technique(
            request.technique
        )

    def test_run_request_round_trips_with_overrides(self):
        request = RunRequest(
            scene="SHIP",
            technique="treelet-prefetch,treelet_bytes=8192",
            scale=SMOKE, cache=False,
        )
        wire = request.to_dict()
        assert "treelet_bytes=8192" in wire["technique"]
        assert wire["cache"] is False
        rebuilt = RunRequest.from_dict(wire)
        assert parse_technique(rebuilt.technique).treelet_bytes == 8192
        assert rebuilt.cache is False

    @pytest.mark.parametrize("spec, match", [
        ("treelet-prefetch,treelet_bytes=32", "at least one 64-byte node"),
        ("treelet-prefetch,treelet_bytes=192", "divides the BVH base"),
    ])
    def test_treelet_size_is_checked_at_parse_time(self, spec, match):
        # Rejected with the request, before any scene or tree is built.
        reset_build_counts()
        with pytest.raises(ValueError, match=match):
            RunRequest.from_dict({"scene": "WKND", "technique": spec,
                                  "scale": "smoke"})
        assert sum(build_counts().values()) == 0

    def test_sweep_request_round_trips(self):
        request = SweepRequest(technique="treelet-prefetch",
                               scenes=("WKND", "SHIP"), scale=SMOKE,
                               jobs=2)
        wire = request.to_dict()
        assert wire["scenes"] == ["WKND", "SHIP"]
        assert wire["jobs"] == 2
        rebuilt = SweepRequest.from_dict(wire)
        assert rebuilt.scenes == ("WKND", "SHIP")
        assert rebuilt.jobs == 2

    @pytest.mark.parametrize("scale", [
        dataclasses.replace(SMOKE, gpu=dataclasses.replace(SMOKE.gpu,
                                                           n_sms=1)),
        dataclasses.replace(SMOKE, name="q48"),
    ], ids=["gpu-variant", "unnamed"])
    def test_only_named_scales_serialize(self, scale):
        with pytest.raises(ValueError, match="does not serialize"):
            RunRequest(scene="WKND", scale=scale).to_dict()
        with pytest.raises(ValueError, match="does not serialize"):
            SweepRequest(technique="baseline", scale=scale).to_dict()
        # A scale equal to a named one travels by that name.
        assert RunRequest(
            scene="WKND", scale=dataclasses.replace(SMOKE)
        ).to_dict()["scale"] == "smoke"

    def test_sweep_request_jobs_default_to_the_plan(self):
        request = SweepRequest.from_dict({"technique": "treelet-prefetch"})
        assert request.jobs is None
        assert "jobs" not in request.to_dict()
        assert SweepRequest.from_dict(
            {"technique": "baseline", "jobs": 1}
        ).jobs == 1

    @pytest.mark.parametrize("jobs", [True, False, 0, -1, 1.5, "2"])
    def test_sweep_request_jobs_must_be_a_positive_integer(self, jobs):
        with pytest.raises(ValueError, match="'jobs'"):
            SweepRequest.from_dict({"technique": "treelet-prefetch",
                                    "jobs": jobs})

    def test_sweep_accepts_request_object(self):
        request = SweepRequest(technique=TREELET_PREFETCH,
                               scenes=("WKND",), scale=SMOKE)
        via_object = sweep(request)
        via_args = sweep(TREELET_PREFETCH, ["WKND"], SMOKE)
        assert via_object.speedups() == via_args.speedups()

    def test_unknown_key_suggests_near_miss(self):
        with pytest.raises(ValueError, match="did you mean 'technique'"):
            RunRequest.from_dict({"scene": "WKND", "tecnique": "baseline"})
        with pytest.raises(ValueError, match="did you mean 'scenes'"):
            SweepRequest.from_dict({"technique": "baseline",
                                    "scene": ["WKND"]})

    @pytest.mark.parametrize("field", RETIRED_FIELDS)
    def test_retired_engine_field_is_rejected(self, field):
        # There is one replay engine and one way to build traces, so
        # there is nothing to select: a request naming an engine fails loudly
        # instead of being ignored.
        wire = {"scene": "WKND", field: "scalar"}
        with pytest.raises(ValueError, match=field):
            RunRequest.from_dict(wire)
        with pytest.raises(TypeError):
            run("WKND", "baseline", SMOKE, **{field: "scalar"})

    @pytest.mark.parametrize("field", RETIRED_FIELDS)
    def test_serve_rejects_retired_engine_field_with_400(self, field):
        from repro.serve.protocol import ServeError, normalize_run

        with pytest.raises(ServeError) as excinfo:
            normalize_run({
                "schema": "repro.serve/1",
                "scene": "WKND",
                "scale": "smoke",
                field: "scalar",
            })
        assert excinfo.value.status == 400
        assert field in str(excinfo.value)

    def test_serve_resolves_scale_through_the_registry(self):
        from repro.serve.protocol import ServeError, normalize_run

        served = normalize_run({"scene": "WKND", "scale": " Smoke"})
        assert served.request.scale is SMOKE
        with pytest.raises(ServeError) as excinfo:
            normalize_run({"scene": "WKND", "scale": "galactic"})
        assert excinfo.value.status == 400
        assert "unknown scale" in str(excinfo.value)

    def test_bad_values_fail_eagerly(self):
        with pytest.raises(ValueError, match="scene"):
            RunRequest.from_dict({})
        with pytest.raises(ValueError):
            RunRequest.from_dict({"scene": "WKND",
                                  "technique": "treelet-prefech"})

    def test_technique_to_spec_round_trips_all_presets(self):
        for name in TECHNIQUE_PRESETS:
            technique = parse_technique(name)
            spec = technique_to_spec(technique)
            assert parse_technique(spec) == technique

    def test_technique_to_spec_round_trips_overrides(self):
        for spec in (
            "treelet-prefetch,treelet_bytes=8192,deferred_order=lifo",
            "treelet-prefetch,layout=dfs,stride=0,mapping=center",
            "baseline,treelet_bytes=16384",
        ):
            technique = parse_technique(spec)
            rebuilt = technique_to_spec(technique)
            assert parse_technique(rebuilt) == technique

