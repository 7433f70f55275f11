"""Observer invariance + end-to-end export checks (the tentpole's contract).

Attaching the trace bus to a run must not change a single field of
``SimStats``, on any (scene, technique) pair — tracing is observation,
never perturbation.  An observed run takes the same engine and memory
path as an unobserved one, so it reproduces every golden digest, and
the observer's counters agree with the simulation's own.  The exported
Chrome trace must be valid JSON with per-track monotonically
nondecreasing timestamps, and the run report must carry the
demand-latency and prefetch-timeliness histograms.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from conftest import SINGLE_RUN_CASES, assert_golden, golden_model
from repro import BASELINE, SMOKE, TREELET_PREFETCH, run
from repro.cli import main
from repro.obs import Observer, build_run_report, chrome_trace

SCENES = ("WKND", "SHIP")
TRACK_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "obs_tracks.json").read_text()
)["tracks"]
TECHNIQUES = {"baseline": BASELINE, "treelet-prefetch": TREELET_PREFETCH}


def _observed_pair(scene, technique):
    plain = run(scene, technique, SMOKE, cache=False)
    observer = Observer()
    traced = run(scene, technique, SMOKE, observer=observer)
    return plain, traced, observer


class TestObserverInvariance:
    @pytest.mark.parametrize("scene", SCENES)
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_simstats_bit_identical(self, scene, name):
        plain, traced, _ = _observed_pair(scene, TECHNIQUES[name])
        assert dataclasses.asdict(traced.stats) == dataclasses.asdict(
            plain.stats
        )

    def test_metrics_agree_with_stats(self):
        _, traced, observer = _observed_pair("WKND", TREELET_PREFETCH)
        metrics = observer.metrics
        # Every demand response was recorded in the latency histogram.
        hist = metrics.histograms["latency.demand.all"]
        assert hist.count > 0
        assert hist.mean == pytest.approx(traced.stats.avg_demand_latency)
        node = metrics.histograms["latency.demand.node"]
        assert node.mean == pytest.approx(
            traced.stats.avg_node_demand_latency
        )
        # Counters mirror the simulation-side aggregates exactly.
        assert (
            metrics.counters["prefetch.issued"].value
            == traced.stats.prefetches_issued
        )
        assert (
            metrics.counters["dram.accesses"].value
            == traced.stats.dram_accesses
        )
        assert (
            metrics.counters["warps.retired"].value == traced.stats.warp_count
        )
        per_partition = [
            metrics.counters[f"dram.partition{p}.accesses"].value
            for p in range(len(traced.stats.dram_per_partition))
        ]
        assert per_partition == traced.stats.dram_per_partition
        assert (
            metrics.counters["rtunit.stall_cycles"].value
            == traced.stats.stall_cycles
        )

    @pytest.mark.parametrize("key", SINGLE_RUN_CASES)
    def test_observed_run_matches_golden(self, key):
        model, _, _, _ = golden_model(key, observer=Observer())
        assert_golden(key, model.run())

    @pytest.mark.parametrize("key", sorted(TRACK_GOLDEN))
    def test_each_track_event_stream_matches_golden(self, key):
        """The engine may interleave tracks differently from one bucket
        to the next, but no track's own event sequence may change."""
        observer = Observer()
        model, _, _, _ = golden_model(key, observer=observer)
        model.run()
        per_track = {}
        for event in observer.bus.events:
            per_track.setdefault(event.track, []).append(
                [event.kind, event.cycle, event.dur, event.args]
            )
        digests = {
            track: hashlib.sha256(
                json.dumps(events, sort_keys=True).encode()
            ).hexdigest()
            for track, events in per_track.items()
        }
        assert digests == TRACK_GOLDEN[key]

    @pytest.mark.parametrize("name", ["baseline", "treelet-prefetch"])
    def test_counters_agree_with_stats_on_four_sms(self, name):
        # Four SMs put several DRAM misses in one cycle's agenda bucket.
        observer = Observer()
        model, _, _, _ = golden_model(f"sms4/CAR/{name}", observer=observer)
        stats = model.run()
        counters = observer.metrics.counters

        def count(counter):
            return counters[counter].value if counter in counters else 0

        assert count("dram.accesses") == stats.dram_accesses > 0
        assert [
            count(f"dram.partition{p}.accesses")
            for p in range(len(stats.dram_per_partition))
        ] == stats.dram_per_partition
        l1_tracks = [l1.name for l1 in model.memsys.l1s]
        for tracks, cache_stats in ((["L2"], stats.l2), (l1_tracks, stats.l1)):
            for kind in ("demand", "prefetch"):
                for outcome, field in (
                    ("hit", "hits"),
                    ("pending_hit", "pending_hits"),
                    ("miss", "misses"),
                ):
                    observed = sum(
                        count(f"cache.{track}.{kind}.{outcome}")
                        for track in tracks
                    )
                    assert observed == getattr(
                        cache_stats, f"{kind}_{field}"
                    ), (tracks, kind, outcome)
        assert count("prefetch.issued") == stats.prefetches_issued
        assert count("prefetch.first_hits") == (
            stats.l1.demand_hits_on_prefetched
        )
        assert count("rtunit.stall_cycles") == stats.stall_cycles
        assert count("rtunit.mshr_stall_cycles") == stats.mshr_stall_cycles
        # One demand.complete per demand request.
        hist = observer.metrics.histograms["latency.demand.all"]
        assert hist.count == stats.node_fetches + stats.primitive_fetches

    def test_prefetch_timeliness_histograms_populate(self):
        _, traced, observer = _observed_pair("WKND", TREELET_PREFETCH)
        assert traced.stats.prefetches_issued > 0
        hists = observer.metrics.histograms
        assert hists["prefetch.issue_to_fill"].count > 0
        assert hists["prefetch.fill_to_first_hit"].count > 0

    def test_event_taxonomy_coverage(self):
        _, _, observer = _observed_pair("WKND", TREELET_PREFETCH)
        kinds = set(observer.bus.kinds())
        assert {
            "warp.issue",
            "warp.retire",
            "rtunit.stall",
            "cache.access",
            "mshr.merge",
            "dram.service",
            "demand.complete",
            "prefetch.issue",
            "prefetch.fill",
            "voter.decide",
        } <= kinds


class TestPerfettoRoundTrip:
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_trace_round_trips_with_monotonic_tracks(self, name):
        _, _, observer = _observed_pair("SHIP", TECHNIQUES[name])
        doc = json.loads(
            json.dumps(chrome_trace(bus=observer.bus, registry=observer.metrics))
        )
        events = doc["traceEvents"]
        timed = [e for e in events if e["ph"] != "M"]
        assert timed
        last_ts = {}
        for event in timed:
            key = (event.get("pid"), event.get("tid"))
            assert event["ts"] >= last_ts.get(key, 0)
            last_ts[key] = event["ts"]

    def test_cli_trace_meets_acceptance_bar(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            main(
                ["trace", "WKND", "--scale", "smoke", "--out", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        track_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # >= 3 distinct track families: SM, RT unit, DRAM partition.
        assert any(t.startswith("SM") for t in track_names)
        assert any(t.startswith("RT") for t in track_names)
        assert any(t.startswith("DRAM[") for t in track_names)
        kinds = {
            e["cat"] for e in doc["traceEvents"] if e["ph"] in ("X", "i")
        }
        assert len(kinds) >= 5

    def test_cli_run_report_has_histograms(self, tmp_path):
        out = tmp_path / "report.json"
        assert (
            main(
                ["run", "WKND", "--scale", "smoke", "--report", str(out)]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.run_report/1"
        hists = report["metrics"]["histograms"]
        assert hists["latency.demand.all"]["count"] > 0
        assert "prefetch.issue_to_fill" in hists
        assert "prefetch.fill_to_first_hit" in hists
        assert report["stats"]["cycles"] > 0

    def test_cli_run_json_is_machine_readable(self, capsys):
        assert main(["run", "WKND", "--scale", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["l1"]["demand_accesses"] > 0
        assert payload["baseline_stats"]["effectiveness"]["timely"] == 0
        assert payload["speedup"] > 0

    def test_cli_sweep_json(self, capsys):
        assert (
            main(
                ["sweep", "--scenes", "WKND", "--scale", "smoke", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert "WKND" in payload["scenes"]
        assert payload["gmean_speedup"] > 0


class TestSpanInvariance:
    """Request spans obey the same contract as the trace bus: pure
    observation.  Collection on must leave SimStats bit-identical, and
    a cold treelet-prefetch evaluation with spans on must stay within
    5% of plain."""

    @pytest.mark.parametrize("scene", SCENES)
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_simstats_bit_identical_with_spans_active(self, scene, name):
        from repro.obs import collect

        plain = run(scene, TECHNIQUES[name], SMOKE, cache=False)
        with collect(process="invariance") as collector:
            spanned = run(scene, TECHNIQUES[name], SMOKE, cache=False)
        assert dataclasses.asdict(spanned.stats) == dataclasses.asdict(
            plain.stats
        )
        # Collection actually happened — phases were recorded.
        names = {s.name for s in collector.snapshot()}
        assert {"phase.scene_build", "phase.trace", "phase.replay"} <= names

    def test_span_overhead_within_5_percent_of_bench_e2e(self):
        import time

        from repro.core.pipeline import clear_caches
        from repro.obs import collect

        def cold_e2e():
            # A cold treelet-prefetch evaluation of WKND at smoke.
            clear_caches()
            start = time.perf_counter()
            run("WKND", TREELET_PREFETCH, SMOKE)
            return time.perf_counter() - start

        def best_of(fn, repeats=3):
            return min(fn() for _ in range(repeats))

        # Timing on a shared box is noisy; spans add ~a dozen contextvar
        # reads per run, so any honest measurement passes.  Retry up to
        # three times before declaring a real regression.
        for attempt in range(3):
            plain = best_of(cold_e2e)
            with collect(process="bench"):
                spanned = best_of(cold_e2e)
            if spanned <= plain * 1.05:
                break
        else:
            raise AssertionError(
                f"span overhead {spanned / plain - 1.0:.1%} exceeds 5% "
                f"(plain={plain:.4f}s spanned={spanned:.4f}s)"
            )
        clear_caches()
