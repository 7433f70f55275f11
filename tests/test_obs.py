"""Unit tests for repro.obs: bus, metrics, exporters, report schema."""

import json

import pytest

from repro.obs import (
    EV_RTUNIT_STALL,
    MetricRegistry,
    REPORT_SCHEMA,
    TraceBus,
    build_run_report,
    chrome_trace,
    load_run_report,
    simstats_to_dict,
    write_run_report,
)
from repro.obs.metrics import Histogram
from repro.gpusim import SimStats


class TestTraceBus:
    def test_emit_and_query(self):
        bus = TraceBus()
        bus.emit("cache.access", 5, "L1[0]", args={"line": 1})
        bus.emit("dram.service", 9, "DRAM[0]", dur=4)
        bus.emit("cache.access", 11, "L1[0]", args={"line": 2})
        assert len(bus) == 3
        assert bus.kinds() == {"cache.access": 2, "dram.service": 1}
        assert bus.tracks() == ["L1[0]", "DRAM[0]"]

    def test_cap_drops_but_still_delivers(self):
        bus = TraceBus(max_events=2)
        seen = []
        bus.subscribe("x", seen.append)
        for cycle in range(5):
            bus.emit("x", cycle, "T")
        assert len(bus) == 2
        assert bus.dropped == 3
        assert len(seen) == 5  # listeners see everything

    def test_subscribe_by_kind(self):
        bus = TraceBus()
        hits = []
        bus.subscribe("a", hits.append)
        bus.emit("b", 0, "T")
        bus.emit("a", 1, "T")
        assert [event.cycle for event in hits] == [1]

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            TraceBus(max_events=0)


class TestMetrics:
    def test_counter(self):
        registry = MetricRegistry()
        registry.counter("n").inc()
        registry.counter("n").inc(4)
        assert registry.counters["n"].value == 5

    def test_gauge_series(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g")
        gauge.record(0, 1.0)
        gauge.record(8, 3.0)
        assert gauge.mean() == 2.0
        assert gauge.as_dict() == {
            "cycles": [0, 8],
            "values": [1.0, 3.0],
            "count": 2,
            "last": 3.0,
            "mean": 2.0,
        }

    def test_empty_series_guards_are_consistent(self):
        # Empty Gauge and Histogram series guard aggregates the same
        # way: counts are 0, value aggregates are None.
        registry = MetricRegistry()
        gauge = registry.gauge("g")
        hist = registry.histogram("h")
        gd, hd = gauge.as_dict(), hist.as_dict()
        assert gd["count"] == 0 and hd["count"] == 0
        assert gd["last"] is None and gd["mean"] is None
        assert hd["mean"] is None and hd["min"] is None and hd["max"] is None

    def test_histogram_buckets(self):
        hist = Histogram("h", bounds=(10, 20, 40))
        for value in (5, 10, 11, 39, 500):
            hist.record(value)
        assert hist.counts == [2, 1, 1, 1]  # <=10, <=20, <=40, overflow
        assert hist.count == 5
        assert hist.min == 5 and hist.max == 500
        assert hist.mean == pytest.approx((5 + 10 + 11 + 39 + 500) / 5)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(20, 10))

    def test_registry_reuses_by_name(self):
        registry = MetricRegistry()
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.counter("c") is registry.counter("c")

    def test_as_dict_shape(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        registry.gauge("g").record(0, 2)
        registry.histogram("h").record(33)
        data = registry.as_dict()
        assert data["counters"] == {"c": 1}
        assert data["gauges"]["g"]["values"] == [2]
        assert data["histograms"]["h"]["count"] == 1


class TestChromeTraceExport:
    def test_span_and_instant_phases(self):
        bus = TraceBus()
        bus.emit("warp.retire", 10, "SM0", dur=90, args={"warp_id": 0})
        bus.emit("cache.access", 4, "L1[0]", args={"outcome": "hit"})
        doc = chrome_trace(bus=bus)
        events = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(spans) == 1 and spans[0]["dur"] == 90
        assert len(instants) == 1 and instants[0]["s"] == "t"

    def test_thread_names_cover_tracks(self):
        bus = TraceBus()
        bus.emit("a", 0, "SM0")
        bus.emit("b", 1, "DRAM[2]")
        doc = chrome_trace(bus=bus)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"SM0", "DRAM[2]"}

    def test_adjacent_stalls_merge(self):
        bus = TraceBus()
        for cycle in (3, 4, 5, 9, 10):
            bus.emit(EV_RTUNIT_STALL, cycle, "RT0", dur=1)
        doc = chrome_trace(bus=bus)
        stalls = [
            e for e in doc["traceEvents"] if e.get("cat") == EV_RTUNIT_STALL
        ]
        assert sorted((e["ts"], e["dur"]) for e in stalls) == [(3, 3), (9, 2)]

    def test_gauges_become_counter_events(self):
        bus = TraceBus()
        registry = MetricRegistry()
        registry.gauge("occupancy.ready_rays").record(16, 7)
        doc = chrome_trace(bus=bus, registry=registry)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters == [
            {
                "name": "occupancy.ready_rays",
                "ph": "C",
                "ts": 16,
                "pid": 0,
                "args": {"value": 7},
            }
        ]


class TestRunReport:
    def test_simstats_round_trip(self):
        stats = SimStats(cycles=100, visits_completed=50)
        data = simstats_to_dict(stats)
        # Nested dataclasses serialize; derived ratios ride along.
        assert data["cycles"] == 100
        assert data["l1"]["demand_accesses"] == 0
        assert data["effectiveness"]["timely"] == 0
        assert data["derived"]["ipc"] == pytest.approx(0.5)
        json.dumps(data)  # must be JSON-serializable

    def test_report_schema_and_io(self, tmp_path):
        report = build_run_report(
            scene="WKND",
            technique="baseline",
            scale="smoke",
            stats=SimStats(cycles=10),
        )
        assert report["schema"] == REPORT_SCHEMA
        path = write_run_report(tmp_path / "sub" / "report.json", report)
        assert load_run_report(path)["scene"] == "WKND"

    def test_load_rejects_other_schemas(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/9"}))
        with pytest.raises(ValueError):
            load_run_report(path)
