"""The one Chrome-trace writer: golden documents, stall bars, and the
combined file that puts a run's cycle tracks under its replay span.

``tests/golden/chrome_trace.json`` holds the sha256 of the sorted-key
JSON that the two exporters the writer replaced produced for bus-only
and spans-only input; the writer must reproduce every one.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import BASELINE, SMOKE, TREELET_PREFETCH, run
from repro.cli import main
from repro.obs import EV_RTUNIT_STALL, Observer, TraceBus, chrome_trace
from test_spans import _mk

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "chrome_trace.json").read_text()
)["documents"]
TECHNIQUES = {"baseline": BASELINE, "treelet-prefetch": TREELET_PREFETCH}


def golden_spans():
    """The fixed span set behind ``spans/synthetic``: two processes, two
    traces, nesting, a sub-µs span, an open span, and CPU times (one
    still the negative in-flight sentinel)."""
    spans = [
        _mk("request", "tr", "r", 100.0, 101.0, process="serve", pid=50,
            route="/v1/run"),
        _mk("queue.wait", "tr", "q", 100.05, 100.1, parent="r",
            process="serve", pid=50),
        _mk("exec.job", "tr", "j", 100.2, 100.9, parent="r",
            process="worker", pid=51, scene="WKND"),
        _mk("phase.replay", "tr", "p", 100.3, 100.8, parent="j",
            process="worker", pid=51, scene="WKND"),
        _mk("request", "t2", "o", 100.1, 100.1000004, process="serve",
            pid=50),
        _mk("open", "t2", "u", 100.4, None, parent="o", process="serve",
            pid=50),
    ]
    spans[0].cpu_s = 0.0123456
    spans[3].cpu_s = 0.25
    spans[5].cpu_s = -7.5
    return spans


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _thread_names(doc):
    return {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }


class TestGoldenDocuments:
    @pytest.mark.parametrize("scene", ["WKND", "SHIP"])
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_bus_document_matches_golden(self, scene, name):
        observer = Observer()
        run(scene, TECHNIQUES[name], SMOKE, observer=observer)
        doc = chrome_trace(bus=observer.bus, registry=observer.metrics)
        assert _digest(doc) == GOLDEN[f"bus/{scene}/{name}"]

    @pytest.mark.parametrize("key", ["spans/synthetic", "spans/empty"])
    def test_span_document_matches_golden(self, key):
        spans = golden_spans() if key == "spans/synthetic" else []
        assert _digest(chrome_trace(spans)) == GOLDEN[key]


class TestStallBars:
    def test_bars_split_and_keep_their_reason(self):
        bus = TraceBus()
        for cycle in (3, 4):
            bus.emit(EV_RTUNIT_STALL, cycle, "RT0", dur=1,
                     args={"reason": "mshr"})
        for cycle in (5, 6):
            bus.emit(EV_RTUNIT_STALL, cycle, "RT0", dur=1)
        doc = chrome_trace(bus=bus)
        bars = sorted(
            (e["ts"], e["dur"], e.get("args"))
            for e in doc["traceEvents"] if e.get("cat") == EV_RTUNIT_STALL
        )
        assert bars == [(3, 2, {"reason": "mshr"}), (5, 2, None)]

    def test_bar_cycles_add_up_per_reason(self):
        # Four MSHRs per L1 make the smoke run MSHR-bound for stretches.
        gpu = SMOKE.gpu
        scale = dataclasses.replace(SMOKE, gpu=dataclasses.replace(
            gpu, l1=dataclasses.replace(gpu.l1, mshr_entries=4)
        ))
        observer = Observer()
        stats = run("WKND", BASELINE, scale, observer=observer).stats
        assert stats.mshr_stall_cycles > 0 and stats.stall_cycles > 0
        doc = chrome_trace(bus=observer.bus)
        totals = {}
        for event in doc["traceEvents"]:
            if event.get("cat") == EV_RTUNIT_STALL:
                reason = event.get("args", {}).get("reason")
                totals[reason] = totals.get(reason, 0) + event["dur"]
        assert totals == {
            None: stats.stall_cycles, "mshr": stats.mshr_stall_cycles,
        }


class TestCombinedDocument:
    def test_cycle_tracks_sit_under_the_replay_span(self):
        bus = TraceBus()
        bus.emit("warp.issue", 0, "SM0")
        bus.emit("warp.retire", 2, "SM0", dur=40)
        doc = chrome_trace(golden_spans(), bus=bus)
        events = doc["traceEvents"]
        (replay,) = [e for e in events if e.get("name") == "phase.replay"]
        cycle_events = [
            e for e in events if e["ph"] != "M" and e["cat"] != "span"
        ]
        assert sorted(e["ts"] - replay["ts"] for e in cycle_events) == [0, 2]
        processes = {
            e["args"]["name"]: e["pid"]
            for e in events if e["name"] == "process_name"
        }
        assert processes["repro-gpusim (1 cycle = 1 µs)"] == 0
        assert doc["otherData"]["source"] == "repro-spans+repro-gpusim"

    def test_cli_trace_holds_spans_and_cycle_tracks(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(
            ["trace", "WKND", "--scale", "smoke", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        (replay,) = [
            e for e in events
            if e["ph"] == "X" and e["name"] == "phase.replay"
        ]
        gpusim = {
            e["pid"] for e in events
            if e["name"] == "process_name"
            and e["args"]["name"].startswith("repro-gpusim")
        }
        assert len(gpusim) == 1
        span_pids = {e["pid"] for e in events if e.get("cat") == "span"}
        assert span_pids and not span_pids & gpusim
        cycle_events = [
            e for e in events if e["ph"] != "M" and e["pid"] in gpusim
        ]
        assert cycle_events
        assert min(e["ts"] for e in cycle_events) >= replay["ts"]
        names = _thread_names(doc)
        for prefix in ("SM", "RT", "DRAM["):
            assert any(t.startswith(prefix) for t in names), prefix
