"""Unit tests for repro.obs.spans: the cross-process tracing layer.

Covers the span lifecycle (begin/end/record), contextvars propagation,
the shared no-op fast path, deterministic merging, Perfetto export
round-trips (satellite: nesting, pid/tid mapping, merge ordering),
span-file I/O, exec worker shipping, and the ``repro obs`` CLI.
"""

import json

import pytest

from repro.obs import chrome_trace
from repro.obs import spans as sp
from repro.obs.spans import (
    SPAN_SCHEMA,
    Span,
    SpanCollector,
    SpanContext,
    collect,
    load_spans,
    merge_spans,
    new_id,
    span,
    summarize_spans,
    write_spans,
)


def _mk(name, trace_id, span_id, start, end=None, parent=None,
        process="p", pid=1, **args):
    return Span(
        name=name, trace_id=trace_id, span_id=span_id,
        parent_id=parent, start_unix=start, end_unix=end,
        process=process, pid=pid, args=dict(args),
    )


class TestSpanBasics:
    def test_begin_end_lifecycle(self):
        collector = SpanCollector(process="t")
        span_ = collector.begin("work", args={"k": 1})
        assert span_.end_unix is None
        assert span_.cpu_s < 0  # sentinel: completed by end()
        collector.end(span_, state="done")
        assert span_.end_unix >= span_.start_unix
        assert span_.cpu_s >= 0.0
        assert span_.args == {"k": 1, "state": "done"}
        assert span_.dur_s == span_.end_unix - span_.start_unix

    def test_end_is_idempotent(self):
        collector = SpanCollector(process="t")
        span_ = collector.begin("w")
        collector.end(span_)
        first_end = span_.end_unix
        collector.end(span_, extra=1)
        assert span_.end_unix == first_end  # first close wins
        assert span_.args["extra"] == 1  # args still merge

    def test_begin_under_parent_joins_trace(self):
        collector = SpanCollector(process="t")
        root = collector.begin("root")
        child = collector.begin("child", parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_record_synthesized_interval(self):
        collector = SpanCollector(process="t")
        parent = SpanContext(trace_id="tr", span_id="sp")
        span_ = collector.record("queue.wait", 10.0, 12.5, parent=parent)
        assert span_.trace_id == "tr" and span_.parent_id == "sp"
        assert span_.dur_s == pytest.approx(2.5)
        assert span_.cpu_s is None  # no CPU attribution for waits

    def test_max_spans_cap_counts_drops(self):
        collector = SpanCollector(process="t", max_spans=2)
        for index in range(5):
            collector.begin(f"s{index}")
        assert len(collector) == 2
        assert collector.dropped == 3

    def test_dict_round_trip(self):
        span_ = _mk("n", "tr", "id", 1.0, 2.0, parent="pp", detail="x")
        copy = Span.from_dict(json.loads(json.dumps(span_.to_dict())))
        assert copy == span_

    def test_context_round_trip_preserves_root_marker(self):
        root = SpanContext(trace_id="tr")  # span_id None = trace root
        assert SpanContext.from_dict(root.to_dict()) == root


class TestContextPropagation:
    def test_span_is_noop_when_inactive(self):
        assert sp.current_context() is None
        cm = span("anything", key=1)
        assert cm is sp._NOOP  # the shared instance: zero allocation
        with cm as live:
            assert live is None

    def test_collect_activates_and_nests(self):
        with collect(process="test", trace_id="tr0") as collector:
            with span("outer", layer=1) as outer:
                assert sp.current_context() == outer.context
                with span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                    assert inner.trace_id == "tr0"
            # context restored after the block
            assert sp.current_context() == SpanContext("tr0", None)
        assert sp.current_context() is None
        names = [s.name for s in collector.snapshot()]
        assert names == ["outer", "inner"]  # begin order, both closed
        assert all(s.end_unix is not None for s in collector.snapshot())

    def test_exception_records_error_and_closes(self):
        with collect(process="test") as collector:
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("kaput")
        (span_,) = collector.snapshot()
        assert span_.args["error"] == "RuntimeError: kaput"
        assert span_.end_unix is not None

    def test_activate_deactivate_restores_previous(self):
        collector = SpanCollector(process="a")
        token = sp.activate(collector, SpanContext("tr"))
        assert sp.active_collector() is collector
        inner = SpanCollector(process="b")
        inner_token = sp.activate(inner, SpanContext("tr2"))
        assert sp.active_collector() is inner
        sp.deactivate(inner_token)
        assert sp.active_collector() is collector
        sp.deactivate(token)
        assert sp.active_collector() is None


class TestMerge:
    def test_merge_dedupes_and_orders_deterministically(self):
        a = _mk("x", "t1", "s1", 5.0, 6.0)
        b = _mk("y", "t1", "s2", 2.0, 3.0)
        dup = Span.from_dict(a.to_dict())
        tie = _mk("z", "t0", "s0", 2.0, 4.0)  # same start as b
        merged = merge_spans([a, b], [dup, tie])
        assert [s.span_id for s in merged] == ["s0", "s2", "s1"]
        # Order is input-permutation independent.
        again = merge_spans([tie], [b, a], [dup])
        assert [s.span_id for s in again] == ["s0", "s2", "s1"]

    def test_for_trace_filters(self):
        collector = SpanCollector(process="t")
        keep = collector.begin("k", trace_id="want")
        collector.begin("drop", trace_id="other")
        assert [s.span_id for s in collector.for_trace("want")] == [
            keep.span_id
        ]

    def test_add_dicts_ships_across_process_boundary(self):
        worker = SpanCollector(process="worker")
        worker.end(worker.begin("exec.job"))
        serve = SpanCollector(process="serve")
        assert serve.add_dicts(worker.to_dicts()) == 1
        (shipped,) = serve.snapshot()
        assert shipped.process == "worker"


class TestSummaries:
    def test_summarize_totals_by_name(self):
        spans = [
            _mk("a", "t", "1", 0.0, 1.0),
            _mk("a", "t", "2", 1.0, 3.0),
            _mk("b", "t", "3", 0.0, 0.5),
        ]
        spans[0].cpu_s = 0.25
        summary = summarize_spans(spans)
        assert list(summary) == ["a", "b"]  # sorted
        assert summary["a"] == {"count": 2, "wall_s": 3.0, "cpu_s": 0.25}
        assert summary["b"]["wall_s"] == 0.5


class TestPerfettoExport:
    def test_round_trip_nesting_and_pid_tid_mapping(self):
        # Two processes, two traces; children must land on the parent's
        # pid/tid row and nest by containment (satellite 4).
        root = _mk("request", "tr", "r", 100.0, 101.0,
                   process="serve", pid=50)
        child = _mk("exec.job", "tr", "c", 100.2, 100.8, parent="r",
                    process="worker", pid=51)
        other = _mk("request", "t2", "o", 100.1, 100.3,
                    process="serve", pid=50)
        doc = chrome_trace([root, child, other])
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_id = {e["args"]["span_id"]: e for e in slices}

        # pid per (process, os-pid): serve spans share one, worker differs.
        assert by_id["r"]["pid"] == by_id["o"]["pid"]
        assert by_id["c"]["pid"] != by_id["r"]["pid"]
        # tid per (pid, trace): same-process different-trace spans split.
        assert by_id["r"]["tid"] != by_id["o"]["tid"]
        # Nesting by containment: child's [ts, ts+dur) inside root's.
        assert by_id["c"]["ts"] >= by_id["r"]["ts"]
        assert (by_id["c"]["ts"] + by_id["c"]["dur"]
                <= by_id["r"]["ts"] + by_id["r"]["dur"])
        assert by_id["c"]["args"]["parent_id"] == "r"

        names = {
            (e["pid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {
            (by_id["r"]["pid"], "serve (os pid 50)"),
            (by_id["c"]["pid"], "worker (os pid 51)"),
        }

    def test_timestamps_rebase_to_earliest_span(self):
        spans = [_mk("a", "t", "1", 500.0, 500.001)]
        doc = chrome_trace(spans)
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["ts"] == 0
        assert event["dur"] == 1000  # 1 ms in µs
        assert doc["otherData"]["base_unix"] == 500.0

    def test_zero_duration_renders_one_microsecond(self):
        doc = chrome_trace([_mk("a", "t", "1", 1.0, 1.0)])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["dur"] == 1

    def test_export_is_deterministic_across_input_order(self):
        spans = [
            _mk("a", "t1", "1", 0.0, 1.0, pid=1),
            _mk("b", "t2", "2", 0.5, 1.5, pid=2),
            _mk("c", "t1", "3", 0.2, 0.4, pid=1),
        ]
        forward = chrome_trace(spans)
        backward = chrome_trace(list(reversed(spans)))
        assert forward == backward


class TestSpanIO:
    def test_write_load_round_trip(self, tmp_path):
        with collect(process="io") as collector:
            with span("a"):
                with span("b"):
                    pass
        path = write_spans(tmp_path / "spans.json", collector.snapshot())
        loaded = load_spans(path)
        assert loaded == merge_spans(collector.snapshot())

    def test_load_rejects_other_schemas(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.report/1"}))
        with pytest.raises(ValueError):
            load_spans(path)

    def test_job_trace_endpoint_shape_loads(self, tmp_path):
        # The served JSON trace document is itself a loadable span file.
        doc = {
            "schema": SPAN_SCHEMA,
            "job": "j1",
            "trace_id": "tr",
            "spans": [_mk("request", "tr", "r", 1.0, 2.0).to_dict()],
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        assert [s.name for s in load_spans(path)] == ["request"]


class TestPipelineSpans:
    def test_api_run_emits_phase_spans(self):
        from repro.api import run as api_run
        from repro.core.pipeline import clear_caches

        clear_caches()
        with collect(process="test") as collector:
            api_run("WKND", "baseline", "smoke")
        names = [s.name for s in collector.snapshot()]
        assert "api.run" in names
        for phase in ("phase.cache_lookup", "phase.scene_build",
                      "phase.trace", "phase.replay"):
            assert phase in names, f"missing {phase} in {names}"
        # All spans share the collector's trace and close cleanly.
        spans = collector.snapshot()
        assert len({s.trace_id for s in spans}) == 1
        assert all(s.end_unix is not None for s in spans)

    def test_cached_rerun_skips_compute_phases(self):
        from repro.api import run as api_run

        api_run("WKND", "baseline", "smoke")  # warm the memo cache
        with collect(process="test") as collector:
            api_run("WKND", "baseline", "smoke")
        names = [s.name for s in collector.snapshot()]
        assert "phase.replay" not in names
        lookup = next(
            s for s in collector.snapshot()
            if s.name == "phase.cache_lookup"
        )
        assert lookup.args["hit"] is True
        assert lookup.args["tier"] == "memory"

    def test_stored_result_lookup_names_the_disk_tier(self, tmp_path):
        from repro.api import run as api_run
        from repro.core.pipeline import clear_caches
        from repro.exec import set_artifact_cache

        set_artifact_cache(tmp_path)
        try:
            clear_caches()
            with collect(process="test") as collector:
                api_run("WKND", "baseline", "smoke")
                clear_caches()
                api_run("WKND", "baseline", "smoke")
        finally:
            set_artifact_cache(None)
            clear_caches()
        lookups = [(s.args["hit"], s.args["tier"])
                   for s in collector.snapshot()
                   if s.name == "phase.cache_lookup"]
        assert lookups == [(False, None), (True, "disk")]
        replays = [s for s in collector.snapshot()
                   if s.name == "phase.replay"]
        assert len(replays) == 1

    def test_execute_jobs_ships_worker_spans(self):
        from repro import BASELINE, SMOKE
        from repro.core.pipeline import clear_caches
        from repro.exec import ExecutionReport, Job, execute_jobs

        clear_caches()
        jobs = [Job("WKND", BASELINE, SMOKE), Job("SHIP", BASELINE, SMOKE)]
        report = ExecutionReport()
        with collect(process="test") as collector:
            execute_jobs(jobs, workers=2, report=report)
        assert report.spans, "workers shipped no spans"
        shipped_names = {s["name"] for s in report.spans}
        assert "exec.job" in shipped_names
        # Shipped spans landed in the ambient collector under our trace.
        trace_id = {s.trace_id for s in collector.snapshot()}
        assert len(trace_id) == 1
        assert {s["trace_id"] for s in report.spans} == trace_id


class TestObsCli:
    @pytest.fixture()
    def span_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "run_spans.json"
        assert main([
            "run", "WKND", "--scale", "smoke", "--spans", str(path)
        ]) == 0
        assert path.exists()
        return path

    def test_run_spans_flag_writes_trace(self, span_file):
        spans = load_spans(span_file)
        assert any(s.name == "api.run" for s in spans)
        assert len({s.trace_id for s in spans}) == 1

    def test_obs_summarize_table_and_json(self, span_file, capsys):
        from repro.cli import main

        assert main(["obs", "summarize", str(span_file)]) == 0
        out = capsys.readouterr().out
        assert "api.run" in out

        assert main(["obs", "summarize", str(span_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # `repro run` evaluates the technique and its baseline: two runs.
        assert doc["api.run"]["count"] >= 1

    def test_obs_merge_and_export(self, span_file, tmp_path, capsys):
        from repro.cli import main

        merged = tmp_path / "merged.json"
        assert main([
            "obs", "merge", str(span_file), str(span_file),
            "--out", str(merged),
        ]) == 0
        capsys.readouterr()
        # Same file twice: dedupe leaves the original span set.
        assert load_spans(merged) == load_spans(span_file)

        trace = tmp_path / "trace.json"
        assert main([
            "obs", "export", str(merged), "--out", str(trace)
        ]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(load_spans(span_file))

    def test_obs_rejects_bad_input(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            main(["obs", "summarize", str(bad)])
