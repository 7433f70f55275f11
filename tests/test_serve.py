"""Acceptance tests for repro.serve: the async simulation service.

The service runs on a private event loop in a background thread; tests
talk to it over real TCP through the shared typed client
(:mod:`repro.serve.client`), exactly like an external caller — no
ad-hoc urllib anywhere.  Covers the PR's contract:

* a served ``POST /v1/run`` returns SimStats bit-identical to a direct
  ``repro.api.run`` call;
* every response carries the ``repro.serve/1`` schema stamp, and a
  request claiming a different schema is rejected with 400;
* a full admission queue sheds with 429 + ``Retry-After``;
* an expired deadline reports ``timeout`` without wedging the worker
  pool;
* SIGTERM (and in-process drain) finish in-flight jobs before exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.memo import LRU
from repro.serve import (
    LoadGenConfig,
    LoadReport,
    RequestOutcome,
    RequestTemplate,
    ServeClient,
    ServeConfig,
    SimulationService,
    TransportError,
    run_loadgen,
)

ROOT = Path(__file__).resolve().parents[1]


class ServiceHandle:
    """A service on its own event loop + thread, driven over real HTTP."""

    def __init__(self, config: ServeConfig) -> None:
        self.service = SimulationService(config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def start(self) -> "ServiceHandle":
        self.thread.start()
        self.call(self.service.start(), timeout=30)
        return self

    def stop(self) -> None:
        if self.thread.is_alive():
            try:
                self.call(self.service.aclose(), timeout=30)
            except Exception:  # noqa: BLE001 — teardown best-effort
                pass
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10)

    def call(self, coro, timeout: float = 60):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout
        )

    def call_soon(self, fn) -> None:
        self.loop.call_soon_threadsafe(fn)

    @property
    def port(self) -> int:
        return self.service.port

    # -- HTTP client helpers ------------------------------------------
    # Thin shims over the shared typed client, keeping the historical
    # (status, headers, document) tuple shape the assertions use.

    @property
    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port)

    def request(self, method: str, path: str, payload=None, timeout=60):
        response = self.client.request(method, path, payload,
                                       timeout=timeout)
        return response.status, response.headers, response.document

    def post(self, path: str, payload, timeout=60):
        return self.request("POST", path, payload, timeout)

    def get(self, path: str, timeout=60):
        return self.request("GET", path, None, timeout)

    def get_raw(self, path: str, timeout=60):
        """GET without assuming a JSON body (Prometheus exposition);
        the client hands non-JSON bodies back as text."""
        return self.request("GET", path, None, timeout)

    def wait_for_state(self, job_id: str, states, timeout: float = 30):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _status, _headers, doc = self.get(f"/v1/jobs/{job_id}")
            if doc["state"] in states:
                return doc
            time.sleep(0.02)
        raise AssertionError(
            f"job {job_id} never reached {states}; last doc: {doc}"
        )


@pytest.fixture
def serve_factory():
    handles = []

    def make(**overrides) -> ServiceHandle:
        overrides.setdefault("port", 0)
        if overrides.get("workers", 1) > 1:
            # A service with workers forks its own replay pool, as
            # `repro serve` does in a fresh process: drop any pool an
            # earlier test forked in this one.
            from repro.exec.executor import close_pool

            close_pool()
        handle = ServiceHandle(ServeConfig(**overrides)).start()
        handles.append(handle)
        return handle

    yield make
    for handle in handles:
        handle.stop()


def _normalize(document: dict) -> dict:
    """JSON round-trip (tuples -> lists, int keys -> str keys)."""
    return json.loads(json.dumps(document))


class TestServedResults:
    def test_run_bit_identical_to_direct_api(self, serve_factory):
        from repro.api import run as api_run
        from repro.obs import simstats_to_dict

        handle = serve_factory()
        status, _headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "WKND", "technique": "treelet-prefetch",
             "scale": "smoke"},
        )
        assert status == 200
        assert doc["state"] == "done"
        direct = api_run("WKND", "treelet-prefetch", "smoke")
        assert doc["result"]["stats"] == _normalize(
            simstats_to_dict(direct.stats)
        )
        assert doc["result"]["cycles"] == direct.cycles

    def test_run_with_baseline_reports_speedup(self, serve_factory):
        handle = serve_factory()
        status, _headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "WKND", "technique": "treelet-prefetch",
             "scale": "smoke", "baseline": True},
        )
        assert status == 200
        result = doc["result"]
        assert result["speedup"] == pytest.approx(
            result["baseline_cycles"] / result["cycles"]
        )

    def test_sweep_matches_direct_sweep(self, serve_factory):
        from repro.api import sweep as api_sweep

        handle = serve_factory()
        status, _headers, doc = handle.post(
            "/v1/sweep?wait=1",
            {"technique": "treelet-prefetch", "scenes": ["WKND", "SHIP"],
             "scale": "smoke"},
        )
        assert status == 200
        direct = api_sweep("treelet-prefetch", ["WKND", "SHIP"], "smoke")
        assert doc["result"]["gmean_speedup"] == pytest.approx(
            direct.gmean_speedup
        )

    def test_repeat_request_is_cached_and_fast(self, serve_factory):
        from repro.core.pipeline import clear_caches

        clear_caches()  # a cold run does real work, not a memo lookup
        handle = serve_factory()
        payload = {"scene": "WKND", "technique": "treelet-prefetch",
                   "scale": "smoke"}
        start = time.monotonic()
        _status, _headers, cold = handle.post("/v1/run?wait=1", payload)
        cold_elapsed = time.monotonic() - start
        assert cold["cached"] is False
        # Every repeat is a hit; the fastest one bounds the hit's cost,
        # so one scheduling hiccup on a loaded host cannot fail it.
        repeats = 5
        elapsed = []
        for _ in range(repeats):
            start = time.monotonic()
            status, _headers, warm = handle.post("/v1/run?wait=1", payload)
            elapsed.append(time.monotonic() - start)
            assert status == 200
            assert warm["cached"] is True
            assert warm["state"] == "done"
            assert warm["result"] == cold["result"]
        fastest = min(elapsed)
        assert fastest < 1.0  # served from memory, no simulation
        assert fastest * 10 <= cold_elapsed  # at least 10x the cold run
        _status, _headers, metrics = handle.get("/metrics")
        assert metrics["metrics"]["counters"]["serve.cache_hits"] >= repeats

    def test_micro_batch_coalesces_concurrent_requests(self, serve_factory):
        handle = serve_factory(start_paused=True, batch_max=8)
        ids = []
        for technique in ("baseline", "treelet-prefetch",
                          "treelet-traversal"):
            status, _headers, doc = handle.post(
                "/v1/run",
                {"scene": "WKND", "technique": technique, "scale": "smoke"},
            )
            assert status == 202
            ids.append(doc["id"])
        handle.call_soon(handle.service.scheduler.resume)
        for job_id in ids:
            doc = handle.wait_for_state(job_id, ("done",))
            assert doc["result"]["cycles"] > 0
        # All three rode one micro-batch through the scheduler.
        _status, _headers, metrics = handle.get("/metrics")
        assert metrics["metrics"]["counters"]["serve.batches"] == 1


class TestBackpressure:
    def test_full_queue_sheds_with_429_and_retry_after(self, serve_factory):
        handle = serve_factory(queue_limit=2, start_paused=True)
        admitted = []
        for index in range(2):
            status, _headers, doc = handle.post(
                "/v1/run",
                {"scene": "WKND", "technique": "baseline", "scale": "smoke",
                 "deadline_s": 60 + index},  # distinct: defeat the LRU
            )
            assert status == 202
            admitted.append(doc["id"])
        status, headers, doc = handle.post(
            "/v1/run",
            {"scene": "SHIP", "technique": "baseline", "scale": "smoke"},
        )
        assert status == 429
        assert "Retry-After" in headers
        assert int(headers["Retry-After"]) >= 1
        assert "queue full" in doc["error"]
        _status, _headers, metrics = handle.get("/metrics")
        assert metrics["metrics"]["counters"]["serve.shed_total"] == 1
        # Draining the queue makes room again.
        handle.call_soon(handle.service.scheduler.resume)
        for job_id in admitted:
            handle.wait_for_state(job_id, ("done",))
        status, _headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "SHIP", "technique": "baseline", "scale": "smoke"},
        )
        assert status == 200 and doc["state"] == "done"

    def test_draining_service_rejects_submissions_with_503(
        self, serve_factory
    ):
        handle = serve_factory()
        handle.service._draining = True  # flag flip; no teardown race
        status, headers, doc = handle.post(
            "/v1/run", {"scene": "WKND", "scale": "smoke"}
        )
        assert status == 503
        assert "Retry-After" in headers
        assert "draining" in doc["error"]
        handle.service._draining = False


class TestDeadlinesAndCancellation:
    def test_expired_deadline_times_out_without_wedging(self, serve_factory):
        handle = serve_factory(start_paused=True)
        status, _headers, doc = handle.post(
            "/v1/run",
            {"scene": "WKND", "technique": "baseline", "scale": "smoke",
             "deadline_s": 0.05},
        )
        assert status == 202
        job_id = doc["id"]
        time.sleep(0.1)  # deadline passes while the job is still queued
        _status, _headers, doc = handle.get(f"/v1/jobs/{job_id}")
        assert doc["state"] == "timeout"
        assert doc["error"] == "deadline exceeded"
        # The scheduler and pool are fine: the next job runs normally.
        handle.call_soon(handle.service.scheduler.resume)
        status, _headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "WKND", "technique": "baseline", "scale": "smoke"},
        )
        assert status == 200 and doc["state"] == "done"

    def test_wait_on_expired_deadline_returns_timeout_state(
        self, serve_factory
    ):
        handle = serve_factory(start_paused=True)
        status, _headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "SHIP", "technique": "baseline", "scale": "smoke",
             "deadline_s": 0.05},
        )
        assert status == 200
        assert doc["state"] == "timeout"

    def test_cancel_queued_job(self, serve_factory):
        handle = serve_factory(start_paused=True)
        _status, _headers, doc = handle.post(
            "/v1/run",
            {"scene": "WKND", "technique": "baseline", "scale": "smoke"},
        )
        job_id = doc["id"]
        status, _headers, doc = handle.post(f"/v1/jobs/{job_id}/cancel", {})
        assert status == 200
        assert doc["state"] == "cancelled"
        # Cancelling a terminal job is a no-op, not an error.
        status, _headers, doc = handle.post(f"/v1/jobs/{job_id}/cancel", {})
        assert status == 200 and doc["state"] == "cancelled"


class TestDrain:
    def test_in_process_drain_finishes_queued_jobs(self, serve_factory):
        handle = serve_factory(start_paused=True)
        ids = []
        for scene in ("WKND", "SHIP"):
            _status, _headers, doc = handle.post(
                "/v1/run",
                {"scene": scene, "technique": "baseline", "scale": "smoke"},
            )
            ids.append(doc["id"])
        port = handle.port  # the property is gone once the server closes
        # begin_drain resumes a paused scheduler, finishes the queue,
        # then closes the listener.
        handle.call(handle.service.begin_drain(), timeout=60)
        for job_id in ids:
            job = handle.service.jobs[job_id]
            assert job.state == "done"
            assert job.result is not None
        with pytest.raises((TransportError, OSError)):
            ServeClient("127.0.0.1", port, timeout=2).healthz()

    def test_drain_waits_for_a_forming_batch(self, serve_factory):
        """A batch still waiting for stragglers is in flight: drain
        finishes it instead of returning with its jobs queued."""
        handle = serve_factory(start_paused=True, batch_window_s=0.5)
        _status, _headers, doc = handle.post(
            "/v1/run",
            {"scene": "WKND", "technique": "baseline", "scale": "smoke"},
        )
        handle.call(handle.service.begin_drain(), timeout=60)
        assert handle.service.jobs[doc["id"]].state == "done"

    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("REPRO_CACHE_DIR", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--no-cache"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(tmp_path),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            response = ServeClient("127.0.0.1", port, timeout=30).request(
                "POST", "/v1/run",
                {"scene": "WKND", "technique": "baseline",
                 "scale": "smoke"},
            )
            assert response.status == 202
            proc.send_signal(signal.SIGTERM)  # drain: finish the job, exit 0
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained cleanly" in out


class TestHttpSurface:
    def test_healthz_shape(self, serve_factory):
        handle = serve_factory()
        status, _headers, doc = handle.get("/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["state"] == "serving"
        assert doc["queue_depth"] == 0
        assert "result_cache" in doc

    def test_healthz_reports_the_bounded_memo(self, serve_factory):
        handle = serve_factory()
        handle.post("/v1/run?wait=1",
                    {"scene": "WKND", "technique": "baseline",
                     "scale": "smoke"})
        _status, _headers, doc = handle.get("/healthz")
        memo = doc["memo"]
        assert 0 < memo["entries"] <= memo["capacity"]
        for counter in ("hits", "misses", "evictions", "builds"):
            assert counter in memo
            assert all(counter in kind for kind in memo["kinds"].values())

    def test_metrics_shape(self, serve_factory):
        handle = serve_factory()
        handle.post("/v1/run?wait=1",
                    {"scene": "WKND", "technique": "baseline",
                     "scale": "smoke"})
        status, headers, doc = handle.get("/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert doc["schema"] == "repro.serve_metrics/1"
        counters = doc["metrics"]["counters"]
        assert counters["serve.requests_total"] >= 1
        assert counters["serve.jobs_done"] >= 1
        assert "serve.latency_ms" in doc["metrics"]["histograms"]

    def test_metrics_snapshot_seq_is_monotonic(self, serve_factory):
        handle = serve_factory()
        _, _, first = handle.get("/metrics")
        _, _, second = handle.get("/metrics")
        assert first["snapshot_seq"] >= 1
        assert second["snapshot_seq"] > first["snapshot_seq"]
        assert second["started_unix"] == first["started_unix"] > 0

    def test_metrics_prometheus_exposition(self, serve_factory):
        handle = serve_factory()
        handle.post("/v1/run?wait=1",
                    {"scene": "WKND", "technique": "baseline",
                     "scale": "smoke"})
        status, headers, text = handle.get_raw("/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_latency_ms histogram" in text
        assert 'repro_serve_latency_ms_bucket{le="+Inf"}' in text
        assert "repro_serve_latency_ms_sum" in text
        assert "repro_serve_latency_ms_count" in text
        assert "repro_serve_snapshot_seq" in text
        # Cumulative buckets: the +Inf bucket equals _count.
        lines = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line and not line.startswith("#")
        )
        assert (
            lines['repro_serve_latency_ms_bucket{le="+Inf"}']
            == lines["repro_serve_latency_ms_count"]
        )

    def test_metrics_unknown_format_is_400(self, serve_factory):
        handle = serve_factory()
        status, _headers, doc = handle.get("/metrics?format=xml")
        assert status == 400
        assert "format" in doc["error"]

    def test_unknown_job_is_404(self, serve_factory):
        handle = serve_factory()
        status, _headers, doc = handle.get("/v1/jobs/nope")
        assert status == 404

    def test_unknown_route_is_404(self, serve_factory):
        handle = serve_factory()
        status, _headers, _doc = handle.get("/v2/run")
        assert status == 404

    def test_wrong_method_is_405(self, serve_factory):
        handle = serve_factory()
        status, _headers, _doc = handle.get("/v1/run")
        assert status == 405

    def test_bad_scene_is_400(self, serve_factory):
        handle = serve_factory()
        status, _headers, doc = handle.post("/v1/run", {"scene": "CITY17"})
        assert status == 400
        assert "unknown scene" in doc["error"]

    def test_bad_technique_suggests_near_miss(self, serve_factory):
        handle = serve_factory()
        status, _headers, doc = handle.post(
            "/v1/run", {"scene": "WKND", "technique": "treelet-prefech"}
        )
        assert status == 400
        assert "did you mean 'treelet-prefetch'" in doc["error"]

    def test_malformed_json_is_400(self, serve_factory):
        handle = serve_factory()
        # Raw bytes bypass the client's JSON encoding, reaching the
        # server as a syntactically invalid body.
        status, _headers, doc = handle.post("/v1/run", b"{not json")
        assert status == 400
        assert "JSON" in doc["error"] or "json" in doc["error"]

    def test_every_response_carries_schema_stamp(self, serve_factory):
        from repro.serve import SCHEMA_HEADER

        handle = serve_factory()
        client = handle.client
        responses = [
            client.healthz(),
            client.metrics(),
            client.metrics(fmt="prometheus"),
            client.request("GET", "/v1/jobs/nope"),  # 404
            client.request("GET", "/v2/run"),  # unknown route
            client.request("POST", "/v1/run", {"scene": "CITY17"}),  # 400
        ]
        for response in responses:
            assert response.header(SCHEMA_HEADER) == "repro.serve/1"

    def test_request_claiming_wrong_schema_is_400(self, serve_factory):
        handle = serve_factory()
        status, _headers, doc = handle.post(
            "/v1/run",
            {"schema": "repro.serve/2", "scene": "WKND", "scale": "smoke"},
        )
        assert status == 400
        assert doc["code"] == "schema_mismatch"
        assert "repro.serve/1" in doc["error"]
        # Stamping the *right* schema on the request is accepted.
        status, _headers, doc = handle.post(
            "/v1/run?wait=1",
            {"schema": "repro.serve/1", "scene": "WKND",
             "technique": "baseline", "scale": "smoke"},
        )
        assert status == 200 and doc["state"] == "done"

    @pytest.mark.parametrize("path,field,body", [
        ("/v1/run", "cache", {"scene": "WKND", "cache": False}),
        ("/v1/sweep", "jobs",
         {"technique": "baseline", "scenes": ["WKND"], "jobs": 2}),
    ], ids=["run-cache", "sweep-jobs"])
    def test_server_side_field_in_wire_request_is_400(
        self, serve_factory, path, field, body
    ):
        handle = serve_factory()
        status, _headers, doc = handle.post(path, {"scale": "smoke", **body})
        assert status == 400
        assert field in doc["error"]

    def test_unknown_field_suggests_near_miss(self, serve_factory):
        handle = serve_factory()
        status, _headers, doc = handle.post(
            "/v1/run", {"scene": "WKND", "tecnique": "baseline"}
        )
        assert status == 400
        assert "did you mean 'technique'" in doc["error"]


class TestLoadgen:
    def test_open_loop_loadgen_all_ok(self, serve_factory):
        handle = serve_factory()
        template = RequestTemplate(scene="WKND", technique="baseline",
                                   scale="smoke")
        # The one cold run, before the level: at 100 QPS every request
        # would otherwise arrive while a cold build is still running.
        status, _headers, _doc = handle.post(
            "/v1/run?wait=1", template.submit().to_wire()
        )
        assert status == 200
        report = run_loadgen(LoadGenConfig(
            host="127.0.0.1",
            port=handle.port,
            qps=100.0,
            requests=12,
            mix=(template,),
            seed=7,
        ))
        summary = report.summary()
        assert summary["requests"] == 12
        assert summary["ok"] == 12
        assert summary["shed"] == 0
        assert summary["errors"] == 0
        assert summary["cached"] >= 10  # LRU hits after the cold run
        assert summary["latency_p50_s"] <= summary["latency_p99_s"]
        assert summary["throughput_rps"] > 0

    def test_report_percentiles_nearest_rank(self):
        report = LoadReport(offered_qps=1.0)
        report.outcomes = [
            RequestOutcome(index=i, offset_s=0.0, status=200,
                           latency_s=float(i + 1), state="done")
            for i in range(100)
        ]
        # True nearest rank (ceil(f*N), the repo-wide definition in
        # repro.obs.metrics.nearest_rank): p50 of 1..100 is 50.0.
        assert report.percentile(0.50) == pytest.approx(50.0)
        assert report.percentile(0.99) == pytest.approx(99.0)
        assert report.percentile(1.0) == pytest.approx(100.0)
        assert report.percentile(0.0) == pytest.approx(1.0)

    def test_percentile_delegates_to_shared_nearest_rank(self):
        # Satellite contract: loadgen percentiles and the obs quantile
        # helper are the same code path — pin both to the same values.
        from repro.obs.metrics import Histogram, nearest_rank

        latencies = [1.0, 2.0, 4.0, 8.0, 16.0]
        report = LoadReport(offered_qps=1.0)
        report.outcomes = [
            RequestOutcome(index=i, offset_s=0.0, status=200,
                           latency_s=value, state="done")
            for i, value in enumerate(latencies)
        ]
        hist = Histogram("lat", bounds=(1, 2, 4, 8, 16))
        for value in latencies:
            hist.record(value)
        for fraction in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            expected = nearest_rank(latencies, fraction)
            assert report.percentile(fraction) == expected
            assert hist.quantile(fraction) == expected


class TestResultLRU:
    def test_eviction_is_strict_lru(self):
        lru = LRU(capacity=2)
        lru.put("document", ("a",), {"v": 1})
        lru.put("document", ("b",), {"v": 2})
        assert lru.get("document", ("a",)) == {"v": 1}  # refresh a
        lru.put("document", ("c",), {"v": 3})  # evicts b
        assert lru.get("document", ("b",)) is None
        assert lru.get("document", ("a",)) == {"v": 1}
        assert lru.get("document", ("c",)) == {"v": 3}
        assert lru.count("evictions") == 1

    def test_zero_capacity_never_stores(self):
        lru = LRU(capacity=0)
        lru.put("document", ("a",), {"v": 1})
        assert lru.get("document", ("a",)) is None
        assert lru.info()["entries"] == 0


class TestPoolFallback:
    def test_failed_pool_is_counted_and_jobs_still_finish(
        self, serve_factory, monkeypatch
    ):
        """A batch whose pool fan-out raises is evaluated in-process:
        its jobs finish ``done`` and ``serve.pool_fallbacks`` counts
        the fallback."""
        from repro.exec import executor

        def broken_pool(*args, **kwargs):
            raise OSError("no pool today")

        monkeypatch.setattr(executor, "prewarm_replay_jobs", broken_pool)
        handle = serve_factory(workers=2)
        # A run with its baseline: two replays, so the batch tries the
        # pool, and nothing but the scheduler calls the patched name.
        status, _headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "SHIP", "technique": "treelet-prefetch",
             "scale": "smoke", "baseline": True},
            timeout=300,
        )
        assert status == 200 and doc["state"] == "done", doc
        _status, _headers, metrics = handle.get("/metrics")
        assert metrics["metrics"]["counters"]["serve.pool_fallbacks"] == 1


class TestReplayPool:
    def test_pool_forked_with_one_thread_serves_inprocess_results(
        self, serve_factory
    ):
        """``--workers N`` forks the replay pool before the event loop
        and the batch thread start, and a served sweep that fans out
        over it returns the in-process sweep's document."""
        from repro.api import SweepRequest, sweep as api_sweep
        from repro.core.pipeline import clear_caches
        from repro.serve.protocol import sweep_result_document

        clear_caches()
        handle = serve_factory(workers=2)
        _status, _headers, health = handle.get("/healthz")
        assert health["replay_pool"]["threads_at_fork"] == 1
        assert health["replay_pool"]["processes"] >= 1
        payload = {"technique": "treelet-prefetch", "scale": "smoke",
                   "scenes": ["WKND", "SHIP"]}
        status, _headers, doc = handle.post("/v1/sweep?wait=1", payload,
                                            timeout=300)
        assert status == 200 and doc["state"] == "done", doc
        _status, _headers, metrics = handle.get("/metrics")
        assert metrics["metrics"]["counters"]["exec.jobs_pool"] >= 1
        clear_caches()
        request = SweepRequest.from_dict(payload)
        direct = api_sweep("treelet-prefetch", ["WKND", "SHIP"], "smoke",
                           jobs=1)
        assert doc["result"] == _normalize(
            sweep_result_document(request, direct)
        )


class TestRequestTracing:
    """The tentpole's acceptance path: spans across serve -> scheduler
    batch -> exec workers, merged under one request trace_id."""

    def test_submit_stamps_trace_id_header(self, serve_factory):
        handle = serve_factory()
        status, headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "WKND", "technique": "baseline", "scale": "smoke"},
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == doc["trace_id"]
        # Repeat request: served from the LRU, still traced.
        status, headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "WKND", "technique": "baseline", "scale": "smoke"},
        )
        assert doc["cached"] is True
        assert headers["X-Repro-Trace-Id"] == doc["trace_id"]

    def test_job_trace_endpoint_returns_span_tree(self, serve_factory):
        handle = serve_factory()
        _status, _headers, doc = handle.post(
            "/v1/run?wait=1",
            {"scene": "WKND", "technique": "baseline", "scale": "smoke"},
        )
        job_id, trace_id = doc["id"], doc["trace_id"]
        status, headers, trace = handle.get(f"/v1/jobs/{job_id}/trace")
        assert status == 200
        assert trace["schema"] == "repro.spans/1"
        assert trace["trace_id"] == trace_id
        assert headers["X-Repro-Trace-Id"] == trace_id
        spans = trace["spans"]
        assert all(span["trace_id"] == trace_id for span in spans)
        by_name = {span["name"] for span in spans}
        assert {"request", "queue.wait", "serve.batch",
                "serve.execute"} <= by_name
        # The root request span closed when the job finalized, and the
        # batch span parents onto it (single-request batch).
        root = next(s for s in spans if s["name"] == "request")
        assert root["parent_id"] is None
        assert root["end_unix"] is not None
        batch = next(s for s in spans if s["name"] == "serve.batch")
        assert batch["parent_id"] == root["span_id"]

    def test_unknown_trace_is_404(self, serve_factory):
        handle = serve_factory()
        status, _headers, _doc = handle.get("/v1/jobs/nope/trace")
        assert status == 404

    def test_sweep_trace_spans_multiple_worker_processes(
        self, serve_factory
    ):
        """Acceptance criterion: one served sweep (jobs=2 scenes, two
        techniques -> 4 exec jobs) with workers=3 (the scheduler's own
        thread plus a pool of two) yields one merged Perfetto trace
        spanning serve, the scheduler batch, and >= 2 exec worker
        processes — every span carrying the request's trace_id."""
        import os

        from repro.core.pipeline import clear_caches

        clear_caches()  # force real work so pool workers get jobs
        handle = serve_factory(workers=3)
        status, headers, doc = handle.post(
            "/v1/sweep?wait=1",
            {"technique": "treelet-prefetch", "scale": "smoke",
             "scenes": ["WKND", "SHIP"]},
            timeout=300,
        )
        assert status == 200 and doc["state"] == "done"
        trace_id = headers["X-Repro-Trace-Id"]
        job_id = doc["id"]

        status, _headers, trace = handle.get(f"/v1/jobs/{job_id}/trace")
        assert status == 200
        spans = trace["spans"]
        assert spans and all(s["trace_id"] == trace_id for s in spans)
        names = {s["name"] for s in spans}
        assert {"request", "serve.batch", "exec.job",
                "phase.replay"} <= names
        # Worker spans came from processes other than the server's, and
        # from at least two distinct worker pids.
        worker_pids = {
            s["pid"] for s in spans if s["process"] == "worker"
        }
        assert len(worker_pids) >= 2
        assert os.getpid() not in worker_pids
        # The scheduler replayed its own share of the jobs in-process.
        assert any(s["name"] == "exec.job" and s["pid"] == os.getpid()
                   and s["args"]["worker"] == "caller" for s in spans)

        # The Perfetto rendering of the same trace: one process track
        # per recording process, every slice tagged with the trace_id.
        status, _headers, perfetto = handle.get(
            f"/v1/jobs/{job_id}/trace?format=perfetto"
        )
        assert status == 200
        events = perfetto["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert all(e["args"]["trace_id"] == trace_id for e in slices)
        process_names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert any(n.startswith("serve") for n in process_names)
        assert sum(1 for n in process_names if n.startswith("worker")) >= 2
