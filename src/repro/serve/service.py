"""The asyncio HTTP/JSON simulation service.

Stdlib-only (asyncio + hand-rolled HTTP/1.1): the container bakes in
numpy and the test toolchain, nothing web-shaped, so the server speaks
just enough HTTP for JSON APIs — one request per connection,
``Content-Length`` bodies, ``Connection: close``.

Endpoints::

    POST /v1/run            submit one evaluation        -> 202 job doc
    POST /v1/sweep          submit a multi-scene sweep   -> 202 job doc
    GET  /v1/jobs/<id>      job status / result          -> 200
    POST /v1/jobs/<id>/cancel                            -> 200 / 409
    GET  /healthz           liveness + queue snapshot    -> 200 / 503
    GET  /metrics           serve.*/exec.* registry dump -> 200

Submission semantics:

* a repeat request (an equal parsed api request and baseline flag) is
  answered **synchronously** from the LRU result cache — 200,
  ``cached: true``, no queue admission;
* ``"wait": true`` (or ``?wait=1``) holds the response open until the
  job reaches a terminal state — the loadgen uses this to measure
  end-to-end latency;
* a full admission queue sheds the request: 429 with a ``Retry-After``
  header (open-loop clients back off instead of piling on);
* during drain (SIGTERM/SIGINT) new submissions get 503 while queued
  and in-flight jobs run to completion.

Caches, fastest first: the result cache (finished result documents,
``ServeConfig.cache_entries`` entries); the process memo
(:data:`repro.core.memo.MEMO`: results and the artifacts they were
built from, ``MEMO_CAPACITY`` entries); and the on-disk artifact cache.
The first two are instances of one bounded class,
:class:`repro.core.memo.LRU`, so memory stays flat however many
distinct requests arrive; ``/healthz`` reports both, as
``result_cache`` and ``memo``.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.memo import LRU, MEMO
from ..exec.executor import pool_info, replay_pool
from ..obs import MetricRegistry, chrome_trace
from ..obs import spans as _sp
from . import protocol
from .http import serve_connection, trace_headers
from .protocol import JobRecord, ServeError, ServedJob
from .scheduler import MicroBatchScheduler


@dataclass
class ServeConfig:
    """Service knobs (all exposed as ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8077  # 0 = pick an ephemeral port
    queue_limit: int = 64  # admission queue bound; beyond it -> 429
    batch_max: int = 8  # jobs coalesced into one micro-batch
    batch_window_s: float = 0.005  # straggler wait after first arrival
    workers: int = 1  # >1 fans replays over a repro.exec pool of N-1
    default_deadline_s: Optional[float] = None  # per-request default
    job_timeout_s: Optional[float] = None  # pool-side per-job timeout
    retry_after_s: float = 1.0  # advertised backoff on 429
    cache_entries: int = 256  # LRU result-document capacity
    cache_dir: Optional[str] = None  # on-disk artifact cache root
    drain_timeout_s: float = 60.0  # max wait for in-flight work on stop
    max_body_bytes: int = 1 << 20
    job_history: int = 1024  # finished records kept for GET /v1/jobs
    start_paused: bool = False  # hold dispatch until resume() (tests)


class SimulationService:
    """One service instance: HTTP front end + scheduler + caches."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 metrics: Optional[MetricRegistry] = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.cache = LRU(self.config.cache_entries)
        # One collector for the whole service: request root spans,
        # scheduler batch spans, and spans shipped back from exec
        # workers all merge here (GET /v1/jobs/<id>/trace reads it).
        self.spans = _sp.SpanCollector(process="serve")
        self._metrics_seq = 0
        # Loop-bound pieces (queue, scheduler, events) are created in
        # start(): Python 3.9 binds asyncio primitives to the current
        # event loop at construction time, and the service may be
        # constructed on a different thread than it runs on.
        self.queue: Optional["asyncio.Queue[JobRecord]"] = None
        self.scheduler: Optional[MicroBatchScheduler] = None
        self.jobs: "dict[str, JobRecord]" = {}
        self._order: "list[str]" = []
        self._counter = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._started_unix: Optional[float] = None
        self._closed: Optional[asyncio.Event] = None
        if self.config.workers > 1:
            # Fork the replay pool now, before the event loop and the
            # scheduler's batch thread exist: a fork with another
            # thread alive copies the locks it holds into the worker.
            replay_pool(self.config.workers)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        if self.config.cache_dir:
            from ..exec import set_artifact_cache

            set_artifact_cache(self.config.cache_dir)
        self._closed = asyncio.Event()
        self.queue = asyncio.Queue(maxsize=max(1, self.config.queue_limit))
        self.scheduler = MicroBatchScheduler(
            self.queue,
            workers=self.config.workers,
            batch_max=self.config.batch_max,
            batch_window_s=self.config.batch_window_s,
            metrics=self.metrics,
            result_cache=self.cache,
            job_timeout=self.config.job_timeout_s,
            start_paused=self.config.start_paused,
            spans=self.spans,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.scheduler.start()
        self._started_unix = time.time()

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until drained.  SIGTERM/SIGINT trigger a graceful drain:
        stop admitting, finish queued + in-flight jobs, then exit."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.ensure_future(self.begin_drain()),
                    )
                except NotImplementedError:  # non-Unix event loops
                    pass
        await self._closed.wait()

    async def begin_drain(self) -> None:
        """Stop admitting, drain queued + in-flight jobs, close."""
        if self._draining:
            return
        self._draining = True
        if self.scheduler is not None:
            self.scheduler.resume()  # a paused scheduler must still drain
            await self.scheduler.drain(self.config.drain_timeout_s)
        await self.aclose()

    async def aclose(self) -> None:
        """Immediate shutdown (after drain, or in tests)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.scheduler is not None:
            await self.scheduler.stop()
        if self._closed is not None:
            self._closed.set()

    # ------------------------------------------------------------------
    # Job bookkeeping (event-loop thread only).
    # ------------------------------------------------------------------

    def _new_job(self, served: ServedJob) -> JobRecord:
        self._counter += 1
        job = JobRecord(
            id=f"j{self._counter:06d}", served=served,
            done_event=asyncio.Event(),
        )
        if job.deadline is None and self.config.default_deadline_s:
            job.deadline = job.submitted + self.config.default_deadline_s
        # Every admitted request gets a trace: the root "request" span
        # opens here and closes on the job's first terminal transition
        # (finalizers run on the event-loop thread, like all state
        # changes).  Children — queue.wait, serve.batch, exec.job and
        # the pipeline phases — parent onto it via SpanContext.
        root = self.spans.begin(
            "request", args={"job": job.id, **served.describe()}
        )
        job.trace_id = root.trace_id
        job.span_id = root.span_id
        job.finalizers.append(
            lambda record, root=root: self.spans.end(
                root, state=record.state, cached=record.cached
            )
        )
        self.jobs[job.id] = job
        self._order.append(job.id)
        while len(self._order) > max(self.config.job_history, 1):
            oldest = self.jobs.get(self._order[0])
            if oldest is not None and not oldest.terminal:
                break  # never forget a live job
            self.jobs.pop(self._order.pop(0), None)
        return job

    def _expire_if_due(self, job: JobRecord) -> None:
        """Lazy deadline enforcement for jobs still waiting in queue."""
        if job.state == protocol.QUEUED and job.expired():
            job.finalize(protocol.TIMEOUT, error="deadline exceeded")
            self.metrics.counter("serve.jobs_timeout").inc()

    def _snapshot(self) -> dict:
        states = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "state": "draining" if self._draining else "serving",
            "queue_depth": self.queue.qsize(),
            "inflight": self.scheduler.busy,
            "jobs": states,
            "result_cache": self.cache.info(),
            "memo": MEMO.info(),
            # Execution provenance: how many worker processes the replay
            # phase fans across (1 = in-process serial; see
            # MicroBatchScheduler), and the replay pool's size and the
            # threads alive when it was forked (null: no pool).
            "replay_workers": self.config.workers,
            "replay_pool": pool_info(),
            "uptime_s": (
                time.time() - self._started_unix
                if self._started_unix else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        await serve_connection(reader, writer, self._route,
                               max_body_bytes=self.config.max_body_bytes)

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------

    async def _route(self, method: str, path: str, query: dict,
                     payload: Optional[dict]) -> Tuple[int, dict, dict]:
        if path == "/healthz" and method == "GET":
            snapshot = self._snapshot()
            snapshot["schema"] = protocol.PROTOCOL_SCHEMA
            snapshot["status"] = "ok"
            return 200, snapshot, {}
        if path == "/metrics" and method == "GET":
            return self._metrics_response(query)
        if path == "/v1/run" and method == "POST":
            served = protocol.normalize_run(payload or {}, query)
            self.metrics.counter("serve.requests_run").inc()
            return await self._submit(served)
        if path == "/v1/sweep" and method == "POST":
            served = protocol.normalize_sweep(payload or {}, query)
            self.metrics.counter("serve.requests_sweep").inc()
            return await self._submit(served)
        if path.startswith("/v1/jobs/"):
            return await self._route_jobs(method, path, query)
        if path in ("/healthz", "/metrics", "/v1/run", "/v1/sweep"):
            raise ServeError(405, f"{method} not allowed on {path}")
        raise ServeError(404, f"no route for {path}")

    def _metrics_response(self, query: dict) -> Tuple[int, object, dict]:
        self._metrics_seq += 1
        fmt = query.get("format", "json").strip().lower()
        if fmt == "prometheus":
            text = self.metrics.to_prometheus()
            # Scrape metadata rides along as two extra series:
            # snapshot_seq resets on restart, started_unix dates it.
            text += (
                "# TYPE repro_serve_snapshot_seq counter\n"
                f"repro_serve_snapshot_seq {self._metrics_seq}\n"
                "# TYPE repro_serve_started_unix gauge\n"
                f"repro_serve_started_unix {self._started_unix or 0}\n"
                "# TYPE repro_serve_replay_workers gauge\n"
                f"repro_serve_replay_workers {self.config.workers}\n"
            )
            return 200, text, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            }
        if fmt != "json":
            raise ServeError(
                400, f"unknown metrics format {fmt!r} (json, prometheus)"
            )
        return 200, {
            "schema": "repro.serve_metrics/1",
            "snapshot_seq": self._metrics_seq,
            "started_unix": self._started_unix,
            "snapshot": self._snapshot(),
            "metrics": self.metrics.as_dict(),
        }, {"Content-Type": "application/json"}

    async def _route_jobs(self, method: str, path: str,
                          query: dict) -> Tuple[int, dict, dict]:
        tail = path[len("/v1/jobs/"):]
        if tail.endswith("/cancel") and method == "POST":
            job = self._lookup(tail[: -len("/cancel")])
            return self._cancel(job)
        if method != "GET":
            raise ServeError(405, f"{method} not allowed on {path}")
        if tail.endswith("/trace"):
            return self._job_trace(tail[: -len("/trace")], query)
        job = self._lookup(tail)
        self._expire_if_due(job)
        return 200, job.as_document(), {}

    def _job_trace(self, job_id: str,
                   query: dict) -> Tuple[int, dict, dict]:
        """The job's merged span tree — every span the service and its
        workers recorded under the request's trace_id."""
        job = self._lookup(job_id)
        if job.trace_id is None:
            raise ServeError(404, f"no trace recorded for job {job.id!r}")
        spans = self.spans.for_trace(job.trace_id)
        fmt = query.get("format", "json").strip().lower()
        if fmt == "perfetto":
            doc = chrome_trace(spans)
            return 200, doc, {"X-Repro-Trace-Id": job.trace_id}
        if fmt != "json":
            raise ServeError(
                400, f"unknown trace format {fmt!r} (json, perfetto)"
            )
        return 200, {
            "schema": _sp.SPAN_SCHEMA,
            "job": job.id,
            "trace_id": job.trace_id,
            "state": job.state,
            "spans": [span.to_dict() for span in spans],
        }, {"X-Repro-Trace-Id": job.trace_id}

    def _lookup(self, job_id: str) -> JobRecord:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(404, f"unknown job {job_id!r}")
        return job

    def _cancel(self, job: JobRecord) -> Tuple[int, dict, dict]:
        if job.terminal:
            return 200, job.as_document(), {}
        if job.state == protocol.RUNNING:
            raise ServeError(409, f"job {job.id} is already running")
        job.cancel_requested = True
        job.finalize(protocol.CANCELLED, error="cancelled by client")
        self.metrics.counter("serve.jobs_cancelled").inc()
        return 200, job.as_document(), {}

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    async def _submit(self, served: ServedJob) -> Tuple[int, dict, dict]:
        self.metrics.counter("serve.requests_total").inc()
        cached = self.cache.get(served.kind, served.cache_key)
        if cached is not None:
            self.metrics.counter("serve.cache_hits").inc()
            job = self._new_job(served)
            job.cached = True
            job.finalize(protocol.DONE, result=cached)
            return 200, job.as_document(), trace_headers(job.trace_id)
        self.metrics.counter("serve.cache_misses").inc()
        if self._draining:
            raise ServeError(
                503, "service is draining; not accepting new jobs",
                {"Retry-After": str(int(self.config.retry_after_s) or 1)},
            )
        if self.queue.full():
            # Shed load instead of queueing unboundedly: the client gets
            # an explicit backoff hint and no job record is created.
            self.metrics.counter("serve.shed_total").inc()
            raise ServeError(
                429,
                f"admission queue full ({self.config.queue_limit} jobs); "
                "retry later",
                {"Retry-After": str(int(self.config.retry_after_s) or 1)},
            )
        job = self._new_job(served)
        self.queue.put_nowait(job)
        self.metrics.counter("serve.jobs_admitted").inc()
        if not served.wait:
            return 202, job.as_document(), trace_headers(job.trace_id)
        timeout = job.remaining()
        if timeout is not None:
            timeout += 5.0  # grace for the scheduler to record the timeout
        try:
            await asyncio.wait_for(job.done_event.wait(), timeout)
        except asyncio.TimeoutError:
            self._expire_if_due(job)
        status = 200 if job.terminal else 202
        return status, job.as_document(), trace_headers(job.trace_id)

