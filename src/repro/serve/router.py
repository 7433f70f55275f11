"""The scene-sharded serving router: one front door over N replicas.

The ROADMAP's path from "a service" to production scale: a stdlib-only
asyncio HTTP router that fronts a fleet of
:class:`~repro.serve.service.SimulationService` replicas and speaks the
same ``repro.serve/1`` wire protocol on both sides.

Sharding is **rendezvous (highest-random-weight) hashing** on the
scene fingerprint (``scene|scale``): every replica gets a deterministic
per-key weight, jobs go to the highest-weighted *healthy* replica, and
ejecting or adding a replica only remaps the keys it owned — no ring
rebuild, no coordination.  The point is artifact locality: a replica
that already built PARK's BVH (scene cache, trace artifacts, result
LRU) keeps getting PARK jobs, which the
``router.affinity_hits_total / router.routed_total`` counters make
observable.

Sweeps are split per-scene: scenes are grouped by owning replica, each
group forwarded as a sub-sweep, and the parts merged deterministically
(scene-sorted, gmean recomputed over the union) into one job document.

Failure handling:

* a periodic ``/healthz`` probe (through the shared
  :class:`~repro.serve.client.AsyncServeClient`) ejects a replica after
  ``eject_after`` consecutive failures and readmits it after
  ``readmit_after`` consecutive successes;
* every forwarded request retries with exponential backoff onto the
  next replica in rendezvous order on connect failure, timeout, or 5xx
  — a replica SIGKILLed mid-run costs a retry, not a failed job
  (evaluations are deterministic, so resubmission is idempotent);
* per-replica in-flight budgets shed excess load with 429 +
  ``Retry-After`` at the router instead of piling onto a saturated
  fleet.

``GET /metrics`` aggregates the fleet: counters summed, histograms
merged bucket-wise (same bounds), per-replica gauges and snapshots kept
apart under their replica address.  ``GET /v1/jobs/<id>/trace`` merges
the span trees of all parts of a routed job.
"""

from __future__ import annotations

import asyncio
import hashlib
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import MetricRegistry
from ..obs import spans as _sp
from .client import AsyncServeClient, Response
from .http import serve_connection, trace_headers
from .protocol import (
    CANCELLED,
    DONE,
    FAILED,
    JobDocument,
    PROTOCOL_SCHEMA,
    QUEUED,
    RUNNING,
    ServeError,
    ServedJob,
    TERMINAL_STATES,
    TIMEOUT,
    WireError,
    normalize_run,
    normalize_sweep,
    sweep_document,
)

ROUTER_NAME = "repro-serve-router"

#: Transport-level failures that mean "this replica did not answer" —
#: retryable on the next replica in rendezvous order.
_TRANSPORT_ERRORS = (OSError, asyncio.TimeoutError,
                     asyncio.IncompleteReadError, WireError)


def parse_replica(address: str) -> Tuple[str, int]:
    """``"host:port"`` or ``":port"``/``"port"`` (localhost)."""
    text = str(address).strip()
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", text
    host = host or "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad replica address {address!r} "
                         "(expected host:port)")


@dataclass
class RouterConfig:
    """Router knobs (all exposed as ``repro router`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8078  # 0 = pick an ephemeral port
    replicas: Tuple[str, ...] = ()  # "host:port" per replica
    health_interval_s: float = 0.25  # /healthz probe period
    health_timeout_s: float = 2.0
    eject_after: int = 2  # consecutive probe/forward failures -> eject
    readmit_after: int = 2  # consecutive probe successes -> readmit
    retries: int = 3  # extra attempts after the first
    retry_backoff_s: float = 0.05  # doubled per retry
    max_inflight_per_replica: int = 32  # forwarded-request budget
    request_timeout_s: float = 300.0  # per forwarded attempt
    retry_after_s: float = 1.0  # advertised backoff on 429
    max_body_bytes: int = 1 << 20
    job_history: int = 1024


class ReplicaState:
    """One replica: its client, health, budget, and scene residency."""

    def __init__(self, host: str, port: int, *,
                 timeout: float) -> None:
        self.host = host
        self.port = port
        self.client = AsyncServeClient(host, port, timeout=timeout)
        self.healthy = True
        self.consecutive_failures = 0
        self.consecutive_ok = 0
        self.inflight = 0
        #: Scene fingerprints this replica has accepted jobs for while
        #: healthy — the artifact-locality ledger behind the affinity
        #: metric.  Cleared on ejection: a restarted replica holds
        #: nothing in memory.
        self.scenes_served: set = set()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def snapshot(self) -> dict:
        return {
            "healthy": self.healthy,
            "inflight": self.inflight,
            "consecutive_failures": self.consecutive_failures,
            "scenes_resident": len(self.scenes_served),
        }


@dataclass
class RouterJob:
    """A routed job: the router's id mapped onto its replica parts."""

    id: str
    kind: str  # "run" | "sweep"
    parts: List[Tuple[str, str]]  # (replica address, remote job id)
    request: dict = field(default_factory=dict)
    created_unix: float = field(default_factory=time.time)


class SceneShardRouter:
    """The router instance: HTTP front end + replica fleet state."""

    def __init__(self, config: RouterConfig,
                 metrics: Optional[MetricRegistry] = None) -> None:
        if not config.replicas:
            raise ValueError("router needs at least one replica")
        self.config = config
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.replicas: Dict[str, ReplicaState] = {}
        for address in config.replicas:
            host, port = parse_replica(address)
            replica = ReplicaState(host, port,
                                   timeout=config.request_timeout_s)
            self.replicas[replica.address] = replica
        self.jobs: Dict[str, RouterJob] = {}
        self._order: List[str] = []
        self._counter = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._health_task: Optional[asyncio.Task] = None
        self._closed: Optional[asyncio.Event] = None
        self._draining = False
        self._started_unix: Optional[float] = None
        self._metrics_seq = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "router not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._health_task = asyncio.ensure_future(self._health_loop())
        self._started_unix = time.time()

    async def serve_forever(self, install_signals: bool = True) -> None:
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.ensure_future(self.aclose()),
                    )
                except NotImplementedError:  # non-Unix event loops
                    pass
        await self._closed.wait()

    async def aclose(self) -> None:
        self._draining = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._closed is not None:
            self._closed.set()

    # ------------------------------------------------------------------
    # Health checking: ejection and readmission.
    # ------------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.gather(
                *[self._probe(replica) for replica in
                  self.replicas.values()],
                return_exceptions=True,
            )
            self.metrics.gauge("router.healthy_replicas").record(
                self._metrics_seq, self._healthy_count()
            )
            await asyncio.sleep(self.config.health_interval_s)

    async def _probe(self, replica: ReplicaState) -> None:
        try:
            response = await replica.client.healthz(
                timeout=self.config.health_timeout_s
            )
            ok = response.status == 200
        except _TRANSPORT_ERRORS:
            ok = False
        self._note_health(replica, ok)

    def _note_health(self, replica: ReplicaState, ok: bool) -> None:
        if ok:
            replica.consecutive_failures = 0
            replica.consecutive_ok += 1
            if (not replica.healthy
                    and replica.consecutive_ok >= self.config.readmit_after):
                replica.healthy = True
                self.metrics.counter("router.readmissions_total").inc()
        else:
            replica.consecutive_ok = 0
            replica.consecutive_failures += 1
            if (replica.healthy
                    and replica.consecutive_failures
                    >= self.config.eject_after):
                self._eject(replica)

    def _eject(self, replica: ReplicaState) -> None:
        replica.healthy = False
        # The replica's in-memory caches are gone (or going): stop
        # crediting it with scene residency so its keys rehash cleanly.
        replica.scenes_served.clear()
        self.metrics.counter("router.ejections_total").inc()

    def _note_forward_failure(self, replica: ReplicaState) -> None:
        """A forwarded request found the replica unreachable — count it
        like a failed probe so a killed replica ejects at traffic speed
        instead of waiting out the probe interval."""
        self._note_health(replica, False)

    def _healthy_count(self) -> int:
        return sum(1 for r in self.replicas.values() if r.healthy)

    # ------------------------------------------------------------------
    # Sharding.
    # ------------------------------------------------------------------

    @staticmethod
    def _weight(address: str, key: str) -> int:
        digest = hashlib.sha256(f"{address}|{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def _rendezvous(self, key: str) -> List[ReplicaState]:
        """All replicas in preference order for ``key`` (highest
        rendezvous weight first) — retries walk down this list."""
        return sorted(
            self.replicas.values(),
            key=lambda replica: self._weight(replica.address, key),
            reverse=True,
        )

    @staticmethod
    def _scene_key(scene: str, scale_name: str) -> str:
        return f"{scene}|{scale_name}"

    def _group_scenes(self, scenes, scale_name: str) -> Dict[str, List[str]]:
        """Scenes grouped by their owning (first healthy) replica."""
        groups: Dict[str, List[str]] = {}
        for scene in scenes:
            order = self._rendezvous(self._scene_key(scene, scale_name))
            healthy = [r for r in order if r.healthy] or order
            groups.setdefault(healthy[0].address, []).append(scene)
        return groups

    # ------------------------------------------------------------------
    # Forwarding with retry + budgets.
    # ------------------------------------------------------------------

    async def _dispatch(self, key: str, scene_keys: List[str],
                        method: str, path: str, payload,
                        ) -> Tuple[ReplicaState, Response]:
        """Forward one request to the best replica for ``key``.

        Walks the rendezvous preference order; connect failures,
        timeouts, and 5xx answers move on to the next replica after an
        exponential backoff.  ``scene_keys`` are the scene fingerprints
        this dispatch carries (affinity accounting; empty for
        non-submission traffic).
        """
        order = self._rendezvous(key)
        failed: set = set()
        last_error = "no replicas configured"
        for attempt in range(self.config.retries + 1):
            pool = [r for r in order
                    if r.address not in failed and r.healthy]
            if not pool:  # every preferred replica ejected: try anyway
                pool = [r for r in order if r.address not in failed]
            if not pool:
                break
            routable = [
                r for r in pool
                if r.inflight < self.config.max_inflight_per_replica
            ]
            if not routable:
                self.metrics.counter("router.shed_total").inc()
                raise ServeError(
                    429,
                    "all replicas at in-flight capacity; retry later",
                    {"Retry-After":
                     str(int(self.config.retry_after_s) or 1)},
                )
            replica = routable[0]
            if attempt:
                self.metrics.counter("router.retries_total").inc()
                await asyncio.sleep(
                    self.config.retry_backoff_s * (2 ** (attempt - 1))
                )
            replica.inflight += 1
            try:
                response = await replica.client.request(
                    method, path, payload,
                    timeout=self.config.request_timeout_s,
                )
            except _TRANSPORT_ERRORS as exc:
                last_error = f"{replica.address}: {exc}"
                failed.add(replica.address)
                self._note_forward_failure(replica)
                continue
            finally:
                replica.inflight -= 1
            if response.status >= 500:
                last_error = (f"{replica.address}: upstream "
                              f"{response.status}")
                failed.add(replica.address)
                continue
            for scene_key in scene_keys:
                self.metrics.counter("router.routed_total").inc()
                if scene_key in replica.scenes_served:
                    self.metrics.counter("router.affinity_hits_total").inc()
            if scene_keys and response.ok:
                replica.scenes_served.update(scene_keys)
            return replica, response
        self.metrics.counter("router.errors_total").inc()
        raise ServeError(
            502, f"no replica could serve the request ({last_error})"
        )

    # ------------------------------------------------------------------
    # Job bookkeeping.
    # ------------------------------------------------------------------

    def _new_job(self, served: ServedJob,
                 parts: List[Tuple[str, str]]) -> RouterJob:
        self._counter += 1
        job = RouterJob(id=f"r{self._counter:06d}", kind=served.kind,
                        parts=parts, request=served.describe())
        self.jobs[job.id] = job
        self._order.append(job.id)
        while len(self._order) > max(self.config.job_history, 1):
            self.jobs.pop(self._order.pop(0), None)
        return job

    def _lookup(self, job_id: str) -> RouterJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(404, f"unknown job {job_id!r}")
        return job

    def _replica_for(self, address: str) -> ReplicaState:
        replica = self.replicas.get(address)
        if replica is None:
            raise ServeError(502, f"replica {address} no longer configured")
        return replica

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        await serve_connection(reader, writer, self._route,
                               max_body_bytes=self.config.max_body_bytes,
                               server=ROUTER_NAME)

    async def _route(self, method: str, path: str, query: dict,
                     payload: Optional[dict]) -> Tuple[int, object, dict]:
        self.metrics.counter("router.requests_total").inc()
        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), {}
        if path == "/metrics" and method == "GET":
            return await self._metrics_response(query)
        if path == "/v1/run" and method == "POST":
            return await self._submit_run(query, payload or {})
        if path == "/v1/sweep" and method == "POST":
            return await self._submit_sweep(query, payload or {})
        if path.startswith("/v1/jobs/"):
            return await self._route_jobs(method, path, query)
        if path in ("/healthz", "/metrics", "/v1/run", "/v1/sweep"):
            raise ServeError(405, f"{method} not allowed on {path}")
        raise ServeError(404, f"no route for {path}")

    def _healthz(self) -> dict:
        return {
            "schema": PROTOCOL_SCHEMA,
            "status": "ok",
            "role": "router",
            "state": "draining" if self._draining else "serving",
            "healthy_replicas": self._healthy_count(),
            "replicas": {
                address: replica.snapshot()
                for address, replica in sorted(self.replicas.items())
            },
            "jobs": len(self.jobs),
            "uptime_s": (
                time.time() - self._started_unix
                if self._started_unix else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # Submission: runs route whole, sweeps split per scene.
    # ------------------------------------------------------------------

    async def _submit_run(self, query: dict,
                          payload: dict) -> Tuple[int, dict, dict]:
        served = normalize_run(payload, query)  # full validation at the edge
        request = served.request
        key = self._scene_key(request.scene, request.scale.name)
        path = "/v1/run?wait=1" if served.wait else "/v1/run"
        replica, response = await self._dispatch(
            key, [key], "POST", path, payload
        )
        document = response.document
        if not response.ok or not isinstance(document, dict):
            # Replica-side 4xx (bad request, shed): pass through.
            return response.status, document, {}
        remote = JobDocument.from_wire(document)
        job = self._new_job(served, [(replica.address, remote.id)])
        merged = self._run_document(job, replica.address, document)
        return response.status, merged, trace_headers(merged.get("trace_id"))

    async def _submit_sweep(self, query: dict,
                            payload: dict) -> Tuple[int, dict, dict]:
        served = normalize_sweep(payload, query)
        scale_name = served.request.scale.name
        groups = self._group_scenes(served.scenes, scale_name)
        path = "/v1/sweep?wait=1" if served.wait else "/v1/sweep"

        async def submit_group(scenes: List[str]):
            sub_payload = dict(payload)
            sub_payload["scenes"] = scenes
            key = self._scene_key(scenes[0], scale_name)
            scene_keys = [self._scene_key(scene, scale_name)
                          for scene in scenes]
            return await self._dispatch(
                key, scene_keys, "POST", path, sub_payload
            )

        outcomes = await asyncio.gather(
            *[submit_group(scenes) for scenes in groups.values()],
            return_exceptions=True,
        )
        parts: List[Tuple[str, str]] = []
        part_documents: List[Tuple[str, dict]] = []
        failures: List[str] = []
        for outcome in outcomes:
            if isinstance(outcome, ServeError):
                failures.append(outcome.message)
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            replica, response = outcome
            document = response.document
            if not response.ok or not isinstance(document, dict):
                failures.append(
                    f"{replica.address}: {response.status} "
                    f"{document.get('error') if isinstance(document, dict) else document}"
                )
                continue
            remote = JobDocument.from_wire(document)
            parts.append((replica.address, remote.id))
            part_documents.append((replica.address, document))
        if not parts:
            raise ServeError(
                502, "sweep failed on every replica: " + "; ".join(failures)
            )
        job = self._new_job(served, parts)
        if failures:
            # Partial admission: surface as a failed job document.
            merged = self._merge_sweep_documents(job, part_documents)
            merged["state"] = FAILED
            merged["error"] = "; ".join(failures)
            return 502, merged, {}
        merged = self._merge_sweep_documents(job, part_documents)
        status = 200 if merged["state"] in TERMINAL_STATES else 202
        return status, merged, trace_headers(merged.get("trace_id"))

    # ------------------------------------------------------------------
    # Merging.
    # ------------------------------------------------------------------

    @staticmethod
    def _merge_states(states: List[str]) -> str:
        for state in (FAILED, TIMEOUT, CANCELLED):
            if state in states:
                return state
        non_terminal = [s for s in states if s not in TERMINAL_STATES]
        if non_terminal:
            if all(state == QUEUED for state in non_terminal):
                return QUEUED
            return RUNNING
        return DONE

    @staticmethod
    def _run_document(job: RouterJob, address: str, document: dict) -> dict:
        """A routed run's job document: the replica's, under the
        router's job id."""
        return {**document, "id": job.id, "replica": address}

    def _merge_sweep_documents(
        self, job: RouterJob,
        part_documents: List[Tuple[str, dict]],
    ) -> dict:
        """One job document over all sweep parts, deterministically:
        scenes sorted, gmean recomputed over the union."""
        documents = [doc for _addr, doc in part_documents]
        states = [doc.get("state", RUNNING) for doc in documents]
        merged: dict = {
            "schema": PROTOCOL_SCHEMA,
            "id": job.id,
            "state": self._merge_states(states),
            "request": job.request,
            "created_unix": job.created_unix,
            "cached": all(doc.get("cached") for doc in documents),
            "parts": [
                {"replica": addr, "id": doc.get("id"),
                 "state": doc.get("state")}
                for addr, doc in sorted(part_documents,
                                        key=lambda item: item[0])
            ],
        }
        for field_name in ("queue_wait_s", "latency_s"):
            values = [doc[field_name] for doc in documents
                      if doc.get(field_name) is not None]
            if values:
                merged[field_name] = max(values)
        if len(part_documents) == 1:
            trace_id = documents[0].get("trace_id")
            if trace_id:
                merged["trace_id"] = trace_id
        errors = [
            f"{addr}: {doc['error']}"
            for addr, doc in part_documents if doc.get("error")
        ]
        if errors:
            merged["error"] = "; ".join(sorted(errors))
        results = [doc.get("result") for doc in documents]
        if merged["state"] == DONE and all(
            isinstance(result, dict) for result in results
        ):
            scenes: dict = {}
            for result in results:
                scenes.update(result.get("scenes", {}))
            first = results[0]
            merged["result"] = sweep_document(
                first.get("technique"), first.get("scale"),
                first.get("workload", "render"),
                {name: scenes[name] for name in sorted(scenes)},
            )
        return merged

    # ------------------------------------------------------------------
    # Job status / cancel / trace across parts.
    # ------------------------------------------------------------------

    async def _route_jobs(self, method: str, path: str,
                          query: dict) -> Tuple[int, object, dict]:
        tail = path[len("/v1/jobs/"):]
        if tail.endswith("/cancel") and method == "POST":
            return await self._cancel(self._lookup(tail[:-len("/cancel")]))
        if method != "GET":
            raise ServeError(405, f"{method} not allowed on {path}")
        if tail.endswith("/trace"):
            return await self._job_trace(
                self._lookup(tail[:-len("/trace")]), query
            )
        return await self._job_status(self._lookup(tail))

    async def _fetch_parts(self, job: RouterJob,
                           fetch) -> List[Tuple[str, dict]]:
        """Run ``fetch(client, remote_id)`` against every part; a dead
        replica yields a synthesized failed part document."""

        async def one(address: str, remote_id: str) -> Tuple[str, dict]:
            replica = self._replica_for(address)
            try:
                response = await fetch(replica.client, remote_id)
            except _TRANSPORT_ERRORS as exc:
                self._note_forward_failure(replica)
                return address, {
                    "schema": PROTOCOL_SCHEMA, "id": remote_id,
                    "state": FAILED,
                    "error": f"replica {address} unreachable: {exc}",
                }
            document = response.document
            if not isinstance(document, dict):
                document = {"schema": PROTOCOL_SCHEMA, "id": remote_id,
                            "state": FAILED,
                            "error": f"replica {address}: "
                                     f"{response.status}"}
            return address, document

        return list(await asyncio.gather(
            *[one(address, remote_id) for address, remote_id in job.parts]
        ))

    async def _job_status(self, job: RouterJob) -> Tuple[int, dict, dict]:
        parts = await self._fetch_parts(
            job, lambda client, remote_id: client.job(remote_id)
        )
        if job.kind == "run":
            merged = self._run_document(job, *parts[0])
        else:
            merged = self._merge_sweep_documents(job, parts)
        return 200, merged, trace_headers(merged.get("trace_id"))

    async def _cancel(self, job: RouterJob) -> Tuple[int, dict, dict]:
        parts = await self._fetch_parts(
            job, lambda client, remote_id: client.cancel(remote_id)
        )
        if job.kind == "run":
            return 200, self._run_document(job, *parts[0]), {}
        return 200, self._merge_sweep_documents(job, parts), {}

    async def _job_trace(self, job: RouterJob,
                         query: dict) -> Tuple[int, dict, dict]:
        fmt = query.get("format", "json").strip().lower()
        if fmt not in ("json", "perfetto"):
            raise ServeError(
                400, f"unknown trace format {fmt!r} (json, perfetto)"
            )
        parts = await self._fetch_parts(
            job, lambda client, remote_id: client.trace(remote_id)
        )
        span_lists = []
        trace_ids = []
        for address, document in parts:
            if "spans" not in document:
                raise ServeError(
                    502,
                    f"no trace from replica {address}: "
                    f"{document.get('error', 'missing spans')}",
                )
            trace_ids.append(document.get("trace_id"))
            span_lists.append([
                _sp.Span.from_dict(span) for span in document["spans"]
            ])
        merged_spans = _sp.merge_spans(*span_lists)
        if fmt == "perfetto":
            return 200, _sp.spans_to_chrome_trace(merged_spans), {}
        return 200, {
            "schema": _sp.SPAN_SCHEMA,
            "job": job.id,
            "trace_ids": trace_ids,
            "spans": [span.to_dict() for span in merged_spans],
        }, {}

    # ------------------------------------------------------------------
    # Aggregated metrics.
    # ------------------------------------------------------------------

    async def _metrics_response(self, query: dict) -> Tuple[int, object,
                                                            dict]:
        self._metrics_seq += 1
        fmt = query.get("format", "json").strip().lower()
        if fmt == "prometheus":
            # The router's own registry (routing, affinity, health
            # counters); fleet aggregation is the JSON document's job.
            text = self.metrics.to_prometheus()
            text += (
                "# TYPE repro_router_snapshot_seq counter\n"
                f"repro_router_snapshot_seq {self._metrics_seq}\n"
            )
            return 200, text, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            }
        if fmt != "json":
            raise ServeError(
                400, f"unknown metrics format {fmt!r} (json, prometheus)"
            )

        async def scrape(replica: ReplicaState):
            try:
                response = await replica.client.metrics()
                if response.ok and isinstance(response.document, dict):
                    return replica.address, response.document
            except _TRANSPORT_ERRORS:
                pass
            return replica.address, None

        scrapes = await asyncio.gather(
            *[scrape(replica) for replica in self.replicas.values()]
        )
        counters: Dict[str, int] = {}
        histograms: Dict[str, dict] = {}
        replica_docs: Dict[str, dict] = {}
        for address, document in sorted(scrapes):
            if document is None:
                replica_docs[address] = {"up": False}
                continue
            fleet = document.get("metrics", {})
            for name, value in fleet.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, hist in fleet.get("histograms", {}).items():
                _merge_histogram(histograms, name, hist)
            replica_docs[address] = {
                "up": True,
                "snapshot": document.get("snapshot"),
                "gauges": fleet.get("gauges", {}),
            }
        return 200, {
            "schema": "repro.serve_metrics/1",
            "role": "router",
            "snapshot_seq": self._metrics_seq,
            "started_unix": self._started_unix,
            "router": self.metrics.as_dict(),
            "aggregated": {
                "counters": dict(sorted(counters.items())),
                "histograms": dict(sorted(histograms.items())),
            },
            "replicas": replica_docs,
        }, {"Content-Type": "application/json"}


def _merge_histogram(into: Dict[str, dict], name: str, hist: dict) -> None:
    """Merge one replica histogram (``Histogram.as_dict`` shape) into
    the fleet aggregate — bucket-wise when the bounds agree."""
    current = into.get(name)
    if current is None:
        into[name] = {key: (list(value) if isinstance(value, list)
                            else value)
                      for key, value in hist.items()}
        return
    if current.get("bounds") != hist.get("bounds"):
        return  # incompatible layouts; keep the first replica's view
    current["counts"] = [
        a + b for a, b in zip(current["counts"], hist["counts"])
    ]
    current["count"] += hist["count"]
    current["total"] += hist["total"]
    current["mean"] = (
        current["total"] / current["count"] if current["count"] else None
    )
    mins = [v for v in (current.get("min"), hist.get("min"))
            if v is not None]
    maxes = [v for v in (current.get("max"), hist.get("max"))
             if v is not None]
    current["min"] = min(mins) if mins else None
    current["max"] = max(maxes) if maxes else None
