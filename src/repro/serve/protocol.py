"""The versioned wire protocol (``repro.serve/1``): typed request and
response documents, job records, and request normalization.

This module is the single definition of what travels over the wire.
The service, the load generator, the typed client, and the tests all
consume these shapes instead of hand-rolled dicts:

* :class:`SubmitRequest` — the ``POST /v1/run`` / ``POST /v1/sweep``
  request body (client side constructs it, ``to_wire()`` stamps the
  schema version);
* :class:`ServedJob` — a validated submission: the parsed
  :class:`repro.api.RunRequest` / :class:`repro.api.SweepRequest` plus
  the serving envelope (``deadline_s``, ``wait``, and the run-only
  ``baseline`` flag);
* :class:`JobDocument` — the job status/result/cancel response;
* :func:`run_document` / :func:`sweep_result_document` — the one
  builder of each kind of result, used by the service and by
  ``repro run``/``repro sweep --json``;
* :class:`ErrorDocument` — every error response, any status;
* :func:`ensure_request_schema` — server-side version check: a payload
  stamped with an unknown or mismatched ``schema`` is answered with a
  structured 400 instead of being half-interpreted.

Every HTTP response of the service (JSON and text) additionally
carries the protocol version in the ``X-Repro-Schema`` header — see
:mod:`repro.serve.http`.

There is one request model.  :func:`normalize_run` /
:func:`normalize_sweep` hand the body to the api's own
``RunRequest.from_dict`` / ``SweepRequest.from_dict``, which validate
the field names, the scene, technique, scale and workload and the
scene/workload pairing, so an invalid request is a 400 before a job is
admitted and a served request resolves to the same objects, and the
same bit-identical results, as a direct :func:`repro.api.run` call.
Serve adds only its envelope fields and refuses the api's runtime
knobs ``cache`` and ``jobs``.

Job lifecycle::

    queued -> running -> done
                      -> failed      (evaluation raised)
                      -> timeout     (deadline expired, queued or running)
           -> cancelled              (cancel before dispatch)
           -> timeout                (deadline expired while queued)

All state transitions happen on the service's event-loop thread; the
batch worker thread only *computes* and hands outcomes back, so records
never need locks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from ..api.facade import RunRequest, SweepRequest, _default_scenes
from ..core.pipeline import BASELINE, Technique
from ..core.report import geomean
from ..obs.report import simstats_to_dict

PROTOCOL_SCHEMA = "repro.serve/1"

#: Response header carrying the wire-protocol version on **every**
#: response (including text bodies that cannot carry a JSON field).
SCHEMA_HEADER = "X-Repro-Schema"

#: Job states, as they appear in ``GET /v1/jobs/<id>`` documents.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"
CANCELLED = "cancelled"

TERMINAL_STATES = (DONE, FAILED, TIMEOUT, CANCELLED)


class ServeError(Exception):
    """An HTTP-mappable request error (bad payload, full queue, ...)."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None,
                 code: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        self.code = code

    def document(self) -> dict:
        """The structured error body for this failure."""
        return ErrorDocument(
            error=self.message, status=self.status, code=self.code
        ).to_wire()


class WireError(ValueError):
    """A response document that does not parse as ``repro.serve/1``
    (client side: unknown schema, missing required fields)."""


def _check_wire_schema(doc: dict, *, what: str) -> None:
    if not isinstance(doc, dict):
        raise WireError(f"{what} must be a JSON object, got "
                        f"{type(doc).__name__}")
    schema = doc.get("schema")
    if schema != PROTOCOL_SCHEMA:
        raise WireError(
            f"{what} carries schema {schema!r}, expected {PROTOCOL_SCHEMA!r}"
        )


def ensure_request_schema(payload: dict) -> None:
    """Server-side version gate: a request body stamped with a schema
    other than ``repro.serve/1`` gets a structured 400 (the stamp is
    optional — unstamped bodies are accepted as the current version)."""
    schema = payload.get("schema")
    if schema is not None and schema != PROTOCOL_SCHEMA:
        raise ServeError(
            400,
            f"unsupported wire schema {schema!r} "
            f"(this server speaks {PROTOCOL_SCHEMA})",
            code="schema_mismatch",
        )


@dataclass(frozen=True)
class ErrorDocument:
    """The body of every error response (any 4xx/5xx status)."""

    error: str
    status: int = 0
    code: Optional[str] = None  # machine-readable tag, e.g. schema_mismatch

    def to_wire(self) -> dict:
        doc = {"schema": PROTOCOL_SCHEMA, "error": self.error}
        if self.status:
            doc["status"] = self.status
        if self.code is not None:
            doc["code"] = self.code
        return doc

    @classmethod
    def from_wire(cls, doc: dict) -> "ErrorDocument":
        _check_wire_schema(doc, what="error document")
        if "error" not in doc:
            raise WireError("error document is missing 'error'")
        return cls(
            error=str(doc["error"]),
            status=int(doc.get("status", 0) or 0),
            code=doc.get("code"),
        )


@dataclass(frozen=True)
class JobDocument:
    """The typed view of a job response (submit/status/cancel).

    ``JobRecord.as_document()`` renders through this class, so the
    dict the service emits and the object the client parses can never
    drift apart.
    """

    id: str
    state: str
    request: Optional[dict] = None
    created_unix: Optional[float] = None
    cached: bool = False
    trace_id: Optional[str] = None
    queue_wait_s: Optional[float] = None
    latency_s: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def ok(self) -> bool:
        return self.state == DONE

    def to_wire(self) -> dict:
        doc = {
            "schema": PROTOCOL_SCHEMA,
            "id": self.id,
            "state": self.state,
            "cached": self.cached,
        }
        if self.request is not None:
            doc["request"] = self.request
        if self.created_unix is not None:
            doc["created_unix"] = self.created_unix
        for name in ("trace_id", "queue_wait_s", "latency_s",
                     "result", "error"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        return doc

    @classmethod
    def from_wire(cls, doc: dict) -> "JobDocument":
        _check_wire_schema(doc, what="job document")
        for required in ("id", "state"):
            if required not in doc:
                raise WireError(f"job document is missing {required!r}")
        return cls(
            id=str(doc["id"]),
            state=str(doc["state"]),
            request=doc.get("request"),
            created_unix=doc.get("created_unix"),
            cached=bool(doc.get("cached", False)),
            trace_id=doc.get("trace_id"),
            queue_wait_s=doc.get("queue_wait_s"),
            latency_s=doc.get("latency_s"),
            result=doc.get("result"),
            error=doc.get("error"),
        )


@dataclass(frozen=True)
class SubmitRequest:
    """A typed ``POST /v1/run`` / ``POST /v1/sweep`` request body.

    The client-side counterpart of :func:`normalize_run` /
    :func:`normalize_sweep`: the load generator and the tests construct
    one of these and put ``to_wire()`` on the wire, so every request a
    client emits is schema-stamped.
    """

    kind: str = "run"  # "run" | "sweep"
    scene: Optional[str] = None  # run
    scenes: Optional[Tuple[str, ...]] = None  # sweep (None = full library)
    technique: str = "baseline"
    scale: str = "default"
    workload: str = "render"
    baseline: object = None  # bool for run, technique spec for sweep
    deadline_s: Optional[float] = None
    wait: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("run", "sweep"):
            raise ValueError(f"unknown submit kind {self.kind!r}")
        if self.kind == "run" and self.scene is None:
            raise ValueError("run submissions require a scene")

    @property
    def path(self) -> str:
        return f"/v1/{self.kind}"

    def to_wire(self) -> dict:
        doc: Dict[str, object] = {
            "schema": PROTOCOL_SCHEMA,
            "technique": self.technique,
            "scale": self.scale,
        }
        if self.workload != "render":
            doc["workload"] = self.workload
        if self.kind == "run":
            doc["scene"] = self.scene
            if self.baseline:
                doc["baseline"] = bool(self.baseline)
        else:
            if self.scenes is not None:
                doc["scenes"] = list(self.scenes)
            if self.baseline is not None:
                doc["baseline"] = self.baseline
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        if self.wait:
            doc["wait"] = True
        return doc


def _coerce_deadline(payload: dict) -> Optional[float]:
    raw = payload.get("deadline_s")
    if raw is None:
        return None
    try:
        deadline = float(raw)
    except (TypeError, ValueError):
        raise ServeError(400, f"deadline_s must be a number, got {raw!r}")
    if deadline < 0:
        raise ServeError(400, "deadline_s must be non-negative")
    return deadline


def sweep_result_document(request: SweepRequest, outcome) -> dict:
    """The one builder of a sweep result, for ``POST /v1/sweep`` and
    ``repro sweep --json``: each scene's cycles, speedup and both runs'
    SimStats, in request order, and the gmean of the speedups."""
    scenes = {
        scene: {
            "baseline_cycles": pair.baseline.cycles,
            "cycles": pair.candidate.cycles,
            "speedup": pair.speedup,
            "stats": simstats_to_dict(pair.candidate.stats),
            "baseline_stats": simstats_to_dict(pair.baseline.stats),
        }
        for scene, pair in outcome.outcomes.items()
    }
    speedups = [entry["speedup"] for entry in scenes.values()]
    doc = {
        "kind": "sweep",
        "technique": outcome.technique.label(),
        "scale": request.scale.name,
        "gmean_speedup": geomean(speedups) if speedups else 1.0,
        "scenes": scenes,
    }
    if request.workload != "render":
        doc["workload"] = request.workload
    return doc


def run_document(result, base=None) -> dict:
    """The one builder of a run result, for ``POST /v1/run`` and
    ``repro run --json``: the run's SimStats and, given the ``base``
    run of the baseline, the speedup and power ratio over it."""
    doc = {
        "kind": "run",
        "scene": result.scene,
        "technique": result.technique.label(),
        "scale": result.scale.name,
        "cycles": result.cycles,
        "stats": simstats_to_dict(result.stats),
    }
    if result.workload != "render":
        doc["workload"] = result.workload
    if base is not None:
        doc["baseline_cycles"] = base.cycles
        doc["speedup"] = result.speedup_over(base)
        doc["power_ratio"] = result.power.avg_power / base.power.avg_power
        doc["baseline_stats"] = simstats_to_dict(base.stats)
    return doc


@dataclass(frozen=True)
class ServedJob:
    """A validated submission: the api request plus its serving envelope.

    ``request`` is a parsed :class:`~repro.api.RunRequest` (``/v1/run``)
    or :class:`~repro.api.SweepRequest` (``/v1/sweep``).  The envelope is
    ``deadline_s``, ``wait``, and, for runs only, ``baseline`` (also
    replay the baseline and report the speedup).  Everything the
    scheduler and service need is derived here.
    """

    request: Union[RunRequest, SweepRequest]
    deadline_s: Optional[float] = None
    wait: bool = False
    baseline: bool = False

    @property
    def kind(self) -> str:
        return "run" if isinstance(self.request, RunRequest) else "sweep"

    @property
    def cache_key(self) -> tuple:
        """The result-LRU key."""
        return (self.request, self.baseline)

    @property
    def scenes(self) -> Tuple[str, ...]:
        request = self.request
        if self.kind == "run":
            return (request.scene,)
        if request.scenes is not None:
            return request.scenes
        return tuple(_default_scenes(request.workload))

    def _experiments(self) -> List[Tuple[str, Technique]]:
        request = self.request
        if self.kind == "run":
            techniques = (request.technique,)
            if self.baseline:
                techniques += (BASELINE,)
        else:
            techniques = (request.baseline, request.technique)
        return [(scene, technique) for scene in self.scenes
                for technique in techniques]

    def trace_pairs(self) -> List[tuple]:
        """(scene, technique, workload) triples whose traces this job
        will need — the scheduler coalesces these across the whole
        batch."""
        return [(scene, technique, self.request.workload)
                for scene, technique in self._experiments()]

    def exec_jobs(self) -> list:
        from ..exec.executor import Job

        return [Job(scene, technique, self.request.scale,
                    workload=self.request.workload)
                for scene, technique in self._experiments()]

    def describe(self) -> dict:
        """The lossless ``request`` echo: the api request's wire form
        plus the envelope fields that are set."""
        doc = {"kind": self.kind, **self.request.to_dict()}
        if self.baseline:
            doc["baseline"] = True
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        if self.wait:
            doc["wait"] = True
        return doc

    def evaluate(self) -> dict:
        """Run the request and build its result document.

        Artifacts and (usually) the experiments themselves are already
        warm: the scheduler prewarms traces for the whole batch and,
        with a worker pool, seeds the memo with the results before this is
        called.
        """
        from ..api import run, sweep

        request = self.request
        if self.kind == "sweep":
            return sweep_result_document(request, sweep(request))
        result = run(request)
        base = (run(replace(request, technique=BASELINE))
                if self.baseline else None)
        return run_document(result, base)


#: Serving-level request fields layered on top of the facade's own
#: ``RunRequest`` / ``SweepRequest`` wire schema.
_SERVE_RUN_FIELDS = ("schema", "baseline", "deadline_s", "wait")
_SERVE_SWEEP_FIELDS = ("schema", "deadline_s", "wait")

#: Facade fields that are runtime knobs, not wire-transportable work:
#: the service rejects them instead of silently ignoring them.
_SERVER_SIDE_FIELDS = ("cache", "jobs")


def _normalize(request_type, payload: dict, query: Optional[dict],
               required: str, envelope: tuple) -> ServedJob:
    if not isinstance(payload, dict):
        raise ServeError(400, "request body must be a JSON object")
    ensure_request_schema(payload)
    for name in _SERVER_SIDE_FIELDS:
        if name in payload:
            raise ServeError(
                400,
                f"field {name!r} is not supported over the wire; "
                "configure it on the server instead "
                "(CLI flag or REPRO_* environment variable)",
            )
    if required not in payload:
        raise ServeError(400, f"missing required field {required!r}")
    try:
        request = request_type.from_dict(payload, ignore=envelope)
    except (ValueError, TypeError) as exc:
        raise ServeError(400, str(exc))
    wait = bool(payload.get("wait")) or (query or {}).get("wait", "") in (
        "1", "true", "yes"
    )
    return ServedJob(
        request=request,
        deadline_s=_coerce_deadline(payload),
        wait=wait,
        baseline=(request_type is RunRequest
                  and bool(payload.get("baseline", False))),
    )


def normalize_run(payload: dict, query: Optional[dict] = None) -> ServedJob:
    """Validate a ``POST /v1/run`` body (``query`` may carry ``wait``)."""
    return _normalize(RunRequest, payload, query, "scene", _SERVE_RUN_FIELDS)


def normalize_sweep(payload: dict,
                    query: Optional[dict] = None) -> ServedJob:
    """Validate a ``POST /v1/sweep`` body (``query`` may carry ``wait``)."""
    return _normalize(SweepRequest, payload, query, "technique",
                      _SERVE_SWEEP_FIELDS)


@dataclass
class JobRecord:
    """One admitted job, from queue to terminal state."""

    id: str
    served: ServedJob
    state: str = QUEUED
    created_unix: float = field(default_factory=time.time)
    submitted: float = field(default_factory=time.monotonic)
    started: Optional[float] = None
    finished: Optional[float] = None
    deadline: Optional[float] = None  # monotonic, from submit + deadline_s
    result: Optional[dict] = None
    error: Optional[str] = None
    cached: bool = False
    cancel_requested: bool = False
    done_event: Optional[object] = None  # asyncio.Event, set by the service
    trace_id: Optional[str] = None  # repro.obs.spans trace for this request
    span_id: Optional[str] = None  # the request's root span
    #: Callbacks invoked exactly once on the first terminal transition
    #: (the service closes the request's root span here).
    finalizers: List = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.deadline is None and self.served.deadline_s is not None:
            self.deadline = self.submitted + self.served.deadline_s

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        if self.deadline is None:
            return None
        now = time.monotonic() if now is None else now
        return max(0.0, self.deadline - now)

    def finalize(self, state: str, *, result: Optional[dict] = None,
                 error: Optional[str] = None) -> None:
        """Move to a terminal state (idempotent; first transition wins)."""
        if self.terminal:
            return
        self.state = state
        self.result = result
        self.error = error
        self.finished = time.monotonic()
        finalizers, self.finalizers = list(self.finalizers), []
        for finalizer in finalizers:
            # Finalizers are observability hooks; they must never block
            # the state transition or the done_event wakeup.
            try:
                finalizer(self)
            except Exception:  # noqa: BLE001 — observer isolation
                pass
        if self.done_event is not None:
            self.done_event.set()

    @property
    def queue_wait_s(self) -> Optional[float]:
        if self.started is None:
            return None
        return self.started - self.submitted

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished is None:
            return None
        return self.finished - self.submitted

    def as_document(self) -> dict:
        """Render through :class:`JobDocument` so the dict the service
        emits and the object the client parses can never drift."""
        return JobDocument(
            id=self.id,
            state=self.state,
            request=self.served.describe(),
            created_unix=self.created_unix,
            cached=self.cached,
            trace_id=self.trace_id,
            queue_wait_s=self.queue_wait_s,
            latency_s=self.latency_s,
            result=self.result,
            error=self.error,
        ).to_wire()
