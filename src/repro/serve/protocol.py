"""The versioned wire protocol (``repro.serve/1``): typed request and
response documents, job records, and request normalization.

This module is the single definition of what travels over the wire.
The service, the router, the load generator, the typed client, and the
tests all consume these shapes instead of hand-rolled dicts:

* :class:`SubmitRequest` — the ``POST /v1/run`` / ``POST /v1/sweep``
  request body (client side constructs it, ``to_wire()`` stamps the
  schema version);
* :class:`JobDocument` — the job status/result/cancel response;
* :class:`ErrorDocument` — every error response, any status;
* :func:`ensure_request_schema` — server-side version check: a payload
  stamped with an unknown or mismatched ``schema`` is answered with a
  structured 400 instead of being half-interpreted.

Every HTTP response (service and router, JSON and text) additionally
carries the protocol version in the ``X-Repro-Schema`` header — see
:mod:`repro.serve.http`.

Everything the HTTP layer accepts is validated here, *before* a job is
admitted — an invalid scene, technique spec, or scale never reaches the
scheduler.  Normalization reuses the exact front doors the rest of the
codebase uses (:meth:`repro.api.RunRequest.from_dict`,
:func:`repro.api.parse_technique`, the scale registry), so a served
request and a direct :func:`repro.api.run` call resolve to the same
:class:`~repro.core.Technique` / :class:`~repro.core.Scale` objects and
therefore the same bit-identical results.

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.pipeline import BASELINE, Scale, Technique, speedup
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
    if not isinstance(payload, dict):
        return
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
    replica: Optional[str] = None  # stamped by the router

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
                     "result", "error", "replica"):
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
            replica=doc.get("replica"),
        )


@dataclass(frozen=True)
class SubmitRequest:
    """A typed ``POST /v1/run`` / ``POST /v1/sweep`` request body.

    The client-side counterpart of :func:`normalize_run` /
    :func:`normalize_sweep`: the load generator, the scenario harness,
    and the tests construct one of these and put ``to_wire()`` on the
    wire, so every request the fleet emits is schema-stamped.
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

    @classmethod
    def from_wire(cls, kind: str, payload: dict) -> "SubmitRequest":
        _check_wire_schema(payload, what="submit request")
        scenes = payload.get("scenes")
        return cls(
            kind=kind,
            scene=payload.get("scene"),
            scenes=tuple(scenes) if scenes is not None else None,
            technique=payload.get("technique", "baseline"),
            scale=payload.get("scale", "default"),
            workload=payload.get("workload", "render"),
            baseline=payload.get("baseline"),
            deadline_s=payload.get("deadline_s"),
            wait=bool(payload.get("wait", False)),
        )


def _coerce_technique(spec) -> Technique:
    from ..api import parse_technique

    try:
        return parse_technique(spec)
    except (ValueError, TypeError) as exc:
        raise ServeError(400, f"bad technique: {exc}")


def _coerce_scene(name) -> str:
    from ..scenes import ALL_SCENES, QUERY_SCENES

    scene = str(name).strip().upper()
    if scene not in ALL_SCENES and scene not in QUERY_SCENES:
        known = ", ".join((*ALL_SCENES, *QUERY_SCENES))
        raise ServeError(400, f"unknown scene {name!r} (known: {known})")
    return scene


def _check_workload(scene: str, workload: str) -> str:
    """Validate the workload name and its scene-kind compatibility
    (400 for both, so clients hear about a bad pairing at submit time,
    not from a failed job)."""
    from ..queries.workloads import check_scene_workload

    try:
        check_scene_workload(scene, workload)
    except (ValueError, TypeError) as exc:
        raise ServeError(400, str(exc))
    return workload


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


@dataclass(frozen=True)
class RunSpec:
    """A validated ``POST /v1/run`` request."""

    scene: str
    technique: Technique
    scale: Scale
    include_baseline: bool = False
    deadline_s: Optional[float] = None
    workload: str = "render"

    @property
    def cache_key(self) -> tuple:
        return ("run", self.scene, repr(self.technique), self.scale.name,
                self.include_baseline, self.workload)

    def trace_pairs(self) -> List[tuple]:
        """(scene, technique, workload) triples whose traces this job
        will need — the scheduler coalesces these across the whole
        batch."""
        pairs = [(self.scene, self.technique, self.workload)]
        if self.include_baseline:
            pairs.append((self.scene, BASELINE, self.workload))
        return pairs

    def exec_jobs(self) -> list:
        from ..exec.executor import Job

        jobs = [Job(self.scene, self.technique, self.scale,
                    workload=self.workload)]
        if self.include_baseline:
            jobs.append(Job(self.scene, BASELINE, self.scale,
                            workload=self.workload))
        return jobs

    def describe(self) -> dict:
        doc = {
            "kind": "run",
            "scene": self.scene,
            "technique": self.technique.label(),
            "scale": self.scale.name,
        }
        if self.workload != "render":
            doc["workload"] = self.workload
        if self.include_baseline:
            doc["baseline"] = True
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        return doc

    def evaluate(self) -> dict:
        """Run the request and build its result document.

        Artifacts and (usually) the experiment itself are already warm:
        the scheduler prewarms traces for the whole batch and, with a
        worker pool, seeds the result memoizer before this is called.
        """
        from ..api import run as api_run

        result = api_run(self.scene, self.technique, self.scale,
                         workload=self.workload)
        doc = {
            "kind": "run",
            "scene": self.scene,
            "technique": self.technique.label(),
            "scale": self.scale.name,
            "cycles": result.cycles,
            "stats": simstats_to_dict(result.stats),
        }
        if self.workload != "render":
            doc["workload"] = self.workload
        if self.include_baseline:
            base = api_run(self.scene, BASELINE, self.scale,
                           workload=self.workload)
            doc["baseline_cycles"] = base.cycles
            doc["speedup"] = speedup(base.experiment, result.experiment)
            doc["baseline_stats"] = simstats_to_dict(base.stats)
        return doc


@dataclass(frozen=True)
class SweepSpec:
    """A validated ``POST /v1/sweep`` request."""

    technique: Technique
    scenes: Tuple[str, ...]
    scale: Scale
    baseline: Technique = BASELINE
    deadline_s: Optional[float] = None
    workload: str = "render"

    @property
    def cache_key(self) -> tuple:
        return ("sweep", self.scenes, repr(self.technique),
                repr(self.baseline), self.scale.name, self.workload)

    def trace_pairs(self) -> List[tuple]:
        return [
            (scene, technique, self.workload)
            for scene in self.scenes
            for technique in (self.baseline, self.technique)
        ]

    def exec_jobs(self) -> list:
        from ..exec.executor import Job

        return [
            Job(scene, technique, self.scale, workload=self.workload)
            for scene in self.scenes
            for technique in (self.baseline, self.technique)
        ]

    def describe(self) -> dict:
        doc = {
            "kind": "sweep",
            "technique": self.technique.label(),
            "scenes": list(self.scenes),
            "scale": self.scale.name,
        }
        if self.workload != "render":
            doc["workload"] = self.workload
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        return doc

    def evaluate(self) -> dict:
        from ..api import sweep as api_sweep

        outcome = api_sweep(
            self.technique, list(self.scenes), self.scale,
            baseline=self.baseline, workload=self.workload,
        )
        gains = {}
        scenes_doc = {}
        for scene in self.scenes:
            pair = outcome.outcomes[scene]
            gains[scene] = pair.speedup
            scenes_doc[scene] = {
                "baseline_cycles": pair.baseline.cycles,
                "cycles": pair.candidate.cycles,
                "speedup": pair.speedup,
            }
        doc = {
            "kind": "sweep",
            "technique": self.technique.label(),
            "scale": self.scale.name,
            "gmean_speedup": geomean(list(gains.values())) if gains else 1.0,
            "scenes": scenes_doc,
        }
        if self.workload != "render":
            doc["workload"] = self.workload
        return doc


#: Serving-level request fields layered on top of the facade's own
#: ``RunRequest`` / ``SweepRequest`` wire schema.
_SERVE_RUN_FIELDS = ("schema", "baseline", "deadline_s", "wait")
_SERVE_SWEEP_FIELDS = ("schema", "deadline_s", "wait")

#: Facade fields that are runtime knobs, not wire-transportable work:
#: the service rejects them instead of silently ignoring them.
_SERVER_SIDE_FIELDS = ("cache",)


def _reject_server_side_fields(payload: dict) -> None:
    for name in _SERVER_SIDE_FIELDS:
        if name in payload:
            raise ServeError(
                400,
                f"field {name!r} is not supported over the wire; "
                "configure it on the server instead "
                "(CLI flag or REPRO_* environment variable)",
            )


def normalize_run(payload: dict) -> RunSpec:
    if not isinstance(payload, dict):
        raise ServeError(400, "request body must be a JSON object")
    ensure_request_schema(payload)
    _reject_server_side_fields(payload)
    if "scene" not in payload:
        raise ServeError(400, "missing required field 'scene'")
    # The facade's own wire schema validates field names (with
    # near-miss suggestions) and the technique/scale values — the
    # service no longer keeps a parallel copy of that logic.
    from ..api import RunRequest as ApiRunRequest
    from ..api.facade import _coerce_scale

    try:
        request = ApiRunRequest.from_dict(
            payload, ignore=_SERVE_RUN_FIELDS
        )
    except (ValueError, TypeError) as exc:
        raise ServeError(400, str(exc))
    scene = _coerce_scene(request.scene)
    return RunSpec(
        scene=scene,
        technique=_coerce_technique(request.technique),
        scale=_coerce_scale(request.scale),
        include_baseline=bool(payload.get("baseline", False)),
        deadline_s=_coerce_deadline(payload),
        workload=_check_workload(scene, request.workload),
    )


def normalize_sweep(payload: dict) -> SweepSpec:
    if not isinstance(payload, dict):
        raise ServeError(400, "request body must be a JSON object")
    ensure_request_schema(payload)
    _reject_server_side_fields(payload)
    if "technique" not in payload:
        raise ServeError(400, "missing required field 'technique'")
    from ..api import SweepRequest as ApiSweepRequest
    from ..api.facade import _coerce_scale

    try:
        request = ApiSweepRequest.from_dict(
            payload, ignore=_SERVE_SWEEP_FIELDS
        )
    except (ValueError, TypeError) as exc:
        raise ServeError(400, str(exc))
    scenes = request.scenes
    if scenes is None:
        if request.workload != "render":
            from ..queries.workloads import WORKLOAD_SCENE_KIND
            from ..scenes import QUERY_SCENES, SCENE_KINDS

            kind = WORKLOAD_SCENE_KIND.get(request.workload)
            scenes = tuple(
                name for name in QUERY_SCENES
                if SCENE_KINDS.get(name) == kind
            )
        else:
            from ..scenes import ALL_SCENES

            scenes = tuple(ALL_SCENES)
    if not scenes:
        raise ServeError(400, "'scenes' must be a non-empty list")
    coerced = tuple(_coerce_scene(scene) for scene in scenes)
    workload = request.workload
    for scene in coerced:
        workload = _check_workload(scene, workload)
    return SweepSpec(
        technique=_coerce_technique(request.technique),
        scenes=coerced,
        scale=_coerce_scale(request.scale),
        baseline=_coerce_technique(request.baseline),
        deadline_s=_coerce_deadline(payload),
        workload=workload,
    )


@dataclass
class JobRecord:
    """One admitted job, from queue to terminal state."""

    id: str
    spec: object  # RunSpec | SweepSpec
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
        if self.deadline is None and self.spec.deadline_s is not None:
            self.deadline = self.submitted + self.spec.deadline_s

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
            request=self.spec.describe(),
            created_unix=self.created_unix,
            cached=self.cached,
            trace_id=self.trace_id,
            queue_wait_s=self.queue_wait_s,
            latency_s=self.latency_s,
            result=self.result,
            error=self.error,
        ).to_wire()
