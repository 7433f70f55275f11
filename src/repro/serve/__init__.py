"""repro.serve — async simulation service, shard router, and load tools.

The long-running entry points the ROADMAP's traffic-serving goal calls
for, all speaking the versioned ``repro.serve/1`` wire protocol:

* :class:`SimulationService` — a stdlib-only asyncio HTTP/JSON server
  that exposes the :mod:`repro.api` facade as a job-oriented API with
  micro-batched scheduling, bounded-queue backpressure (429 +
  ``Retry-After``), per-request deadlines, cancellation, graceful
  drain on SIGTERM, and an in-memory LRU result cache over the on-disk
  artifact cache.
* :class:`SceneShardRouter` — fronts N service replicas, sharding by
  scene fingerprint (rendezvous hashing) with health-check ejection,
  retry-with-backoff failover, bounded in-flight budgets, and
  aggregated ``/metrics`` and trace views.
* :mod:`repro.serve.scenarios` — declarative JSON/YAML load scenarios
  executed through the open-loop generator in
  :mod:`repro.serve.loadgen`, emitting ``repro.bench/1`` capacity
  reports with SLO verdicts.

Typical use::

    # terminals 1-3: replicas
    $ repro serve --port 8081 --workers 2   # ... 8082, 8083

    # terminal 4: router
    $ repro router --port 8078 --replica 127.0.0.1:8081 \
          --replica 127.0.0.1:8082 --replica 127.0.0.1:8083

    # terminal 5: capacity scenario against the router
    $ repro scenarios run examples/scenarios/smoke.json --port 8078

See ``docs/serving.md`` for endpoint, batching, and routing semantics.
"""

from .client import (
    AsyncServeClient,
    Response,
    ServeClient,
    TransportError,
    http_request_json,
)
from .loadgen import (
    ARRIVAL_PROCESSES,
    LoadGenConfig,
    LoadReport,
    RequestOutcome,
    RequestTemplate,
    run_loadgen,
    run_loadgen_async,
)
from .protocol import (
    CANCELLED,
    DONE,
    ErrorDocument,
    FAILED,
    JobDocument,
    JobRecord,
    PROTOCOL_SCHEMA,
    QUEUED,
    RUNNING,
    SCHEMA_HEADER,
    ServeError,
    ServedJob,
    SubmitRequest,
    TERMINAL_STATES,
    TIMEOUT,
    WireError,
    normalize_run,
    normalize_sweep,
)
from .router import RouterConfig, SceneShardRouter
from .scenarios import (
    SCENARIO_SCHEMA,
    Scenario,
    ScenarioError,
    SLOTarget,
    run_scenario,
)
from .scheduler import MicroBatchScheduler
from .service import ServeConfig, SimulationService

__all__ = [
    "ARRIVAL_PROCESSES",
    "AsyncServeClient",
    "CANCELLED",
    "DONE",
    "ErrorDocument",
    "FAILED",
    "JobDocument",
    "JobRecord",
    "LoadGenConfig",
    "LoadReport",
    "MicroBatchScheduler",
    "PROTOCOL_SCHEMA",
    "QUEUED",
    "RUNNING",
    "RequestOutcome",
    "RequestTemplate",
    "Response",
    "RouterConfig",
    "SCENARIO_SCHEMA",
    "SCHEMA_HEADER",
    "SLOTarget",
    "Scenario",
    "ScenarioError",
    "SceneShardRouter",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServedJob",
    "SimulationService",
    "SubmitRequest",
    "TERMINAL_STATES",
    "TIMEOUT",
    "TransportError",
    "WireError",
    "http_request_json",
    "normalize_run",
    "normalize_sweep",
    "run_loadgen",
    "run_loadgen_async",
    "run_scenario",
]
