"""repro.serve — the async simulation service and its load tools.

The long-running entry point, speaking the versioned ``repro.serve/1``
wire protocol:

* :class:`SimulationService` — a stdlib-only asyncio HTTP/JSON server
  that exposes the :mod:`repro.api` facade as a job-oriented API with
  micro-batched scheduling, bounded-queue backpressure (429 +
  ``Retry-After``), per-request deadlines, cancellation, graceful
  drain on SIGTERM, and an in-memory LRU result cache over the on-disk
  artifact cache.
* :class:`ServeClient` / :class:`AsyncServeClient` — the typed client
  every caller talks to the service through.
* :mod:`repro.serve.loadgen` — the open-loop load generator behind
  ``repro loadgen``.

Typical use::

    # terminal 1: the service
    $ repro serve --port 8077 --workers 2

    # terminal 2: offered load against it
    $ repro loadgen --port 8077 --qps 8 --requests 50

See ``docs/serving.md`` for endpoint and batching semantics.
"""

from .client import (
    AsyncServeClient,
    Response,
    ServeClient,
    TransportError,
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
    "SCHEMA_HEADER",
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
    "normalize_run",
    "normalize_sweep",
    "run_loadgen",
    "run_loadgen_async",
]
