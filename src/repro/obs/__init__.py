"""repro.obs — observability for the GPU timing model.

Three layers:

* :mod:`repro.obs.bus` — the trace bus components publish typed events
  to (near-zero overhead when detached: one attribute check per site).
* :mod:`repro.obs.metrics` — named counters, gauge series, and
  fixed-bucket histograms aggregated from the event stream.
* exporters — :mod:`repro.obs.chrome` (one Chrome trace-event JSON
  writer for Perfetto / chrome://tracing: request spans, simulator
  cycle tracks, or both in one file with the cycle tracks under the
  run's ``phase.replay`` span) and :mod:`repro.obs.report` (the
  ``run_report.json`` schema).

:mod:`repro.obs.spans` records the wall-clock request spans the
writer's span half draws.  Typical use::

    from repro.api import run
    from repro.obs import Observer, collect, write_chrome_trace

    observer = Observer()
    with collect("cli") as collector:
        run("WKND", "treelet-prefetch", "smoke", observer=observer)
    write_chrome_trace("trace.json", collector.snapshot(),
                       observer.bus, observer.metrics)

Attaching an observer never changes simulation results (enforced by
``tests/test_obs_invariance.py``).
"""

from .bus import DEFAULT_MAX_EVENTS, TraceBus
from .chrome import chrome_trace, write_chrome_trace
from .events import (
    ALL_EVENT_KINDS,
    EV_CACHE_ACCESS,
    EV_DEMAND_COMPLETE,
    EV_DRAM_SERVICE,
    EV_MSHR_MERGE,
    EV_PREFETCH_DECISION,
    EV_PREFETCH_FILL,
    EV_PREFETCH_FIRST_HIT,
    EV_PREFETCH_ISSUE,
    EV_RTUNIT_STALL,
    EV_VOTER_DECIDE,
    EV_WARP_ISSUE,
    EV_WARP_RETIRE,
    TraceEvent,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricRegistry,
    nearest_rank,
    prometheus_name,
)
from .observer import DEFAULT_SAMPLE_INTERVAL, Observer, TIMELINESS_BUCKETS
from .report import (
    REPORT_SCHEMA,
    build_run_report,
    load_run_report,
    simstats_to_dict,
    write_run_report,
)
from .spans import (
    SPAN_SCHEMA,
    Span,
    SpanCollector,
    SpanContext,
    activate,
    active_collector,
    collect,
    current_context,
    deactivate,
    load_spans,
    merge_spans,
    new_id,
    span,
    summarize_spans,
    write_spans,
)

__all__ = [
    "ALL_EVENT_KINDS",
    "Counter",
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_SAMPLE_INTERVAL",
    "EV_CACHE_ACCESS",
    "EV_DEMAND_COMPLETE",
    "EV_DRAM_SERVICE",
    "EV_MSHR_MERGE",
    "EV_PREFETCH_DECISION",
    "EV_PREFETCH_FILL",
    "EV_PREFETCH_FIRST_HIT",
    "EV_PREFETCH_ISSUE",
    "EV_RTUNIT_STALL",
    "EV_VOTER_DECIDE",
    "EV_WARP_ISSUE",
    "EV_WARP_RETIRE",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricRegistry",
    "Observer",
    "REPORT_SCHEMA",
    "SPAN_SCHEMA",
    "Span",
    "SpanCollector",
    "SpanContext",
    "TIMELINESS_BUCKETS",
    "TraceBus",
    "TraceEvent",
    "activate",
    "active_collector",
    "build_run_report",
    "chrome_trace",
    "collect",
    "current_context",
    "deactivate",
    "load_run_report",
    "load_spans",
    "merge_spans",
    "nearest_rank",
    "new_id",
    "prometheus_name",
    "simstats_to_dict",
    "span",
    "summarize_spans",
    "write_chrome_trace",
    "write_spans",
]
