"""Cross-process request spans: the serving layers' answer to the bus.

Where :mod:`repro.obs.bus` records *simulated* cycles inside one GPU
model, this module records *wall-clock* work across the production
layers — HTTP request handling, micro-batch formation, worker-pool
execution, pipeline phases — as a tree of spans that can be merged
across process boundaries into one timeline.

Three pieces:

* :class:`Span` / :class:`SpanContext` — one timed operation and the
  ``(trace_id, span_id)`` pair that parents it.  Spans serialize to
  plain dicts (``repro.spans/1``) so worker processes can ship them
  back inside :class:`repro.exec.ExecutionReport`.
* :class:`SpanCollector` — a thread-safe sink of finished spans.  One
  collector per process (the service owns one, each exec worker builds
  its own); ``merge_spans`` stitches them into one deterministic list.
* context propagation — a :mod:`contextvars` variable carries the
  active ``(collector, context)`` pair, so :func:`span` anywhere in the
  call stack (``repro.api``, pipeline phases) attaches to the right
  parent without plumbing arguments through every layer.

The contract mirrors the trace bus: **spans never perturb results**.
With no active context :func:`span` yields a shared no-op — one
contextvar read per call site — and ``tests/test_obs_invariance.py``
asserts SimStats stay bit-identical with collection on.

Export: :func:`repro.obs.chrome.chrome_trace` renders merged spans as
Chrome trace-event JSON, with a run's simulator tracks under its
``phase.replay`` span when given both.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

SPAN_SCHEMA = "repro.spans/1"

#: Default bound on retained spans per collector (long-running service
#: guard; extras are counted in ``dropped``).
DEFAULT_MAX_SPANS = 100_000


def new_id() -> str:
    """A fresh 64-bit hex id (trace or span)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """What a child span needs from its parent: trace and parent ids.

    ``span_id=None`` means "root of the trace": children created under
    this context become top-level spans of ``trace_id``.
    """

    trace_id: str
    span_id: Optional[str] = None

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: dict) -> "SpanContext":
        return cls(
            trace_id=data["trace_id"], span_id=data.get("span_id")
        )


@dataclass
class Span:
    """One timed operation in one process."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_unix: float
    end_unix: Optional[float] = None
    process: str = ""
    pid: int = 0
    cpu_s: Optional[float] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        if self.end_unix is None:
            return 0.0
        return max(0.0, self.end_unix - self.start_unix)

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "end_unix": self.end_unix,
            "process": self.process,
            "pid": self.pid,
            "cpu_s": self.cpu_s,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_unix=data["start_unix"],
            end_unix=data.get("end_unix"),
            process=data.get("process", ""),
            pid=data.get("pid", 0),
            cpu_s=data.get("cpu_s"),
            args=dict(data.get("args") or {}),
        )


class SpanCollector:
    """Thread-safe sink of finished (and in-flight) spans.

    One collector per process.  ``begin``/``end`` record live spans;
    ``record`` synthesizes a span from already-measured timestamps
    (queue waits measured with monotonic clocks); ``add_dicts`` merges
    spans shipped from another process.
    """

    def __init__(
        self,
        process: Optional[str] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.process = process if process is not None else f"pid-{os.getpid()}"
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._lock = Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def _append(self, span_: Span) -> None:
        with self._lock:
            if len(self.spans) < self.max_spans:
                self.spans.append(span_)
            else:
                self.dropped += 1

    def begin(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        trace_id: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> Span:
        """Open a span now.  The span is retained immediately (so an
        unfinished span still shows up, with ``end_unix=None``)."""
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else new_id()
        span_ = Span(
            name=name,
            trace_id=trace_id,
            span_id=new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_unix=time.time(),
            process=self.process,
            pid=os.getpid(),
            cpu_s=-time.process_time(),  # completed by end()
            args=dict(args or {}),
        )
        self._append(span_)
        return span_

    def end(self, span_: Span, **args) -> Span:
        """Close a span (idempotent; the first close wins)."""
        if span_.end_unix is None:
            span_.end_unix = time.time()
            if span_.cpu_s is not None and span_.cpu_s < 0:
                span_.cpu_s = time.process_time() + span_.cpu_s
        if args:
            span_.args.update(args)
        return span_

    def record(
        self,
        name: str,
        start_unix: float,
        end_unix: float,
        parent: Optional[SpanContext] = None,
        trace_id: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> Span:
        """Retain a span whose interval was measured elsewhere."""
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else new_id()
        span_ = Span(
            name=name,
            trace_id=trace_id,
            span_id=new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_unix=start_unix,
            end_unix=end_unix,
            process=self.process,
            pid=os.getpid(),
            args=dict(args or {}),
        )
        self._append(span_)
        return span_

    def add_dicts(self, span_dicts: Iterable[dict]) -> int:
        """Merge serialized spans shipped from another process."""
        count = 0
        for data in span_dicts:
            self._append(Span.from_dict(data))
            count += 1
        return count

    def for_trace(self, trace_id: str) -> List[Span]:
        with self._lock:
            spans = [s for s in self.spans if s.trace_id == trace_id]
        return merge_spans(spans)

    def snapshot(self) -> List[Span]:
        with self._lock:
            return list(self.spans)

    def to_dicts(self) -> List[dict]:
        return [s.to_dict() for s in self.snapshot()]


# ---------------------------------------------------------------------------
# Context propagation.
# ---------------------------------------------------------------------------

#: The ambient (collector, context) pair; None = collection inactive.
_ACTIVE: "ContextVar[Optional[Tuple[SpanCollector, SpanContext]]]" = (
    ContextVar("repro_obs_span_context", default=None)
)


def activate(collector: SpanCollector, context: SpanContext):
    """Make ``collector``/``context`` ambient for this thread/task.
    Returns a token for :func:`deactivate`."""
    return _ACTIVE.set((collector, context))


def deactivate(token) -> None:
    _ACTIVE.reset(token)


def current_context() -> Optional[SpanContext]:
    """The ambient span context, or None when collection is inactive."""
    state = _ACTIVE.get()
    return state[1] if state is not None else None


def active_collector() -> Optional[SpanCollector]:
    state = _ACTIVE.get()
    return state[0] if state is not None else None


class _NoopSpan:
    """Shared do-nothing context manager for inactive call sites."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *_exc):
        return False


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context manager around one collector-backed span."""

    __slots__ = ("_collector", "_span", "_token")

    def __init__(self, collector: SpanCollector, span_: Span) -> None:
        self._collector = collector
        self._span = span_
        self._token = _ACTIVE.set((collector, span_.context))

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, _tb):
        _ACTIVE.reset(self._token)
        if exc_type is not None:
            self._span.args.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._collector.end(self._span)
        return False


def span(name: str, **args):
    """Open a child span of the ambient context (no-op when inactive).

    Usage::

        with span("phase.replay", scene=scene) as s:
            ...            # s is None when collection is inactive
    """
    state = _ACTIVE.get()
    if state is None:
        return _NOOP
    collector, context = state
    return _LiveSpan(
        collector, collector.begin(name, parent=context, args=args or None)
    )


@contextmanager
def collect(process: str = "local", trace_id: Optional[str] = None):
    """Collect spans for a block: yields the activated collector.

    The CLI uses this (``repro run --spans out.json``); tests too::

        with collect("test") as collector:
            api.run("WKND", ...)
        write_spans("out.json", collector.snapshot())
    """
    collector = SpanCollector(process=process)
    token = activate(
        collector, SpanContext(trace_id=trace_id or new_id(), span_id=None)
    )
    try:
        yield collector
    finally:
        deactivate(token)


# ---------------------------------------------------------------------------
# Merging and summaries.
# ---------------------------------------------------------------------------


def merge_spans(*span_lists: Sequence[Span]) -> List[Span]:
    """Stitch span lists (possibly from different processes) into one
    deterministically ordered, de-duplicated timeline."""
    seen = set()
    merged: List[Span] = []
    for spans in span_lists:
        for span_ in spans:
            key = (span_.trace_id, span_.span_id)
            if key in seen:
                continue
            seen.add(key)
            merged.append(span_)
    merged.sort(key=lambda s: (s.start_unix, s.trace_id, s.span_id))
    return merged


def summarize_spans(spans: Sequence[Span]) -> Dict[str, dict]:
    """Per-name wall/CPU totals: ``{name: {count, wall_s, cpu_s}}``."""
    summary: Dict[str, dict] = {}
    for span_ in spans:
        entry = summary.setdefault(
            span_.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        entry["count"] += 1
        entry["wall_s"] += span_.dur_s
        if span_.cpu_s is not None and span_.cpu_s >= 0:
            entry["cpu_s"] += span_.cpu_s
    return {name: summary[name] for name in sorted(summary)}


# ---------------------------------------------------------------------------
# Span-file I/O (the `repro obs` CLI's format).
# ---------------------------------------------------------------------------


def write_spans(path, spans: Sequence[Span]) -> Path:
    """Write a ``repro.spans/1`` document; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(
        {
            "schema": SPAN_SCHEMA,
            "spans": [s.to_dict() for s in merge_spans(spans)],
        },
        indent=2,
        sort_keys=True,
    ))
    return out


def load_spans(path) -> List[Span]:
    """Read spans back from a ``repro.spans/1`` document (the job-trace
    endpoint's JSON response parses too — same shape)."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SPAN_SCHEMA:
        raise ValueError(
            f"{path}: not a {SPAN_SCHEMA} document "
            f"(schema={data.get('schema')!r})"
        )
    return [Span.from_dict(entry) for entry in data.get("spans", [])]
