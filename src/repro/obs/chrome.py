"""Chrome trace-event JSON export (Perfetto / chrome://tracing).

One writer, :func:`chrome_trace`, renders both trace models into one
document:

* **Request spans** (:mod:`repro.obs.spans`, wall clock): one Perfetto
  process per recording ``(process, os pid)`` — the serve event loop and
  each exec worker get their own track group — and one thread row per
  trace within it, so concurrent requests render side by side while
  each request's spans nest by containment.  Timestamps are µs since
  the earliest span.
* **Simulator events** (:mod:`repro.obs.bus`, simulated cycles): the
  ``repro-gpusim`` process (pid 0, which no span process gets), one
  thread per bus track — one per SM, RT unit, cache, and DRAM
  partition — plus Chrome counter events for every registry gauge.  One
  cycle is one µs of trace time.  Cycle 0 sits at the start of the
  spans' ``phase.replay`` slice, so the cycle tracks line up under the
  replay that produced them; with no spans the ruler reads directly in
  cycles.

Span-shaped events become complete ("X") slices; point events become
thread-scoped instants ("i").  Adjacent per-cycle ``rtunit.stall``
events with the same reason are merged into single slices so a stalled
stretch reads as one bar instead of thousands of slivers; an MSHR-full
bar keeps its ``{"reason": "mshr"}``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .bus import TraceBus
from .events import EV_RTUNIT_STALL, TraceEvent
from .metrics import MetricRegistry
from .spans import Span, merge_spans

PROCESS_NAME = "repro-gpusim"
_GPUSIM_PID = 0


def _merge_stall_spans(events: List[TraceEvent]) -> List[TraceEvent]:
    """Coalesce adjacent/overlapping stall spans per (track, reason)."""
    groups: Dict[Tuple[str, Optional[str]], List[TraceEvent]] = {}
    for event in events:
        reason = event.args.get("reason") if event.args else None
        groups.setdefault((event.track, reason), []).append(event)
    merged: List[TraceEvent] = []
    for (track, reason), spans in groups.items():
        bars: List[List[int]] = []
        for span in sorted(spans, key=lambda e: e.cycle):
            start, end = span.cycle, span.cycle + (span.dur or 1)
            if bars and start <= bars[-1][1]:
                bars[-1][1] = max(bars[-1][1], end)
            else:
                bars.append([start, end])
        args = {"reason": reason} if reason else None
        merged.extend(
            TraceEvent(EV_RTUNIT_STALL, start, track, end - start, args)
            for start, end in bars
        )
    return merged


def _record(name: str, cat: str, ts: int, pid: int, tid: int,
            dur: Optional[int], args: Optional[dict]) -> dict:
    record = {"name": name, "cat": cat, "ts": ts, "pid": pid, "tid": tid}
    if dur is not None:
        record["ph"] = "X"
        record["dur"] = dur
    else:
        record["ph"] = "i"
        record["s"] = "t"
    if args:
        record["args"] = args
    return record


def chrome_trace(
    spans: Sequence[Span] = (),
    bus: Optional[TraceBus] = None,
    registry: Optional[MetricRegistry] = None,
) -> dict:
    """Build the trace-event document from request spans,
    a simulator bus with its metric registry, or both."""
    processes: Dict[str, int] = {}
    threads: Dict[Tuple[int, str], int] = {}

    def tid_of(pid: int, thread: str) -> int:
        return threads.setdefault((pid, thread), len(threads) + 1)

    merged = merge_spans(spans)
    base = min((s.start_unix for s in merged), default=0.0)
    records: List[dict] = []
    for span_ in merged:
        pid = processes.setdefault(f"{span_.process} (os pid {span_.pid})",
                                   len(processes) + 1)
        args = {
            "trace_id": span_.trace_id,
            "span_id": span_.span_id,
            "parent_id": span_.parent_id,
            **span_.args,
        }
        if span_.cpu_s is not None and span_.cpu_s >= 0:
            args["cpu_ms"] = round(span_.cpu_s * 1000.0, 3)
        records.append(_record(
            span_.name, "span", int(round((span_.start_unix - base) * 1e6)),
            pid, tid_of(pid, f"trace {span_.trace_id}"),
            max(1, int(math.ceil(span_.dur_s * 1e6))), args,
        ))

    other: dict = {}
    sources: List[str] = []
    if merged or bus is None:
        sources.append("repro-spans")
        other["base_unix"] = base
    if bus is not None:
        sources.append(PROCESS_NAME)
        other["dropped_events"] = bus.dropped
        # In a document that also holds wall-clock spans the ruler is
        # µs, so the simulator's process name carries its unit.
        processes[PROCESS_NAME if not merged
                  else f"{PROCESS_NAME} (1 cycle = 1 µs)"] = _GPUSIM_PID
        offset = next(
            (r["ts"] for r in records if r["name"] == "phase.replay"), 0
        )
        events = [e for e in bus.events if e.kind != EV_RTUNIT_STALL]
        events += _merge_stall_spans(
            [e for e in bus.events if e.kind == EV_RTUNIT_STALL]
        )
        for event in events:
            records.append(_record(
                event.kind, event.kind, event.cycle + offset, _GPUSIM_PID,
                tid_of(_GPUSIM_PID, event.track), event.dur, event.args,
            ))
        if registry is not None:
            for name, gauge in sorted(registry.gauges.items()):
                for cycle, value in zip(gauge.cycles, gauge.values):
                    records.append({
                        "name": name,
                        "ph": "C",
                        "ts": cycle + offset,
                        "pid": _GPUSIM_PID,
                        "args": {"value": value},
                    })
    other["source"] = "+".join(sources)

    # A global stable sort keeps timestamps nondecreasing on every track
    # (merged spans already arrive in start order).
    records.sort(key=lambda r: r["ts"])

    metadata: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": name},
        }
        for name, pid in sorted(processes.items(), key=lambda kv: kv[1])
    ]
    metadata += [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": thread},
        }
        for (pid, thread), tid in threads.items()
    ]
    return {
        "traceEvents": metadata + records,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path,
    spans: Sequence[Span] = (),
    bus: Optional[TraceBus] = None,
    registry: Optional[MetricRegistry] = None,
) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(chrome_trace(spans, bus, registry),
                              sort_keys=True))
    return out
