"""Structured run reports and SimStats JSON serialization.

Two consumers drive the schema:

* ``repro run/sweep --json`` — scripts that want :class:`SimStats`
  without scraping tables (``simstats_to_dict`` serializes the full
  dataclass tree, nested ``CacheStats``/``EffectivenessCounts``
  included, plus the derived ratios the tables print);
* ``repro run/trace --report`` — the ``run_report.json`` document:
  headline stats plus every registry metric (demand-latency and
  prefetch-timeliness histograms, occupancy gauges, per-partition
  load) and a summary of the captured trace.

``REPORT_SCHEMA`` is versioned; consumers should check it before
reading fields.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional

from .observer import Observer

REPORT_SCHEMA = "repro.run_report/1"


def simstats_to_dict(stats) -> dict:
    """One run's :class:`~repro.gpusim.stats.SimStats` as plain data."""
    data = dataclasses.asdict(stats)
    data["derived"] = {
        "ipc": stats.ipc,
        "stall_fraction": stats.stall_fraction,
        "mshr_stall_fraction": stats.mshr_stall_fraction,
        "l2_bandwidth": stats.l2_bandwidth,
        "l1_breakdown": stats.l1_breakdown(),
        "effectiveness_fractions": stats.effectiveness.fractions(),
    }
    return data


def build_run_report(
    *,
    scene: str,
    technique: str,
    scale: str,
    stats,
    observer: Optional[Observer] = None,
    replay_jobs: int = 1,
) -> dict:
    """Assemble the ``run_report.json`` document for one run.

    The ``execution`` section records provenance: how many worker
    processes the replay phase fanned across (``replay_jobs``; 1 =
    in-process serial).
    """
    report = {
        "schema": REPORT_SCHEMA,
        "scene": scene,
        "technique": technique,
        "scale": scale,
        "stats": simstats_to_dict(stats),
        "execution": {"replay_jobs": int(replay_jobs)},
    }
    if observer is not None:
        report["metrics"] = observer.metrics.as_dict()
        report["trace"] = observer.trace_summary()
    return report


def write_run_report(path, report: dict) -> Path:
    """Write a report document as indented JSON; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    return out


def load_run_report(path) -> dict:
    """Read a report back, checking the schema marker."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: not a {REPORT_SCHEMA} document "
            f"(schema={data.get('schema')!r})"
        )
    return data
