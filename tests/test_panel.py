"""The all-pairs covering panel (``tests/golden/panel_simstats.json``).

``tools/record_panel_golden.py`` picked the entries: every pair of
levels of the technique fields, the GPU knobs the benches sweep and a
few smoke scenes and query workloads appears in at least one of them.
Each entry's SimStats digest is pinned here, on the serial path and
through the replay pool; an entry on another GPU is a job on a variant
of the smoke scale, fanned out like any other.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import (
    QUERY_CASES,
    QUERY_PRESETS,
    QUERY_WORKLOADS,
    REPLAY_GOLDEN,
    REPLAY_PRESETS,
    SINGLE_RUN_CASES,
    golden_scale,
    stats_digest,
)
from repro.api import parse_technique, run
from repro.core.memo import MEMO
from repro.core.pipeline import SMOKE, Job
from repro.exec import ExecutionReport, prewarm_replay_jobs

ROOT = Path(__file__).resolve().parents[1]
PANEL = json.loads((ROOT / "tests" / "golden" / "panel_simstats.json")
                   .read_text())
ENTRIES = {entry["id"]: entry for entry in PANEL["entries"]}


def _recorder():
    path = ROOT / "tools" / "record_panel_golden.py"
    spec = importlib.util.spec_from_file_location("record_panel_golden",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORDER = _recorder()


def test_panel_covers_every_factor_level():
    covered = {name: set() for name in RECORDER.FACTORS}
    for row in RECORDER.covering_rows():
        for name, level in row.items():
            covered[name].add(level)
    assert covered == {name: set(levels)
                       for name, levels in RECORDER.FACTORS.items()}


def test_panel_entries_are_the_recorders():
    recorded = [{key: entry[key] for key in
                 ("id", "scene", "workload", "technique", "gpu")}
                for entry in PANEL["entries"]]
    assert recorded == RECORDER.panel()


@pytest.mark.parametrize("key", sorted(ENTRIES))
def test_panel_entry_digest(key):
    entry = ENTRIES[key]
    stats = run(entry["scene"], entry["technique"],
                RECORDER.smoke_scale(entry["gpu"]),
                workload=entry["workload"]).stats
    assert stats.cycles == entry["cycles"]
    assert stats_digest(stats) == entry["digest"], key


def _panel_jobs():
    """``(id, job, digest)`` of every panel entry."""
    return [
        (entry["id"],
         Job(entry["scene"], parse_technique(entry["technique"]),
             RECORDER.smoke_scale(entry["gpu"]), entry["workload"]),
         entry["digest"])
        for entry in PANEL["entries"]
    ]


def _golden_jobs():
    """``(key, job, digest)`` of every single-run case of
    ``tests/golden/replay_simstats.json``."""
    cases = []
    for key in SINGLE_RUN_CASES + QUERY_CASES:
        kind, scene, preset = key.split("/")
        if kind == "query":
            job = Job(scene, QUERY_PRESETS[preset], SMOKE,
                      QUERY_WORKLOADS[scene])
        else:
            job = Job(scene, REPLAY_PRESETS[preset], golden_scale(kind))
        cases.append((key, job, REPLAY_GOLDEN["digests"][key]))
    return cases


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("cases", [_panel_jobs, _golden_jobs])
def test_bit_identical_across_jobs(cases, jobs, monkeypatch):
    """Every panel entry and every single-run golden case, on the smoke
    GPU or a variant of it, replays to its recorded digest at the
    default count (which fans out here) and over two processes, as it
    does serially (:func:`test_panel_entry_digest`,
    ``tests/test_replay_backend.py``)."""
    from repro.exec import executor

    monkeypatch.setattr(executor.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(executor, "FANOUT_SHARE_VISITS", 1)
    MEMO.clear("result")
    keys, batch, digests = zip(*cases())
    report = ExecutionReport()
    results = prewarm_replay_jobs(batch, workers=jobs, report=report)
    assert report.workers == 2
    assert report.from_pool > 0 and report.inprocess_fallbacks == 0
    moved = [key for key, result, digest in zip(keys, results, digests)
             if stats_digest(result.stats) != digest]
    assert not moved
