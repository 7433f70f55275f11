"""Self-tests of the benchmark suite: ``pytest benchmarks/suite``."""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(SUITE)]

import calibration  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import openloop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "result.json"
    start = time.perf_counter()
    process = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert process.returncode == 0, process.stderr
    return json.loads(out.read_text()), elapsed


def test_smoke_runs_every_workload_quickly(smoke):
    document, elapsed = smoke
    assert elapsed < 60
    assert list(document["workloads"]) == [w["name"]
                                           for w in SPEC["workloads"]]
    for entry in document["workloads"].values():
        for run_doc in entry.values():
            assert run_doc["correct"] and run_doc["failed"] == 0
            assert run_doc["attempted"] > 0
        for block in entry["untraced"]["metrics"].values():
            assert block["value"] > 0


def test_every_name_is_well_formed(smoke):
    document, _ = smoke
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for entry in document["workloads"].values():
        for run_doc in entry.values():
            names += list(run_doc["metrics"])
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_layers_cover_the_traced_wall(smoke, workload):
    metrics = smoke[0]["workloads"][workload]["traced"]["metrics"]
    if workload != "serve-open":  # there: the service's busy share
        assert metrics["layers.coverage"]["value"] >= 0.95
    # Each workload's set-up or pass runs every layer: no time reads 0.
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(block["value"] > 0 for name, block in metrics.items()
               if units[name] == "s")


def test_instrument_times_the_untraced_path():
    from repro import api
    from repro.core import pipeline

    def digest():
        pipeline.clear_caches()
        return layers.stats_digest(
            api.run("WKND", "treelet-prefetch", "smoke", cache=False).stats)

    originals = {(owner, name): getattr(owner, name)
                 for calls in layers.TIMED.values()
                 for owner, name, _ in calls}
    plain = digest()
    clock = layers.LayerClock()
    with layers.instrument(clock):
        traced = digest()
    assert traced == plain
    assert clock.seconds["bvh.build_s"] > 0
    assert clock.seconds["gpusim.run_s"] > 0
    assert all(getattr(owner, name) is original
               for (owner, name), original in originals.items())


def test_tampered_digest_fails_ops(tmp_path, monkeypatch, capsys):
    expected = json.loads(run.EXPECTED.read_text())
    expected["digests"] = {key: "0" * 64 for key in expected["digests"]}
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", tampered)
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    code = run.main(["--workload", "render-cold", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_same_seed_gives_the_same_serve_schedule():
    first = openloop.schedule(7, 48, 1.0, 15)
    assert first == openloop.schedule(7, 48, 1.0, 15)
    assert first != openloop.schedule(8, 48, 1.0, 15)
    assert {arrival.template for arrival in first} == set(range(15))
    assert all(0.0 <= arrival.due_s <= 1.0 for arrival in first)


def test_compare_flags_worse_past_the_bound_and_slack():
    wide = [1.0, 1.5, 1.0, 1.6, 1.1]  # spread wider than the bound
    assert compare.verdict(wide, [2 * x for x in wide], True,
                           0.25)[0] == "worse"
    assert compare.verdict(wide, wide, True, 0.25)[0] == "unresolved"
    # 50% worse, but within setup_s's absolute slack.
    assert compare.verdict([0.3] * 5, [0.45] * 5, True, 0.25,
                           slack=0.25)[0] == "unchanged"


def test_sampler_runs_the_kernel_around_a_span_but_not_in_a_pause():
    sampler = calibration.Sampler()
    with sampler.running():
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0:  # busy: ticks land here
            pass
        end = time.perf_counter()
        with sampler.paused():
            paused_at = len(sampler.samples)
            time.sleep(3 * calibration.PERIOD_S)
            assert len(sampler.samples) == paused_at
        assert len(sampler.samples) == paused_at + 1
    assert len(sampler.samples) >= 4
    assert sampler.total == pytest.approx(
        sum(seconds for _, seconds in sampler.samples))
    near = [seconds for at, seconds in sampler.samples
            if start - calibration.PERIOD_S <= at <= end + calibration.PERIOD_S]
    assert sampler.around(start, end) == statistics.median(near)


def test_fanout_speedup_is_null_on_one_cpu():
    assert workloads.fanout_speedup(2.0, 1.5, cpus=1) == {
        "value": None, "reason": "cpus < jobs", "cpus": 1, "jobs": 2,
    }
    assert workloads.fanout_speedup(2.0, 1.6, cpus=2)["value"] == 1.25


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark cannot pass for a run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "render-cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert "correct" not in process.stdout
