"""Acceptance tests for the scene-shard router and load scenarios.

A real fleet: N ``repro serve`` replica subprocesses fronted by a
``repro router`` subprocess, driven over TCP through the shared typed
client.  Covers the PR's contract:

* routed results are bit-identical to direct :mod:`repro.api` calls;
* sweeps are split per-scene across the owning replicas and merged
  deterministically;
* SIGKILLing a replica mid-run loses zero requests (retry failover),
  ejects the replica, and a replacement on the same port is readmitted;
* scene affinity keeps >= 80% of routed requests on the replica that
  already built the scene's artifacts;
* declarative scenario specs parse strictly and execute into
  ``repro.bench/1`` capacity reports.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import (
    Scenario,
    ScenarioError,
    ServeClient,
    SubmitRequest,
    run_scenario,
)

ROOT = Path(__file__).resolve().parents[1]


def _spawn(cmd, *, expect="listening on"):
    """Start a repro subprocess and parse its announce line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *cmd],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    assert expect in line, f"unexpected announce line: {line!r}"
    port = int(line.rstrip().rstrip("/").rsplit(":", 1)[1])
    return proc, port


class Fleet:
    """N serve replicas behind one router, all real subprocesses."""

    def __init__(self, replicas: int = 2, router_args=()) -> None:
        self.procs = []
        self.replica_ports = []
        for _ in range(replicas):
            proc, port = _spawn(["serve", "--port", "0", "--no-cache"])
            self.procs.append(proc)
            self.replica_ports.append(port)
        args = ["router", "--port", "0"]
        for port in self.replica_ports:
            args += ["--replica", f"127.0.0.1:{port}"]
        self.router_proc, self.port = _spawn(args + list(router_args))
        self.procs.append(self.router_proc)

    @property
    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=60.0)

    def replica_client(self, index: int) -> ServeClient:
        return ServeClient("127.0.0.1", self.replica_ports[index],
                           timeout=60.0)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()


@pytest.fixture(scope="module")
def fleet():
    fleet = Fleet(replicas=2)
    yield fleet
    fleet.close()


class TestRouting:
    def test_healthz_reports_router_role_and_replicas(self, fleet):
        response = fleet.client.healthz()
        assert response.status == 200
        doc = response.document
        assert doc["role"] == "router"
        assert doc["healthy_replicas"] == 2
        assert set(doc["replicas"]) == {
            f"127.0.0.1:{port}" for port in fleet.replica_ports
        }

    def test_routed_run_bit_identical_to_direct_api(self, fleet):
        from repro.api import run as api_run
        from repro.api.techniques import parse_technique
        from repro.obs import simstats_to_dict

        response = fleet.client.submit(
            SubmitRequest(kind="run", scene="WKND",
                          technique="treelet-prefetch", scale="smoke"),
            wait=True,
        )
        assert response.status == 200
        doc = response.document
        assert doc["state"] == "done"
        assert doc["replica"] in {
            f"127.0.0.1:{port}" for port in fleet.replica_ports
        }
        direct = api_run("WKND", "treelet-prefetch", "smoke")
        expected = {
            "kind": "run",
            "scene": "WKND",
            "technique": parse_technique("treelet-prefetch").label(),
            "scale": "smoke",
            "cycles": direct.cycles,
            "stats": json.loads(json.dumps(simstats_to_dict(direct.stats))),
        }
        assert json.dumps(doc["result"], sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    @pytest.mark.parametrize("workload,scenes", [
        ("render", ["WKND", "SHIP", "SPNZA"]),
        ("knn", ["PTSUNI", "PTSCLU"]),
    ], ids=["render", "knn"])
    def test_sweep_splits_per_scene_and_merges(self, fleet, workload,
                                               scenes):
        from repro.api import sweep as api_sweep

        response = fleet.client.submit(
            SubmitRequest(kind="sweep", scenes=tuple(scenes),
                          technique="treelet-prefetch", scale="smoke",
                          workload=workload),
            wait=True, timeout=300.0,
        )
        assert response.status == 200
        doc = response.document
        assert doc["state"] == "done"
        result = doc["result"]
        assert sorted(result["scenes"]) == sorted(scenes)
        assert result.get("workload", "render") == workload
        direct = api_sweep("treelet-prefetch", scenes, "smoke",
                           workload=workload)
        assert result["gmean_speedup"] == pytest.approx(
            direct.gmean_speedup
        )
        for scene, speedup in direct.speedups().items():
            assert result["scenes"][scene]["speedup"] == pytest.approx(
                speedup
            )

    def test_routed_job_lookup_and_trace(self, fleet):
        response = fleet.client.submit(
            SubmitRequest(kind="run", scene="SHIP", technique="baseline",
                          scale="smoke"),
            wait=True,
        )
        job_id = response.document["id"]
        lookup = fleet.client.job(job_id)
        assert lookup.status == 200
        assert lookup.document["state"] == "done"
        trace = fleet.client.trace(job_id)
        assert trace.status == 200
        assert trace.document["schema"] == "repro.spans/1"
        assert trace.document["spans"]

    def test_metrics_aggregates_and_exposes_router_counters(self, fleet):
        response = fleet.client.metrics()
        assert response.status == 200
        doc = response.document
        assert doc["schema"] == "repro.serve_metrics/1"
        assert doc["role"] == "router"
        aggregated = doc["aggregated"]["counters"]
        assert aggregated["serve.requests_total"] >= 1
        router_counters = doc["router"]["counters"]
        assert router_counters["router.routed_total"] >= 1
        assert set(doc["replicas"]) == {
            f"127.0.0.1:{port}" for port in fleet.replica_ports
        }
        # Prometheus exposition includes the router counters.
        prom = fleet.client.metrics(fmt="prometheus")
        assert prom.status == 200
        assert "repro_router_routed_total" in prom.document

    def test_validation_happens_at_the_edge(self, fleet):
        response = fleet.client.request(
            "POST", "/v1/run", {"scene": "CITY17", "scale": "smoke"}
        )
        assert response.status == 400
        assert "unknown scene" in response.document["error"]
        response = fleet.client.request(
            "POST", "/v1/run",
            {"scene": "WKND", "tecnique": "baseline"},
        )
        assert response.status == 400
        assert "did you mean 'technique'" in response.document["error"]

    def test_unknown_job_is_404(self, fleet):
        response = fleet.client.job("r999999")
        assert response.status == 404


class TestFailover:
    def test_sigkill_replica_mid_run_loses_nothing(self):
        """The headline acceptance test: 3 replicas, one SIGKILLed while
        traffic is flowing — every request still succeeds, the dead
        replica is ejected, a replacement on the same port is
        readmitted, and scene affinity stays >= 0.8."""
        fleet = Fleet(replicas=3)
        try:
            client = fleet.client
            scenario = Scenario.from_dict({
                "schema": "repro.scenario/1",
                "name": "failover",
                "arrival": "uniform",
                "qps": [25],
                "requests": 75,
                "seed": 3,
                "mix": [
                    {"scene": "WKND", "technique": "treelet-prefetch",
                     "scale": "smoke", "weight": 2},
                    {"scene": "SHIP", "technique": "treelet-prefetch",
                     "scale": "smoke", "weight": 1},
                    {"scene": "SPNZA", "technique": "baseline",
                     "scale": "smoke", "weight": 1},
                ],
                "slo": {"p99_latency_s": 60.0, "success_rate": 1.0},
            })

            victim = fleet.procs[0]
            victim_port = fleet.replica_ports[0]

            def assassin():
                time.sleep(1.0)  # mid-run: ~25 requests in
                victim.send_signal(signal.SIGKILL)

            killer = threading.Thread(target=assassin)
            killer.start()
            report = run_scenario(scenario, "127.0.0.1", fleet.port)
            killer.join()
            summary = report["metrics"]["qps_sweep"][0]

            assert summary["requests"] == 75
            assert summary["ok"] == 75, summary
            assert summary["errors"] == 0
            assert summary["slo_ok"] is True
            assert report["derived"]["slo_pass"] is True

            metrics = client.metrics().document
            router_counters = metrics["router"]["counters"]
            assert router_counters["router.ejections_total"] >= 1
            routed = router_counters["router.routed_total"]
            affinity = router_counters.get(
                "router.affinity_hits_total", 0
            )
            assert routed > 0
            assert affinity / routed >= 0.8, (affinity, routed)

            health = client.healthz().document
            assert health["healthy_replicas"] == 2
            assert health["replicas"][f"127.0.0.1:{victim_port}"][
                "healthy"
            ] is False

            # A replacement replica on the same port is readmitted.
            replacement, _port = _spawn(
                ["serve", "--port", str(victim_port), "--no-cache"]
            )
            fleet.procs.append(replacement)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                health = client.healthz().document
                if health["healthy_replicas"] == 3:
                    break
                time.sleep(0.1)
            assert health["healthy_replicas"] == 3
            metrics = client.metrics().document
            assert metrics["router"]["counters"][
                "router.readmissions_total"
            ] >= 1

            # The recovered fleet serves traffic again, start to finish.
            response = client.submit(
                SubmitRequest(kind="run", scene="WKND",
                              technique="baseline", scale="smoke"),
                wait=True,
            )
            assert response.status == 200
            assert response.document["state"] == "done"
        finally:
            fleet.close()

    def test_all_replicas_down_is_502_not_hang(self):
        fleet = Fleet(replicas=1)
        try:
            fleet.procs[0].send_signal(signal.SIGKILL)
            fleet.procs[0].wait(timeout=10)
            response = fleet.client.submit(
                SubmitRequest(kind="run", scene="WKND",
                              technique="baseline", scale="smoke"),
                wait=True,
            )
            assert response.status in (502, 503)
            assert "replica" in response.document["error"]
        finally:
            fleet.close()


class TestScenarios:
    def test_scenario_runs_against_router(self, fleet):
        scenario = Scenario.from_dict({
            "schema": "repro.scenario/1",
            "name": "router-capacity",
            "arrival": "uniform",
            "qps": [8, 16],
            "requests": 10,
            "seed": 0,
            "mix": [
                {"scene": "WKND", "technique": "treelet-prefetch",
                 "scale": "smoke", "weight": 1},
                {"scene": "SHIP", "technique": "baseline",
                 "scale": "smoke", "weight": 1},
            ],
            "slo": {"p99_latency_s": 30.0, "success_rate": 1.0},
        })
        report = run_scenario(scenario, "127.0.0.1", fleet.port)
        assert report["schema"] == "repro.bench/1"
        assert report["phase"] == "scenario"
        assert report["target"]["role"] == "router"
        steps = report["metrics"]["qps_sweep"]
        assert len(steps) == 2
        assert all(step["ok"] == step["requests"] for step in steps)
        assert report["derived"]["slo_pass"] is True
        assert report["derived"]["capacity_qps"] == 16.0
        assert report["derived"]["levels_passed"] == 2

    def test_committed_smoke_spec_parses(self):
        scenario = Scenario.load(
            ROOT / "examples" / "scenarios" / "smoke.json"
        )
        assert scenario.name == "smoke-capacity"
        assert scenario.qps_levels == (4.0, 8.0, 16.0)
        assert len(scenario.mix) == 3
        assert scenario.slo.p99_latency_s == 5.0

    def test_every_committed_spec_parses(self):
        """Every spec under ``examples/scenarios`` parses, and each mix
        entry is a run request the service would accept."""
        from repro.api import RunRequest

        specs = sorted((ROOT / "examples" / "scenarios").glob("*.json"))
        assert specs
        for spec in specs:
            for template in Scenario.load(spec).mix:
                RunRequest.from_dict({
                    "scene": template.scene,
                    "technique": template.technique,
                    "scale": template.scale,
                    "workload": template.workload,
                })

    def test_yaml_spec_loads_when_pyyaml_present(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        spec = tmp_path / "scenario.yaml"
        spec.write_text(yaml.safe_dump({
            "schema": "repro.scenario/1",
            "name": "yaml-scenario",
            "qps": [4],
            "requests": 5,
            "mix": [{"scene": "WKND", "scale": "smoke"}],
        }))
        scenario = Scenario.load(spec)
        assert scenario.name == "yaml-scenario"
        assert scenario.qps_levels == (4.0,)

    def test_unknown_scenario_key_suggests_near_miss(self):
        with pytest.raises(ScenarioError, match="did you mean 'arrival'"):
            Scenario.from_dict({"arrivel": "poisson"})

    def test_unknown_arrival_process_is_rejected(self):
        with pytest.raises(ScenarioError,
                           match="unknown arrival process 'exponential'"):
            Scenario.from_dict({"arrival": "exponential"})

    def test_bad_slo_values_are_rejected(self):
        with pytest.raises(ScenarioError, match="success_rate"):
            Scenario.from_dict({"slo": {"success_rate": 1.5}})
        with pytest.raises(ScenarioError, match="p99_latency_s"):
            Scenario.from_dict({"slo": {"p99_latency_s": -1}})
        with pytest.raises(ScenarioError, match="did you mean"):
            Scenario.from_dict({"slo": {"p99_latency": 1.0}})

    def test_bad_qps_and_mix_are_rejected(self):
        with pytest.raises(ScenarioError, match="qps"):
            Scenario.from_dict({"qps": []})
        with pytest.raises(ScenarioError, match="qps"):
            Scenario.from_dict({"qps": [4, -2]})
        with pytest.raises(ScenarioError, match="mix"):
            Scenario.from_dict({"mix": []})
        with pytest.raises(ScenarioError, match="did you mean 'weight'"):
            Scenario.from_dict({"mix": [{"scene": "WKND", "wieght": 2}]})

    @pytest.mark.parametrize("field", ["requests", "seed"])
    def test_json_booleans_are_not_integers(self, field):
        # bool subclasses int in Python; `true` is not a count on the wire.
        with pytest.raises(ScenarioError, match=field):
            Scenario.from_dict({field: True})

    def test_wrong_schema_and_bad_json_are_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="repro.scenario/1"):
            Scenario.from_dict({"schema": "repro.scenario/9"})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError, match="bad JSON"):
            Scenario.load(bad)
        with pytest.raises(ScenarioError, match="cannot read"):
            Scenario.load(tmp_path / "missing.json")
