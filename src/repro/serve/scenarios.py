"""Declarative load scenarios: specs in, capacity reports out.

A **scenario** is a JSON (or YAML, when PyYAML is importable) document
— schema ``repro.scenario/1`` — that describes offered traffic and the
SLO it must meet::

    {
      "schema": "repro.scenario/1",
      "name": "smoke-capacity",
      "arrival": "poisson",
      "qps": [4, 8, 16],
      "requests": 40,
      "seed": 0,
      "mix": [
        {"scene": "WKND", "technique": "treelet-prefetch",
         "scale": "smoke", "weight": 2},
        {"scene": "SHIP", "technique": "baseline",
         "scale": "smoke", "weight": 1}
      ],
      "slo": {"p99_latency_s": 5.0, "success_rate": 0.99}
    }

:func:`run_scenario` executes the spec through
:mod:`repro.serve.loadgen` against a single service or the
scene-shard router (they speak the same wire protocol, so the target
is just a host:port), sweeping every ``qps`` step and judging each
against the SLO.  The result is a ``repro.bench/1`` **capacity
report**: per-step p50/p95/p99 latency, success/shed/error counts, an
``slo_ok`` verdict per step, and the headline ``capacity_qps`` — the
highest offered rate that still met the SLO.

Parsing is strict in the same style as the rest of the API surface:
unknown keys fail with near-miss suggestions, bad SLO values and
unknown arrival processes raise :class:`ScenarioError` with a message
that names the offending field.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from ..api.techniques import _suggest
from .loadgen import (
    ARRIVAL_PROCESSES,
    LoadGenConfig,
    RequestTemplate,
    run_loadgen,
)

SCENARIO_SCHEMA = "repro.scenario/1"
REPORT_SCHEMA = "repro.bench/1"


class ScenarioError(ValueError):
    """A scenario spec that does not parse or validate."""


_SCENARIO_FIELDS = (
    "schema", "name", "description", "arrival", "qps", "requests",
    "seed", "mix", "deadline_s", "timeout_s", "slo",
)
_MIX_FIELDS = ("scene", "technique", "scale", "weight", "workload")
_SLO_FIELDS = ("p99_latency_s", "success_rate")


def _reject_unknown(payload: dict, known: tuple, what: str) -> None:
    if not isinstance(payload, dict):
        raise ScenarioError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    for key in payload:
        if key not in known:
            raise ScenarioError(
                f"unknown {what} field {key!r}{_suggest(key, known)} "
                f"(known: {', '.join(known)})"
            )


def _number(payload: dict, key: str, what: str, *,
            minimum: Optional[float] = None,
            maximum: Optional[float] = None) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            f"{what} field {key!r} must be a number, "
            f"got {type(value).__name__}"
        )
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{what} field {key!r} must be >= {minimum:g}")
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{what} field {key!r} must be <= {maximum:g}")
    return float(value)


@dataclass(frozen=True)
class SLOTarget:
    """The bar a traffic step must clear to count as capacity."""

    p99_latency_s: float = 60.0
    success_rate: float = 1.0  # fraction of requests that must succeed

    @classmethod
    def from_dict(cls, payload: dict) -> "SLOTarget":
        _reject_unknown(payload, _SLO_FIELDS, "slo")
        p99 = _number(payload, "p99_latency_s", "slo", minimum=0.0)
        success = _number(payload, "success_rate", "slo",
                          minimum=0.0, maximum=1.0)
        kwargs = {}
        if p99 is not None:
            kwargs["p99_latency_s"] = p99
        if success is not None:
            kwargs["success_rate"] = success
        return cls(**kwargs)

    def judge(self, summary: dict) -> bool:
        return (summary["ok_rate"] >= self.success_rate
                and summary["latency_p99_s"] <= self.p99_latency_s)

    def as_dict(self) -> dict:
        return {"p99_latency_s": self.p99_latency_s,
                "success_rate": self.success_rate}


@dataclass
class Scenario:
    """A parsed, validated scenario spec."""

    name: str = "scenario"
    description: str = ""
    arrival: str = "poisson"
    qps_levels: Tuple[float, ...] = (8.0,)
    requests: int = 50
    seed: int = 0
    mix: Tuple[RequestTemplate, ...] = (RequestTemplate(),)
    deadline_s: Optional[float] = None
    timeout_s: float = 120.0
    slo: SLOTarget = field(default_factory=SLOTarget)

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        _reject_unknown(payload, _SCENARIO_FIELDS, "scenario")
        schema = payload.get("schema")
        if schema is not None and schema != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"unsupported scenario schema {schema!r} "
                f"(this harness reads {SCENARIO_SCHEMA})"
            )
        arrival = payload.get("arrival", "poisson")
        if arrival not in ARRIVAL_PROCESSES:
            known = ", ".join(ARRIVAL_PROCESSES)
            raise ScenarioError(
                f"unknown arrival process {arrival!r}"
                f"{_suggest(str(arrival), ARRIVAL_PROCESSES)} "
                f"(known: {known})"
            )
        raw_qps = payload.get("qps", 8.0)
        if isinstance(raw_qps, (int, float)) and not isinstance(
            raw_qps, bool
        ):
            raw_qps = [raw_qps]
        if (not isinstance(raw_qps, list) or not raw_qps
                or not all(isinstance(q, (int, float))
                           and not isinstance(q, bool) and q > 0
                           for q in raw_qps)):
            raise ScenarioError(
                "scenario field 'qps' must be a positive number or a "
                "non-empty list of positive numbers"
            )
        requests = payload.get("requests", 50)
        if (not isinstance(requests, int) or isinstance(requests, bool)
                or requests < 1):
            raise ScenarioError(
                "scenario field 'requests' must be a positive integer"
            )
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ScenarioError("scenario field 'seed' must be an integer")
        raw_mix = payload.get("mix", [{}])
        if not isinstance(raw_mix, list) or not raw_mix:
            raise ScenarioError(
                "scenario field 'mix' must be a non-empty list of "
                "request templates"
            )
        mix = []
        for entry in raw_mix:
            _reject_unknown(entry, _MIX_FIELDS, "mix entry")
            weight = _number(entry, "weight", "mix entry", minimum=0.0)
            mix.append(RequestTemplate(
                scene=str(entry.get("scene", "WKND")),
                technique=str(entry.get("technique", "treelet-prefetch")),
                scale=str(entry.get("scale", "smoke")),
                weight=1.0 if weight is None else weight,
                workload=str(entry.get("workload", "render")),
            ))
        slo = SLOTarget.from_dict(payload.get("slo", {}))
        deadline_s = _number(payload, "deadline_s", "scenario", minimum=0.0)
        timeout_s = _number(payload, "timeout_s", "scenario", minimum=0.0)
        return cls(
            name=str(payload.get("name", "scenario")),
            description=str(payload.get("description", "")),
            arrival=arrival,
            qps_levels=tuple(float(q) for q in raw_qps),
            requests=requests,
            seed=seed,
            mix=tuple(mix),
            deadline_s=deadline_s,
            timeout_s=120.0 if timeout_s is None else timeout_s,
            slo=slo,
        )

    @classmethod
    def load(cls, path) -> "Scenario":
        """Parse a spec file — JSON, or YAML for ``.yaml``/``.yml``
        when PyYAML is importable."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}")
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError:
                raise ScenarioError(
                    f"{path} is YAML but PyYAML is not installed; "
                    "use a .json spec instead"
                )
            try:
                payload = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ScenarioError(f"bad YAML in {path}: {exc}")
        else:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"bad JSON in {path}: {exc}")
        return cls.from_dict(payload)

    def loadgen_config(self, host: str, port: int,
                       qps: float) -> LoadGenConfig:
        return LoadGenConfig(
            host=host,
            port=port,
            qps=qps,
            requests=self.requests,
            mix=self.mix,
            seed=self.seed,
            arrival=self.arrival,
            deadline_s=self.deadline_s,
            timeout_s=self.timeout_s,
        )

    def describe(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "description": self.description,
            "arrival": self.arrival,
            "qps": list(self.qps_levels),
            "requests": self.requests,
            "seed": self.seed,
            "mix": [
                {"scene": t.scene, "technique": t.technique,
                 "scale": t.scale, "weight": t.weight,
                 "workload": t.workload}
                for t in self.mix
            ],
            "deadline_s": self.deadline_s,
            "timeout_s": self.timeout_s,
            "slo": self.slo.as_dict(),
        }


def _target_role(host: str, port: int) -> str:
    """Probe the target's ``/healthz`` for its role (best-effort)."""
    from .client import ServeClient

    try:
        response = ServeClient(host, port, timeout=5.0).healthz()
        if isinstance(response.document, dict):
            return str(response.document.get("role", "service"))
    except Exception:  # noqa: BLE001 — cosmetic metadata only
        pass
    return "unknown"


def run_scenario(scenario: Scenario, host: str, port: int,
                 progress=None) -> dict:
    """Execute every QPS step and emit the capacity report.

    ``progress`` is an optional ``(qps, summary)`` callback fired after
    each step (the CLI prints a line per step from it).
    """
    steps: List[dict] = []
    for qps in scenario.qps_levels:
        report = run_loadgen(scenario.loadgen_config(host, port, qps))
        summary = report.summary()
        summary["slo_ok"] = scenario.slo.judge(summary)
        steps.append(summary)
        if progress is not None:
            progress(qps, summary)
    passing = [step["offered_qps"] for step in steps if step["slo_ok"]]
    import numpy as np

    return {
        "schema": REPORT_SCHEMA,
        "phase": "scenario",
        "scenario": scenario.describe(),
        "target": {
            "host": host,
            "port": port,
            "role": _target_role(host, port),
        },
        "metrics": {"qps_sweep": steps},
        "derived": {
            "capacity_qps": max(passing) if passing else 0.0,
            "slo_pass": bool(passing),
            "levels_passed": len(passing),
            "levels_total": len(steps),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
