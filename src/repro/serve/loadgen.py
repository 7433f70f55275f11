"""Open-loop load generator for the simulation service.

Arrivals follow a Poisson process at the configured offered QPS and are
**open loop**: each request fires at its scheduled instant whether or
not earlier ones have completed, so a saturated server sees real queue
pressure (and sheds it with 429) instead of the closed-loop
self-throttling that hides saturation — the methodology the serving
benchmarks (`llm-d-benchmark` and friends) use for latency/saturation
curves.

Each request is a ``POST /v1/run?wait=1`` drawn uniformly from a mix of
(scene, technique, scale) templates; latency is measured submit to
terminal state.  A background sampler polls ``/healthz`` for queue
depth while the run is in flight.  All HTTP goes through the shared
:class:`repro.serve.client.AsyncServeClient`, so every request the
generator emits is ``repro.serve/1`` schema-stamped.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs.metrics import nearest_rank
from .client import AsyncServeClient
from .protocol import SubmitRequest, WireError

#: Supported arrival processes (`LoadGenConfig.arrival`).
ARRIVAL_PROCESSES = ("poisson", "uniform")


@dataclass(frozen=True)
class RequestTemplate:
    """One entry in the offered-traffic mix."""

    scene: str = "WKND"
    technique: str = "treelet-prefetch"
    scale: str = "smoke"
    workload: str = "render"

    def submit(self, deadline_s: Optional[float] = None) -> SubmitRequest:
        return SubmitRequest(
            kind="run",
            scene=self.scene,
            technique=self.technique,
            scale=self.scale,
            deadline_s=deadline_s,
            wait=True,
            workload=self.workload,
        )


@dataclass
class LoadGenConfig:
    host: str = "127.0.0.1"
    port: int = 8077
    qps: float = 8.0  # offered arrival rate
    requests: int = 50
    mix: Tuple[RequestTemplate, ...] = (RequestTemplate(),)
    seed: int = 0
    arrival: str = "poisson"  # arrival process; see ARRIVAL_PROCESSES
    deadline_s: Optional[float] = None  # forwarded per request
    timeout_s: float = 120.0  # client-side socket timeout
    sample_interval_s: float = 0.05  # /healthz queue-depth sampling


@dataclass
class RequestOutcome:
    index: int
    offset_s: float  # scheduled arrival relative to run start
    status: int  # HTTP status; 0 = transport error
    latency_s: float
    state: str = ""  # job state from the response document
    cached: bool = False

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.state == "done"

    @property
    def shed(self) -> bool:
        return self.status == 429


@dataclass
class LoadReport:
    """Everything one loadgen run observed."""

    offered_qps: float
    outcomes: List[RequestOutcome] = field(default_factory=list)
    duration_s: float = 0.0
    queue_depth_samples: List[int] = field(default_factory=list)

    def latencies(self) -> List[float]:
        return sorted(o.latency_s for o in self.outcomes if o.ok)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over successful-request latencies
        (delegates to :func:`repro.obs.metrics.nearest_rank` — the one
        percentile definition the whole repo shares)."""
        return nearest_rank(self.latencies(), fraction)

    def summary(self) -> dict:
        total = len(self.outcomes)
        ok = sum(1 for o in self.outcomes if o.ok)
        shed = sum(1 for o in self.outcomes if o.shed)
        errors = sum(
            1 for o in self.outcomes
            if not o.ok and not o.shed
        )
        cached = sum(1 for o in self.outcomes if o.cached)
        return {
            "offered_qps": self.offered_qps,
            "requests": total,
            "ok": ok,
            "shed": shed,
            "errors": errors,
            "cached": cached,
            "ok_rate": ok / total if total else 0.0,
            "shed_rate": shed / total if total else 0.0,
            "duration_s": self.duration_s,
            "throughput_rps": ok / self.duration_s if self.duration_s else 0.0,
            "latency_p50_s": self.percentile(0.50),
            "latency_p95_s": self.percentile(0.95),
            "latency_p99_s": self.percentile(0.99),
            "queue_depth_max": max(self.queue_depth_samples, default=0),
            "queue_depth_mean": (
                sum(self.queue_depth_samples) / len(self.queue_depth_samples)
                if self.queue_depth_samples else 0.0
            ),
        }


def _arrival_offsets(config: LoadGenConfig) -> List[float]:
    """Cumulative arrival offsets (seconds from run start).

    ``poisson`` draws seeded exponential inter-arrivals at the offered
    QPS (open-loop memoryless traffic); ``uniform`` spaces arrivals
    exactly ``1/qps`` apart (a metronome — useful for reproducible
    capacity steps without Poisson burstiness).
    """
    if config.arrival not in ARRIVAL_PROCESSES:
        known = ", ".join(ARRIVAL_PROCESSES)
        raise ValueError(
            f"unknown arrival process {config.arrival!r} (known: {known})"
        )
    rng = random.Random(config.seed)
    offsets = []
    clock = 0.0
    for _ in range(config.requests):
        if config.qps <= 0:
            pass  # all arrivals at t=0 (burst)
        elif config.arrival == "uniform":
            clock += 1.0 / config.qps
        else:
            clock += rng.expovariate(config.qps)
        offsets.append(clock)
    return offsets


def _pick_templates(config: LoadGenConfig) -> List[RequestTemplate]:
    rng = random.Random(config.seed + 1)
    templates = list(config.mix) or [RequestTemplate()]
    return rng.choices(templates, k=config.requests)


async def run_loadgen_async(config: LoadGenConfig) -> LoadReport:
    offsets = _arrival_offsets(config)
    templates = _pick_templates(config)
    client = AsyncServeClient(config.host, config.port,
                              timeout=config.timeout_s)
    report = LoadReport(offered_qps=config.qps)
    start = time.monotonic()

    async def fire(index: int, offset: float,
                   template: RequestTemplate) -> RequestOutcome:
        delay = start + offset - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        begin = time.monotonic()
        try:
            response = await client.submit(
                template.submit(config.deadline_s), wait=True
            )
        except (OSError, WireError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            return RequestOutcome(
                index=index, offset_s=offset, status=0,
                latency_s=time.monotonic() - begin,
            )
        document = response.document if isinstance(response.document, dict) \
            else {}
        return RequestOutcome(
            index=index,
            offset_s=offset,
            status=response.status,
            latency_s=time.monotonic() - begin,
            state=document.get("state", ""),
            cached=bool(document.get("cached", False)),
        )

    async def sample_queue(stop: "asyncio.Event") -> None:
        while not stop.is_set():
            try:
                response = await client.healthz()
                document = response.document
                if isinstance(document, dict):
                    report.queue_depth_samples.append(
                        int(document.get("queue_depth", 0))
                    )
            except Exception:  # noqa: BLE001 — sampling is best-effort
                pass
            try:
                await asyncio.wait_for(stop.wait(), config.sample_interval_s)
            except asyncio.TimeoutError:
                continue

    stop_sampling = asyncio.Event()
    sampler = asyncio.ensure_future(sample_queue(stop_sampling))
    try:
        outcomes = await asyncio.gather(*[
            fire(index, offset, template)
            for index, (offset, template) in enumerate(zip(offsets, templates))
        ])
    finally:
        stop_sampling.set()
        await sampler
    report.outcomes = sorted(outcomes, key=lambda o: o.index)
    report.duration_s = time.monotonic() - start
    return report


def run_loadgen(config: LoadGenConfig) -> LoadReport:
    """Synchronous wrapper (spins a private event loop)."""
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(run_loadgen_async(config))
    finally:
        loop.close()
