"""Open-loop load against a ``repro serve`` process.

One client thread sends a seeded schedule through
``repro.serve.client.AsyncServeClient``.  Each request fires when it is
due, whether or not earlier ones have finished, and its latency is
timed from that due time, so a stalled generator or server charges
every request queued behind the stall.  (``repro.serve.loadgen``
times from the actual send instead.)  The generator reports how late
it sent; a level whose 90th-percentile lateness exceeds
:data:`LATE_LIMIT_S` measured the generator, not the service, and is
marked invalid.

The service runs in its own process, as it is deployed, so the client
thread never competes with simulation work for the interpreter lock.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.serve import AsyncServeClient, ServeClient, SubmitRequest, WireError

LATE_LIMIT_S = 0.050


@dataclass(frozen=True)
class Arrival:
    due_s: float
    template: int


def schedule(seed: int, requests: int, span_s: float,
             templates: int) -> List[Arrival]:
    """``requests`` Poisson arrivals conditioned to fall in ``span_s``.

    Given their count, the arrival times of a Poisson process are
    sorted uniform draws; fixing the count and span makes every level
    offer the same load.  Every template appears at least once, so
    every level computes the same set of results.
    """
    if requests < templates:
        raise ValueError("a level must request every template")
    rng = random.Random(seed)
    dues = sorted(rng.uniform(0.0, span_s) for _ in range(requests))
    picks = list(range(templates)) + [
        rng.randrange(templates) for _ in range(requests - templates)
    ]
    rng.shuffle(picks)
    return [Arrival(due, pick) for due, pick in zip(dues, picks)]


@dataclass
class Outcome:
    arrival: Arrival
    late_s: float  # send time minus due time
    latency_s: float  # completion time minus due time
    status: int  # HTTP status; 0 = transport error or timeout
    state: str = ""
    cached: bool = False
    stats: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.state == "done"


@dataclass
class Level:
    """What one open-loop level observed."""

    outcomes: List[Outcome]
    queue_depths: List[int]

    @property
    def wall_s(self) -> float:
        """First due time to last completion."""
        first = min(o.arrival.due_s for o in self.outcomes)
        return max(o.arrival.due_s + o.latency_s
                   for o in self.outcomes) - first

    @property
    def late_p90_s(self) -> float:
        late = sorted(o.late_s for o in self.outcomes)
        return late[min(len(late) - 1, int(0.9 * len(late)))]

    @property
    def valid(self) -> bool:
        return self.late_p90_s <= LATE_LIMIT_S


async def _drive(port: int, arrivals: Sequence[Arrival],
                 submits: Sequence[SubmitRequest],
                 sample_s: Optional[float]) -> Level:
    client = AsyncServeClient("127.0.0.1", port, timeout=120.0)
    start = time.perf_counter()

    async def fire(arrival: Arrival) -> Outcome:
        delay = start + arrival.due_s - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        try:
            response = await client.submit(submits[arrival.template],
                                           wait=True)
        except (OSError, WireError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            status, document = 0, {}
        else:
            status = response.status
            document = response.document
            if not isinstance(document, dict):
                document = {}
        done = time.perf_counter()
        return Outcome(
            arrival=arrival,
            late_s=sent - start - arrival.due_s,
            latency_s=done - start - arrival.due_s,
            status=status,
            state=document.get("state", ""),
            cached=bool(document.get("cached")),
            stats=(document.get("result") or {}).get("stats"),
        )

    depths: List[int] = []

    async def sample(stop: asyncio.Event) -> None:
        while not stop.is_set():
            response = await client.healthz()
            depths.append(int(response.document["queue_depth"]))
            try:
                await asyncio.wait_for(stop.wait(), sample_s)
            except asyncio.TimeoutError:
                pass

    stop = asyncio.Event()
    sampler = asyncio.ensure_future(sample(stop)) if sample_s else None
    try:
        outcomes = await asyncio.gather(*(fire(a) for a in arrivals))
    finally:
        stop.set()
        if sampler is not None:
            await sampler
    return Level(outcomes=list(outcomes), queue_depths=depths)


def run_level(port: int, arrivals: Sequence[Arrival],
              submits: Sequence[SubmitRequest],
              sample_s: Optional[float] = None) -> Level:
    """Send ``arrivals`` from this thread; ``sample_s`` also polls
    ``/healthz`` for queue depth at that interval."""
    return asyncio.run(_drive(port, arrivals, submits, sample_s))


class ServiceProcess:
    """``python -m repro serve`` on an ephemeral port, one worker.

    With ``layers_out`` the same service runs under ``layers.py``, which
    times its layers and writes them to that path when it exits.
    ``boot_s`` is the time from spawn to the first healthy ``/healthz``.
    Leaving the block sends SIGTERM (a graceful drain) and waits.
    """

    def __init__(self, root: Path, cache_dir: Path,
                 layers_out: Optional[Path] = None) -> None:
        launcher = (["-m", "repro"] if layers_out is None else
                    [str(Path(__file__).with_name("layers.py")),
                     str(layers_out)])
        self.command = [sys.executable] + launcher + [
            "serve", "--port", "0", "--workers", "1",
            "--cache-dir", str(cache_dir),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.boot_s = 0.0

    def __enter__(self) -> "ServiceProcess":
        start = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, cwd=str(self.root), env=self.env,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.process.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            ServeClient("127.0.0.1", self.port).healthz()
        except BaseException:
            self._stop()
            raise
        self.boot_s = time.perf_counter() - start
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def metrics(self) -> Dict[str, object]:
        return ServeClient("127.0.0.1", self.port).metrics().document

    def _stop(self) -> None:
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
