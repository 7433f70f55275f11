"""The benchmark's four workloads.

Each workload has a ``setup`` (timed and repeated by ``run.py``) and a
``cycle``: one pass over a fixed list of ops, in an order drawn from
``Context.rng``.  Each op runs through :meth:`Context.op`, which
records its wall and its span, so ``run.py`` can scale the wall by the
calibration kernel runs around it.  A cycle returns those and the
SimStats of its distinct experiments, each checked against the digest
recorded for it.

A traced run calls the same ``setup`` and ``cycle`` with the layers
timed by :func:`layers.instrument`.  Only serve-open acts on
``Context.trace``: its work runs in the service process, which it then
starts under the same instrumentation.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.core import pipeline
from repro.exec import set_artifact_cache
from repro.exec.executor import Job, prewarm_replay_jobs
from repro.queries import verify_workload
from repro.serve import RequestTemplate

import calibration
from layers import (
    DigestCheck,
    Experiment,
    LayerClock,
    experiment_key,
    stats_counters,
)
from openloop import Level, ServiceProcess, run_level, schedule

#: Render scenes of the cold sweep: the replay panel's five plus two
#: more; a cold pass over them takes about 5 s at default scale.
RENDER_SCENES = ("WKND", "BUNNY", "SPNZA", "CRNVL", "SHIP", "REF", "CHSNT")
PANEL_SCENES = ("WKND", "BUNNY", "SPNZA", "CRNVL", "SHIP")
PANEL_TECHNIQUES = (
    "baseline",
    "treelet-traversal",
    "treelet-prefetch",
    "treelet-prefetch,heuristic=popularity",
    "treelet-prefetch,heuristic=partial",
    "prefetch=mta",
)
QUERY_CASES = (("PTSUNI", "knn"), ("AMRTWO", "containment"))
#: 48 queries per scene instead of default scale's 256: a cold kNN pass
#: at 256 queries takes ~11 s, too long to repeat within one run.
QUERY_SCALE = pipeline.Scale("q48", scene_scale=1.0, width=8, height=6)
SERVE_TECHNIQUES = ("baseline", "treelet-prefetch", "treelet-traversal")
#: 48 requests due within 8 s (6 per second).  A cold service needs
#: about 5 s for the mix's 15 distinct results on a 2-CPU host, so it
#: is busy for most of the level, and the repeats that arrive after
#: their first result are result-LRU hits (30-45% of requests there).
SERVE_REQUESTS = 48
SERVE_SPAN_S = 8.0
FANOUT_JOBS = 2
CANDIDATE = "treelet-prefetch"

#: op name -> seconds, for one pass.
Times = Dict[str, float]


@dataclass
class Context:
    root: Path
    work: Path
    trace: bool
    check: DigestCheck
    #: ``run.py`` reseeds this with ``seed`` after the first cycle, which
    #: runs in one fixed order on every run, so that the peak RSS it
    #: sets does not depend on the seed.
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: The clock the current set-up or cycle is traced on.
    clock: Optional[LayerClock] = None
    #: Runs the calibration kernel while the suite measures.
    sampler: calibration.Sampler = field(default_factory=calibration.Sampler)
    #: Each op of the current cycle: its wall, less the kernel runs within
    #: it, and its (start, end) on the ``time.perf_counter`` clock.
    wall: Times = field(default_factory=dict)
    spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def begin(self) -> None:
        """Start a set-up or cycle: no ops yet."""
        self.wall, self.spans = {}, {}

    def op(self, name: str, call):
        """Run ``call()`` as the op ``name``; return what it returns."""
        start, spent = time.perf_counter(), self.sampler.total
        result = call()
        end = time.perf_counter()
        self.wall[name] = end - start - (self.sampler.total - spent)
        self.spans[name] = (start, end)
        return result

    def shuffled(self, items) -> list:
        return self.rng.sample(list(items), len(items))

    def fresh_cache_dir(self) -> Path:
        """An empty artifact-cache directory (replacing the last one)."""
        path = self.work / "cache"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def fresh_cache(self):
        """Activate an empty artifact cache in this process."""
        return set_artifact_cache(self.fresh_cache_dir())


@dataclass
class Cycle:
    """One pass: each op's wall and span (see :meth:`Context.op`), the
    SimStats of its distinct experiments and, traced on serve-open, the
    service's counts.  An op without a span is not scaled."""

    wall: Times
    spans: Dict[str, Tuple[float, float]]
    stats: Dict[Experiment, object]
    serve: Dict[str, float] = field(default_factory=dict)
    valid: bool = True

    def counters(self) -> Dict[str, float]:
        pairs = [
            (result, self.stats[(scene, CANDIDATE, workload)])
            for (scene, spec, workload), result in self.stats.items()
            if spec == "baseline" and (scene, CANDIDATE, workload)
            in self.stats
        ]
        return stats_counters(self.stats.values(), pairs)


def _check(ctx: Context, scale_name: str,
           stats: Dict[Experiment, object]) -> None:
    for experiment, result in stats.items():
        ctx.check.check(experiment_key(scale_name, experiment), result)


def fanout_speedup(serial_s: float, fanout_s: float, cpus: Optional[int],
                   jobs: int = FANOUT_JOBS) -> dict:
    """Serial over fan-out wall, or null when the host cannot run the
    workers side by side (the ratio would only measure IPC cost)."""
    if (cpus or 1) < jobs:
        return {"value": None, "reason": "cpus < jobs", "cpus": cpus,
                "jobs": jobs}
    return {"value": serial_s / fanout_s, "cpus": cpus, "jobs": jobs}


class Workload:
    """What the four share: scale, set-up and finish."""

    name = ""
    full_scale = pipeline.DEFAULT
    #: Set-ups per run; ``setup_s`` takes their median.
    setup_repeats = 5

    def __init__(self, smoke: bool) -> None:
        self.scale = pipeline.SMOKE if smoke else self.full_scale
        #: Extra records for the result document.
        self.document: Dict[str, object] = {}

    def setup(self, ctx: Context) -> None:
        pipeline.clear_caches()

    def cycle(self, ctx: Context) -> Cycle:
        raise NotImplementedError

    def finish(self, ctx: Context) -> None:
        set_artifact_cache(None)
        pipeline.clear_caches()


class SweepWorkload(Workload):
    """One-scene ``repro.api.sweep`` calls (baseline and
    treelet-prefetch) from cleared memos and an empty artifact cache.
    An op is one scene's sweep."""

    cases: Tuple[Tuple[str, str], ...] = ()
    #: Sweep every scene again from the warm disk cache after dropping
    #: the in-process memos; those ops are named ``.../warm``.
    rerun = False

    def cycle(self, ctx: Context) -> Cycle:
        cases = ctx.shuffled(self.cases)
        ctx.fresh_cache()
        pipeline.clear_caches()
        stats = self._sweeps(ctx, cases, "")
        if self.rerun:
            pipeline.clear_caches()
            self._sweeps(ctx, cases, "/warm")
        return Cycle(ctx.wall, ctx.spans, stats)

    def _sweeps(self, ctx: Context, cases, suffix: str):
        stats: Dict[Experiment, object] = {}
        for scene, workload in cases:
            outcome = ctx.op(
                f"{scene}/{workload}{suffix}",
                lambda: api.sweep(CANDIDATE, scenes=[scene], scale=self.scale,
                                  workload=workload),
            ).outcomes[scene]
            stats[(scene, "baseline", workload)] = outcome.baseline.stats
            stats[(scene, CANDIDATE, workload)] = outcome.candidate.stats
        _check(ctx, self.scale.name, stats)
        return stats


class RenderCold(SweepWorkload):
    name = "render-cold"
    cases = tuple((scene, "render") for scene in RENDER_SCENES)
    rerun = True


class QueryCold(SweepWorkload):
    name = "query-cold"
    full_scale = QUERY_SCALE
    cases = QUERY_CASES

    def finish(self, ctx: Context) -> None:
        """Query answers must equal brute force exactly (untimed)."""
        for scene, workload in QUERY_CASES:
            try:
                verdict = verify_workload(scene, self.scale, workload)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                ctx.check.fail(f"verify {scene}/{workload}: {exc!r}")
                continue
            if verdict.exact:
                ctx.check.attempted += 1
            else:
                ctx.check.fail(f"verify {scene}/{workload}: "
                               f"{verdict.mismatches} inexact answers")
        super().finish(ctx)


class ReplayPanel(Workload):
    """Thirty replays over warm traces: five scenes by six techniques.
    An op is one scene's six replays."""

    name = "replay-panel"
    #: Each set-up builds ten trace sets, ~3 s.
    setup_repeats = 3

    def setup(self, ctx: Context) -> None:
        """Build and store every trace set the panel replays."""
        pipeline.clear_caches()
        ctx.fresh_cache()
        pipeline.prewarm_traces(
            [(scene, api.parse_technique(spec)) for scene in PANEL_SCENES
             for spec in PANEL_TECHNIQUES],
            self.scale,
        )

    def cycle(self, ctx: Context) -> Cycle:
        stats: Dict[Experiment, object] = {}
        for scene in ctx.shuffled(PANEL_SCENES):
            specs = ctx.shuffled(PANEL_TECHNIQUES)
            runs = ctx.op(scene, lambda: [
                api.run(scene, spec, self.scale, cache=False)
                for spec in specs
            ])
            for spec, result in zip(specs, runs):
                stats[(scene, spec, "render")] = result.stats
        _check(ctx, self.scale.name, stats)
        return Cycle(ctx.wall, ctx.spans, stats)

    def finish(self, ctx: Context) -> None:
        """Traced: the 30 replays through ``prewarm_replay_jobs`` at
        jobs=1 and at jobs=2, with the traces warm in memory both times
        (untimed by the run)."""
        if ctx.trace:
            self.document["fanout"] = self._fanout(ctx)
        super().finish(ctx)

    def _fanout(self, ctx: Context) -> dict:
        experiments = [(scene, spec, "render") for scene in PANEL_SCENES
                       for spec in PANEL_TECHNIQUES]
        jobs = [Job(scene, api.parse_technique(spec), self.scale, workload)
                for scene, spec, workload in experiments]
        walls = {}
        for workers in (1, FANOUT_JOBS):
            # Forked workers would inherit memoized results: drop them.
            pipeline.clear_caches()
            pipeline.prewarm_traces(
                [(job.scene, job.technique, job.workload) for job in jobs],
                self.scale,
            )
            start = time.perf_counter()
            results = prewarm_replay_jobs(jobs, workers=workers)
            walls[workers] = time.perf_counter() - start
            _check(ctx, self.scale.name, {
                experiment: result.stats
                for experiment, result in zip(experiments, results)
            })
        return dict(fanout_speedup(walls[1], walls[FANOUT_JOBS],
                                   os.cpu_count()),
                    serial_s=walls[1], fanout_s=walls[FANOUT_JOBS])


class ServeOpen(Workload):
    """An open-loop level against a fresh ``repro serve`` process over
    an empty artifact cache.  The op is the level: first due time to
    last response."""

    name = "serve-open"

    def __init__(self, smoke: bool) -> None:
        super().__init__(smoke)
        self.templates = [(scene, spec, "render") for scene in PANEL_SCENES
                          for spec in SERVE_TECHNIQUES]
        self.submits = [
            RequestTemplate(scene=scene, technique=spec,
                            scale=self.scale.name).submit()
            for scene, spec, _ in self.templates
        ]
        self.document["levels"] = []

    def setup(self, ctx: Context) -> None:
        """Boot a service and stop it again.  The kernel waits: the
        service's process would compete with it for the CPU."""
        with ctx.sampler.paused(), ServiceProcess(ctx.root,
                                                  ctx.fresh_cache_dir()):
            pass

    def cycle(self, ctx: Context) -> Cycle:
        arrivals = schedule(ctx.rng.randrange(2 ** 32), SERVE_REQUESTS,
                            SERVE_SPAN_S, len(self.templates))
        layers_out = ctx.work / "service-layers.json" if ctx.trace else None
        # The kernel would delay the client's sends and compete with the
        # service for the CPU.  The level's wall is set by its schedule,
        # not by this host's speed, and stays as measured (no span).
        with ctx.sampler.paused(), ServiceProcess(
            ctx.root, ctx.fresh_cache_dir(), layers_out
        ) as service:
            level = run_level(service.port, arrivals, self.submits,
                              sample_s=0.05 if ctx.trace else None)
            metrics = service.metrics() if ctx.trace else None
        stats: Dict[Experiment, object] = {}
        for outcome in level.outcomes:
            experiment = self.templates[outcome.arrival.template]
            if outcome.ok:
                ctx.check.check(experiment_key(self.scale.name, experiment),
                                outcome.stats)
                stats[experiment] = outcome.stats
            else:
                ctx.check.fail(f"{experiment}: HTTP {outcome.status}, "
                               f"state {outcome.state!r}")
        self.document["levels"].append(level_record(level))
        ctx.wall["level"] = level.wall_s
        cycle = Cycle(ctx.wall, ctx.spans, stats, valid=level.valid)
        if ctx.trace:
            ctx.clock.absorb(json.loads(layers_out.read_text()))
            cycle.serve = serve_layers(level, metrics)
        return cycle


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def level_record(level: Level) -> dict:
    """What the result document keeps of one serve level."""
    ok = [o for o in level.outcomes if o.ok]
    return {
        "wall_s": level.wall_s,
        "late_p90_s": level.late_p90_s,
        "valid": level.valid,
        "requests": len(level.outcomes),
        "ok": len(ok),
        "cached": sum(o.cached for o in level.outcomes),
        "hit_p50_s": median_or_zero([o.latency_s for o in ok if o.cached]),
        "miss_p50_s": median_or_zero([o.latency_s for o in ok
                                      if not o.cached]),
        "goodput_rps": len(ok) / level.wall_s,
    }


def serve_layers(level: Level, metrics: dict) -> Dict[str, float]:
    """Serve-side counts of one level, read after it from
    ``GET /metrics`` and the ``/healthz`` sampler."""
    counters = metrics["metrics"]["counters"]
    sizes = metrics["metrics"]["histograms"].get("serve.batch_size", {})
    depths = level.queue_depths
    batches = counters.get("serve.batches", 0)
    return {
        "serve.batches": batches,
        "serve.batch_size_mean": (
            sizes.get("total", 0) / batches if batches else 0.0
        ),
        "serve.cache_hits": counters.get("serve.cache_hits", 0),
        "serve.cache_misses": counters.get("serve.cache_misses", 0),
        "serve.shed": counters.get("serve.shed_total", 0),
        "serve.queue_depth_max": max(depths, default=0),
        "serve.queue_depth_mean": sum(depths) / len(depths) if depths else 0,
    }


WORKLOADS = {
    cls.name: cls for cls in (RenderCold, ReplayPanel, QueryCold, ServeOpen)
}
