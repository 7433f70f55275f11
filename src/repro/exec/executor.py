"""Parallel sweep executor: fan (scene, technique, scale) jobs across
worker processes with deterministic merging.

Every job is one :func:`repro.core.pipeline._run_experiment` call.  The
simulation is deterministic, so a worker produces :class:`SimStats`
bit-for-bit identical to the serial path; the executor only changes
*where* jobs run, never *what* they compute.  Results are merged in
submission order, so sweeps assemble identically regardless of which
worker finished first.

The caller is one of the processes: with ``workers=N`` it replays one
share of the jobs itself while a pool of ``N - 1`` processes replays
the rest.  How many processes a sweep uses by default is worked out
from the host and the work (:func:`plan_workers`).

Robustness: a job that raises in a worker is retried (bounded) in the
pool; on exhaustion, a timeout, or a broken pool (hard worker crash)
the job falls back to in-process execution, so a sweep always
completes with correct results.  Workers share the on-disk artifact
cache (:mod:`repro.exec.cache`), so each scene's BVH/rays/traces are
built once across the whole fleet, and each result a worker replays is
stored there for the next process that asks for it.

Progress is reported through an optional callback and, when a
:class:`repro.obs.MetricRegistry` is supplied, through ``exec.*``
counters (jobs done, per-source breakdown, retries) — the same metric
surface every other subsystem uses.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.memo import MEMO
from ..core.pipeline import (
    DEFAULT,
    ExperimentResult,
    Job,
    Scale,
    Technique,
    _run_experiment,
)
from ..obs import spans as _spans
from .cache import get_artifact_cache, set_artifact_cache


#: progress callback signature: (done, total, job, source) where source
#: is "pool", "pool-retry", "caller" (the caller's own share of a
#: fan-out), or "inprocess" (a serial run, or a fallback).
ProgressFn = Callable[[int, int, Job, str], None]

#: Visits each process's share of the missing replays must hold before
#: a sweep fans out by default: 10x the replay a worker's fork and
#: result return cost (~16 ms at up to ~110k visits/s on a 2-CPU
#: host), rounded.  The derivation is in docs/execution.md.
FANOUT_SHARE_VISITS = 20_000


@dataclass
class ExecutionReport:
    """What happened while executing a batch of jobs."""

    submitted: int = 0
    completed: int = 0
    from_pool: int = 0
    retried: int = 0
    timeouts: int = 0
    worker_failures: int = 0
    inprocess_fallbacks: int = 0
    progress_errors: int = 0
    from_caller: int = 0
    pool_broken: bool = False
    sources: Dict[str, int] = field(default_factory=dict)
    #: The fan-out plan (:func:`plan_workers`): processes that replayed
    #: (caller included), the CPUs this process may run on, the pool's
    #: start method, the visits of the replays to run and the
    #: per-share threshold the default count was held to.
    workers: int = 1
    cpus: int = 0
    start_method: str = ""
    missing_visits: int = 0
    visit_threshold: int = 0
    #: Serialized spans shipped back from pool workers (repro.obs.spans
    #: dicts); populated only when a span context was active at submit.
    spans: List[dict] = field(default_factory=list)

    def note(self, source: str) -> None:
        self.completed += 1
        self.sources[source] = self.sources.get(source, 0) + 1
        if source.startswith("pool"):
            self.from_pool += 1
        elif source == "caller":
            self.from_caller += 1
        else:
            self.inprocess_fallbacks += 1

    def plan(self) -> dict:
        """The fan-out plan and the host facts it was made from."""
        return {
            "workers": self.workers,
            "cpus": self.cpus,
            "start_method": self.start_method,
            "missing_visits": self.missing_visits,
            "visit_threshold": self.visit_threshold,
        }


def _init_worker(cache_dir: Optional[str]) -> None:
    """Pool initializer: point the worker at the shared artifact cache."""
    if cache_dir:
        set_artifact_cache(cache_dir)


def _run_job(job: Job) -> ExperimentResult:
    """Evaluate one job (top-level so it pickles into workers)."""
    return _run_experiment(
        job.scene, job.technique, job.scale, workload=job.workload
    )


def _job_span_args(job: Job, worker: str) -> dict:
    return {
        "scene": job.scene,
        "technique": job.technique.label(),
        "scale": job.scale.name,
        "worker": worker,
    }


def _run_job_traced(job: Job, ctx_dict: dict):
    """Evaluate one job in a worker *with span collection*.

    A fresh collector is activated (shadowing any span state inherited
    across ``fork``), the caller's :class:`~repro.obs.SpanContext`
    parents the worker's ``exec.job`` span so its trace_id threads
    through, and the finished spans ship back serialized alongside the
    result — the caller folds them into :attr:`ExecutionReport.spans`.
    """
    collector = _spans.SpanCollector(process="worker")
    token = _spans.activate(
        collector, _spans.SpanContext.from_dict(ctx_dict)
    )
    try:
        with _spans.span("exec.job", **_job_span_args(job, "pool")):
            result = _run_job(job)
    finally:
        _spans.deactivate(token)
    return result, collector.to_dicts()


def _mp_context():
    """Fork when the platform has it (fast, inherits the warm memo);
    spawn otherwise.  ``REPRO_MP_START`` overrides."""
    import multiprocessing

    name = os.environ.get("REPRO_MP_START", "").strip()
    if name:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def host_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def plan_workers(
    jobs: Sequence[Job],
    workers: Optional[int],
    report: ExecutionReport,
) -> int:
    """Build the trace sets of ``jobs`` in this process and return how
    many processes should replay them, recording the host facts and
    the visits on ``report`` (:func:`execute_jobs` records the count).

    An explicit ``workers`` is kept.  ``None`` means one process per
    CPU, at most one per job and at most one per
    :data:`FANOUT_SHARE_VISITS` visits, and serial unless the pool
    would ``fork`` a process whose only thread is the caller's: forked
    workers then inherit the traces built here, and no lock held by
    another thread is copied into them.
    """
    from ..core import pipeline

    by_scale: Dict[Scale, list] = {}
    for job in jobs:
        by_scale.setdefault(job.scale, []).append(
            (job.scene, job.technique, job.workload)
        )
    report.missing_visits = sum(
        len(traces.node_ids)
        for scale, triples in by_scale.items()
        for traces in pipeline._trace_sets(triples, scale)
    )
    report.cpus = host_cpus()
    report.start_method = _mp_context().get_start_method()
    report.visit_threshold = FANOUT_SHARE_VISITS
    if workers is None:
        workers = 1
        if (report.start_method == "fork"
                and threading.active_count() == 1):
            workers = min(report.cpus, len(jobs),
                          report.missing_visits // FANOUT_SHARE_VISITS)
    return max(workers, 1)


def _caller_share(count: int, workers: int) -> List[int]:
    """Indices of the jobs the caller replays itself when ``count`` jobs
    split over ``workers`` processes.  Jobs are dealt to the shares in
    snake order (0, 1, .., W-1, W-1, .., 0), so a sweep's alternating
    baseline and candidate jobs spread evenly over them; the caller
    takes share 0."""
    return [index for index in range(count)
            if index % (2 * workers) in (0, 2 * workers - 1)]


def metrics_progress(registry) -> ProgressFn:
    """A progress callback that folds into a repro.obs MetricRegistry."""

    def progress(done: int, total: int, job: Job, source: str) -> None:
        registry.counter("exec.jobs_done").inc()
        registry.counter(f"exec.jobs_{source.replace('-', '_')}").inc()

    return progress


def execute_jobs(
    jobs: Sequence[Job],
    workers: int,
    *,
    cache_dir: Optional[str] = None,
    job_timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[ProgressFn] = None,
    metrics=None,
    job_fn: Callable[[Job], ExperimentResult] = _run_job,
    report: Optional[ExecutionReport] = None,
) -> List[ExperimentResult]:
    """Run every job and return results in input order.

    Duplicate jobs (same :meth:`Job.key`) are evaluated once.
    ``workers <= 1`` runs everything in-process (no pool).  Otherwise
    the caller replays one share of the jobs (:func:`_caller_share`)
    while a pool of ``workers - 1`` processes replays the rest.  ``job_fn``
    is injectable for fault-injection tests.  ``metrics`` (a
    :class:`repro.obs.MetricRegistry`) adds ``exec.*`` counters on top
    of any explicit ``progress`` callback.
    """
    report = report if report is not None else ExecutionReport()
    jobs = list(jobs)
    if cache_dir is None and get_artifact_cache() is not None:
        cache_dir = str(get_artifact_cache().root)

    callbacks: List[ProgressFn] = []
    if progress is not None:
        callbacks.append(progress)
    if metrics is not None:
        callbacks.append(metrics_progress(metrics))

    unique: List[Job] = []
    seen = {}
    for job in jobs:
        if job.key() not in seen:
            seen[job.key()] = len(unique)
            unique.append(job)
    report.submitted = len(unique)

    # Span plumbing: with an ambient span context and the stock job
    # function, pool jobs run the traced wrapper (worker spans ship
    # back inside the result tuple) and in-process jobs record straight
    # into the ambient collector.
    collector = _spans.active_collector()
    context = _spans.current_context()
    traced = (
        job_fn is _run_job and collector is not None and context is not None
    )

    def local_run(job: Job, worker: str = "inprocess") -> ExperimentResult:
        if not traced:
            return job_fn(job)
        with _spans.span("exec.job", **_job_span_args(job, worker)):
            return _run_job(job)

    def announce(done: int, job: Job, source: str) -> None:
        report.note(source)
        for callback in callbacks:
            # A progress callback is user code observing the sweep; an
            # exception inside it must never abort jobs mid-flight.
            try:
                callback(done, len(unique), job, source)
            except Exception:  # noqa: BLE001 — observer isolation
                report.progress_errors += 1
                if metrics is not None:
                    metrics.counter("exec.progress_errors").inc()

    results: Dict[tuple, ExperimentResult] = {}
    if workers <= 1 or len(unique) <= 1:
        report.workers = 1
        for index, job in enumerate(unique):
            results[job.key()] = local_run(job)
            announce(index + 1, job, "inprocess")
        return [results[job.key()] for job in jobs]

    def pool_submit(job: Job):
        if traced:
            return pool.submit(_run_job_traced, job, context.to_dict())
        return pool.submit(job_fn, job)

    own = _caller_share(len(unique), workers)
    pooled = [job for index, job in enumerate(unique) if index not in own]
    report.workers = 1 + min(workers - 1, len(pooled))
    pool = ProcessPoolExecutor(
        max_workers=report.workers - 1,
        mp_context=_mp_context(),
        initializer=_init_worker,
        initargs=(cache_dir,),
    )
    pool_healthy = True
    try:
        futures = {job.key(): pool_submit(job) for job in pooled}
        done = 0
        for index in own:
            job = unique[index]
            results[job.key()] = local_run(job, "caller")
            done += 1
            announce(done, job, "caller")
        for job in pooled:
            result = None
            source = "pool"
            attempts = 0
            future = futures[job.key()]
            while pool_healthy:
                try:
                    result = future.result(timeout=job_timeout)
                    break
                except FutureTimeoutError:
                    report.timeouts += 1
                    # The worker is wedged on this job; don't trust the
                    # pool slot again for it.
                    break
                except BrokenProcessPool:
                    report.pool_broken = True
                    pool_healthy = False
                    break
                except Exception:
                    report.worker_failures += 1
                    if attempts < retries:
                        attempts += 1
                        report.retried += 1
                        source = "pool-retry"
                        try:
                            future = pool_submit(job)
                        except Exception:
                            pool_healthy = False
                            break
                        continue
                    break
            if result is None:
                # Graceful fallback: evaluate here, in this process.
                result = local_run(job)
                source = "inprocess"
            elif traced:
                result, shipped = result
                report.spans.extend(shipped)
                collector.add_dicts(shipped)
            results[job.key()] = result
            done += 1
            announce(done, job, source)
    finally:
        # Don't block on wedged workers; drop anything still queued.
        wait = pool_healthy and report.timeouts == 0
        pool.shutdown(wait=wait, cancel_futures=True)
    return [results[job.key()] for job in jobs]


def prewarm_results(
    techniques: Iterable[Technique],
    scenes: Iterable[str],
    scale: Scale = DEFAULT,
    jobs: int = 1,
    **options,
) -> List[ExperimentResult]:
    """Evaluate every (scene, technique) pair and seed the in-process
    memo with the results, so subsequent serial code (sweep assembly, report
    loops, benchmarks) hits memory instead of re-simulating."""
    batch = [
        Job(scene=scene, technique=technique, scale=scale)
        for technique in techniques
        for scene in scenes
    ]
    return _memoized(batch, execute_jobs(batch, workers=jobs, **options))


def _memoized(jobs: Sequence[Job], results: List[ExperimentResult]):
    """Seed the in-process result memo with ``results``, under the key
    each job's run stored them on disk with."""
    for job, result in zip(jobs, results):
        MEMO.put("result", job.key(), result)
    return results


def prewarm_replay_jobs(
    jobs: Sequence[Job],
    workers: Optional[int],
    *,
    report: Optional[ExecutionReport] = None,
    **options,
) -> List[ExperimentResult]:
    """Fan the *replay* phase of ``jobs`` across the worker pool.

    Trace generation is hoisted into the parent first — every missing
    trace set rides one vectorized forest pass per distinct scale
    (:func:`plan_workers`, which also resolves ``workers=None`` to the
    default count).  Fork-started workers then inherit the warm
    memoized traces and spend their time purely on simulation replay
    (spawn-started workers reload the traces from the shared artifact
    cache when one is active).  Results seed the in-process memo
    exactly like :func:`prewarm_results`, and ``options`` passes
    through to :func:`execute_jobs` (progress/metrics/timeouts/span
    shipping — the deterministic merge and fallback semantics are
    unchanged).
    """
    jobs = list(jobs)
    report = report if report is not None else ExecutionReport()
    workers = plan_workers(jobs, workers, report)
    return _memoized(jobs, execute_jobs(
        jobs, workers=workers, report=report, **options
    ))


def prewarm_replays(
    techniques: Iterable[Technique],
    scenes: Iterable[str],
    scale: Scale = DEFAULT,
    jobs: int = 1,
    workload: str = "render",
    **options,
) -> List[ExperimentResult]:
    """:func:`prewarm_results` with the replay phase fanned out: traces
    for every (scene, technique) pair are batch-generated in the parent
    (one vectorized forest pass), then the replays fan across ``jobs``
    worker processes and seed the in-process memo."""
    batch = [
        Job(scene=scene, technique=technique, scale=scale, workload=workload)
        for technique in techniques
        for scene in scenes
    ]
    return prewarm_replay_jobs(batch, workers=jobs, **options)

