"""Parallel sweep executor: fan (scene, technique, scale) jobs across
one persistent pool of replay processes, with deterministic merging.

A job's result is :func:`repro.core.pipeline._run_experiment`'s.  In
the pool it is split at the replay: the caller builds the job's
:class:`~repro.core.pipeline.Replay` (tree, decomposition, layout,
trace set; memo hits after :func:`plan_workers`), ships it pickled to
a worker, which returns the :class:`SimStats`, and then assembles and
stores the result with :func:`repro.core.pipeline.experiment_result`,
the function the serial path uses.  The simulation is deterministic,
so a worker's stats are bit-for-bit those of the serial path; results
are merged in submission order, so sweeps assemble identically
regardless of which worker finished first.

The caller is one of the processes: with ``workers=N`` it replays one
share of the jobs itself while the pool replays the rest.  How many
processes a sweep uses by default is worked out from the host and the
work (:func:`plan_workers`).

The pool (:func:`replay_pool`) is forked once per process, at the
first fan-out (or by ``repro serve --workers N`` before its threads
start), with the processes that fan-out asks for, and only while the
caller is the only thread alive, so no lock another thread holds is
copied into a worker.  It is reused until exit; a later fan-out asking
for more processes replaces it with a bigger one when no other thread
is alive, and one asking for fewer keeps that many of its jobs in the
pool at a time.  Workers keep no memo and open no artifact cache, and
each dies with the process that forked it.

Robustness: a job that raises in a worker is retried (bounded) in the
pool; on exhaustion, a timeout, or a broken pool (hard worker crash)
the job falls back to in-process execution, and a batch that cannot
have a pool runs in-process; a sweep always completes with correct
results.  A broken or wedged pool is shut down, and the next fan-out
forks a new one if it may.

Progress is reported through an optional callback and, when a
:class:`repro.obs.MetricRegistry` is supplied, through ``exec.*``
counters (jobs done, per-source breakdown, retries, pool fallbacks and
breaks) — the same metric surface every other subsystem uses.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.pipeline import (
    DEFAULT,
    ExperimentResult,
    Job,
    Replay,
    Scale,
    Technique,
    _run_experiment,
    experiment_result,
    replay_of,
)
from ..gpusim import SimStats
from ..obs import spans as _spans


#: progress callback signature: (done, total, job, source) where source
#: is "pool", "pool-retry", "caller" (the caller's own share of a
#: fan-out), or "inprocess" (a serial run, or a fallback).
ProgressFn = Callable[[int, int, Job, str], None]

#: Visits each process's share of the missing replays must hold before
#: a sweep fans out by default: five times the replay a warm pool job's
#: round trip cost while decompositions were objects (~7 ms at up to
#: ~110k visits/s on a 2-CPU host), rounded.  As columns the round trip
#: is at most ~2 ms, about an eighteenth of it.  The derivation is in
#: docs/execution.md.
FANOUT_SHARE_VISITS = 4_000


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
    #: Batches asked to fan out that ran in-process because no pool
    #: could be had (none forked yet and another thread alive).
    pool_fallbacks: int = 0
    sources: Dict[str, int] = field(default_factory=dict)
    #: The fan-out plan (:func:`plan_workers`): processes that replayed
    #: (caller included), the CPUs this process may run on, the pool's
    #: start method, the visits of the replays to run, the per-share
    #: threshold the default count was held to, and the threads that
    #: were alive when the pool used was forked.
    workers: int = 1
    cpus: int = 0
    start_method: str = ""
    missing_visits: int = 0
    visit_threshold: int = 0
    pool_threads: int = 0
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
            "pool_threads": self.pool_threads,
        }


def _run_job(job: Job) -> ExperimentResult:
    """Evaluate one job in this process."""
    return _run_experiment(job.scene, job.technique, job.scale,
                           workload=job.workload)


def _job_span_args(job: Job, worker: str) -> dict:
    return {
        "scene": job.scene,
        "technique": job.technique.label(),
        "scale": job.scale.name,
        "worker": worker,
    }


def _pool_job(replay_fn: Callable[[Replay], SimStats], replay: Replay,
              ctx_dict: Optional[dict], span_args: dict):
    """Replay one job in a worker; returns ``(stats, spans)``.

    With the caller's :class:`~repro.obs.SpanContext` (``ctx_dict``) a
    fresh collector is activated (shadowing any span state inherited
    across ``fork``), the context parents the worker's ``exec.job``
    span so its trace_id threads through, and the finished spans ship
    back serialized — the caller folds them into
    :attr:`ExecutionReport.spans`.
    """
    if ctx_dict is None:
        return replay_fn(replay), []
    collector = _spans.SpanCollector(process="worker")
    token = _spans.activate(
        collector, _spans.SpanContext.from_dict(ctx_dict)
    )
    try:
        with _spans.span("exec.job", **span_args), _spans.span(
            "phase.replay", scene=span_args["scene"],
            technique=span_args["technique"],
        ):
            stats = replay_fn(replay)
    finally:
        _spans.deactivate(token)
    return stats, collector.to_dicts()


def _mp_context():
    """Fork when the platform has it (fast: a worker starts as a copy
    of the caller); spawn otherwise.  ``REPRO_MP_START`` overrides."""
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


@dataclass
class _Pool:
    executor: ProcessPoolExecutor
    processes: int
    #: Threads alive in this process when the workers were forked.
    threads: int
    #: The threads the executor started after the fork.
    own: frozenset

    def others_alive(self) -> bool:
        """Whether a thread that is neither the caller nor the pool's
        own is alive."""
        mine = self.own | {threading.current_thread()}
        return any(thread not in mine for thread in threading.enumerate())


#: The process's replay pool (:func:`replay_pool`), or None.
_POOL: Optional[_Pool] = None


def _watch_parent(parent: int) -> None:
    """Pool initializer: the worker is killed when the process that
    forked it dies, however it dies (Linux ``PR_SET_PDEATHSIG``), so no
    worker outlives its parent."""
    if sys.platform.startswith("linux"):
        import ctypes

        try:
            prctl = ctypes.CDLL(None).prctl
        except (OSError, AttributeError):
            prctl = None
        if prctl is not None:
            prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
            prctl.restype = ctypes.c_int
            prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent died before prctl
        os._exit(0)


def replay_pool(workers: int) -> Optional[_Pool]:
    """The process's replay pool, forked now with ``workers - 1``
    processes (the caller replays one share itself) if it has none.

    The pool is kept until exit.  One with fewer than ``workers - 1``
    processes is replaced by a bigger one when no thread but the
    caller and the pool's own is alive, and is returned as it is
    otherwise.  A pool is forked only while the calling thread is the
    only one alive; otherwise, and when forking fails, there is no pool
    and None is returned.  The GC is frozen across the fork, so the
    workers do not copy the pages of objects a collection would
    touch."""
    global _POOL
    processes = max(workers - 1, 1)
    if _POOL is not None:
        if _POOL.processes >= processes or _POOL.others_alive():
            return _POOL
        close_pool()
    threads = threading.active_count()
    if threads != 1:
        return None
    executor = ProcessPoolExecutor(
        max_workers=processes,
        mp_context=_mp_context(),
        initializer=_watch_parent,
        initargs=(os.getpid(),),
    )
    gc.freeze()
    try:
        # Fork every worker now, before the executor starts its
        # threads: Pythons without the fix of CPython issue 90622
        # would fork them on demand, with those threads alive.
        for _ in range(processes):
            executor._adjust_process_count()
        executor.submit(int).result()  # the workers run
    except (OSError, BrokenProcessPool):  # no pool; the batch runs here
        _shut(executor, kill=True)
        return None
    finally:
        gc.unfreeze()
    own = frozenset(threading.enumerate()) - {threading.current_thread()}
    _POOL = _Pool(executor, processes, threads, own)
    return _POOL


def pool_info() -> Optional[dict]:
    """The replay pool's size and the threads alive when it was
    forked, or None when this process has no pool."""
    if _POOL is None:
        return None
    return {"processes": _POOL.processes, "threads_at_fork": _POOL.threads}


def _shut(executor: ProcessPoolExecutor, kill: bool) -> None:
    if kill:  # a wedged worker would never take the shutdown sentinel
        for process in list((executor._processes or {}).values()):
            process.terminate()
    executor.shutdown(wait=True, cancel_futures=True)


def close_pool(kill: bool = False) -> None:
    """Shut the replay pool down (``kill`` terminates its workers
    first); the next fan-out forks a new one if it may."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        _shut(pool.executor, kill)


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
    forks and either exists or could be forked now (no other thread
    alive).
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
        if report.start_method == "fork" and (
                _POOL is not None or threading.active_count() == 1):
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
    job_timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[ProgressFn] = None,
    metrics=None,
    replay_fn: Callable[[Replay], SimStats] = Replay.run,
    report: Optional[ExecutionReport] = None,
) -> List[ExperimentResult]:
    """Run every job and return results in input order.

    Duplicate jobs (same :meth:`Job.key`) are evaluated once.
    ``workers <= 1`` runs everything in-process (no pool).  Otherwise
    the caller replays one share of the jobs (:func:`_caller_share`)
    while the replay pool replays the rest, never more than
    ``workers - 1`` of them at a time.  ``replay_fn`` is what a pool
    worker runs on a job's :class:`~repro.core.pipeline.Replay`; it is
    pickled by reference, so it must be a module-level function
    (injectable for fault-injection tests).  ``metrics`` (a
    :class:`repro.obs.MetricRegistry`) adds ``exec.*`` counters on top
    of any explicit ``progress`` callback.
    """
    report = report if report is not None else ExecutionReport()
    jobs = list(jobs)

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

    # Span plumbing: with an ambient span context, pool jobs collect
    # spans in the worker (shipped back with the stats) and in-process
    # jobs record straight into the ambient collector.
    collector = _spans.active_collector()
    context = _spans.current_context()
    traced = collector is not None and context is not None

    def local_run(job: Job, worker: str = "inprocess") -> ExperimentResult:
        if not traced:
            return _run_job(job)
        with _spans.span("exec.job", **_job_span_args(job, worker)):
            return _run_job(job)

    def count(name: str) -> None:
        if metrics is not None:
            metrics.counter(name).inc()

    def announce(done: int, job: Job, source: str) -> None:
        report.note(source)
        for callback in callbacks:
            # A progress callback is user code observing the sweep; an
            # exception inside it must never abort jobs mid-flight.
            try:
                callback(done, len(unique), job, source)
            except Exception:  # noqa: BLE001 — observer isolation
                report.progress_errors += 1
                count("exec.progress_errors")

    pool = None
    if workers > 1 and len(unique) > 1:
        pool = replay_pool(workers)
        if pool is None:
            report.pool_fallbacks += 1
            count("exec.pool_fallbacks")
        else:
            report.pool_threads = pool.threads
            workers = min(workers, pool.processes + 1)

    results: Dict[str, ExperimentResult] = {}
    if pool is None:
        report.workers = 1
        for index, job in enumerate(unique):
            results[job.key()] = local_run(job)
            announce(index + 1, job, "inprocess")
        return [results[job.key()] for job in jobs]

    ctx_dict = context.to_dict() if traced else None
    own = _caller_share(len(unique), workers)
    pooled = [job for index, job in enumerate(unique) if index not in own]
    report.workers = 1 + min(workers - 1, len(pooled))
    replays = {job.key(): replay_of(job) for job in pooled}
    futures = {}
    waiting = list(pooled)
    broken = False
    # A pool with more processes than this batch may use holds only
    # ``workers - 1`` of its jobs at a time; one of the batch's size
    # takes them all at once and queues them itself.
    limit = workers - 1 if pool.processes >= workers else len(pooled)

    def submit(job: Job):
        """``job``'s future in the pool, or None once the pool broke."""
        nonlocal broken
        if not broken:
            try:
                return pool.executor.submit(
                    _pool_job, replay_fn, replays[job.key()], ctx_dict,
                    _job_span_args(job, "pool"),
                )
            except BrokenProcessPool:
                broken = True
        return None

    def top_up() -> None:
        """Send the pool the next waiting jobs while fewer than
        ``limit`` of its jobs are unfinished."""
        while waiting and sum(
                future is not None and not future.done()
                for future in futures.values()) < limit:
            job = waiting.pop(0)
            futures[job.key()] = submit(job)

    try:
        top_up()
        done = 0
        for index in own:
            job = unique[index]
            results[job.key()] = local_run(job, "caller")
            done += 1
            announce(done, job, "caller")
            top_up()
        for job in pooled:
            outcome = None
            source = "pool"
            attempts = 0
            top_up()
            # Not sent when the unfinished jobs of a wedged pool hold
            # every place: it falls back below.
            future = futures.get(job.key())
            while future is not None and not broken:
                try:
                    outcome = future.result(timeout=job_timeout)
                    break
                except FutureTimeoutError:
                    # The worker is wedged on this job; the pool is
                    # shut down after the batch.
                    report.timeouts += 1
                    break
                except BrokenProcessPool:
                    broken = True
                except Exception:
                    report.worker_failures += 1
                    if attempts == retries:
                        break
                    attempts += 1
                    report.retried += 1
                    source = "pool-retry"
                    future = futures[job.key()] = submit(job)
            if outcome is None:
                # Graceful fallback: evaluate here, in this process.
                result = local_run(job)
                source = "inprocess"
            else:
                stats, shipped = outcome
                if shipped:
                    report.spans.extend(shipped)
                    collector.add_dicts(shipped)
                result = experiment_result(job, replays[job.key()], stats)
            results[job.key()] = result
            done += 1
            announce(done, job, source)
    finally:
        for future in futures.values():
            if future is not None:
                future.cancel()
        if broken:
            report.pool_broken = True
            count("exec.pool_broken")
        if broken or report.timeouts:
            close_pool(kill=True)
    return [results[job.key()] for job in jobs]


def prewarm_replay_jobs(
    jobs: Sequence[Job],
    workers: Optional[int],
    *,
    report: Optional[ExecutionReport] = None,
    **options,
) -> List[ExperimentResult]:
    """Replay ``jobs`` over the replay pool, seeding the result memo.

    Trace generation is hoisted into the caller first — every missing
    trace set rides one vectorized forest pass per distinct scale
    (:func:`plan_workers`, which also resolves ``workers=None`` to the
    default count).  ``options`` passes through to
    :func:`execute_jobs` (progress/metrics/timeouts/span shipping — the
    deterministic merge and fallback semantics are unchanged).
    """
    jobs = list(jobs)
    report = report if report is not None else ExecutionReport()
    workers = plan_workers(jobs, workers, report)
    return execute_jobs(jobs, workers=workers, report=report, **options)


def prewarm_replays(
    techniques: Iterable[Technique],
    scenes: Iterable[str],
    scale: Scale = DEFAULT,
    jobs: Optional[int] = 1,
    workload: str = "render",
    **options,
) -> List[ExperimentResult]:
    """:func:`prewarm_replay_jobs` over every (scene, technique) pair:
    the traces are built in one vectorized forest pass, then the
    replays fan across ``jobs`` processes and seed the result memo, so
    subsequent serial code (sweep assembly, report loops, benchmarks)
    hits memory instead of re-simulating."""
    batch = [
        Job(scene=scene, technique=technique, scale=scale, workload=workload)
        for technique in techniques
        for scene in scenes
    ]
    return prewarm_replay_jobs(batch, workers=jobs, **options)
