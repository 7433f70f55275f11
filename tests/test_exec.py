"""Tests for repro.exec: the parallel sweep executor and the persistent
artifact cache.

The acceptance bar: ``repro.api.sweep(..., jobs=2)`` must produce
``SimStats`` bit-for-bit identical to the serial path, a warm on-disk
cache must let a second invocation skip *all* artifact reconstruction
(asserted via the pipeline's build counters), and a worker that raises
or dies must not take the sweep down with it.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import BASELINE, SMOKE, TREELET_PREFETCH
from repro.api import compare, run, sweep
from repro.core import build_counts, clear_caches, reset_build_counts
from repro.core.pipeline import get_traces
from repro.exec import (
    ArtifactCache,
    CACHE_SCHEMA_VERSION,
    ExecutionReport,
    Job,
    execute_jobs,
    get_artifact_cache,
    prewarm_replays,
    replay_pool,
    set_artifact_cache,
)
from repro.exec.cache import fingerprint
from repro.exec.executor import FANOUT_SHARE_VISITS, close_pool

SCENES = ["WKND", "SHIP"]


def _fail_in_worker(replay):
    """An injected pool replay that always raises."""
    raise RuntimeError("injected worker failure")


def _die_in_worker(replay):
    """An injected pool replay that hard-crashes its worker."""
    os._exit(13)  # no exception, no cleanup


def _wedge_in_worker(replay):
    """An injected pool replay that never returns in time."""
    time.sleep(60)


def _count_replays(monkeypatch) -> list:
    """Record every ``GpuModel.run`` call from now on."""
    from repro.gpusim import GpuModel

    replays = []
    replay = GpuModel.run

    def counted(self, *args, **kwargs):
        replays.append(1)
        return replay(self, *args, **kwargs)

    monkeypatch.setattr(GpuModel, "run", counted)
    return replays


def _count_loads(monkeypatch) -> list:
    """Record the kind of every artifact-cache entry loaded from now on."""
    loaded = []
    load = ArtifactCache.load

    def counted(self, kind, key):
        artifact = load(self, kind, key)
        if artifact is not None:
            loaded.append(kind)
        return artifact

    monkeypatch.setattr(ArtifactCache, "load", counted)
    return loaded


@pytest.fixture(autouse=True)
def isolated_caches():
    """Every test starts with no active disk cache and cold memoizers."""
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()
    yield
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()


def _trace_shape(traces):
    """Structural view of a trace list (RayTrace has no __eq__)."""
    return [
        (
            trace.ray_id,
            [
                (visit.node_id, visit.is_leaf, visit.primitive_count)
                for visit in trace.visits
            ],
        )
        for trace in traces
    ]


class TestArtifactCache:
    def test_fingerprint_is_deterministic(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        components = {"scene": "WKND", "scale": 0.05, "bytes": 512}
        assert fingerprint("bvh", components) == fingerprint(
            "bvh", dict(reversed(list(components.items())))
        )

    def test_fingerprint_varies_with_inputs_and_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        base = fingerprint("bvh", {"scene": "WKND"})
        assert fingerprint("bvh", {"scene": "SHIP"}) != base
        assert fingerprint("rays", {"scene": "WKND"}) != base

    def test_store_load_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"nodes": list(range(32)), "name": "x"}
        fp = fingerprint("bvh", {"scene": "X"})
        path = cache.store("bvh", fp, payload)
        assert path.exists()
        assert f"v{CACHE_SCHEMA_VERSION}" in str(path)
        assert cache.load("bvh", fp) == payload
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("bvh", "0" * 64) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_dropped(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        fp = fingerprint("traces", {"scene": "X"})
        path = cache.store("traces", fp, [1, 2, 3])
        path.write_bytes(b"not a pickle")
        assert cache.load("traces", fp) is None
        assert not path.exists()  # torn entry removed for rebuild
        assert cache.stats.errors == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        for i in range(3):
            fp = fingerprint("rays", {"i": i})
            cache.store("rays", fp, [i])
        assert cache.entries() == 3
        assert cache.clear() == 3
        assert cache.entries() == 0
        assert cache.clear() == 0  # idempotent on an empty root

    def test_describe_counts_per_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("bvh", fingerprint("bvh", {"i": 1}), [1])
        cache.store("rays", fingerprint("rays", {"i": 1}), [1])
        info = cache.describe()
        assert info["entries"] == 2
        assert info["per_kind"]["bvh"] == 1
        assert info["per_kind"]["rays"] == 1
        assert info["per_kind"]["traces"] == 0
        assert info["size_bytes"] > 0

    def test_other_schema_versions_count_as_stale(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("bvh", fingerprint("bvh", {"i": 1}), [1])
        stale = tmp_path / "v1" / "bvh" / "ab" / ("ab" + "0" * 62 + ".pkl")
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"x" * 100)
        info = cache.describe()
        assert info["entries"] == cache.entries() == 1
        assert info["size_bytes"] == cache.size_bytes()
        assert info["size_bytes"] == cache.path_for(
            "bvh", fingerprint("bvh", {"i": 1})).stat().st_size
        assert info["per_kind"]["bvh"] == 1
        assert info["stale_entries"] == 1
        assert info["stale_bytes"] == 100
        assert cache.clear() == 2  # clear reclaims every version

    def test_global_activation(self, tmp_path):
        assert get_artifact_cache() is None
        active = set_artifact_cache(tmp_path)
        assert get_artifact_cache() is active
        assert active.root == tmp_path
        set_artifact_cache(None)
        assert get_artifact_cache() is None


class TestPipelineSpill:
    def test_traces_round_trip_through_disk(self, tmp_path):
        cache = set_artifact_cache(tmp_path)
        built = get_traces("WKND", SMOKE, "dfs", 512)
        assert cache.stats.stores >= 1
        clear_caches()  # drop memoizers; disk survives
        reloaded = get_traces("WKND", SMOKE, "dfs", 512)
        assert reloaded is not built
        assert cache.stats.hits >= 1
        assert _trace_shape(reloaded) == _trace_shape(built)

    def test_warm_cache_skips_all_reconstruction(self, tmp_path):
        cache = set_artifact_cache(tmp_path)
        cold = sweep(TREELET_PREFETCH, SCENES, SMOKE)
        assert any(build_counts().values())
        assert cache.stats.stores >= 1

        clear_caches()
        reset_build_counts()
        warm = sweep(TREELET_PREFETCH, SCENES, SMOKE)
        # Every artifact came off disk: nothing was rebuilt — scenes
        # included, since BVH/ray loads never touch the mesh.
        assert build_counts() == {
            "scene": 0, "bvh": 0, "rays": 0, "query_plan": 0,
            "decomposition": 0, "traces": 0,
        }
        assert cache.stats.hits >= 1
        for scene in SCENES:
            assert (
                warm.outcomes[scene].candidate.stats
                == cold.outcomes[scene].candidate.stats
            )

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        set_artifact_cache(tmp_path)
        get_traces("WKND", SMOKE, "dfs", 512)
        clear_caches()
        reset_build_counts()
        monkeypatch.setattr(
            "repro.exec.cache.CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        get_traces("WKND", SMOKE, "dfs", 512)
        # Old entries are no longer addressed: the trace (and the
        # BVH/rays it needs) had to be rebuilt.
        assert build_counts()["traces"] == 1

    def test_v3_entries_are_not_addressed_by_v4(self, tmp_path, monkeypatch):
        # v4 stores decompositions as column arrays; an entry written
        # by v3 (which held Treelet objects and an assignment dict)
        # must never be loaded as a v4 one.
        assert CACHE_SCHEMA_VERSION == 4
        cache = set_artifact_cache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr("repro.exec.cache.CACHE_SCHEMA_VERSION", 3)
            get_traces("WKND", SMOKE, "treelet", 512)
        v3_entries = sum(1 for _ in (tmp_path / "v3").rglob("*.pkl"))
        assert v3_entries == 4  # bvh, rays, decomposition, traces
        clear_caches()
        reset_build_counts()
        get_traces("WKND", SMOKE, "treelet", 512)
        assert build_counts()["bvh"] == 1
        assert build_counts()["decomposition"] == 1
        assert build_counts()["traces"] == 1
        info = cache.describe()
        assert info["entries"] == cache.entries() == 4
        assert info["stale_entries"] == v3_entries

    def test_cache_off_builds_normally(self):
        get_traces("WKND", SMOKE, "dfs", 512)
        assert build_counts()["traces"] == 1

    def test_warm_sweep_loads_stored_results(self, tmp_path, monkeypatch):
        set_artifact_cache(tmp_path)
        cold = sweep(TREELET_PREFETCH, SCENES, SMOKE)
        clear_caches()
        replays = _count_replays(monkeypatch)
        loaded = _count_loads(monkeypatch)
        warm = sweep(TREELET_PREFETCH, SCENES, SMOKE)
        assert replays == []
        assert loaded == ["result"] * 2 * len(SCENES)
        for scene in SCENES:
            for side in ("baseline", "candidate"):
                assert (
                    getattr(warm.outcomes[scene], side).stats
                    == getattr(cold.outcomes[scene], side).stats
                ), (scene, side)

    def test_source_edit_leaves_results_unaddressed(
        self, tmp_path, monkeypatch
    ):
        set_artifact_cache(tmp_path)
        sweep(TREELET_PREFETCH, SCENES, SMOKE)
        clear_caches()
        monkeypatch.setattr(
            "repro.exec.cache.source_digest", lambda: "0" * 64
        )
        replays = _count_replays(monkeypatch)
        sweep(TREELET_PREFETCH, SCENES, SMOKE)
        assert len(replays) == 2 * len(SCENES)

    def test_no_source_keeps_results_in_memory(self, tmp_path, monkeypatch):
        cache = set_artifact_cache(tmp_path)
        monkeypatch.setattr("repro.exec.cache.source_digest", lambda: None)
        run("WKND", BASELINE, SMOKE)
        assert cache.describe()["per_kind"]["result"] == 0
        assert cache.entries() > 0  # the artifacts are still stored

    def test_bypassed_runs_neither_load_nor_store(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import Observer

        cache = set_artifact_cache(tmp_path)
        stored = run("WKND", BASELINE, SMOKE)
        assert cache.describe()["per_kind"]["result"] == 1
        clear_caches()
        replays = _count_replays(monkeypatch)
        bypassed = [
            run("WKND", BASELINE, SMOKE, cache=False),
            run("WKND", BASELINE, SMOKE, observer=Observer()),
        ]
        assert len(replays) == len(bypassed)
        assert cache.describe()["per_kind"]["result"] == 1
        for result in bypassed:
            assert result.stats == stored.stats

    def test_gpu_variant_results_are_stored(self, tmp_path, monkeypatch):
        """A run on a GPU variant of a scale stores its result under a
        key of its own and loads it again with no replay."""
        from dataclasses import replace

        from repro.core.config import smoke_config

        cache = set_artifact_cache(tmp_path)
        one_sm = replace(SMOKE, gpu=replace(SMOKE.gpu, n_sms=1))
        stored = run("WKND", BASELINE, one_sm)
        assert cache.describe()["per_kind"]["result"] == 1
        clear_caches()
        replays = _count_replays(monkeypatch)
        loaded = run("WKND", BASELINE, one_sm)
        assert replays == []
        assert loaded.stats == stored.stats

        def key(scale):
            return Job("WKND", BASELINE, scale).key()

        assert key(one_sm) != key(SMOKE)
        assert key(replace(SMOKE, gpu=smoke_config())) == key(SMOKE)

    def test_result_key_names_every_technique_field(self):
        from dataclasses import replace

        from repro.prefetch import PrefetchHeuristic

        variants = [
            TREELET_PREFETCH,
            replace(TREELET_PREFETCH,
                    heuristic=PrefetchHeuristic("partial")),
            replace(TREELET_PREFETCH, voter_latency=8),
            replace(TREELET_PREFETCH, scheduler="omr"),
        ]
        keys = {Job("WKND", technique, SMOKE).key()
                for technique in variants}
        assert len(keys) == len(variants)
        assert all(len(key) == 64 for key in keys)  # a fingerprint

    def test_keys_are_memoized_until_clear_caches(self, monkeypatch):
        from repro.core import pipeline

        calls = []
        real = fingerprint

        def counted(kind, components):
            calls.append(kind)
            return real(kind, components)

        monkeypatch.setattr("repro.exec.cache.fingerprint", counted)
        first = pipeline._bvh_key("WKND", SMOKE)
        assert pipeline._bvh_key("WKND", SMOKE) == first
        assert calls == ["bvh"]
        clear_caches()
        assert pipeline._bvh_key("WKND", SMOKE) == first
        assert calls == ["bvh", "bvh"]


class TestExecuteJobs:
    def test_serial_path_dedupes(self, monkeypatch):
        replays = _count_replays(monkeypatch)
        jobs = [
            Job("WKND", BASELINE, SMOKE),
            Job("SHIP", BASELINE, SMOKE),
            Job("WKND", BASELINE, SMOKE),  # duplicate
        ]
        report = ExecutionReport()
        results = execute_jobs(jobs, workers=1, report=report)
        assert [result.scene for result in results] == ["WKND", "SHIP",
                                                        "WKND"]
        assert results[0] is results[2]
        assert len(replays) == 2
        assert report.submitted == 2
        assert report.completed == 2

    def test_progress_callback_sees_every_job(self):
        seen = []

        def progress(done, total, job, source):
            seen.append((done, total, job.scene, source))

        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        execute_jobs(jobs, workers=1, progress=progress)
        assert [s[0] for s in seen] == [1, 2]
        assert all(s[1] == 2 for s in seen)

    def test_raising_progress_callback_never_aborts_jobs(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()

        def broken(done, total, job, source):
            raise RuntimeError("observer bug")

        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(
            jobs, workers=1, progress=broken, metrics=registry,
            report=report,
        )
        # Every job still completed, the failures were counted, and the
        # well-behaved metrics callback still ran.
        assert [result.scene for result in results] == list(SCENES)
        assert report.completed == len(SCENES)
        assert report.progress_errors == len(SCENES)
        assert registry.counter("exec.progress_errors").value == len(SCENES)
        assert registry.counter("exec.jobs_done").value == len(SCENES)

    def test_metrics_counters(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        execute_jobs(jobs, workers=1, metrics=registry)
        assert registry.counter("exec.jobs_done").value == 2
        assert registry.counter("exec.jobs_inprocess").value == 2

    def test_pool_produces_identical_stats(self):
        serial = {
            scene: run(scene, TREELET_PREFETCH, SMOKE)
            for scene in SCENES
        }
        clear_caches()
        jobs = [Job(s, TREELET_PREFETCH, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(jobs, workers=2, report=report)
        # The caller replays the first job itself; the pool the second.
        assert report.from_caller == 1
        assert report.from_pool == 1
        assert report.workers == 2
        for scene, result in zip(SCENES, results):
            assert result.stats == serial[scene].stats

    def test_worker_failure_falls_back_in_process(self):
        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(
            jobs, workers=2, replay_fn=_fail_in_worker, report=report
        )
        # The caller replayed its own share; every pool attempt raised,
        # the retry raised too, and the executor then ran the pool's job
        # right here — with correct results.
        assert report.from_caller == 1
        assert report.worker_failures >= 2
        assert report.retried >= 1
        assert report.inprocess_fallbacks == 1
        serial = {s: run(s, BASELINE, SMOKE) for s in SCENES}
        for scene, result in zip(SCENES, results):
            assert result.stats == serial[scene].stats

    def test_hard_crash_breaks_pool_gracefully(self):
        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(
            jobs, workers=2, replay_fn=_die_in_worker, report=report
        )
        assert report.pool_broken
        assert report.from_caller == 1
        assert report.inprocess_fallbacks == 1
        assert all(r.stats.cycles > 0 for r in results)

    def test_failures_are_counted_on_the_report_and_the_registry(self):
        """An injected failing replay and then a worker crash: each is
        counted on the report and as ``exec.*`` counters, the broken
        pool is shut down, and every result is still the serial one."""
        from repro.exec.executor import pool_info
        from repro.obs import MetricRegistry

        serial = {s: run(s, BASELINE, SMOKE).stats for s in SCENES}
        registry = MetricRegistry()
        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        for replay_fn in (_fail_in_worker, _die_in_worker):
            clear_caches()
            report = ExecutionReport()
            results = execute_jobs(jobs, workers=2, replay_fn=replay_fn,
                                   metrics=registry, report=report)
            assert [r.stats for r in results] == [serial[s] for s in SCENES]
            assert report.inprocess_fallbacks == 1
        counters = {name: counter.value
                    for name, counter in registry.counters.items()}
        assert counters["exec.jobs_done"] == 4
        assert counters["exec.jobs_inprocess"] == 2
        assert counters["exec.pool_broken"] == 1
        assert "exec.pool_fallbacks" not in counters
        assert report.pool_broken and pool_info() is None

    def test_wedged_worker_times_out_and_its_pool_is_killed(self):
        from repro.exec.executor import pool_info, replay_pool

        close_pool()
        workers = [process.pid for process in
                   replay_pool(2).executor._processes.values()]
        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(jobs, workers=2, replay_fn=_wedge_in_worker,
                               job_timeout=0.5, report=report)
        assert report.timeouts == 1 and report.inprocess_fallbacks == 1
        assert [r.stats for r in results] == [
            run(s, BASELINE, SMOKE).stats for s in SCENES
        ]
        assert pool_info() is None
        for pid in workers:  # killed, not left sleeping
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_no_pool_is_forked_with_a_second_thread_alive(self):
        """Asked to fan out with no pool and another thread alive, the
        batch runs in-process and counts one pool fallback."""
        import threading

        from repro.exec.executor import pool_info
        from repro.obs import MetricRegistry

        close_pool()
        registry = MetricRegistry()
        report = ExecutionReport()
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            results = execute_jobs(
                [Job(s, BASELINE, SMOKE) for s in SCENES], workers=2,
                metrics=registry, report=report,
            )
        finally:
            release.set()
            other.join(timeout=10)
        assert pool_info() is None
        assert report.pool_fallbacks == 1
        assert registry.counter("exec.pool_fallbacks").value == 1
        assert report.workers == 1
        assert report.sources == {"inprocess": 2}
        assert [r.stats for r in results] == [
            run(s, BASELINE, SMOKE).stats for s in SCENES
        ]

    def test_every_worker_is_forked_before_the_pool_starts_a_thread(
            self, monkeypatch):
        """Even where the executor's first submit forks only one worker
        (Pythons without the fix of CPython issue 90622 fork the rest
        on demand, with the pool's threads alive), the pool's every
        worker is forked while the caller is the only thread."""
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor

        from repro.exec import executor

        monkeypatch.setattr(ProcessPoolExecutor, "_launch_processes",
                            lambda pool: pool._adjust_process_count(),
                            raising=False)
        threads_at_start = []
        fork = multiprocessing.get_context("fork")

        class Recording(fork.Process):
            def start(self):
                threads_at_start.append(threading.active_count())
                super().start()

        class Context(type(fork)):
            Process = Recording

        monkeypatch.setattr(executor, "_mp_context", Context)
        close_pool()
        try:
            pool = replay_pool(3)
            assert pool.processes == 2
            assert len(pool.executor._processes) == 2
            assert threads_at_start == [1, 1]
        finally:
            close_pool()

    def test_a_pool_grows_only_while_no_other_thread_is_alive(self):
        import threading

        close_pool()
        first = replay_pool(2)
        assert first.processes == 1
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert replay_pool(3) is first
            report = ExecutionReport()
            execute_jobs([Job(s, BASELINE, SMOKE)
                          for s in SCENES + ["BUNNY"]],
                         workers=3, report=report)
            assert report.workers == 2 and report.from_pool == 2
        finally:
            release.set()
            other.join(timeout=10)
        old = [process.pid for process in first.executor._processes.values()]
        bigger = replay_pool(3)
        assert bigger is not first
        assert bigger.processes == 2 and bigger.threads == 1
        assert len(bigger.executor._processes) == 2
        assert replay_pool(2) is bigger  # a smaller request keeps it
        for pid in old:  # the replaced pool's workers are gone
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_an_explicit_count_bounds_the_processes(self, monkeypatch):
        """On a host with more CPUs than a batch asks for, ``workers=2``
        forks one pool process, and a bigger pool forked before holds
        one of the batch's jobs at a time."""
        from repro.exec import executor
        from repro.obs.spans import collect

        monkeypatch.setattr(executor.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        jobs = [Job(s, technique, SMOKE)
                for s in SCENES + ["BUNNY"]
                for technique in (BASELINE, TREELET_PREFETCH)]

        def pool_spans():
            clear_caches()
            report = ExecutionReport()
            with collect():
                execute_jobs(jobs, workers=2, report=report)
            assert report.workers == 2 and report.from_pool == 3
            return sorted((span for span in report.spans
                           if span["name"] == "exec.job"),
                          key=lambda span: span["start_unix"])

        close_pool()
        spans = pool_spans()
        assert executor.pool_info()["processes"] == 1
        assert len({span["pid"] for span in spans}) == 1
        close_pool()
        assert replay_pool(4).processes == 3
        spans = pool_spans()
        assert len(spans) == 3
        for before, after in zip(spans, spans[1:]):
            assert after["start_unix"] >= before["end_unix"]
        close_pool()

    def test_caller_share_deals_jobs_in_snake_order(self):
        from repro.exec.executor import _caller_share

        assert _caller_share(2, 2) == [0]
        assert _caller_share(8, 2) == [0, 3, 4, 7]
        assert _caller_share(7, 3) == [0, 5, 6]


@pytest.fixture
def fanout_by_default(monkeypatch):
    """Let a default-jobs sweep fan out at smoke scale: two CPUs in the
    affinity mask and a threshold every replay clears."""
    from repro.exec import executor

    monkeypatch.setattr(executor.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(executor, "FANOUT_SHARE_VISITS", 1)
    monkeypatch.delenv("REPRO_MP_START", raising=False)


#: ``jobs`` values whose sweeps must equal an explicit ``jobs=1`` one:
#: an explicit count and the default, which fans out under
#: ``fanout_by_default``.
PARALLEL_JOBS = [2, None]


class TestParallelSweeps:
    def test_run_sweep_jobs2_bit_identical(self, fanout_by_default):
        serial = sweep(TREELET_PREFETCH, SCENES, SMOKE, jobs=1)
        assert serial.execution.workers == 1
        for jobs in PARALLEL_JOBS:
            clear_caches()
            parallel = sweep(TREELET_PREFETCH, SCENES, SMOKE, jobs=jobs)
            assert parallel.execution.workers == 2
            assert parallel.scenes == serial.scenes
            for scene in SCENES:
                assert (
                    parallel.outcomes[scene].baseline.stats
                    == serial.outcomes[scene].baseline.stats
                )
                assert (
                    parallel.outcomes[scene].candidate.stats
                    == serial.outcomes[scene].candidate.stats
                )
            assert parallel.gmean_speedup == serial.gmean_speedup
            # SimStats round-trips through worker pickling byte-for-byte.
            assert pickle.dumps(
                parallel.outcomes[SCENES[0]].candidate.stats
            ) == pickle.dumps(serial.outcomes[SCENES[0]].candidate.stats)

    def test_compare_parallel_matches_serial(self, fanout_by_default):
        techniques = {"full": TREELET_PREFETCH}
        serial = compare(techniques, ["WKND"], SMOKE, jobs=1)
        assert serial["full"].execution.workers == 1
        for jobs in PARALLEL_JOBS:
            clear_caches()
            parallel = compare(techniques, ["WKND"], SMOKE, jobs=jobs)
            assert parallel["full"].execution.workers == 2
            assert set(parallel) == set(serial)
            assert (
                parallel["full"].outcomes["WKND"].candidate.stats
                == serial["full"].outcomes["WKND"].candidate.stats
            )

    def test_prewarm_seeds_result_memoizer(self):
        from repro.core.memo import MEMO

        prewarm_replays([BASELINE], ["WKND"], SMOKE, jobs=1)
        seeded = MEMO.get("result", Job("WKND", BASELINE, SMOKE).key())
        assert seeded is not None
        # The follow-up serial call is a pure memo lookup.
        hits = MEMO.count("hits", "result")
        assert run("WKND", BASELINE, SMOKE).experiment is seeded
        assert MEMO.count("hits", "result") == hits + 1

    def test_workers_share_disk_cache(self, tmp_path):
        cache = set_artifact_cache(tmp_path)
        sweep(TREELET_PREFETCH, SCENES, SMOKE, jobs=2)
        # The caller stored the artifacts it built and the results the
        # pool replayed, so they are on disk to reload cold.
        assert cache.entries() >= 1
        clear_caches()
        reset_build_counts()
        sweep(TREELET_PREFETCH, SCENES, SMOKE)
        assert not any(build_counts().values())


class TestDefaultJobs:
    """``jobs=None`` (the default) fans out only with two CPUs or more,
    a forking pool, no other thread alive, and replays that hold at
    least ``FANOUT_SHARE_VISITS`` visits per process."""

    @staticmethod
    def _plan():
        return sweep(TREELET_PREFETCH, SCENES, SMOKE).execution

    @pytest.mark.parametrize("guard", [
        "one-cpu", "second-thread", "spawn", "below-threshold",
    ])
    def test_stays_serial(self, guard, fanout_by_default, monkeypatch):
        import threading

        from repro.exec import executor

        if guard == "one-cpu":
            monkeypatch.setattr(executor.os, "sched_getaffinity",
                                lambda pid: {0}, raising=False)
        elif guard == "spawn":
            monkeypatch.setenv("REPRO_MP_START", "spawn")
        elif guard == "below-threshold":
            monkeypatch.setattr(executor, "FANOUT_SHARE_VISITS",
                                FANOUT_SHARE_VISITS)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        if guard == "second-thread":
            # Only the pool's creation is guarded: drop any pool an
            # earlier test forked.
            close_pool()
            other.start()
        try:
            plan = self._plan()
        finally:
            release.set()
            if other.is_alive():
                other.join(timeout=10)
        assert not other.is_alive()
        assert plan.workers == 1
        assert plan.from_pool == plan.from_caller == 0
        assert plan.cpus == (1 if guard == "one-cpu" else 2)
        assert plan.start_method == ("spawn" if guard == "spawn"
                                     else "fork")
        if guard == "below-threshold":
            assert 0 < plan.missing_visits < 2 * plan.visit_threshold

    def test_a_forked_pool_is_reused_with_a_second_thread_alive(
            self, fanout_by_default):
        import threading

        close_pool()
        replay_pool(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            plan = self._plan()
        finally:
            release.set()
            other.join(timeout=10)
        assert plan.workers == 2
        assert plan.from_pool == len(SCENES)
        assert plan.pool_threads == 1
        assert plan.pool_fallbacks == 0

    def test_fans_out_when_the_threshold_is_lowered(self,
                                                    fanout_by_default):
        plan = self._plan()
        assert plan.workers == 2
        assert plan.submitted == 2 * len(SCENES)
        # The caller replays its own share while the pool replays the
        # rest.
        assert plan.from_caller == len(SCENES)
        assert plan.from_pool == len(SCENES)
        assert plan.inprocess_fallbacks == 0

    def test_span_records_the_plan(self, fanout_by_default):
        from repro.obs.spans import collect

        with collect() as collector:
            sweep(TREELET_PREFETCH, SCENES, SMOKE)
            compare({"full": TREELET_PREFETCH}, SCENES, SMOKE)
        spans = {s.name: s.args for s in collector.snapshot()}
        assert spans["api.sweep"]["jobs"] is None
        assert spans["api.sweep"]["workers"] == 2
        assert spans["api.sweep"]["cpus"] == 2
        assert spans["api.sweep"]["start_method"] == "fork"
        assert spans["api.sweep"]["missing_visits"] > 0
        assert spans["api.sweep"]["visit_threshold"] == 1
        # Every result of the compare is memoized by the sweep before.
        assert spans["api.compare"]["workers"] == 1
        assert spans["api.compare"]["missing_visits"] == 0

    @pytest.mark.parametrize("fanout", [False, True])
    def test_report_records_the_resolved_count(self, fanout, tmp_path,
                                               request, capsys):
        import json

        from repro.cli import main

        if fanout:
            request.getfixturevalue("fanout_by_default")
        out = tmp_path / "report.json"
        assert main(["sweep", "--scenes", "WKND", "SHIP", "--scale",
                     "smoke", "--report", str(out)]) == 0
        capsys.readouterr()
        reports = json.loads(out.read_text())["scenes"]
        assert {r["execution"]["replay_jobs"] for r in reports.values()} \
            == {2 if fanout else 1}

    def test_report_replays_nothing_beyond_the_sweep(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.cli import main

        replays = _count_replays(monkeypatch)
        argv = ["sweep", "--scenes", "WKND", "SHIP", "--scale", "smoke",
                "--jobs", "1", "--no-cache"]
        assert main(argv) == 0
        plain = len(replays)
        assert plain == 4
        clear_caches()
        out = tmp_path / "report.json"
        assert main([*argv, "--report", str(out)]) == 0
        capsys.readouterr()
        assert len(replays) - plain == plain
        assert set(json.loads(out.read_text())["scenes"]) == {"WKND", "SHIP"}


class TestCacheCli:
    def test_cache_info_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache = ArtifactCache(tmp_path)
        cache.store("bvh", fingerprint("bvh", {"i": 1}), [1])
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "stale" not in out
        stale = tmp_path / "v1" / "rays" / "00" / ("0" * 64 + ".pkl")
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"x")
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:         1" in out
        assert "stale:           1 entries" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert cache.entries() == 0

    def test_sweep_jobs_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--scenes", "WKND", "SHIP", "--scale", "smoke",
            "--jobs", "2", "--cache-dir", str(tmp_path / "store"),
        ])
        assert code == 0
        assert "GMean" in capsys.readouterr().out
        assert get_artifact_cache().entries() >= 1


#: A fan-out in a child process: ``exit`` returns from a sweep,
#: ``term`` waits with its pool alive to be killed, ``break`` crashes
#: a pool worker first.
_CHILD = """
import os, sys, time
from repro import SMOKE, TREELET_PREFETCH
from repro.api import sweep
from repro.exec import Job, execute_jobs

def die(replay):
    os._exit(13)

mode = sys.argv[1]
if mode == "break":
    execute_jobs([Job(s, TREELET_PREFETCH, SMOKE)
                  for s in ("WKND", "SHIP")], 2, replay_fn=die)
sweep(TREELET_PREFETCH, ["WKND", "SHIP"], SMOKE, jobs=2)
print("swept", flush=True)
if mode == "term":
    time.sleep(120)
"""


def _session_processes(session: int) -> list:
    """Pids of the live (not zombie) processes of ``session``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[3]) == session and fields[0] != "Z":
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestNoProcessOutlivesItsParent:
    """The replay pool's workers end with the process that forked them,
    however that process ends."""

    @pytest.mark.parametrize("mode", ["exit", "term", "break"])
    def test_session_is_empty_after_the_child_ends(self, mode):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, mode], env=env,
            stdout=subprocess.PIPE, start_new_session=True, text=True,
        )
        try:
            assert child.stdout.readline().strip() == "swept"
            if mode == "term":
                # The pool is alive: the child and at least one worker.
                assert len(_session_processes(child.pid)) >= 2
                child.send_signal(signal.SIGTERM)
            child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == (-signal.SIGTERM if mode == "term"
                                    else 0)
        deadline = time.monotonic() + 10
        while _session_processes(child.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session_processes(child.pid) == []
