"""repro.exec — parallel sweep execution and persistent artifact cache.

Two pieces:

* :mod:`repro.exec.executor` — fans (scene, technique, scale) jobs'
  replays across one persistent pool of worker processes per process,
  with deterministic result merging, bounded retry, and graceful
  in-process fallback on worker crashes or timeouts.
* :mod:`repro.exec.cache` — a content-addressed on-disk store for
  built BVHs, ray populations, traversal traces, treelet
  decompositions and replay results, shared by repeat CLI
  invocations.

Typical use::

    from repro.api import sweep
    from repro.exec import set_artifact_cache

    set_artifact_cache("results/cache")          # optional, persistent
    result = sweep("treelet-prefetch", ["WKND", "SHIP"], "smoke", jobs=4)

See ``docs/execution.md`` for the cache layout and invalidation rules.
"""

from .cache import (
    ARTIFACT_KINDS,
    ArtifactCache,
    ArtifactCacheStats,
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    cache_dir_from_env,
    default_cache_dir,
    get_artifact_cache,
    set_artifact_cache,
)
from .executor import (
    ExecutionReport,
    Job,
    execute_jobs,
    metrics_progress,
    prewarm_replay_jobs,
    prewarm_replays,
    replay_pool,
)

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactCache",
    "ArtifactCacheStats",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExecutionReport",
    "Job",
    "cache_dir_from_env",
    "default_cache_dir",
    "execute_jobs",
    "get_artifact_cache",
    "metrics_progress",
    "prewarm_replay_jobs",
    "prewarm_replays",
    "replay_pool",
    "set_artifact_cache",
]
