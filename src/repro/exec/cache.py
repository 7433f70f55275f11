"""Persistent, content-addressed artifact cache.

Heavyweight pipeline artifacts (built BVHs, ray populations, traversal
traces, treelet decompositions) and replay results are deterministic
functions of their inputs, so they can be stored on disk and shared
across processes: sweep workers, repeat CLI invocations, and benchmark
runs all skip reconstruction, and a repeated experiment skips replay.

Storage model
-------------

Every artifact is addressed by a **fingerprint**: the SHA-256 of a
canonical JSON document containing the cache schema version, the
artifact kind, and every input the artifact depends on (scene name,
scene scale, BVH build config, branching factor, ray-generation
parameters, treelet bytes, formation strategy, ...).  Layout::

    <root>/v<SCHEMA>/<kind>/<fp[:2]>/<fp>.pkl

Bumping :data:`CACHE_SCHEMA_VERSION` therefore invalidates every entry
at once (old versions simply stop being addressed; ``repro cache
clear`` removes them from disk).

Every entry is one pickle (protocol 5).  At schema 4 a ``bvh`` entry
is a :class:`~repro.bvh.FlatBVH` whose state is its name and column
set (:mod:`repro.bvh.soa`), a ``traces`` entry a
:class:`~repro.traversal.TraceSet` whose state is its CSR columns, and
a ``decomposition`` entry ``(max_bytes, node_treelet, offsets,
members)``, without the BVH, which a load re-attaches from the memo:
numpy arrays and ints only, loaded without a Python object per node,
triangle, treelet or visit.  ``rays`` entries are lists of
:class:`~repro.geometry.Ray`.  A ``result``
entry is a replay's :class:`~repro.core.pipeline.ExperimentResult`
(SimStats, power, traversal and tree summaries: about 2 KB).  Its
fingerprint also names :func:`source_digest`, a hash of the package's
source, so any code edit leaves earlier results unaddressed without a
schema bump; where no source file can be read, results are kept in
memory only.  Writes are atomic (temp file +
``os.replace``), so concurrent workers racing on the same fingerprint
are safe — last writer wins with an identical payload.

The cache is process-global and *opt-in*: nothing touches disk until
:func:`set_artifact_cache` activates one (the CLI's ``--cache-dir``,
``REPRO_CACHE_DIR``, or ``tools/run_full_eval.py``'s default).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Bump to invalidate every previously stored artifact (schema change,
#: serialization change, or a semantic change to any builder).
CACHE_SCHEMA_VERSION = 4

#: Artifact kinds the pipeline spills (one subdirectory each).
ARTIFACT_KINDS = ("bvh", "rays", "traces", "decomposition", "result")

#: Default on-disk location (relative to the working directory) used by
#: ``repro cache`` and the benchmark harness when nothing else is set.
DEFAULT_CACHE_DIR = os.path.join("results", "cache")

#: Environment overrides: ``REPRO_CACHE_DIR`` points at the cache root;
#: ``REPRO_CACHE=off`` disables caching entirely.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_SWITCH = "REPRO_CACHE"


def fingerprint(kind: str, components: Dict[str, object]) -> str:
    """SHA-256 over the canonical (sorted-key JSON) input document: an
    artifact's name on disk and its key in :data:`repro.core.memo.MEMO`."""
    document = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": kind,
        "inputs": components,
    }
    canonical = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def source_digest() -> Optional[str]:
    """SHA-256 over the sorted relative paths and the bytes of every
    ``.py`` file of the ``repro`` package, or None when none is found
    (a zipped install).  Taken once per process, on first use."""
    package = Path(__file__).resolve().parent.parent
    paths = sorted(
        (path.relative_to(package).as_posix(), path)
        for path in package.rglob("*.py")
    )
    if not paths:
        return None
    digest = hashlib.sha256()
    for name, path in paths:
        source = path.read_bytes()
        digest.update(f"{name}\0{len(source)}\0".encode("utf-8"))
        digest.update(source)
    return digest.hexdigest()


@dataclass
class ArtifactCacheStats:
    """Per-process counters for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0  # unreadable/corrupt entries (treated as misses)


class ArtifactCache:
    """Content-addressed pickle store for pipeline artifacts."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = ArtifactCacheStats()

    # -- addressing -----------------------------------------------------

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{CACHE_SCHEMA_VERSION}"

    def path_for(self, kind: str, fingerprint: str) -> Path:
        return (
            self.version_dir / kind / fingerprint[:2] / f"{fingerprint}.pkl"
        )

    # -- I/O ------------------------------------------------------------

    def load(self, kind: str, fingerprint: str):
        """The stored artifact, or None on a miss (or corrupt entry)."""
        path = self.path_for(kind, fingerprint)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            with path.open("rb") as handle:
                artifact = pickle.load(handle)
        except Exception:
            # Torn write or incompatible pickle: drop and rebuild.
            self.stats.errors += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return artifact

    def store(self, kind: str, fingerprint: str, artifact) -> Path:
        """Atomically persist one artifact; returns its path."""
        path = self.path_for(kind, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=str(path.parent), suffix=".tmp", delete=False
        )
        try:
            pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.close()
            os.replace(handle.name, path)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    # -- maintenance ----------------------------------------------------

    def _entry_paths(self) -> Tuple[List[Path], List[Path]]:
        """Stored files of the current schema version, and of any
        other (stale) version."""
        current = set(self.version_dir.rglob("*.pkl"))
        stale = [p for p in self.root.rglob("*.pkl") if p not in current]
        return list(current), stale

    def entries(self) -> int:
        """Entries of the current schema version."""
        return len(self._entry_paths()[0])

    def size_bytes(self) -> int:
        """Bytes of the current schema version's entries."""
        return sum(p.stat().st_size for p in self._entry_paths()[0])

    def clear(self) -> int:
        """Remove every stored entry (all schema versions); returns the
        number of files deleted.  Directory skeleton is removed too."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in sorted(
            self.root.rglob("*"), key=lambda p: len(p.parts), reverse=True
        ):
            if path.is_file():
                path.unlink()
                removed += 1
            elif path.is_dir():
                try:
                    path.rmdir()
                except OSError:
                    pass
        try:
            self.root.rmdir()
        except OSError:
            pass
        return removed

    def describe(self) -> Dict[str, object]:
        """Summary document for ``repro cache info``."""
        current, stale = self._entry_paths()
        per_kind = {kind: 0 for kind in ARTIFACT_KINDS}
        for path in current:
            kind = path.relative_to(self.version_dir).parts[0]
            per_kind[kind] = per_kind.get(kind, 0) + 1
        return {
            "root": str(self.root),
            "schema_version": CACHE_SCHEMA_VERSION,
            "entries": len(current),
            "size_bytes": sum(p.stat().st_size for p in current),
            "per_kind": per_kind,
            # Files of other schema versions: never addressed again,
            # reclaimed by ``repro cache clear``.
            "stale_entries": len(stale),
            "stale_bytes": sum(p.stat().st_size for p in stale),
        }


# ---------------------------------------------------------------------------
# Process-global active cache.
# ---------------------------------------------------------------------------

_ACTIVE: Optional[ArtifactCache] = None


def set_artifact_cache(
    cache: Union[ArtifactCache, str, Path, None]
) -> Optional[ArtifactCache]:
    """Activate (or with None, deactivate) the process-wide cache.

    Accepts a ready :class:`ArtifactCache` or a directory path.
    Returns the active cache so callers can read its stats.
    """
    global _ACTIVE
    if cache is None:
        _ACTIVE = None
    elif isinstance(cache, ArtifactCache):
        _ACTIVE = cache
    else:
        _ACTIVE = ArtifactCache(cache)
    return _ACTIVE


def get_artifact_cache() -> Optional[ArtifactCache]:
    """The active cache; None when caching is disabled."""
    return _ACTIVE


def cache_disabled_by_env() -> bool:
    return os.environ.get(ENV_CACHE_SWITCH, "").strip().lower() in (
        "off", "0", "no", "false", "disabled",
    )


def cache_dir_from_env() -> Optional[str]:
    """``REPRO_CACHE_DIR`` if set (and caching not switched off)."""
    if cache_disabled_by_env():
        return None
    path = os.environ.get(ENV_CACHE_DIR, "").strip()
    return path or None


def default_cache_dir() -> Optional[str]:
    """Resolution for tools that cache *by default*: the environment
    override if present, else :data:`DEFAULT_CACHE_DIR`; None when
    ``REPRO_CACHE=off``."""
    if cache_disabled_by_env():
        return None
    return cache_dir_from_env() or DEFAULT_CACHE_DIR
