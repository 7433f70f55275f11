"""Layer clocks, the instrumented pipeline, and SimStats digests.

The suite measures every layer from outside the program.  While
:func:`instrument` is active, the functions the pipeline calls to build
and replay each artifact (attributes of ``repro.core.pipeline``, of
``repro.queries``, and methods of ``Mesh``, ``GpuModel`` and
``ArtifactCache``) are replaced by wrappers that time each call with
``time.perf_counter``.  A traced pass therefore runs exactly the code
path of an untraced one.  A timed call nested in another is charged to
the inner layer only, so the layer self times add up to at most the
traced wall and ``api.residual_s`` is what is left.

Run as a script, ``layers.py OUT ARGS...`` runs ``python -m repro
ARGS...`` instrumented and writes its clock to OUT as JSON on exit;
serve-open uses it to time the layers inside the service process.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import geometric_mean
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import repro.queries
from repro.core import pipeline
from repro.exec.cache import ArtifactCache
from repro.geometry.mesh import Mesh
from repro.gpusim import GpuModel

#: (scene, technique spec, workload) — one experiment.
Experiment = Tuple[str, str, str]

#: Host-side visits replayed, counted so ``gpusim.visits_per_s`` divides
#: the visits actually simulated by the time ``GpuModel.run`` took.
VISITS_REPLAYED = "gpusim.visits_replayed"


class LayerClock:
    """Self time per layer plus plain counters.  One thread at a time:
    the suite's own thread, or the service's single batch worker."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._children: List[float] = []

    @contextmanager
    def time(self, layer: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child = self._children.pop()
            self.seconds[layer] = (
                self.seconds.get(layer, 0.0) + elapsed - child
            )
            if self._children:
                self._children[-1] += elapsed

    def skip(self, seconds: float) -> None:
        """Charge ``seconds`` spent inside the current layer to none."""
        if self._children:
            self._children[-1] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total(self) -> float:
        return sum(self.seconds.values())

    def absorb(self, document: dict) -> None:
        """Add another clock's :meth:`as_document` to this one."""
        for name, value in document["seconds"].items():
            self.seconds[name] = self.seconds.get(name, 0.0) + value
        for name, value in document["counts"].items():
            self.count(name, value)

    def as_document(self) -> dict:
        return {"seconds": self.seconds, "counts": self.counts}


def _count_hit(clock: LayerClock, artifact) -> None:
    if artifact is not None:
        clock.count("exec.cache_hits")


def _count_bytes(clock: LayerClock, path) -> None:
    clock.count("exec.cache_store_bytes", path.stat().st_size)


def _count_visits(clock: LayerClock, stats) -> None:
    clock.count(VISITS_REPLAYED, stats.visits_completed)


#: layer -> the (owner, attribute, counter) calls timed as that layer;
#: ``counter(clock, returned value)`` records a count after the call.
TIMED: Dict[str, List[Tuple[object, str, Optional[Callable]]]] = {
    "scenes.build_s": [(pipeline, "build_scene", None)],
    "bvh.build_s": [(Mesh, "triangles", None),
                    (pipeline, "build_wide_bvh", None)],
    "treelet.form_s": [(pipeline, "form_treelets", None)],
    "rays.build_s": [(pipeline, "generate_rays", None),
                     (repro.queries, "compile_queries", None)],
    "traversal.trace_s": [
        (pipeline, name, None) for name in (
            "traverse_forest_jobs", "traverse_dfs_packet",
            "traverse_dfs_batch", "traverse_two_stack_packet",
            "traverse_two_stack_batch",
        )
    ],
    "gpusim.load_s": [(pipeline, "_build_layout", None),
                      (pipeline, "_prefetcher_factory", None),
                      (GpuModel, "__init__", None),
                      (GpuModel, "load", None)],
    "gpusim.run_s": [(GpuModel, "run", _count_visits)],
    "power.eval_s": [(pipeline, "evaluate_power", None)],
    "bvh.stats_s": [(pipeline, "compute_tree_stats", None)],
    "traversal.summarize_s": [(pipeline, "summarize_traces", None)],
    "exec.cache_load_s": [(ArtifactCache, "load", _count_hit)],
    "exec.cache_store_s": [(ArtifactCache, "store", _count_bytes)],
}


def _timed(clock: LayerClock, layer: str, function: Callable,
           counter: Optional[Callable]) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with clock.time(layer):
            result = function(*args, **kwargs)
        if counter is not None:
            counter(clock, result)
        return result

    return wrapper


@contextmanager
def instrument(clock: LayerClock):
    """Time every call in :data:`TIMED` on ``clock`` until the block
    exits, then restore the original functions."""
    saved = []
    try:
        for layer, calls in TIMED.items():
            for owner, name, counter in calls:
                original = getattr(owner, name)
                saved.append((owner, name, original))
                setattr(owner, name, _timed(clock, layer, original, counter))
        yield clock
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# SimStats: digests (the correctness gate) and counters (per-layer metrics).
# ---------------------------------------------------------------------------


def experiment_key(scale_name: str, experiment: Experiment) -> str:
    scene, spec, workload = experiment
    return f"{scale_name}/{workload}/{scene}/{spec}"


def as_dict(stats) -> dict:
    """SimStats, or a served result's stats document, as plain data."""
    if dataclasses.is_dataclass(stats):
        return dataclasses.asdict(stats)
    return {k: v for k, v in stats.items() if k != "derived"}


def stats_digest(stats) -> str:
    """sha256 of the canonical sorted-key JSON of ``asdict(stats)``."""
    canonical = json.dumps(as_dict(stats), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class DigestCheck:
    """Counts ops and the ones whose SimStats differ from the record."""

    def __init__(self, expected: Dict[str, str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, key: str, stats) -> None:
        digest = stats_digest(stats)
        if self.expected.get(key) != digest:
            # The full digest, so a change meant to alter simulated
            # results can update expected.json by hand, in its own diff.
            self.fail(f"{key}: SimStats digest {digest} differs from "
                      f"the recorded {self.expected.get(key)}")
        else:
            self.attempted += 1


def stats_counters(
    runs: Iterable[object],
    speedup_pairs: Iterable[Tuple[object, object]],
) -> Dict[str, float]:
    """Simulated counters over a pass's distinct experiments.

    ``runs`` are SimStats objects or served stats documents;
    ``speedup_pairs`` are (baseline, treelet-prefetch) pairs of them.
    """
    runs = [as_dict(stats) for stats in runs]

    def total(name: str, field: Optional[str] = None) -> float:
        return sum(r[name] if field is None else r[name][field]
                   for r in runs)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    visits, rays = total("visits_completed"), total("ray_count")
    stalls, issued = total("stall_cycles"), total("prefetches_issued")
    active = stalls + total("busy_cycles") + total("mshr_stall_cycles")
    voted_right = sum(r["voter_decisions"] * r["voter_accuracy"]
                      for r in runs)
    speedups = [
        as_dict(base)["cycles"] / as_dict(candidate)["cycles"]
        for base, candidate in speedup_pairs
    ]
    return {
        "gpusim.visits": visits,
        "gpusim.cycles": total("cycles"),
        "gpusim.stall_fraction": ratio(stalls, active),
        "memsys.l1_hit_rate": ratio(total("l1", "demand_hits"),
                                    total("l1", "demand_accesses")),
        "memsys.dram_accesses": total("dram_accesses"),
        "memsys.l2_bytes": total("l2_bytes"),
        "prefetch.issued": issued,
        "prefetch.useful_ratio": ratio(total("effectiveness", "timely"),
                                       issued),
        "prefetch.voter_accuracy": ratio(voted_right,
                                         total("voter_decisions")),
        "traversal.rays": rays,
        "traversal.visits_per_ray": ratio(visits, rays),
        "sim_speedup": geometric_mean(speedups) if speedups else 0.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    out, *args = sys.argv[1:] if argv is None else argv
    from repro.cli import main as repro_main

    clock = LayerClock()
    with instrument(clock):
        code = repro_main(args)
    Path(out).write_text(json.dumps(clock.as_document()))
    return code


if __name__ == "__main__":
    sys.exit(main())
