"""End-to-end pipeline: scene -> BVH -> treelets -> traces -> timing sim.

The machinery behind :mod:`repro.api`.  A :class:`Technique` names one
point in the paper's design space (traversal algorithm, memory layout,
prefetcher, heuristic, scheduler, voter, treelet size);
:func:`repro.api.run` evaluates it on one scene (through
:func:`_run_experiment`) and returns timing, memory, power, and
traversal statistics.

All heavyweight intermediate artifacts (built scenes, BVHs, ray
populations, traces, decompositions) are memoized per process so a
parameter sweep over one scene pays scene/BVH construction once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bvh import (
    BuildConfig,
    FlatBVH,
    NodeLayout,
    build_wide_bvh,
    compute_tree_stats,
    dfs_layout,
)
from ..bvh.stats import TreeStats
from ..geometry import Ray
from ..gpusim import GpuModel, SimStats
from ..power import PowerReport, evaluate_power
from ..prefetch import (
    AdaptiveThrottle,
    GhbPrefetcher,
    MajorityVoter,
    MtaPrefetcher,
    PrefetchHeuristic,
    StridePrefetcher,
    StreamPrefetcher,
    TreeletAddressMap,
    TreeletPrefetcher,
)
from ..obs.spans import span as _span
from ..scenes import RayGenConfig, build_scene, generate_rays
from ..traversal import (
    DEFERRED_ORDERS,
    RayTrace,
    TraversalSummary,
    summarize_traces,
    traverse_forest_jobs,
)
# Unused here; benchmarks/suite/layers.py times them by patching this module.
from ..traversal import (  # noqa: F401
    traverse_dfs_batch,
    traverse_dfs_packet,
    traverse_two_stack_batch,
    traverse_two_stack_packet,
)
from ..treelet import (
    DEFAULT_TREELET_BYTES,
    FORMATION_STRATEGIES,
    TreeletDecomposition,
    build_mapping_table,
    form_treelets,
    treelet_layout,
)
from .config import GpuConfig, default_config, paper_config, smoke_config

TRAVERSAL_KINDS = ("dfs", "treelet")
LAYOUT_KINDS = ("dfs", "treelet")
PREFETCH_KINDS = (None, "treelet", "mta", "stride", "stream", "ghb")


@dataclass(frozen=True)
class Technique:
    """One configuration of the paper's design space."""

    traversal: str = "dfs"
    deferred_order: str = "nearest"
    layout: str = "dfs"
    layout_stride: int = 0
    prefetch: Optional[str] = None
    heuristic: PrefetchHeuristic = field(default_factory=PrefetchHeuristic)
    scheduler: str = "baseline"
    treelet_bytes: int = DEFAULT_TREELET_BYTES
    formation: str = "bfs"  # treelet formation strategy (Section 3.1)
    voter_mode: str = "full"
    voter_latency: int = 0
    mapping_mode: Optional[str] = None
    adaptive: bool = False  # Section 7.1 self-tuning throttle

    def __post_init__(self) -> None:
        if self.traversal not in TRAVERSAL_KINDS:
            raise ValueError(f"unknown traversal {self.traversal!r}")
        if self.deferred_order not in DEFERRED_ORDERS:
            raise ValueError(f"unknown deferred order {self.deferred_order!r}")
        if self.layout not in LAYOUT_KINDS:
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.prefetch not in PREFETCH_KINDS:
            raise ValueError(f"unknown prefetcher {self.prefetch!r}")
        if self.layout_stride < 0:
            raise ValueError("layout stride must be non-negative")
        if self.prefetch == "treelet" and self.traversal != "treelet":
            raise ValueError(
                "the treelet prefetcher requires treelet-based traversal"
            )
        if self.mapping_mode is not None:
            if self.layout != "dfs" or self.prefetch != "treelet":
                raise ValueError(
                    "mapping modes model an unmodified (dfs) BVH layout "
                    "with the treelet prefetcher"
                )
        if self.layout_stride and self.layout != "treelet":
            raise ValueError("layout_stride applies to the treelet layout")
        if self.formation not in FORMATION_STRATEGIES:
            raise ValueError(f"unknown formation strategy {self.formation!r}")
        if self.adaptive and self.prefetch != "treelet":
            raise ValueError(
                "the adaptive throttle applies to the treelet prefetcher"
            )

    @property
    def uses_treelets(self) -> bool:
        return (
            self.traversal == "treelet"
            or self.layout == "treelet"
            or self.prefetch == "treelet"
        )

    def label(self) -> str:
        parts = [self.traversal]
        if self.prefetch:
            parts.append(self.prefetch)
            if self.prefetch == "treelet":
                parts.append(self.heuristic.label())
        if self.scheduler != "baseline":
            parts.append(self.scheduler.upper())
        return "+".join(parts)


#: The paper's baseline RT unit: DFS traversal, stock layout, no prefetch.
BASELINE = Technique()

#: The headline configuration of Figure 7: treelet traversal + prefetch,
#: ALWAYS heuristic, PMR scheduler, 512 B treelets, repacked layout.
TREELET_PREFETCH = Technique(
    traversal="treelet",
    layout="treelet",
    prefetch="treelet",
    scheduler="pmr",
)

#: Treelet traversal alone (Figure 9's bottom stack).
TREELET_TRAVERSAL_ONLY = Technique(traversal="treelet", layout="treelet")


@dataclass(frozen=True)
class Scale:
    """Workload magnitude: scene size, image size, GPU size."""

    name: str
    scene_scale: float
    width: int
    height: int
    secondary: bool = True

    def raygen(self, seed: int = 0) -> RayGenConfig:
        return RayGenConfig(
            width=self.width,
            height=self.height,
            secondary=self.secondary,
            seed=seed,
        )

    def gpu_config(self) -> GpuConfig:
        if self.name == "smoke":
            return smoke_config()
        if self.name == "paper":
            return paper_config()
        return default_config()


SMOKE = Scale("smoke", scene_scale=0.05, width=8, height=8)
DEFAULT = Scale("default", scene_scale=1.0, width=16, height=16)
FULL = Scale("full", scene_scale=1.0, width=32, height=32)
#: Table 1 verbatim (8 SMs, 64 KB L1, 3 MB L2) at the paper's 32x32
#: resolution.  With our (small) procedural scenes most trees become
#: cache-resident here — useful for sanity checks like "WKND gains
#: nothing", not for headline numbers.
PAPER = Scale("paper", scene_scale=1.0, width=32, height=32)


#: Every named scale, by name: the one registry the CLI, the api, the
#: service and ``REPRO_SCALE`` resolve names against.
SCALES: Dict[str, Scale] = {
    scale.name: scale for scale in (SMOKE, DEFAULT, FULL, PAPER)
}


def scale_from_env(default: Scale = DEFAULT) -> Scale:
    """Pick the scale from ``REPRO_SCALE`` (smoke/default/full/paper)."""
    name = os.environ.get("REPRO_SCALE", "").strip().lower()
    return SCALES.get(name, default)


@dataclass
class ExperimentResult:
    """Everything one (scene, technique) evaluation produced."""

    scene: str
    technique: Technique
    stats: SimStats
    power: PowerReport
    traversal: TraversalSummary
    tree: TreeStats
    treelet_count: int

    @property
    def cycles(self) -> int:
        return self.stats.cycles


# ---------------------------------------------------------------------------
# Memoized workload construction.
# ---------------------------------------------------------------------------

_SCENE_CACHE: Dict[Tuple[str, float], object] = {}
_BVH_CACHE: Dict[Tuple[str, float], FlatBVH] = {}
_RAY_CACHE: Dict[Tuple[str, float, int, int, bool, str], List[Ray]] = {}
_DECOMP_CACHE: Dict[Tuple[str, float, int, str], TreeletDecomposition] = {}
_TRACE_CACHE: Dict[tuple, List[RayTrace]] = {}
_RESULT_CACHE: Dict[tuple, ExperimentResult] = {}
#: Compiled query plans (rays + decode mapping) per
#: (scene, scene_scale, n_queries, workload).  Compilation is cheap and
#: deterministic, so plans are process-local only — no disk artifact.
_QUERY_PLAN_CACHE: Dict[tuple, object] = {}

#: Count of heavyweight artifacts actually *constructed* this process
#: (in-memory or on-disk cache hits do not count).  The repro.exec
#: tests assert a warm artifact cache keeps these at zero.
BUILD_COUNTS: Dict[str, int] = {
    "scene": 0,
    "bvh": 0,
    "rays": 0,
    "traces": 0,
    "decomposition": 0,
}


def reset_build_counts() -> None:
    for key in BUILD_COUNTS:
        BUILD_COUNTS[key] = 0


def build_counts() -> Dict[str, int]:
    """Snapshot of :data:`BUILD_COUNTS` (artifacts constructed so far)."""
    return dict(BUILD_COUNTS)


def _artifact_cache():
    """The process-wide on-disk artifact cache, or None when disabled.

    Imported lazily: :mod:`repro.exec` depends on this module, so the
    dependency must not exist at import time.
    """
    from ..exec.cache import get_artifact_cache

    return get_artifact_cache()


def _cache_components(scene_name: str, scale: Scale) -> Dict[str, object]:
    """Fingerprint components every derived artifact depends on."""
    from dataclasses import asdict

    return {
        "scene": scene_name,
        "scene_scale": scale.scene_scale,
        "build": asdict(DEFAULT_BUILD),
        "branching": DEFAULT_BRANCHING,
    }


def _raygen_components(
    scale: Scale, workload: str = "render"
) -> Dict[str, object]:
    from dataclasses import asdict

    if workload == "render":
        # Unchanged for render so existing cached artifacts stay valid.
        return {"raygen": asdict(scale.raygen())}
    from ..queries.workloads import K_NEIGHBORS

    return {
        "workload": workload,
        "queries": {
            "count": scale.width * scale.height,
            "k": K_NEIGHBORS if workload == "knn" else 0,
            "version": 1,
        },
    }


#: Build parameters matching Embree's *effective* shape: the node format
#: is 6-wide (Figure 6) but real Embree trees fill ~3 child slots on
#: average, giving the Table 2 depth range.  Small leaves keep per-ray
#: visit counts in the paper's regime.
DEFAULT_BUILD = BuildConfig(max_leaf_size=2)
DEFAULT_BRANCHING = 3


def get_scene(scene_name: str, scale: Scale):
    """The built scene, memoized per (name, scale) like every other
    artifact so one (scene, scale) pays construction exactly once."""
    key = (scene_name, scale.scene_scale)
    if key not in _SCENE_CACHE:
        BUILD_COUNTS["scene"] += 1
        _SCENE_CACHE[key] = build_scene(scene_name, scale.scene_scale)
    return _SCENE_CACHE[key]


def get_bvh(scene_name: str, scale: Scale) -> FlatBVH:
    key = (scene_name, scale.scene_scale)
    if key not in _BVH_CACHE:
        cache = _artifact_cache()
        bvh = None
        fingerprint = None
        if cache is not None:
            fingerprint = cache.fingerprint(
                "bvh", _cache_components(scene_name, scale)
            )
            bvh = cache.load("bvh", fingerprint)
        if bvh is None:
            BUILD_COUNTS["bvh"] += 1
            bvh = build_wide_bvh(
                get_scene(scene_name, scale).mesh.triangles(),
                config=DEFAULT_BUILD,
                branching_factor=DEFAULT_BRANCHING,
                name=scene_name,
            )
            if cache is not None:
                cache.store("bvh", fingerprint, bvh)
        _BVH_CACHE[key] = bvh
    return _BVH_CACHE[key]


def get_query_plan(scene_name: str, scale: Scale, workload: str):
    """The compiled :class:`~repro.queries.QueryPlan` for a query
    workload ("knn"/"containment") at this scale.

    ``scale.width * scale.height`` sets the query count (the same knob
    that sizes the render ray population), keeping smoke/default/full
    proportions meaningful across workloads.  Plans are pure functions
    of (scene, scale, workload), so decode can always recompute the
    plan a trace set was compiled from.
    """
    from ..queries import compile_queries

    n_queries = scale.width * scale.height
    key = (scene_name, scale.scene_scale, n_queries, workload)
    if key not in _QUERY_PLAN_CACHE:
        BUILD_COUNTS["rays"] += 1
        scene = get_scene(scene_name, scale)
        _QUERY_PLAN_CACHE[key] = compile_queries(scene, workload, n_queries)
    return _QUERY_PLAN_CACHE[key]


def get_rays(
    scene_name: str, scale: Scale, workload: str = "render"
) -> List[Ray]:
    if workload != "render":
        return get_query_plan(scene_name, scale, workload).rays
    key = (
        scene_name,
        scale.scene_scale,
        scale.width,
        scale.height,
        scale.secondary,
        workload,
    )
    if key not in _RAY_CACHE:
        cache = _artifact_cache()
        rays = None
        fingerprint = None
        if cache is not None:
            components = _cache_components(scene_name, scale)
            components.update(_raygen_components(scale))
            fingerprint = cache.fingerprint("rays", components)
            rays = cache.load("rays", fingerprint)
        if rays is None:
            BUILD_COUNTS["rays"] += 1
            bvh = get_bvh(scene_name, scale)
            rays = generate_rays(
                get_scene(scene_name, scale).camera, bvh, scale.raygen()
            )
            if cache is not None:
                cache.store("rays", fingerprint, rays)
        _RAY_CACHE[key] = rays
    return _RAY_CACHE[key]


def get_decomposition(
    scene_name: str,
    scale: Scale,
    treelet_bytes: int,
    strategy: str = "bfs",
) -> TreeletDecomposition:
    key = (scene_name, scale.scene_scale, treelet_bytes, strategy)
    if key not in _DECOMP_CACHE:
        cache = _artifact_cache()
        decomposition = None
        fingerprint = None
        if cache is not None:
            components = _cache_components(scene_name, scale)
            components["treelet_bytes"] = treelet_bytes
            components["formation"] = strategy
            fingerprint = cache.fingerprint("decomposition", components)
            # The entry holds no BVH: the memoized one is re-attached,
            # so a warm decomposition shares it instead of a copy.
            payload = cache.load("decomposition", fingerprint)
            if payload is not None:
                max_bytes, treelets, assignment = payload
                decomposition = TreeletDecomposition(
                    bvh=get_bvh(scene_name, scale),
                    max_bytes=max_bytes,
                    treelets=treelets,
                    assignment=assignment,
                )
        if decomposition is None:
            BUILD_COUNTS["decomposition"] += 1
            decomposition = form_treelets(
                get_bvh(scene_name, scale), treelet_bytes, strategy
            )
            if cache is not None:
                cache.store("decomposition", fingerprint, (
                    decomposition.max_bytes,
                    decomposition.treelets,
                    decomposition.assignment,
                ))
        _DECOMP_CACHE[key] = decomposition
    return _DECOMP_CACHE[key]


def _trace_key(
    scene_name: str,
    scale: Scale,
    traversal: str,
    treelet_bytes: int,
    deferred_order: str,
    formation: str,
    workload: str = "render",
) -> tuple:
    """Memoizer key for one trace set."""
    return (
        scene_name,
        scale.scene_scale,
        scale.width,
        scale.height,
        scale.secondary,
        traversal,
        treelet_bytes if traversal == "treelet" else 0,
        deferred_order if traversal == "treelet" else "",
        formation if traversal == "treelet" else "",
        workload,
    )


def _trace_fingerprint(
    cache,
    scene_name: str,
    scale: Scale,
    traversal: str,
    treelet_bytes: int,
    deferred_order: str,
    formation: str,
    workload: str = "render",
) -> str:
    """On-disk fingerprint for one trace set."""
    components = _cache_components(scene_name, scale)
    components.update(_raygen_components(scale, workload))
    components["traversal"] = traversal
    if traversal == "treelet":
        components["treelet_bytes"] = treelet_bytes
        components["deferred_order"] = deferred_order
        components["formation"] = formation
    return cache.fingerprint("traces", components)


def get_traces(
    scene_name: str,
    scale: Scale,
    traversal: str,
    treelet_bytes: int,
    deferred_order: str = "nearest",
    formation: str = "bfs",
    workload: str = "render",
) -> List[RayTrace]:
    """Functional traversal traces (the timing model's input).

    A memo lookup; a missing set is built by :func:`prewarm_traces`.
    ``workload`` selects the ray population: "render" (camera +
    secondary) or a query workload compiled by :mod:`repro.queries`;
    traces come back in ray-population order, so query decode can map
    them positionally.
    """
    key = _trace_key(
        scene_name, scale, traversal, treelet_bytes, deferred_order,
        formation, workload,
    )
    if key not in _TRACE_CACHE:
        technique = Technique(
            traversal=traversal,
            deferred_order=deferred_order,
            treelet_bytes=treelet_bytes,
            formation=formation,
        )
        prewarm_traces([(scene_name, technique, workload)], scale)
    return _TRACE_CACHE[key]


def prewarm_traces(pairs, scale: Scale) -> int:
    """Build the traces of many ``(scene_name, technique)`` pairs.

    Each pair may also be a ``(scene_name, technique, workload)``
    triple; plain pairs mean the "render" workload.

    Every missing trace set rides in one merged ray forest
    (:func:`repro.traversal.traverse_forest_jobs`), so the fixed
    per-iteration numpy dispatch cost is paid once for the whole batch
    instead of once per (scene, technique).  Results land in the
    in-process memoizer and the artifact cache.  Returns the number of
    trace sets actually built.
    """
    specs: Dict[tuple, tuple] = {}
    for pair in pairs:
        scene_name, technique = pair[0], pair[1]
        workload = pair[2] if len(pair) > 2 else "render"
        if technique.traversal == "treelet":
            spec = (
                scene_name,
                "treelet",
                technique.treelet_bytes,
                technique.deferred_order,
                technique.formation,
                workload,
            )
        else:
            spec = (scene_name, "dfs", 0, "nearest", "bfs", workload)
        specs.setdefault(_trace_key(spec[0], scale, *spec[1:]), spec)
    cache = _artifact_cache()
    missing: List[tuple] = []
    for key, spec in specs.items():
        if key in _TRACE_CACHE:
            continue
        fingerprint = None
        if cache is not None:
            fingerprint = _trace_fingerprint(cache, spec[0], scale, *spec[1:])
            traces = cache.load("traces", fingerprint)
            if traces is not None:
                _TRACE_CACHE[key] = traces
                continue
        missing.append((key, spec, fingerprint))
    if not missing:
        return 0
    jobs = []
    for _, spec, _ in missing:
        scene_name, traversal, treelet_bytes, order, formation, workload = spec
        bvh = get_bvh(scene_name, scale)
        rays = [
            ray.clone() for ray in get_rays(scene_name, scale, workload)
        ]
        decomposition = (
            get_decomposition(scene_name, scale, treelet_bytes, formation)
            if traversal == "treelet"
            else None
        )
        jobs.append((bvh, rays, decomposition, order))
    outputs = traverse_forest_jobs(jobs)
    for (key, _, fingerprint), traces in zip(missing, outputs):
        BUILD_COUNTS["traces"] += 1
        _TRACE_CACHE[key] = traces
        if cache is not None:
            cache.store("traces", fingerprint, traces)
    return len(missing)


def clear_caches() -> None:
    """Drop all memoized workload artifacts (tests use this).

    Only in-memory memoizers are dropped; the on-disk artifact cache
    (:mod:`repro.exec.cache`), when active, survives and reloads them.
    """
    _SCENE_CACHE.clear()
    _BVH_CACHE.clear()
    _RAY_CACHE.clear()
    _DECOMP_CACHE.clear()
    _TRACE_CACHE.clear()
    _RESULT_CACHE.clear()
    _QUERY_PLAN_CACHE.clear()


# ---------------------------------------------------------------------------
# Experiment execution.
# ---------------------------------------------------------------------------


def _build_layout(
    technique: Technique,
    bvh: FlatBVH,
    decomposition: Optional[TreeletDecomposition],
) -> NodeLayout:
    if technique.layout == "treelet":
        assert decomposition is not None
        return treelet_layout(
            decomposition, stride_bytes=technique.layout_stride
        )
    layout = dfs_layout(bvh)
    if decomposition is not None:
        # Even with the stock layout, nodes know their treelet (the
        # Figure 6 child bits); the timing model reads it off the layout.
        layout.node_treelet = dict(decomposition.assignment)
    return layout


def _prefetcher_factory(
    technique: Technique,
    gpu: GpuConfig,
    layout: NodeLayout,
    decomposition: Optional[TreeletDecomposition],
):
    kind = technique.prefetch
    if kind is None:
        return None
    line_bytes = gpu.l1.line_bytes
    if kind == "treelet":
        assert decomposition is not None
        mapping_table = None
        if technique.mapping_mode is not None:
            mapping_table = build_mapping_table(decomposition, layout)
        address_map = TreeletAddressMap(
            decomposition, layout, line_bytes, mapping_table
        )

        def factory(_sm: int) -> TreeletPrefetcher:
            return TreeletPrefetcher(
                address_map,
                heuristic=technique.heuristic,
                voter=MajorityVoter(
                    technique.voter_mode, technique.voter_latency
                ),
                warp_size=gpu.warp_size,
                warp_buffer_size=gpu.warp_buffer_size,
                mapping_mode=technique.mapping_mode,
                adaptive=AdaptiveThrottle() if technique.adaptive else None,
            )

        return factory
    simple = {
        "mta": lambda: MtaPrefetcher(line_bytes=line_bytes),
        "stride": lambda: StridePrefetcher(line_bytes=line_bytes),
        "stream": lambda: StreamPrefetcher(line_bytes=line_bytes),
        "ghb": lambda: GhbPrefetcher(line_bytes=line_bytes),
    }[kind]
    return lambda _sm: simple()


def build_gpu_model(
    scene_name: str,
    technique: Technique,
    scale: Scale = DEFAULT,
    gpu_config: Optional[GpuConfig] = None,
    workload: str = "render",
    **model_kwargs,
):
    """Construct a loaded :class:`~repro.gpusim.GpuModel` without running it.

    For users who want to drive the timing model directly (attach a
    timeline sampler, single-step, run frames).  Returns
    ``(model, traces, bvh, layout)``; call ``model.run()`` to simulate.
    """
    from ..gpusim import GpuModel

    gpu = gpu_config or scale.gpu_config()
    bvh = get_bvh(scene_name, scale)
    decomposition = (
        get_decomposition(
            scene_name, scale, technique.treelet_bytes, technique.formation
        )
        if technique.uses_treelets
        else None
    )
    layout = _build_layout(technique, bvh, decomposition)
    traces = get_traces(
        scene_name,
        scale,
        technique.traversal,
        technique.treelet_bytes,
        technique.deferred_order,
        technique.formation,
        workload=workload,
    )
    model = GpuModel(
        gpu,
        scheduler_policy=technique.scheduler,
        prefetcher_factory=_prefetcher_factory(
            technique, gpu, layout, decomposition
        ),
        **model_kwargs,
    )
    model.load(traces, bvh, layout)
    return model, traces, bvh, layout


def _run_experiment(
    scene_name: str,
    technique: Technique = BASELINE,
    scale: Scale = DEFAULT,
    gpu_config: Optional[GpuConfig] = None,
    use_cache: bool = True,
    observer=None,
    workload: str = "render",
) -> ExperimentResult:
    """Evaluate ``technique`` on ``scene_name`` at ``scale``.

    Canonical implementation behind :func:`repro.api.run`.  Pass an
    explicit ``gpu_config`` to override the scale's default (such
    runs are not memoized).  Pass a :class:`repro.obs.Observer` to trace
    the run (observed runs are never memoized, so the observer always
    sees a real simulation; attaching it does not change the results).
    ``workload`` picks the ray population ("render" or a
    :mod:`repro.queries` workload) and is part of the memoizer key.
    """
    if workload != "render":
        from ..queries.workloads import check_scene_workload

        check_scene_workload(scene_name, workload)
    cache_key = (scene_name, technique, scale.name, workload)
    memoizable = use_cache and gpu_config is None and observer is None
    with _span(
        "phase.cache_lookup", scene=scene_name, technique=technique.label()
    ) as lookup:
        hit = memoizable and cache_key in _RESULT_CACHE
        if lookup is not None:
            lookup.args["hit"] = hit
    if hit:
        return _RESULT_CACHE[cache_key]
    gpu = gpu_config or scale.gpu_config()
    with _span("phase.scene_build", scene=scene_name, scale=scale.name):
        bvh = get_bvh(scene_name, scale)
        decomposition = (
            get_decomposition(
                scene_name, scale, technique.treelet_bytes,
                technique.formation,
            )
            if technique.uses_treelets
            else None
        )
        layout = _build_layout(technique, bvh, decomposition)
    with _span("phase.trace", scene=scene_name, scale=scale.name):
        traces = get_traces(
            scene_name,
            scale,
            technique.traversal,
            technique.treelet_bytes,
            technique.deferred_order,
            technique.formation,
            workload=workload,
        )
    with _span(
        "phase.replay", scene=scene_name, technique=technique.label()
    ):
        model = GpuModel(
            gpu,
            scheduler_policy=technique.scheduler,
            prefetcher_factory=_prefetcher_factory(
                technique, gpu, layout, decomposition
            ),
            observer=observer,
        )
        model.load(traces, bvh, layout)
        stats = model.run()
    result = ExperimentResult(
        scene=scene_name,
        technique=technique,
        stats=stats,
        power=evaluate_power(stats),
        traversal=summarize_traces(traces),
        tree=compute_tree_stats(bvh),
        treelet_count=decomposition.treelet_count if decomposition else 0,
    )
    if memoizable:
        _RESULT_CACHE[cache_key] = result
    return result


def speedup(baseline: ExperimentResult, candidate: ExperimentResult) -> float:
    """Cycle-ratio speedup of ``candidate`` over ``baseline`` (>1 = faster)."""
    if candidate.stats.cycles == 0:
        raise ValueError("candidate ran for zero cycles")
    return baseline.stats.cycles / candidate.stats.cycles
