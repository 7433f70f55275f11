"""End-to-end pipeline: scene -> BVH -> treelets -> traces -> timing sim.

The machinery behind :mod:`repro.api`.  A :class:`Technique` names one
point in the paper's design space (traversal algorithm, memory layout,
prefetcher, heuristic, scheduler, voter, treelet size);
:func:`repro.api.run` evaluates it on one scene (through
:func:`_run_experiment`) and returns timing, memory, power, and
traversal statistics.

Every intermediate artifact (built scenes, BVHs, ray populations,
query plans, treelet decompositions, node layouts, traces) and every
result is memoized in the one bounded process-wide LRU
(:data:`repro.core.memo.MEMO`), so a parameter sweep over one scene
pays scene/BVH construction once.  An artifact's memo key is the same
fingerprint it has in the on-disk artifact cache
(:mod:`repro.exec.cache`), which the memo falls back to before
building; a node layout (memory only) is keyed by its tree's
fingerprint and the technique's layout fields.  A result is keyed by
:meth:`Job.key`, a fingerprint that also names the package source, and
is stored on disk like an artifact, so a repeated experiment loads
the result instead of replaying it.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

from ..bvh import (
    BVH_BASE_ADDRESS,
    NODE_SIZE_BYTES,
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
    TraceSet,
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
from .memo import LRU, MEMO

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
        if self.treelet_bytes < NODE_SIZE_BYTES:
            raise ValueError(
                f"treelet_bytes must fit at least one {NODE_SIZE_BYTES}-byte "
                "node"
            )
        if self.layout == "treelet" and BVH_BASE_ADDRESS % self.treelet_bytes:
            raise ValueError(
                "the treelet layout needs a treelet_bytes that divides the "
                f"BVH base address {BVH_BASE_ADDRESS:#x}"
            )
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
    """Workload magnitude: scene size, image size, GPU size.

    ``gpu`` is the only GPU a run at this scale replays on; a GPU
    variant is ``dataclasses.replace(scale, gpu=...)``, stored and
    fanned out like any other scale's runs.
    """

    name: str
    scene_scale: float
    width: int
    height: int
    secondary: bool = True
    gpu: GpuConfig = field(default_factory=default_config)

    def raygen(self, seed: int = 0) -> RayGenConfig:
        return RayGenConfig(
            width=self.width,
            height=self.height,
            secondary=self.secondary,
            seed=seed,
        )


SMOKE = Scale("smoke", scene_scale=0.05, width=8, height=8,
              gpu=smoke_config())
DEFAULT = Scale("default", scene_scale=1.0, width=16, height=16)
FULL = Scale("full", scene_scale=1.0, width=32, height=32)
#: Table 1 verbatim (8 SMs, 64 KB L1, 3 MB L2) at the paper's 32x32
#: resolution.  With our (small) procedural scenes most trees become
#: cache-resident here — useful for sanity checks like "WKND gains
#: nothing", not for headline numbers.
PAPER = Scale("paper", scene_scale=1.0, width=32, height=32,
              gpu=paper_config())


#: Every named scale, by name: the one registry the CLI, the api and
#: the service resolve names against.
SCALES: Dict[str, Scale] = {
    scale.name: scale for scale in (SMOKE, DEFAULT, FULL, PAPER)
}


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

#: Build parameters matching Embree's *effective* shape: the node format
#: is 6-wide (Figure 6) but real Embree trees fill ~3 child slots on
#: average, giving the Table 2 depth range.  Small leaves keep per-ray
#: visit counts in the paper's regime.
DEFAULT_BUILD = BuildConfig(max_leaf_size=2)
DEFAULT_BRANCHING = 3

#: The artifact kinds :func:`build_counts` reports.
COUNTED_KINDS = (
    "scene", "bvh", "rays", "query_plan", "decomposition", "traces",
)


def build_counts() -> Dict[str, int]:
    """Artifacts constructed per kind since :func:`reset_build_counts`
    (memo hits and artifact-cache loads do not count)."""
    return {kind: MEMO.count("builds", kind) for kind in COUNTED_KINDS}


def reset_build_counts() -> None:
    """Zero every counter of :data:`~repro.core.memo.MEMO`."""
    MEMO.reset_counts()


def clear_caches() -> None:
    """Drop every memoized scene, artifact, result, forest context and
    artifact key.

    The on-disk artifact cache (:mod:`repro.exec.cache`), when active,
    survives and reloads them.
    """
    MEMO.clear()
    _KEYS.clear()


def _exec_cache():
    """:mod:`repro.exec.cache`, imported lazily: :mod:`repro.exec`
    depends on this module, so the dependency must not exist at import
    time."""
    from ..exec import cache

    return cache


def _artifact_cache():
    """The process-wide on-disk artifact cache, or None when disabled."""
    return _exec_cache().get_artifact_cache()


def _result_disk():
    """The disk tier of results: the artifact cache, unless no source
    digest can be taken, so that no result is stored under a key that
    cannot see a code change."""
    if _exec_cache().source_digest() is None:
        return None
    return _artifact_cache()


#: Entry bound of :data:`_KEYS`.  One scene's sweep asks for about ten
#: distinct keys, many times each; an entry holds its arguments (about
#: 0.9 KB with a technique), so a long-lived process keeps only the
#: last few scenes' keys.
KEY_CAPACITY = 64

#: Artifact keys by ``(kind, arguments)``: a fingerprint costs a JSON
#: dump and a SHA-256 (about 58 µs), and every memo lookup needs one.
#: :func:`clear_caches` empties it, so a changed schema version or
#: source digest is seen on the next lookup.
_KEYS = LRU(KEY_CAPACITY)


def _keyed(kind: str):
    """Make a function that names an artifact's inputs return their
    fingerprint, memoized in :data:`_KEYS` by its (positional)
    arguments."""

    def wrap(inputs):
        @functools.wraps(inputs)
        def key(*args) -> str:
            found = _KEYS.get(kind, args)
            if found is None:
                found = _exec_cache().fingerprint(kind, inputs(*args))
                _KEYS.put(kind, args, found)
            return found

        return key

    return wrap


# One function per artifact kind names its inputs.  Its fingerprint is
# the artifact's key in both tiers: the memo's and the disk cache's.


@_keyed("scene")
def _scene_key(scene_name: str, scale: Scale) -> Dict[str, object]:
    return {"scene": scene_name, "scene_scale": scale.scene_scale}


def _bvh_inputs(scene_name: str, scale: Scale) -> Dict[str, object]:
    """What a BVH depends on; every artifact derived from it too."""
    return {
        "scene": scene_name,
        "scene_scale": scale.scene_scale,
        "build": asdict(DEFAULT_BUILD),
        "branching": DEFAULT_BRANCHING,
    }


def _population_inputs(scale: Scale, workload: str) -> Dict[str, object]:
    """What a ray population depends on, besides the scene."""
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


_bvh_key = _keyed("bvh")(_bvh_inputs)


@_keyed("rays")
def _rays_key(scene_name: str, scale: Scale) -> Dict[str, object]:
    return {
        **_bvh_inputs(scene_name, scale),
        **_population_inputs(scale, "render"),
    }


@_keyed("query_plan")
def _query_plan_key(
    scene_name: str, scale: Scale, workload: str
) -> Dict[str, object]:
    return {
        "scene": scene_name,
        "scene_scale": scale.scene_scale,
        **_population_inputs(scale, workload),
    }


@_keyed("decomposition")
def _decomposition_key(
    scene_name: str, scale: Scale, treelet_bytes: int, strategy: str
) -> Dict[str, object]:
    return {
        **_bvh_inputs(scene_name, scale),
        "treelet_bytes": treelet_bytes,
        "formation": strategy,
    }


def _traces_inputs(
    scene_name: str, scale: Scale, technique: Technique, workload: str
) -> Dict[str, object]:
    """Only the treelet traversal depends on treelet parameters."""
    components = {
        **_bvh_inputs(scene_name, scale),
        **_population_inputs(scale, workload),
        "traversal": technique.traversal,
    }
    if technique.traversal == "treelet":
        components["treelet_bytes"] = technique.treelet_bytes
        components["deferred_order"] = technique.deferred_order
        components["formation"] = technique.formation
    return components


_traces_key = _keyed("traces")(_traces_inputs)


@_keyed("result")
def _result_key(
    scene_name: str, technique: Technique, scale: Scale, workload: str
) -> Dict[str, object]:
    """A replay's inputs: its trace set's, every technique field, the
    whole scale (its GPU included), and the package source, whose
    digest changes with any code edit."""
    return {
        "traces": _traces_inputs(scene_name, scale, technique, workload),
        "technique": asdict(technique),
        "scale": asdict(scale),
        "workload": workload,
        "source": _exec_cache().source_digest(),
    }


@dataclass(frozen=True)
class Job:
    """One (scene, technique, scale, workload) evaluation."""

    scene: str
    technique: Technique
    scale: Scale
    workload: str = "render"

    def key(self) -> str:
        """The key of this evaluation's result in both tiers: its
        fingerprint over the whole :class:`Scale`, so two scales
        sharing a name never share it."""
        return _result_key(
            self.scene, self.technique, self.scale, self.workload
        )


def get_scene(scene_name: str, scale: Scale):
    """The built scene, memoized per (name, scale) like every other
    artifact so one (scene, scale) pays construction exactly once."""
    return MEMO.get_or_build(
        "scene",
        _scene_key(scene_name, scale),
        lambda: build_scene(scene_name, scale.scene_scale),
    )


def get_bvh(scene_name: str, scale: Scale) -> FlatBVH:
    return MEMO.get_or_build(
        "bvh",
        _bvh_key(scene_name, scale),
        lambda: build_wide_bvh(
            get_scene(scene_name, scale).mesh,
            config=DEFAULT_BUILD,
            branching_factor=DEFAULT_BRANCHING,
            name=scene_name,
        ),
        _artifact_cache(),
    )


def get_query_plan(scene_name: str, scale: Scale, workload: str):
    """The compiled :class:`~repro.queries.QueryPlan` for a query
    workload ("knn"/"containment") at this scale.

    ``scale.width * scale.height`` sets the query count (the same knob
    that sizes the render ray population), keeping smoke/default/full
    proportions meaningful across workloads.  Plans are pure functions
    of (scene, scale, workload), so decode can always recompute the
    plan a trace set was compiled from.  Compilation is cheap, so plans
    are memoized in memory only — no disk artifact.
    """
    from ..queries import compile_queries

    return MEMO.get_or_build(
        "query_plan",
        _query_plan_key(scene_name, scale, workload),
        lambda: compile_queries(
            get_scene(scene_name, scale), workload, scale.width * scale.height
        ),
    )


def get_rays(
    scene_name: str, scale: Scale, workload: str = "render"
) -> List[Ray]:
    if workload != "render":
        return get_query_plan(scene_name, scale, workload).rays
    return MEMO.get_or_build(
        "rays",
        _rays_key(scene_name, scale),
        lambda: generate_rays(
            get_scene(scene_name, scale).camera,
            get_bvh(scene_name, scale),
            scale.raygen(),
        ),
        _artifact_cache(),
    )


def _decomposition_disk(scene_name: str, scale: Scale):
    """The artifact cache as the disk tier of one scene's
    decompositions, or None.  An entry holds no BVH: a load re-attaches
    the memoized one, so a warm decomposition shares it, not a copy."""
    cache = _artifact_cache()
    if cache is None:
        return None

    def load(kind: str, key: str):
        payload = cache.load(kind, key)
        if payload is None:
            return None
        return TreeletDecomposition(get_bvh(scene_name, scale), *payload)

    def store(kind: str, key: str, decomposition) -> None:
        cache.store(kind, key, (
            decomposition.max_bytes,
            decomposition.node_treelet,
            decomposition.offsets,
            decomposition.members,
        ))

    return SimpleNamespace(load=load, store=store)


def get_decomposition(
    scene_name: str,
    scale: Scale,
    treelet_bytes: int,
    strategy: str = "bfs",
) -> TreeletDecomposition:
    return MEMO.get_or_build(
        "decomposition",
        _decomposition_key(scene_name, scale, treelet_bytes, strategy),
        lambda: form_treelets(
            get_bvh(scene_name, scale), treelet_bytes, strategy
        ),
        _decomposition_disk(scene_name, scale),
    )


def _trace_job(scene_name: str, technique: Technique, workload: str,
               scale: Scale) -> tuple:
    """One :func:`traverse_forest_jobs` job.  The rays are clones:
    :meth:`Ray.clone` normalizes the direction again, which can move its
    last bits, and the recorded traces are those of the clones."""
    decomposition = (
        get_decomposition(
            scene_name, scale, technique.treelet_bytes, technique.formation
        )
        if technique.traversal == "treelet"
        else None
    )
    rays = [ray.clone() for ray in get_rays(scene_name, scale, workload)]
    return (
        get_bvh(scene_name, scale), rays, decomposition,
        technique.deferred_order,
    )


def _trace_sets(triples, scale: Scale) -> List[TraceSet]:
    """The trace sets of ``(scene_name, technique, workload)`` triples,
    in order.  Every set missing from both tiers rides in one merged
    ray forest (:func:`repro.traversal.traverse_forest_jobs`), so the
    fixed per-iteration numpy dispatch cost is paid once for the whole
    batch instead of once per (scene, technique)."""
    keys = [_traces_key(scene, scale, technique, workload)
            for scene, technique, workload in triples]
    by_key = dict(zip(keys, triples))
    return MEMO.get_or_build_all(
        "traces",
        keys,
        lambda missing: traverse_forest_jobs(
            [_trace_job(*by_key[key], scale) for key in missing]
        ),
        _artifact_cache(),
    )


def get_traces(
    scene_name: str,
    scale: Scale,
    traversal: str,
    treelet_bytes: int,
    deferred_order: str = "nearest",
    formation: str = "bfs",
    workload: str = "render",
) -> TraceSet:
    """Functional traversal traces (the timing model's input).

    ``workload`` selects the ray population: "render" (camera +
    secondary) or a query workload compiled by :mod:`repro.queries`;
    traces come back in ray-population order, so query decode can map
    them positionally.
    """
    technique = Technique(
        traversal=traversal,
        deferred_order=deferred_order,
        treelet_bytes=treelet_bytes,
        formation=formation,
    )
    return _trace_sets([(scene_name, technique, workload)], scale)[0]


def missing_results(jobs: Sequence[Job]) -> List[Job]:
    """Load every stored result of ``jobs`` into the memo; return the
    jobs whose result neither tier holds, in order, once each."""
    disk = _result_disk()
    missing: Dict[str, Job] = {}
    for job in jobs:
        key = job.key()
        if key not in missing and MEMO.lookup("result", key, disk)[0] is None:
            missing[key] = job
    return list(missing.values())


def prewarm_traces(pairs, scale: Scale) -> int:
    """Build the traces of many ``(scene_name, technique)`` pairs in one
    merged ray forest; returns the number of trace sets actually built.

    Each pair may also be a ``(scene_name, technique, workload)``
    triple; plain pairs mean the "render" workload.
    """
    built = MEMO.count("builds", "traces")
    _trace_sets(
        [(pair[0], pair[1], pair[2] if len(pair) > 2 else "render")
         for pair in pairs],
        scale,
    )
    return MEMO.count("builds", "traces") - built


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
    if decomposition is None:
        return layout
    # Even with the stock layout, nodes know their treelet (the Figure 6
    # child bits); the timing model reads it off the layout.
    return replace(layout, node_treelet=decomposition.node_treelet)


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


def _layout_key(scene_name: str, scale: Scale, technique: Technique) -> tuple:
    """The tree's key and the technique's fields its layout reads."""
    key = (_bvh_key(scene_name, scale), technique.layout,
           technique.layout_stride)
    if technique.uses_treelets:
        key += (technique.treelet_bytes, technique.formation)
    return key


def _tree(scene_name: str, technique: Technique, scale: Scale):
    """``(bvh, decomposition, layout)`` of ``technique`` on a scene.

    The layout is memoized like the tree it lays out and never
    mutated."""
    bvh = get_bvh(scene_name, scale)
    decomposition = (
        get_decomposition(
            scene_name, scale, technique.treelet_bytes, technique.formation
        )
        if technique.uses_treelets
        else None
    )
    layout = MEMO.get_or_build(
        "layout",
        _layout_key(scene_name, scale, technique),
        lambda: _build_layout(technique, bvh, decomposition),
    )
    return bvh, decomposition, layout


def _model(gpu: GpuConfig, technique: Technique, layout: NodeLayout,
           decomposition: Optional[TreeletDecomposition],
           **model_kwargs) -> GpuModel:
    return GpuModel(
        gpu,
        scheduler_policy=technique.scheduler,
        prefetcher_factory=_prefetcher_factory(
            technique, gpu, layout, decomposition
        ),
        **model_kwargs,
    )


@dataclass
class Replay:
    """Everything one replay reads: the GPU, the technique, the tree,
    its decomposition and layout, and the trace set.  Picklable, so
    :mod:`repro.exec` ships it to a pool worker, which replays it with
    no memo and no artifact cache."""

    gpu: GpuConfig
    technique: Technique
    bvh: FlatBVH
    decomposition: Optional[TreeletDecomposition]
    layout: NodeLayout
    traces: TraceSet

    def model(self, **model_kwargs) -> GpuModel:
        """A :class:`~repro.gpusim.GpuModel` loaded with the traces."""
        model = _model(self.gpu, self.technique, self.layout,
                       self.decomposition, **model_kwargs)
        model.load(self.traces, self.bvh, self.layout)
        return model

    def run(self, observer=None) -> SimStats:
        return self.model(observer=observer).run()


def replay_of(job: Job) -> Replay:
    """The inputs of ``job``'s replay on its scale's GPU, from the memo
    (built if missing)."""
    with _span("phase.scene_build", scene=job.scene, scale=job.scale.name):
        bvh, decomposition, layout = _tree(job.scene, job.technique,
                                           job.scale)
    with _span("phase.trace", scene=job.scene, scale=job.scale.name):
        traces = _trace_sets([(job.scene, job.technique, job.workload)],
                             job.scale)[0]
    return Replay(job.scale.gpu, job.technique, bvh, decomposition,
                  layout, traces)


def experiment_result(job: Job, replay: Replay, stats: SimStats,
                      memoizable: bool = True) -> ExperimentResult:
    """Assemble ``job``'s result from its replay and the stats the
    replay produced, wherever it ran, and keep it in both result tiers
    unless it is not ``memoizable``."""
    result = ExperimentResult(
        scene=job.scene,
        technique=job.technique,
        stats=stats,
        power=evaluate_power(stats),
        traversal=summarize_traces(replay.traces),
        tree=compute_tree_stats(replay.bvh),
        treelet_count=(replay.decomposition.treelet_count
                       if replay.decomposition else 0),
    )
    if memoizable:
        MEMO.keep("result", job.key(), result, _result_disk())
    return result


def build_gpu_model(
    scene_name: str,
    technique: Technique,
    scale: Scale = DEFAULT,
    workload: str = "render",
    **model_kwargs,
):
    """Construct a loaded :class:`~repro.gpusim.GpuModel` without running it.

    For users who want to drive the timing model directly (attach a
    timeline sampler, single-step, run frames) on the scale's GPU.
    Returns ``(model, traces, bvh, layout)``; call ``model.run()`` to
    simulate.
    """
    replay = replay_of(Job(scene_name, technique, scale, workload))
    return (replay.model(**model_kwargs), replay.traces, replay.bvh,
            replay.layout)


def _run_experiment(
    scene_name: str,
    technique: Technique = BASELINE,
    scale: Scale = DEFAULT,
    use_cache: bool = True,
    observer=None,
    workload: str = "render",
) -> ExperimentResult:
    """Evaluate ``technique`` on ``scene_name`` at ``scale``.

    Canonical implementation behind :func:`repro.api.run`.  The result
    comes from the memo, else from the artifact cache, else from a
    replay, which is then stored in both (:meth:`Job.key` is its key).
    Runs that pass ``use_cache=False`` or a :class:`repro.obs.Observer`
    skip both tiers, so they always replay; attaching an observer does
    not change the results.  ``workload`` picks the ray population
    ("render" or a :mod:`repro.queries` workload).
    """
    if workload != "render":
        from ..queries.workloads import check_scene_workload

        check_scene_workload(scene_name, workload)
    job = Job(scene_name, technique, scale, workload)
    memoizable = use_cache and observer is None
    cached = tier = None
    with _span(
        "phase.cache_lookup", scene=scene_name, technique=technique.label()
    ) as lookup:
        if memoizable:
            cached, tier = MEMO.lookup("result", job.key(), _result_disk())
        if lookup is not None:
            lookup.args["hit"] = cached is not None
            lookup.args["tier"] = tier
    if cached is not None:
        return cached
    replay = replay_of(job)
    with _span(
        "phase.replay", scene=scene_name, technique=technique.label()
    ):
        stats = replay.run(observer)
    return experiment_result(job, replay, stats, memoizable)


def speedup(baseline: ExperimentResult, candidate: ExperimentResult) -> float:
    """Cycle-ratio speedup of ``candidate`` over ``baseline`` (>1 = faster)."""
    if candidate.stats.cycles == 0:
        raise ValueError("candidate ran for zero cycles")
    return baseline.stats.cycles / candidate.stats.cycles
