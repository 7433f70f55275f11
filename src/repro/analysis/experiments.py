"""The paper's experiments as one table, and the runner that evaluates it.

Each :class:`Experiment` is one row of DESIGN.md's experiment index: the
table or figure it reproduces, the paper's headline, how it is measured,
how EXPERIMENTS.md summarizes it, and the named shape checks that must
hold.  A shape the paper reports but this model does not reproduce is a
named :class:`Divergence`: recorded and printed with its numbers, not
asserted.

:func:`evaluate` runs the table at one scale.  Its results are what
``results/experiments.json`` records (:func:`write_results`), what
EXPERIMENTS.md and ``repro figures`` render (:mod:`.figures`), and what
the tests gate.  Run it with ``python tools/run_full_eval.py``.

Measurements come in a few kinds:

* technique sweeps go through :func:`repro.api.compare`
  (:func:`compared`, :func:`series`), so their replays fan out and load
  stored results like any sweep;
* GPU and ray-population variants (:func:`_scale_sweep`, Fig 15) go
  through :func:`repro.api.compare` too, on a variant of the scale
  (``replace(scale, gpu=...)``), whose results are stored and fanned
  out like a named scale's;
* the rest are direct calls: scene and BVH statistics, a multi-frame
  animation, other scales, and the voter's storage arithmetic.

Scenes follow the scale: 4 small scenes at smoke, 10 at default (the
five slowest big scenes dropped), all 16 at full.  A row may take only
the leading ``scenes`` of that list.  Payload keys that begin with
``_`` are working values for the checks and are not recorded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..api import compare, sweep
from ..bvh import compute_tree_stats
from ..core import (
    BASELINE,
    DEFAULT,
    FULL,
    SMOKE,
    TREELET_PREFETCH,
    TREELET_TRAVERSAL_ONLY,
    AnimationConfig,
    Scale,
    Technique,
    run_animation,
)
from ..core.config import CacheConfig
from ..core.pipeline import get_bvh, get_decomposition, get_rays, get_traces
from ..core.report import geomean
from ..prefetch import (
    SEQUENTIAL_AREA_UM2,
    PrefetchHeuristic,
    first_level_table_bytes,
    second_level_table_bytes,
    voter_latency_for_copies,
    voter_storage_bytes,
)
from ..scenes import ALL_SCENES
from ..traversal import DEFERRED_ORDERS, summarize_traces
from ..treelet import FORMATION_STRATEGIES
from .coherence import analyze_by_kind

SMOKE_SCENES = ("WKND", "SHIP", "BUNNY", "SPNZA")
DEFAULT_SCENES = (
    "WKND", "SHIP", "BUNNY", "SPNZA", "REF", "CHSNT",
    "CRNVL", "BATH", "SPRNG", "FRST",
)


def scenes_for(scale: Scale) -> List[str]:
    """The scene set the table sweeps at ``scale``."""
    if scale.name == "smoke":
        return list(SMOKE_SCENES)
    if scale.name == "full":
        return list(ALL_SCENES)
    return list(DEFAULT_SCENES)


@dataclass(frozen=True)
class Check:
    """A named shape assertion over a row's payload.

    ``at_smoke=False`` skips it at smoke scale, where the scenes are
    miniatures and per-scene shapes (e.g. "WKND fits in cache") do not
    hold.
    """

    name: str
    holds: Callable[[dict], bool]
    at_smoke: bool = True

    def runs_at(self, scale_name: str) -> bool:
        return self.at_smoke or scale_name != "smoke"


@dataclass(frozen=True)
class Divergence:
    """A paper shape this model does not reproduce: ``holds`` tests the
    paper's shape, ``note`` states what is measured instead."""

    name: str
    holds: Callable[[dict], bool]
    note: Callable[[dict], str]


Measure = Callable[[Scale, List[str]], dict]


@dataclass(frozen=True)
class Experiment:
    """One row of the table."""

    id: str
    exp: str  # DESIGN.md's label for it ("Fig 10", "Abl. C", ...)
    title: str
    paper: str  # the paper's headline, as EXPERIMENTS.md prints it
    measure: Measure
    summary: Callable[[dict], str]  # the recorded payload in one line
    scenes: Optional[int] = None  # leading scenes of the scale's set
    checks: Tuple[Check, ...] = ()
    divergences: Tuple[Divergence, ...] = ()
    paper_values: Mapping[str, float] = field(default_factory=dict)
    chart: Optional[str] = None  # "bars" or "stacked" for `repro figures`


# -- measurement kinds --------------------------------------------------


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def mean_by_key(dicts) -> Dict[str, float]:
    dicts = list(dicts)
    return {key: mean(d[key] for d in dicts) for key in dicts[0]}


def speedup_of(outcome) -> float:
    return outcome.speedup


def gmean_speedup(outcomes: dict) -> float:
    """Geometric-mean speedup of ``{scene: SceneOutcome}``."""
    return geomean([o.speedup for o in outcomes.values()])


def l2_ratio(outcome) -> float:
    """Candidate L2 bandwidth normalized to the baseline's."""
    base = outcome.baseline.stats.l2_bandwidth
    return outcome.candidate.stats.l2_bandwidth / base if base else 1.0


def compared(techniques: Dict[str, Technique],
             payload: Callable[[dict], dict]) -> Measure:
    """Sweep ``techniques`` with :func:`repro.api.compare`; ``payload``
    maps ``{label: {scene: SceneOutcome}}`` to the row's payload."""

    def measure(scale: Scale, scenes: List[str]) -> dict:
        sweeps = compare(techniques, scenes, scale)
        return payload({label: s.outcomes for label, s in sweeps.items()})

    return measure


def series(techniques: Dict[str, Technique], metric=speedup_of,
           aggregate=geomean) -> Measure:
    """``{label: aggregate of metric over the scenes}``."""
    return compared(techniques, lambda grid: {
        label: aggregate([metric(o) for o in outcomes.values()])
        for label, outcomes in grid.items()
    })


def _treelet(**fields) -> Technique:
    return Technique(traversal="treelet", layout="treelet",
                     prefetch="treelet", **fields)


def _by_int_key(d: dict):
    return sorted(d.items(), key=lambda kv: int(kv[0]))


def _listing(d: dict, fmt: str = "{k} {v:.3f}") -> str:
    return ", ".join(fmt.format(k=k, v=v) for k, v in d.items())


def _on_gpu(scale: Scale, **changes) -> Scale:
    """``scale`` on its GPU with ``changes``."""
    return replace(scale, gpu=replace(scale.gpu, **changes))


def _scale_sweep(vary: Callable[[Scale, object], Scale], keys,
                 extra=None) -> Measure:
    """Baseline vs treelet prefetch on the scale ``vary(scale, key)``
    per key: ``{str(key): gmean speedup}``, plus ``extra(outcomes)`` per
    key under ``_<key>`` for the checks."""

    def measure(scale: Scale, scenes: List[str]) -> dict:
        payload = {}
        for key in keys:
            label = str(key)
            outcomes = compare({label: TREELET_PREFETCH}, scenes,
                               vary(scale, key))[label].outcomes
            payload[label] = gmean_speedup(outcomes)
            if extra is not None:
                payload[f"_{label}"] = extra(outcomes.values())
        return payload

    return measure


# -- per-row measurements that are not a plain series -----------------


#: Table 2's tree sizes (MB) for the paper's LumiBench scenes.
PAPER_SIZES_MB = {
    "WKND": 0.2, "PARK": 501.9, "CAR": 1233.6, "ROBOT": 1721.3,
    "SPRNG": 164.3, "PARTY": 143.8, "FOX": 597.8, "FRST": 348.6,
    "LANDS": 279.2, "BUNNY": 12.2, "CRNVL": 37.3, "SHIP": 0.5,
    "SPNZA": 22.0, "BATH": 104.2, "REF": 37.1, "CHSNT": 25.5,
}


def _table2(scale: Scale, scenes: List[str]) -> dict:
    payload = {}
    for scene in scenes:
        stats = compute_tree_stats(get_bvh(scene, scale))
        payload[scene] = {
            "size_mb": stats.size_mb,
            "depth": stats.depth,
            "treelets": get_decomposition(scene, scale, 512).treelet_count,
            "paper_size_mb": PAPER_SIZES_MB[scene],
        }
    return payload


def _node_summaries(scale: Scale, scene: str, order: str = "nearest"):
    dfs = summarize_traces(get_traces(scene, scale, "dfs", 512))
    two = summarize_traces(get_traces(scene, scale, "treelet", 512, order))
    return dfs, two


def _table3(scale: Scale, scenes: List[str]) -> dict:
    payload = {}
    for scene in scenes:
        dfs, two = _node_summaries(scale, scene)
        payload[scene] = {
            "dfs_avg": dfs.avg_nodes_per_ray,
            "treelet_avg": two.avg_nodes_per_ray,
            "avg_diff": two.avg_nodes_per_ray / dfs.avg_nodes_per_ray - 1.0,
            "dfs_max": dfs.max_nodes,
            "treelet_max": two.max_nodes,
            "max_diff": (two.max_nodes / dfs.max_nodes - 1.0
                         if dfs.max_nodes else 0.0),
        }
    payload["gmean"] = {
        key: geomean([1.0 + payload[s][key] for s in scenes]) - 1.0
        for key in ("avg_diff", "max_diff")
    }
    return payload


def _deferred_order(scale: Scale, scenes: List[str]) -> dict:
    ratios = {order: [] for order in DEFERRED_ORDERS}
    for scene in scenes:
        for order in DEFERRED_ORDERS:
            dfs, two = _node_summaries(scale, scene, order)
            ratios[order].append(
                two.avg_nodes_per_ray / dfs.avg_nodes_per_ray
            )
    return {order: geomean(r) - 1.0 for order, r in ratios.items()}


def _sec24(scale: Scale, scenes: List[str]) -> dict:
    kinds = ("primary", "shadow", "secondary")
    sums = {kind: {"overlap": 0.0, "nodes": 0.0, "n": 0} for kind in kinds}
    for scene in scenes:
        reports = analyze_by_kind(
            get_rays(scene, scale), get_traces(scene, scale, "dfs", 512),
            get_decomposition(scene, scale, 512),
        )
        for kind in kinds:
            report = reports.get(kind)
            if report is not None:
                sums[kind]["overlap"] += report.avg_warp_overlap
                sums[kind]["nodes"] += report.avg_nodes_per_ray
                sums[kind]["n"] += 1
    return {
        kind: {
            "mean_warp_overlap": s["overlap"] / max(1, s["n"]),
            "mean_nodes_per_ray": s["nodes"] / max(1, s["n"]),
        }
        for kind, s in sums.items()
    }


def _sec51(scale: Scale, scenes: List[str]) -> dict:
    """The headline speedup at two resolutions: 8x8 vs 16x16 miniatures
    at smoke, else 16x16 vs the paper's 32x32."""
    low, high = (SMOKE, DEFAULT) if scale.name == "smoke" else (DEFAULT, FULL)
    return {
        f"gmean_{name}": gmean_speedup(
            sweep(TREELET_PREFETCH, scenes, res).outcomes
        )
        for name, res in (("low", low), ("high", high))
    }


def _sec65(scale: Scale, scenes: List[str]) -> dict:
    payload = {
        "first_level_bytes": first_level_table_bytes(),
        "second_level_bytes": second_level_table_bytes(),
        "sequential_area_um2": SEQUENTIAL_AREA_UM2,
    }
    for copies in (1, 4, 16):
        payload[f"copies_{copies}"] = {
            "storage_bytes": voter_storage_bytes(copies),
            "latency_cycles": voter_latency_for_copies(copies),
        }
    return payload


def _per_scene(grid: dict, label: str, fields: Dict[str, Callable]) -> dict:
    return {
        scene: {name: f(o) for name, f in fields.items()}
        for scene, o in grid[label].items()
    }


def _fig01(grid: dict) -> dict:
    outcomes = grid["ours"].values()
    payload = _per_scene(grid, "ours", {
        "dram_util_base": lambda o: o.baseline.stats.dram_utilization,
        "dram_util_pref": lambda o: o.candidate.stats.dram_utilization,
        "latency_base": lambda o: o.baseline.stats.avg_node_demand_latency,
        "latency_pref": lambda o: o.candidate.stats.avg_node_demand_latency,
    })
    payload["gmean_latency_reduction"] = 1.0 - geomean([
        o.candidate.stats.avg_node_demand_latency
        / o.baseline.stats.avg_node_demand_latency
        for o in outcomes
    ])
    return payload


def _power_ratio(o) -> float:
    return o.candidate.power.avg_power / o.baseline.power.avg_power


def _fig07(grid: dict) -> dict:
    outcomes = grid["ours"].values()
    payload = _per_scene(grid, "ours", {
        "speedup": speedup_of,
        "power_ratio": _power_ratio,
        "base_cycles": lambda o: o.baseline.cycles,
        "pref_cycles": lambda o: o.candidate.cycles,
    })
    payload["gmean_speedup"] = gmean_speedup(grid["ours"])
    payload["gmean_power_ratio"] = geomean([_power_ratio(o) for o in outcomes])
    return payload


def _fig08(grid: dict) -> dict:
    payload = {
        scene: {
            "mta_speedup": mta.speedup,
            "ours_speedup": grid["ours"][scene].speedup,
            "mta_timely_fraction": (
                mta.candidate.stats.effectiveness.timely
                / max(1, mta.candidate.stats.effectiveness.issued)
            ),
        }
        for scene, mta in grid["mta"].items()
    }
    for label in ("mta", "ours"):
        payload[f"gmean_{label}"] = gmean_speedup(grid[label])
    return payload


def _fig09(grid: dict) -> dict:
    payload = {}
    for scene, trav in grid["traversal_only"].items():
        total = grid["total"][scene].speedup
        payload[scene] = {
            "traversal_only": trav.speedup,
            "prefetch_extra": total / trav.speedup,
            "total": total,
        }
    for label in ("traversal_only", "total"):
        payload[f"gmean_{label}"] = gmean_speedup(grid[label])
    return payload


FIG20_BUCKETS = ("timely", "late", "too_late", "early", "unused")


def _fig20(grid: dict) -> dict:
    return mean_by_key(
        {b: o.candidate.stats.effectiveness.fractions()[b]
         for b in FIG20_BUCKETS}
        for o in grid["ours"].values()
    )


def _fig15(scale: Scale, scenes: List[str]) -> dict:
    """Packed vs 256 B-strided treelet roots on a DRAM-pressured GPU:
    16 bus cycles per line instead of 4, the utilization regime in which
    partition camping costs (DESIGN.md, modeling decision 5)."""
    pressured = _on_gpu(
        scale, dram=replace(scale.gpu.dram, burst_cycles=16)
    )
    packed = _treelet(scheduler="pmr")
    outcomes = compare(
        {"strided": replace(packed, layout_stride=256)}, scenes, pressured,
        baseline=packed,
    )["strided"].outcomes
    return {
        "gmean_strided_vs_packed": gmean_speedup(outcomes),
        "mean_packed_imbalance": mean(
            o.baseline.stats.dram_imbalance for o in outcomes.values()
        ),
        "mean_strided_imbalance": mean(
            o.candidate.stats.dram_imbalance for o in outcomes.values()
        ),
    }


def _animation(scale: Scale, scenes: List[str]) -> dict:
    """Per-frame speedup over a 4-frame, 3-degrees-per-frame orbit
    replayed through one persistent GPU."""
    config = AnimationConfig(frames=4, orbit_degrees_per_frame=3.0)
    runs = [
        (run_animation(scene, BASELINE, config, scale),
         run_animation(scene, TREELET_PREFETCH, config, scale))
        for scene in scenes
    ]
    return {
        "cold_frame": geomean([b.first_frame / p.first_frame
                               for b, p in runs]),
        "steady_state": geomean([b.steady_state / p.steady_state
                                 for b, p in runs]),
    }


def _adaptive(grid: dict) -> dict:
    payload = {label: gmean_speedup(o) for label, o in grid.items()}
    payload["_l2_traffic"] = {
        label: geomean([l2_ratio(o) for o in outcomes.values()])
        for label, outcomes in grid.items()
    }
    return payload


# -- the techniques the sweeps share ----------------------------------

HEURISTICS = {
    h.label(): _treelet(heuristic=h)
    for h in (
        PrefetchHeuristic("always"),
        PrefetchHeuristic("popularity", threshold=0.25),
        PrefetchHeuristic("popularity", threshold=0.5),
        PrefetchHeuristic("popularity", threshold=0.75),
        PrefetchHeuristic("partial"),
    )
}
#: ALWAYS with the baseline scheduler (Figures 9 and 20).
PREFETCH_BASE_SCHED = replace(TREELET_PREFETCH, scheduler="baseline")


def _pseudo(latency: int) -> Technique:
    return _treelet(voter_mode="pseudo", voter_latency=latency)


def _popularity(d: dict) -> List[float]:
    return [v for k, v in d.items() if k.startswith("POPULARITY")]


def _best(d: dict) -> str:
    return max(d, key=d.get)


def _fig20_top_two(d: dict) -> List[str]:
    return sorted(FIG20_BUCKETS, key=d.get, reverse=True)[:2]


def _table2_summary(d: dict) -> str:
    smallest = min(d, key=lambda s: d[s]["size_mb"])
    largest = max(d, key=lambda s: d[s]["size_mb"])
    depths = [v["depth"] for v in d.values()]
    treelets = [v["treelets"] for v in d.values()]
    return (
        f"{len(d)} scenes, sizes {d[smallest]['size_mb']:.3f}–"
        f"{d[largest]['size_mb']:.1f} MB ({smallest} smallest, {largest} "
        f"largest), depths {min(depths)}–{max(depths)}, treelets "
        f"{min(treelets)}–{max(treelets)}"
    )


# -- the table ----------------------------------------------------------

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "table2_scene_stats", "Table 2", "Table 2 — Scene BVH statistics",
        "Sizes 0.2 MB–1.7 GB, depths 7–18, treelets 519–13.5 M "
        "(WKND smallest, ROBOT largest)",
        _table2,
        _table2_summary,
        checks=(
            Check("table2_wknd_smallest", lambda d: d["WKND"]["size_mb"]
                  == min(v["size_mb"] for v in d.values())),
            Check("table2_robot_largest", lambda d: "ROBOT" not in d
                  or d["ROBOT"]["size_mb"]
                  == max(v["size_mb"] for v in d.values())),
        ),
    ),
    Experiment(
        "table3_nodes_per_ray", "Table 3",
        "Table 3 — Nodes per ray, DFS vs treelet traversal",
        "gmean avg diff −2.12 %, max diff −0.28 %; per-scene −19 %…+10 %",
        _table3,
        lambda d: (
            f"gmean avg diff {100 * d['gmean']['avg_diff']:+.2f} %, "
            f"max diff {100 * d['gmean']['max_diff']:+.2f} % — the same "
            "'small, mixed-sign' effect"
        ),
        checks=(Check("table3_small_avg_effect",
                      lambda d: abs(d["gmean"]["avg_diff"]) < 0.25),),
    ),
    Experiment(
        "fig01_memory_stats", "Fig 1",
        "Figure 1 — DRAM utilization & BVH demand latency",
        "Baseline DRAM utilization low (latency-bound); BVH memory "
        "latency reduced 54 % on average",
        compared({"ours": TREELET_PREFETCH}, _fig01),
        lambda d: (
            f"gmean latency reduction "
            f"{100 * d['gmean_latency_reduction']:.1f} %; baseline "
            "utilization low and rising with prefetch, same direction"
        ),
        checks=(Check("fig01_latency_reduced",
                      lambda d: d["gmean_latency_reduction"] > 0.0),),
    ),
    Experiment(
        "fig07_overall_speedup", "Fig 7",
        "Figure 7 — Overall speedup and power (ALWAYS + PMR + 512 B)",
        "gmean speedup 1.321 at ~equal power; WKND ≈ 1.0",
        compared({"ours": TREELET_PREFETCH}, _fig07),
        lambda d: (
            f"gmean speedup {d['gmean_speedup']:.3f}, power ratio "
            f"{d['gmean_power_ratio']:.3f}, WKND {d['WKND']['speedup']:.3f}"
        ),
        checks=(
            Check("fig07_clear_win", lambda d: d["gmean_speedup"] > 1.05),
            Check("fig07_wknd_near_flat",
                  lambda d: d["WKND"]["speedup"] < 1.2, at_smoke=False),
            Check("fig07_power_flat",
                  lambda d: 0.8 < d["gmean_power_ratio"] < 1.25,
                  at_smoke=False),
        ),
    ),
    Experiment(
        "fig08_prior_work", "Fig 8",
        "Figure 8 — Comparison to Lee et al. (MTA)",
        "MTA ineffective (≈1.0); treelet prefetching 1.32",
        compared({"mta": Technique(prefetch="mta"),
                  "ours": TREELET_PREFETCH}, _fig08),
        lambda d: (
            f"MTA gmean {d['gmean_mta']:.3f} vs ours "
            f"{d['gmean_ours']:.3f} — same verdict"
        ),
        checks=(
            Check("fig08_ours_beats_mta",
                  lambda d: d["gmean_ours"] > d["gmean_mta"]),
            Check("fig08_mta_ineffective", lambda d: d["gmean_mta"] < 1.1),
        ),
    ),
    Experiment(
        "fig09_breakdown", "Fig 9",
        "Figure 9 — Speedup breakdown (traversal alone vs + prefetch)",
        "Traversal alone 0.963 (−3.7 %); +prefetch 1.321",
        compared({"traversal_only": TREELET_TRAVERSAL_ONLY,
                  "total": PREFETCH_BASE_SCHED}, _fig09),
        lambda d: (
            f"traversal alone {d['gmean_traversal_only']:.3f}; total "
            f"{d['gmean_total']:.3f} — prefetching supplies the win"
        ),
        checks=(
            Check("fig09_traversal_alone_neutral",
                  lambda d: 0.8 < d["gmean_traversal_only"] < 1.15),
            Check("fig09_prefetch_supplies_win", lambda d:
                  d["gmean_total"] > d["gmean_traversal_only"]),
        ),
        divergences=(Divergence(
            "fig09_traversal_alone_slowdown",
            lambda d: d["gmean_traversal_only"] < 1.0,
            lambda d: (f"treelet traversal alone gives "
                       f"{d['gmean_traversal_only']:.3f}"),
        ),),
    ),
    Experiment(
        "fig10_heuristics", "Fig 10", "Figure 10 — Prefetch heuristics",
        "ALWAYS 1.319 > POPULARITY ≤ 1.27 > PARTIAL 1.16",
        series(HEURISTICS),
        _listing,
        checks=(
            Check("fig10_always_ge_partial",
                  lambda d: d["ALWAYS"] >= d["PARTIAL"]),
            Check("fig10_always_ge_popularity_075",
                  lambda d: d["ALWAYS"] >= d["POPULARITY:0.75"]),
            Check("fig10_heuristic_order", lambda d: d["ALWAYS"]
                  > max(_popularity(d)) > d["PARTIAL"], at_smoke=False),
        ),
        paper_values={"ALWAYS": 1.319, "POPULARITY:0.25": 1.27,
                      "PARTIAL": 1.16},
        chart="bars",
    ),
    Experiment(
        "fig11_l2_bandwidth", "Fig 11", "Figure 11 — Normalized L2 bandwidth",
        "ALWAYS highest; POPULARITY/PARTIAL throttle extra traffic",
        series(HEURISTICS, metric=l2_ratio),
        lambda d: _listing(d, "{k} {v:.2f}×"),
        checks=(
            Check("fig11_popularity_075_le_always",
                  lambda d: d["POPULARITY:0.75"] <= d["ALWAYS"] + 0.05),
            Check("fig11_partial_le_always",
                  lambda d: d["PARTIAL"] <= d["ALWAYS"] + 0.05),
            Check("fig11_throttles_below_always", lambda d: max(
                _popularity(d) + [d["PARTIAL"]]) < d["ALWAYS"],
                at_smoke=False),
        ),
    ),
    Experiment(
        "fig12_l1_breakdown", "Fig 12",
        "Figure 12 — L1 demand-access breakdown",
        "ALWAYS has the largest prefetch-hit share; baseline none",
        series({"Baseline": BASELINE, **HEURISTICS},
               metric=lambda o: o.candidate.stats.l1_breakdown(),
               aggregate=mean_by_key),
        lambda d: (
            f"prefetch-hit share: ALWAYS {d['ALWAYS']['prefetch_hits']:.3f} "
            f"vs POPULARITY:0.75 {d['POPULARITY:0.75']['prefetch_hits']:.3f} "
            f"vs Baseline {d['Baseline']['prefetch_hits']:.3f}; misses drop "
            f"{d['Baseline']['misses']:.3f} → {d['ALWAYS']['misses']:.3f}"
        ),
        checks=(
            Check("fig12_baseline_no_prefetch_hits",
                  lambda d: d["Baseline"]["prefetch_hits"] == 0.0),
            Check("fig12_always_most_prefetch_hits",
                  lambda d: d["ALWAYS"]["prefetch_hits"]
                  >= d["POPULARITY:0.75"]["prefetch_hits"]),
            Check("fig12_prefetch_cuts_misses", lambda d:
                  d["ALWAYS"]["misses"] <= d["Baseline"]["misses"]),
        ),
    ),
    Experiment(
        "fig13_schedulers", "Fig 13", "Figure 13 — Treelet schedulers",
        "All within a point: PMR 1.321 ≥ baseline 1.319 ≥ OMR 1.318",
        series({p: replace(TREELET_PREFETCH, scheduler=p)
                for p in ("baseline", "omr", "pmr")}),
        _listing,
        checks=(
            Check("fig13_schedulers_within_band",
                  lambda d: max(d.values()) - min(d.values()) < 0.15),
            Check("fig13_all_schedulers_win",
                  lambda d: min(d.values()) > 1.0),
            Check("fig13_pmr_best", lambda d: _best(d) == "pmr",
                  at_smoke=False),
        ),
        paper_values={"baseline": 1.319, "omr": 1.318, "pmr": 1.321},
        chart="bars",
    ),
    Experiment(
        "fig14_repacking", "Fig 14", "Figure 14 — BVH options",
        "Repacked 1.319 > Loose Wait 1.297 > Strict Wait 0.975",
        series({
            "Repacked": _treelet(),
            "LooseWait": Technique(traversal="treelet", layout="dfs",
                                   prefetch="treelet", mapping_mode="loose"),
            "StrictWait": Technique(traversal="treelet", layout="dfs",
                                    prefetch="treelet", mapping_mode="strict"),
        }),
        _listing,
        checks=(
            Check("fig14_repacked_near_loose",
                  lambda d: d["Repacked"] >= d["LooseWait"] - 0.02),
            Check("fig14_loose_beats_strict",
                  lambda d: d["LooseWait"] > d["StrictWait"], at_smoke=False),
            Check("fig14_repacked_near_strict",
                  lambda d: d["Repacked"] >= d["StrictWait"] - 0.02),
        ),
        divergences=(Divergence(
            "fig14_layout_order",
            lambda d: d["Repacked"] > d["LooseWait"] > d["StrictWait"]
            and d["StrictWait"] < 1.0,
            lambda d: (
                f"Repacked {d['Repacked']:.3f}, LooseWait "
                f"{d['LooseWait']:.3f}, StrictWait {d['StrictWait']:.3f}"
            ),
        ),),
        paper_values={"Repacked": 1.319, "LooseWait": 1.297,
                      "StrictWait": 0.975},
        chart="bars",
    ),
    Experiment(
        "fig15_load_balancing", "Fig 15",
        "Figure 15 — DRAM load balancing (256 B stride)",
        "+256 B stride performs 5.7 % better (spreads partitions)",
        _fig15,
        lambda d: (
            f"strided vs packed gmean gain "
            f"{d['gmean_strided_vs_packed']:.3f}; DRAM imbalance "
            f"{d['mean_packed_imbalance']:.2f} → "
            f"{d['mean_strided_imbalance']:.2f} (max/mean per-partition "
            "accesses)"
        ),
        checks=(
            Check("fig15_stride_spreads_dram", lambda d:
                  d["mean_strided_imbalance"]
                  <= d["mean_packed_imbalance"] + 1e-9),
            Check("fig15_stride_no_loss",
                  lambda d: d["gmean_strided_vs_packed"] > 0.97),
            Check("fig15_stride_beats_packed",
                  lambda d: d["gmean_strided_vs_packed"] > 1.0,
                  at_smoke=False),
        ),
    ),
    Experiment(
        "fig16_prefetcher_latency", "Fig 16",
        "Figure 16 — Prefetcher latency sweep",
        "0 cyc 1.319; 32 cyc −1 pt; 128 cyc 1.253; 512 cyc 1.17",
        series({str(n): _pseudo(n) for n in (0, 32, 128, 512)}),
        lambda d: _listing(dict(_by_int_key(d)), "{k} cyc {v:.3f}"),
        checks=(
            Check("fig16_32_near_ideal", lambda d: d["32"] >= d["0"] - 0.1),
            Check("fig16_512_no_better", lambda d: d["512"] <= d["0"] + 0.02),
            Check("fig16_monotone", lambda d:
                  d["0"] >= d["32"] >= d["128"] >= d["512"], at_smoke=False),
        ),
        paper_values={"0": 1.319, "32": 1.309, "128": 1.253, "512": 1.17},
        chart="bars",
    ),
    Experiment(
        "fig17_voter_accuracy", "Fig 17",
        "Figure 17 — Pseudo-voter decision accuracy",
        "Agrees with the full majority 91.2 % on average",
        series({str(n): _pseudo(n) for n in (0, 32, 128)},
               metric=lambda o: o.candidate.stats.voter_accuracy,
               aggregate=mean),
        lambda d: _listing(
            {k: 100 * v for k, v in _by_int_key(d)}, "{k} cyc {v:.1f} %"
        ),
        checks=(Check("fig17_mostly_agrees", lambda d: d["0"] > 0.6),),
    ),
    Experiment(
        "fig18_voter_performance", "Fig 18",
        "Figure 18 — Pseudo vs full voter performance",
        "Accuracy loss does not impact performance at all",
        series({"full": _treelet(voter_mode="full"),
                "pseudo": _treelet(voter_mode="pseudo")}),
        lambda d: (
            f"full {d['full']:.3f} vs pseudo {d['pseudo']:.3f} "
            f"(Δ {abs(d['full'] - d['pseudo']):.3f})"
        ),
        checks=(Check("fig18_pseudo_costs_nothing",
                      lambda d: abs(d["pseudo"] - d["full"]) < 0.08),),
    ),
    Experiment(
        "fig19_treelet_sizes", "Fig 19", "Figure 19 — Treelet size sweep",
        "512 B best (1.319); 256 B 1.248; 1024 B 1.294; 2048 B 1.304",
        series({str(n): _treelet(treelet_bytes=n)
                for n in (256, 512, 1024, 2048)}),
        lambda d: _listing(dict(_by_int_key(d)), "{k} B {v:.3f}"),
        checks=(
            Check("fig19_every_size_wins", lambda d: min(d.values()) > 1.0),
            Check("fig19_tight_band",
                  lambda d: max(d.values()) - min(d.values()) < 0.25),
        ),
        divergences=(Divergence(
            "fig19_512_sweet_spot",
            lambda d: _best(d) == "512",
            lambda d: (
                f"{_best(d)} B is best at {max(d.values()):.3f}; 512 B "
                f"gives {d['512']:.3f}"
            ),
        ),),
        paper_values={"256": 1.248, "512": 1.319, "1024": 1.294,
                      "2048": 1.304},
        chart="bars",
    ),
    Experiment(
        "fig20_effectiveness", "Fig 20", "Figure 20 — Prefetch effectiveness",
        "Timely 47.8 %, Unused 43.5 % dominate",
        compared({"ours": PREFETCH_BASE_SCHED}, _fig20),
        lambda d: _listing({k: 100 * v for k, v in d.items()},
                           "{k} {v:.1f} %"),
        checks=(
            Check("fig20_fractions_sum_to_one",
                  lambda d: abs(sum(d.values()) - 1.0) < 1e-6),
            Check("fig20_timely_present", lambda d: d["timely"] > 0.05),
            Check("fig20_wasted_tail",
                  lambda d: d["unused"] + d["early"] > 0.05),
        ),
        divergences=(Divergence(
            "fig20_timely_unused_dominate",
            lambda d: set(_fig20_top_two(d)) == {"timely", "unused"},
            lambda d: "the two largest classes are " + ", ".join(
                f"{k} {d[k]:.3f}" for k in _fig20_top_two(d)
            ) + f"; unused is {d['unused']:.3f}",
        ),),
        paper_values={"timely": 0.478, "unused": 0.435},
        chart="stacked",
    ),
    Experiment(
        "sec51_resolution", "§5.1",
        "Section 5.1 — Speedup consistency across resolutions",
        "Paper: tested some scenes at 96x96, 'the speedups remain "
        "consistent' with 32x32",
        _sec51,
        lambda d: (
            f"gmean speedup {d['gmean_low']:.3f} at low res vs "
            f"{d['gmean_high']:.3f} at high res"
        ),
        scenes=5,
        checks=(Check("sec51_consistent", lambda d: abs(
            d["gmean_high"] - d["gmean_low"]) / d["gmean_low"] < 0.3),),
    ),
    Experiment(
        "sec65_area", "§6.5 area", "Section 6.5 — Prefetcher storage / area",
        "108 B + 52 B tables, 461 µm², 512/128/32-cycle decision latency",
        _sec65,
        lambda d: (
            f"first level {d['first_level_bytes']} B, second level "
            f"{d['second_level_bytes']} B, sequential logic "
            f"{d['sequential_area_um2']} µm²; 1/4/16 copies → "
            f"{d['copies_1']['latency_cycles']}/"
            f"{d['copies_4']['latency_cycles']}/"
            f"{d['copies_16']['latency_cycles']} cycles"
        ),
        scenes=0,
        checks=(
            Check("sec65_first_level_108",
                  lambda d: d["first_level_bytes"] == 108),
            Check("sec65_second_level_52",
                  lambda d: d["second_level_bytes"] == 52),
            Check("sec65_one_copy_512_cycles",
                  lambda d: d["copies_1"]["latency_cycles"] == 512),
            Check("sec65_sixteen_copies_32_cycles",
                  lambda d: d["copies_16"]["latency_cycles"] == 32),
        ),
    ),
    Experiment(
        "ablation_classic_prefetchers", "Abl. A (ext.)",
        "Ablation (extension) — Classic prefetchers",
        "Paper §2.4 (prediction, not measured): stride/stream/GHB "
        "ineffective on BVH traversal",
        series({**{k: Technique(prefetch=k)
                   for k in ("stride", "stream", "ghb", "mta")},
                "treelet": TREELET_PREFETCH}),
        _listing,
        checks=(Check("classic_treelet_beats_all", lambda d: all(
            d["treelet"] > v for k, v in d.items() if k != "treelet")),),
        chart="bars",
    ),
    Experiment(
        "ablation_deferred_order", "Abl. B (ext.)",
        "Ablation (extension) — Deferred-treelet pop order",
        "Paper Algorithm 1's `front()` is ambiguous; paper measures "
        "−2.12 % avg nodes with its ordering",
        _deferred_order,
        lambda d: _listing({k: 100 * v for k, v in d.items()},
                           "{k} {v:+.1f} %"),
        checks=(
            Check("deferred_nearest_le_lifo",
                  lambda d: d["nearest"] <= d["lifo"]),
            Check("deferred_nearest_le_fifo",
                  lambda d: d["nearest"] <= d["fifo"]),
        ),
    ),
    Experiment(
        "ablation_formation", "Abl. C (ext.)",
        "Ablation (extension) — Treelet formation strategy",
        "Paper future work ('statistical metrics'); paper uses bfs",
        series({s: replace(TREELET_PREFETCH, formation=s)
                for s in FORMATION_STRATEGIES}),
        _listing,
        checks=(Check("formation_every_strategy_wins",
                      lambda d: min(d.values()) > 1.0),),
        chart="bars",
    ),
    Experiment(
        "ablation_destination", "Abl. D (ext.)",
        "Ablation (extension) — Prefetch destination (L1 vs stream buffer)",
        "Not in the paper; L1 is the paper's design",
        _scale_sweep(
            lambda scale, where: _on_gpu(scale, prefetch_destination=where),
            ("l1", "stream"),
        ),
        lambda d: f"L1 {d['l1']:.3f} vs stream buffer {d['stream']:.3f}",
        checks=(
            Check("destination_l1_wins", lambda d: d["l1"] > 1.0),
            Check("destination_stream_wins", lambda d: d["stream"] > 1.0),
            Check("destination_band",
                  lambda d: abs(d["l1"] - d["stream"]) < 0.2),
        ),
    ),
    Experiment(
        "ablation_warp_buffer", "Abl. E (ext.)",
        "Ablation (extension) — Warp buffer capacity",
        "Not in the paper (Table 1 fixes 16 warps)",
        _scale_sweep(
            lambda scale, n: _on_gpu(scale, warp_buffer_size=n),
            (4, 8, 16, 32),
            extra=lambda outcomes: mean(o.baseline.cycles for o in outcomes),
        ),
        lambda d: _listing(dict(_by_int_key(d)), "{k} warps {v:.3f}"),
        scenes=6,
        checks=(
            Check("warp_buffer_more_warps_faster_baseline",
                  lambda d: d["_32"] <= d["_4"]),
            Check("warp_buffer_prefetch_wins_every_size", lambda d: min(
                d[str(n)] for n in (4, 8, 16, 32)) > 1.0),
        ),
    ),
    Experiment(
        "ablation_cache_size", "Abl. F (ext.)",
        "Ablation (extension) — L1 capacity vs prefetch benefit",
        "Generalizes the paper's WKND explanation (tree fits in cache "
        "=> ~no benefit)",
        _scale_sweep(
            lambda scale, kb: _on_gpu(scale, l1=CacheConfig(
                size_bytes=kb * 1024, latency=20)),
            (2, 8, 32, 256),
            extra=lambda outcomes: mean(
                o.baseline.stats.l1_breakdown()["misses"] for o in outcomes
            ),
        ),
        lambda d: _listing(dict(_by_int_key(d)), "{k}KB {v:.3f}"),
        scenes=6,
        checks=(
            Check("cache_size_bigger_l1_fewer_misses",
                  lambda d: d["_256"] < d["_2"]),
            Check("cache_size_bigger_l1_smaller_win",
                  lambda d: d["256"] <= d["2"] + 0.05),
        ),
    ),
    Experiment(
        "ablation_ray_population", "Abl. G (ext.)",
        "Ablation (extension) — Ray population (primary-only vs full)",
        "Not in the paper; §2.4 motivates with secondary incoherence",
        _scale_sweep(
            lambda scale, rays: replace(
                scale, secondary=rays == "with_secondary"
            ),
            ("primary_only", "with_secondary"),
        ),
        lambda d: (
            f"primary-only {d['primary_only']:.3f} vs "
            f"primary+secondary {d['with_secondary']:.3f}"
        ),
        scenes=6,
        checks=(
            Check("ray_population_primary_wins",
                  lambda d: d["primary_only"] > 1.0),
            Check("ray_population_secondary_wins",
                  lambda d: d["with_secondary"] > 1.0),
        ),
    ),
    Experiment(
        "ablation_animation", "Abl. H (ext.)",
        "Ablation (extension) — Frame-to-frame (warm caches)",
        "Not in the paper (single cold frames); real-time rendering "
        "runs warm",
        _animation,
        lambda d: (
            f"cold-frame gain {d['cold_frame']:.3f}, steady-state gain "
            f"{d['steady_state']:.3f}"
        ),
        scenes=6,
        checks=(
            Check("animation_cold_win", lambda d: d["cold_frame"] > 1.0),
            Check("animation_steady_win", lambda d: d["steady_state"] > 1.0),
        ),
    ),
    Experiment(
        "ablation_adaptive", "Abl. I (ext.)",
        "Ablation (extension) — Adaptive throttle (Section 7.1)",
        "Paper suggestion: a self-tuning prefetcher 'could be applied "
        "to prefetch heuristics' (not evaluated there)",
        compared({
            "ALWAYS": _treelet(),
            "POPULARITY:0.5": _treelet(
                heuristic=PrefetchHeuristic("popularity", threshold=0.5)
            ),
            "ADAPTIVE": _treelet(adaptive=True),
        }, _adaptive),
        _listing,
        checks=(
            Check("adaptive_keeps_win", lambda d: d["ADAPTIVE"] > 0.95),
            Check("adaptive_traffic_within_always", lambda d:
                  d["_l2_traffic"]["ADAPTIVE"]
                  <= d["_l2_traffic"]["ALWAYS"] + 0.05),
        ),
    ),
    Experiment(
        "sec24_motivation", "§2.4",
        "Section 2.4 — Ray incoherence (motivation)",
        "Secondary/reflection rays traverse drastically different parts "
        "of the tree (qualitative)",
        _sec24,
        lambda d: (
            f"within-warp footprint overlap: primary "
            f"{d['primary']['mean_warp_overlap']:.3f} vs secondary "
            f"{d['secondary']['mean_warp_overlap']:.3f} — secondaries "
            "markedly less coherent"
        ),
        checks=(Check("sec24_secondary_less_coherent", lambda d:
                      d["secondary"]["mean_warp_overlap"]
                      < d["primary"]["mean_warp_overlap"]),),
    ),
)

BY_ID: Dict[str, Experiment] = {e.id: e for e in EXPERIMENTS}


# -- the runner ---------------------------------------------------------


@dataclass
class Evaluation:
    """The table evaluated at one scale."""

    #: experiment id -> recorded payload, with its ``scale``
    results: Dict[str, dict] = field(default_factory=dict)
    #: names of the checks that did not hold
    failures: List[str] = field(default_factory=list)


def evaluate(scale: Scale, progress=None) -> Evaluation:
    """Measure every row at ``scale``, run its checks, and collect the
    payloads to record.  ``progress`` is called with each row and its
    payload (without ``scale``) as it completes."""
    evaluation = Evaluation()
    for experiment in EXPERIMENTS:
        scenes = scenes_for(scale)[:experiment.scenes]
        measured = experiment.measure(scale, scenes)
        evaluation.failures.extend(
            check.name for check in experiment.checks
            if check.runs_at(scale.name) and not check.holds(measured)
        )
        payload = {k: v for k, v in measured.items()
                   if not k.startswith("_")}
        evaluation.results[experiment.id] = dict(payload, scale=scale.name)
        if progress is not None:
            progress(experiment, payload)
    return evaluation


def default_results_path() -> Path:
    return Path(__file__).resolve().parents[3] / "results" / "experiments.json"


def load_results(path: Optional[Path] = None) -> dict:
    """Load the experiments JSON; raises FileNotFoundError when absent."""
    return json.loads(Path(path or default_results_path()).read_text())


def write_results(results: dict) -> Path:
    path = default_results_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path
