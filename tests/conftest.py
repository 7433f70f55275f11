"""Shared fixtures: small deterministic geometry, BVHs, decompositions,
and the replay engine's golden SimStats digests."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bvh import BuildConfig, build_wide_bvh
from repro.core.pipeline import (
    BASELINE,
    SMOKE,
    TREELET_PREFETCH,
    Technique,
    build_gpu_model,
)
from repro.geometry import Ray, Triangle
from repro.gpusim import RayTask
from repro.gpusim.warp import next_treelets, visit_prims
from repro.scenes import soup, sphere
from repro.treelet import form_treelets

#: Golden SimStats digests for the replay engine, keyed
#: ``kind/scene/preset`` (see ``tests/test_replay_backend.py``).
REPLAY_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "replay_simstats.json").read_text()
)

#: Technique presets of the golden matrix, covering every scheduler
#: policy, voter mode, heuristic, mapping mode, and prefetcher family.
REPLAY_PRESETS = {
    "baseline": BASELINE,
    "treelet-prefetch": TREELET_PREFETCH,
    "tp-omr": dataclasses.replace(TREELET_PREFETCH, scheduler="omr"),
    "tp-baseline-sched": dataclasses.replace(
        TREELET_PREFETCH, scheduler="baseline"
    ),
    "tp-adaptive": dataclasses.replace(TREELET_PREFETCH, adaptive=True),
    "tp-voter-latency": dataclasses.replace(
        TREELET_PREFETCH, voter_latency=8
    ),
    "mapping-loose": dataclasses.replace(
        TREELET_PREFETCH, layout="dfs", mapping_mode="loose"
    ),
    "mapping-strict": dataclasses.replace(
        TREELET_PREFETCH, layout="dfs", mapping_mode="strict"
    ),
    "mta": dataclasses.replace(TREELET_PREFETCH, prefetch="mta"),
    "stride": Technique(prefetch="stride"),
    "ghb": Technique(prefetch="ghb"),
    "traversal-only": dataclasses.replace(TREELET_PREFETCH, prefetch=None),
}

#: Smoke-config overrides per single-run golden case kind.
GOLDEN_OVERRIDES = {
    "preset": {},
    "scene": {},
    "stream": {"prefetch_destination": "stream"},
    "sms4": {"n_sms": 4},
}

#: Golden cases that are one ``run()`` of a freshly loaded model.
SINGLE_RUN_CASES = sorted(
    key for key in REPLAY_GOLDEN["digests"]
    if key.split("/")[0] in GOLDEN_OVERRIDES
)

#: Techniques of the ``query`` golden cases: the DFS baseline, the
#: paper's treelet prefetcher, and the prior MTA prefetcher on DFS.
QUERY_PRESETS = {
    "baseline": BASELINE,
    "treelet-prefetch": TREELET_PREFETCH,
    "mta": Technique(prefetch="mta"),
}

#: Query scene -> the workload whose rays it answers.
QUERY_WORKLOADS = {"PTSUNI": "knn", "PTSCLU": "knn", "AMRTWO": "containment"}

#: ``query/scene/preset`` cases; each also records its cycle count.
QUERY_CASES = sorted(REPLAY_GOLDEN["query_cycles"])


def stats_digest(stats) -> str:
    """sha256 of the canonical sorted-key JSON of ``asdict(stats)``."""
    canonical = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def golden_scale(kind: str):
    """SMOKE on the smoke GPU with golden case kind ``kind``'s
    overrides."""
    return dataclasses.replace(SMOKE, gpu=dataclasses.replace(
        SMOKE.gpu, **GOLDEN_OVERRIDES.get(kind, {})
    ))


def golden_model(key: str, **model_kwargs):
    """The loaded smoke-scale model of golden case ``kind/scene/preset``;
    returns ``(model, traces, bvh, layout)``."""
    kind, scene, preset = key.split("/")
    if kind == "query":
        return build_gpu_model(
            scene, QUERY_PRESETS[preset], golden_scale(kind),
            workload=QUERY_WORKLOADS[scene], **model_kwargs
        )
    return build_gpu_model(
        scene, REPLAY_PRESETS[preset], golden_scale(kind), **model_kwargs
    )


def assert_golden(key: str, stats) -> None:
    digest = stats_digest(stats)
    expected = REPLAY_GOLDEN["digests"][key]
    # The full digest, so a change meant to alter simulated results can
    # update the golden file by hand, in its own diff.
    assert digest == expected, (
        f"{key}: SimStats digest {digest} differs from the recorded "
        f"{expected}"
    )


def ray_task(node_ids, bvh, layout, line_bytes=128) -> RayTask:
    """The task replaying visits to ``node_ids``, in order, with the
    per-visit tables ``GpuModel.load`` gathers for a trace set."""
    treelets = [layout.treelet_of(node_id) for node_id in node_ids]
    return RayTask(
        [layout.address_of(node_id) for node_id in node_ids],
        treelets,
        next_treelets(np.asarray(treelets, dtype=np.int64), np.zeros(1, int)),
        visit_prims(list(node_ids), bvh, layout, line_bytes),
    )


def treelet_members(decomposition):
    """Each treelet's member ids, in formation order (root first)."""
    offsets = decomposition.offsets.tolist()
    members = decomposition.members.tolist()
    return [members[start:end] for start, end in zip(offsets, offsets[1:])]


def binary_levels(tree) -> int:
    """Depth in levels of a :class:`repro.bvh.BinaryTree` (a lone root
    has 1); ids are level-ordered, so parents come before children."""
    depth = [1] * len(tree)
    for node, first in enumerate(tree.left.tolist()):
        if first >= 0:
            depth[first] = depth[first + 1] = depth[node] + 1
    return max(depth)


def make_triangles(n: int = 64, seed: int = 7):
    """A deterministic clustered triangle soup as Triangle objects."""
    mesh = soup(n, extent=8.0, tri_size=0.4, seed=seed, clusters=4)
    return mesh.triangles()


@pytest.fixture(scope="session")
def triangles():
    return make_triangles()


@pytest.fixture(scope="session")
def small_bvh(triangles):
    """A wide BVH over the shared soup (session-scoped; treat read-only)."""
    bvh = build_wide_bvh(
        triangles,
        config=BuildConfig(max_leaf_size=2),
        branching_factor=3,
        name="fixture",
    )
    bvh.validate()
    return bvh


@pytest.fixture(scope="session")
def decomposition(small_bvh):
    dec = form_treelets(small_bvh, 512)
    dec.validate()
    return dec


@pytest.fixture(scope="session")
def sphere_bvh():
    """A BVH over a single sphere (predictable hits from outside)."""
    mesh = sphere(stacks=8, slices=12, radius=1.0, center=(0.0, 0.0, 0.0))
    bvh = build_wide_bvh(
        mesh.triangles(), config=BuildConfig(max_leaf_size=2), name="sphere"
    )
    bvh.validate()
    return bvh


def center_ray() -> Ray:
    """A ray guaranteed to hit the unit sphere at (0,0,0) head-on."""
    return Ray(origin=(0.0, 0.0, 5.0), direction=(0.0, 0.0, -1.0))


@pytest.fixture
def unit_triangle() -> Triangle:
    return Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0)
