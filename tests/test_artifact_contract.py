"""What the cold path hands to the artifact cache.

Geometry is made of plain ``float`` components (the promise of
``repro.geometry.vec``), a BVH survives a store/load round trip
unchanged, and a decomposition loaded from a warm cache shares the
memoized BVH instead of carrying a copy of it.
"""

import pytest

from repro.bvh import build_wide_bvh
from repro.core import build_counts, clear_caches, reset_build_counts
from repro.core.pipeline import (
    DEFAULT_BRANCHING,
    DEFAULT_BUILD,
    SMOKE,
    get_bvh,
    get_decomposition,
)
from repro.exec import ArtifactCache, set_artifact_cache
from repro.exec.cache import fingerprint
from repro.scenes import ALL_SCENES, QUERY_SCENES, build_scene


@pytest.fixture(autouse=True)
def isolated_caches():
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()
    yield
    set_artifact_cache(None)
    clear_caches()


@pytest.fixture(scope="module")
def smoke_bvhs():
    return {
        name: build_wide_bvh(
            build_scene(name, SMOKE.scene_scale).mesh.triangles(),
            config=DEFAULT_BUILD,
            branching_factor=DEFAULT_BRANCHING,
            name=name,
        )
        for name in ALL_SCENES + QUERY_SCENES
    }


@pytest.mark.parametrize("name", ALL_SCENES + QUERY_SCENES)
def test_geometry_components_are_plain_floats(smoke_bvhs, name):
    bvh = smoke_bvhs[name]
    assert all(
        type(x) is float
        for tri in bvh.triangles
        for x in tri.v0 + tri.v1 + tri.v2
    )
    assert all(
        type(x) is float
        for node in bvh.nodes
        for x in node.bounds.lo + node.bounds.hi
    )
    mesh_bounds = build_scene(name, SMOKE.scene_scale).mesh.bounds()
    assert all(type(x) is float for x in mesh_bounds.lo + mesh_bounds.hi)


@pytest.mark.parametrize("name", ["WKND", "SPNZA", "AMRTWO"])
def test_bvh_round_trips_through_the_cache(tmp_path, smoke_bvhs, name):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("bvh", {"scene": name})
    cache.store("bvh", key, smoke_bvhs[name])
    loaded = cache.load("bvh", key)
    assert loaded is not smoke_bvhs[name]
    assert loaded == smoke_bvhs[name]


def _entry_bytes(cache: ArtifactCache, kind: str) -> int:
    (path,) = (cache.version_dir / kind).rglob("*.pkl")
    return path.stat().st_size


def test_warm_decomposition_shares_the_memoized_bvh(tmp_path):
    cache = set_artifact_cache(tmp_path)
    cold = get_decomposition("SPNZA", SMOKE, 512)
    clear_caches()
    reset_build_counts()
    warm = get_decomposition("SPNZA", SMOKE, 512)
    assert build_counts()["decomposition"] == 0
    assert build_counts()["bvh"] == 0
    assert warm.bvh is get_bvh("SPNZA", SMOKE)
    assert warm.treelets == cold.treelets
    assert warm.assignment == cold.assignment
    assert warm.max_bytes == cold.max_bytes
    warm.validate()
    # The entry holds treelets and assignment only, not the BVH.
    assert _entry_bytes(cache, "decomposition") < 0.1 * _entry_bytes(
        cache, "bvh"
    )
