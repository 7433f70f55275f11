"""A cold sweep runs on columns alone.

From empty memos and an empty artifact cache, ``api.sweep`` builds
every BVH from the scene's vertex and face arrays, forms treelets,
spawns bounce rays and traces them without building a node, triangle
or binary-node object, and gives the same SimStats as a warm replay.
The child lists that treelet formation and layout read off the columns
equal the object form's.
"""

import pickle

import pytest

from repro import api
from repro import bvh as bvh_module
from repro.bvh import FlatNode, build_wide_bvh
from repro.core import clear_caches
from repro.core.memo import MEMO
from repro.exec import set_artifact_cache
from repro.geometry import Triangle
from repro.scenes import build_scene

SCENES = ("SPNZA", "CRNVL")


def _sweep():
    return api.sweep("treelet-prefetch", scenes=SCENES, scale="smoke")


def test_cold_sweep_builds_no_node_or_triangle_object(tmp_path, monkeypatch):
    set_artifact_cache(tmp_path)
    clear_caches()
    made = []
    for cls in (FlatNode, Triangle):
        monkeypatch.setattr(cls, "__init__", _counted(cls, made))
    try:
        cold = _sweep()
        assert made == []
        bvhs = [value for (kind, _), value in MEMO._entries.items()
                if kind == "bvh"]
        assert len(bvhs) == len(SCENES)
        for tree in bvhs:
            assert tree._nodes is None and tree._triangles is None
        # The warm replays load the cold run's columns from disk;
        # cache=False replays past the stored results.
        clear_caches()
        for scene in SCENES:
            for side, spec in (("baseline", "baseline"),
                               ("candidate", "treelet-prefetch")):
                warm = api.run(scene, spec, "smoke", cache=False)
                assert (
                    warm.stats == getattr(cold.outcomes[scene], side).stats
                ), (scene, side)
    finally:
        set_artifact_cache(None)
        clear_caches()
    assert not hasattr(bvh_module, "BinaryNode")


def _counted(cls, made):
    build = cls.__init__

    def counted(self, *args, **kwargs):
        made.append(cls.__name__)
        build(self, *args, **kwargs)

    return counted


@pytest.mark.parametrize("scene", SCENES)
def test_single_items_equal_the_object_form(scene):
    """The child lists read off a tree that never built its objects
    equal ``nodes[i].child_ids`` of one that did."""
    mesh = build_scene(scene, 0.05).mesh
    columns_only = pickle.loads(pickle.dumps(build_wide_bvh(mesh)))
    objects = build_wide_bvh(mesh)
    children = columns_only.child_lists()
    for i, node in enumerate(objects.nodes):
        assert tuple(children[i]) == node.child_ids
    assert columns_only._nodes is None and columns_only._triangles is None


def test_mesh_build_equals_triangle_build():
    """The pipeline passes the mesh; a ``Triangle`` list of the same
    faces builds the same columns."""
    mesh = build_scene("SPNZA", 0.05).mesh
    assert build_wide_bvh(mesh, name="t") == build_wide_bvh(
        mesh.triangles(), name="t"
    )


def test_uncached_runs_share_one_layout(monkeypatch):
    """Node layouts are memoized with their tree: two unmemoized runs
    build one layout and give equal SimStats."""
    from repro.core import pipeline

    set_artifact_cache(None)
    clear_caches()
    built = []
    build = pipeline._build_layout

    def counted(*args, **kwargs):
        built.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_build_layout", counted)
    try:
        first, second = (
            api.run("SPNZA", "treelet-prefetch", scale="smoke", cache=False)
            for _ in range(2)
        )
        assert built == [1]
        assert first.stats == second.stats
    finally:
        clear_caches()
