"""What the cold path hands to the artifact cache.

A BVH entry is the tree's column set and a trace-set entry its CSR
columns: neither references a class outside numpy and its own
container.  A BVH survives a store/load round trip unchanged, and the
node and triangle objects a loaded tree builds on demand are made of
plain ``float`` components (the promise of ``repro.geometry.vec``), as
the builder's are.  A decomposition loaded from a warm cache shares the
memoized BVH instead of carrying a copy of it, and a decomposition and
a node layout, stored or shipped, are numpy columns and ints: no object
or dict per node or treelet.
"""

import pickle
import pickletools

import numpy as np
import pytest

from repro.bvh import build_wide_bvh
from repro.core import build_counts, clear_caches, reset_build_counts
from repro.core.pipeline import (
    DEFAULT_BRANCHING,
    DEFAULT_BUILD,
    SMOKE,
    TREELET_PREFETCH,
    Job,
    get_bvh,
    get_decomposition,
    get_traces,
    replay_of,
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


def _assert_plain(bvh):
    assert all(
        type(x) is float
        for tri in bvh.triangles
        for x in tri.v0 + tri.v1 + tri.v2
    )
    assert all(type(tri.primitive_id) is int for tri in bvh.triangles)
    assert all(
        type(x) is float
        for node in bvh.nodes
        for x in node.bounds.lo + node.bounds.hi
    )
    assert all(
        type(x) is int
        for node in bvh.nodes
        for x in node.child_ids + node.primitive_ids
        + (node.node_id, node.parent_id, node.depth)
    )


@pytest.mark.parametrize("name", ALL_SCENES + QUERY_SCENES)
def test_geometry_components_are_plain_floats(smoke_bvhs, name):
    _assert_plain(smoke_bvhs[name])
    # A tree rebuilt from its columns materializes the same plain types.
    _assert_plain(pickle.loads(pickle.dumps(smoke_bvhs[name])))
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
    # The objects are built on first access, equal to the builder's.
    assert loaded._nodes is None and loaded._triangles is None
    assert loaded.nodes == smoke_bvhs[name].nodes
    assert loaded.triangles == smoke_bvhs[name].triangles
    loaded.validate()


def _pickle_globals(blob: bytes):
    """Every ``(module, name)`` a pickle references, read off its
    opcodes; memoized strings are tracked so a ``STACK_GLOBAL`` whose
    module name comes from the memo still resolves."""
    found, memo, recent = set(), [], [None, None]
    for op, arg, _ in pickletools.genops(blob):
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8",
                       "UNICODE"):
            recent = [recent[-1], arg]
        elif op.name in ("BINGET", "LONG_BINGET", "GET"):
            recent = [recent[-1], memo[int(arg)]]
        elif op.name == "MEMOIZE":
            memo.append(recent[-1])
        elif op.name in ("BINPUT", "LONG_BINPUT", "PUT"):
            memo.extend([None] * (int(arg) + 1 - len(memo)))
            memo[int(arg)] = recent[-1]
        elif op.name == "STACK_GLOBAL":
            found.add(tuple(recent))
            recent = [recent[-1], None]
        elif op.name == "GLOBAL":
            found.add(tuple(arg.split(" ", 1)))
        else:
            recent = [recent[-1], None]
    return found


@pytest.mark.parametrize("kind, container", [
    ("bvh", ("repro.bvh.node", "FlatBVH")),
    ("traces", ("repro.traversal.trace", "TraceSet")),
])
def test_array_entries_reference_only_numpy(tmp_path, kind, container):
    cache = set_artifact_cache(tmp_path)
    get_traces("SPNZA", SMOKE, "treelet", 512)
    (path,) = (cache.version_dir / kind).rglob("*.pkl")
    found = _pickle_globals(path.read_bytes())
    assert container in found
    others = {g for g in found if g != container}
    assert others and all(
        module.split(".")[0] == "numpy" for module, _ in others
    ), others


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
    for column in ("node_treelet", "offsets", "members"):
        assert np.array_equal(getattr(warm, column), getattr(cold, column))
    assert warm.max_bytes == cold.max_bytes
    warm.validate()
    # The entry holds the decomposition's columns only, not the BVH.
    assert _entry_bytes(cache, "decomposition") < 0.1 * _entry_bytes(
        cache, "bvh"
    )


def _only_numpy_besides(blob: bytes, *containers):
    """Assert a pickle references ``containers`` and otherwise numpy."""
    found = _pickle_globals(blob)
    assert set(containers) <= found
    others = found - set(containers)
    assert all(module.split(".")[0] == "numpy" for module, _ in others), others


def test_decomposition_entry_is_columns_and_ints(tmp_path):
    cache = set_artifact_cache(tmp_path)
    decomposition = get_decomposition("SPNZA", SMOKE, 512)
    (path,) = (cache.version_dir / "decomposition").rglob("*.pkl")
    blob = path.read_bytes()
    # A bare tuple: numpy is the only class an entry names.
    _only_numpy_besides(blob)
    max_bytes, *columns = pickle.loads(blob)
    assert max_bytes == 512 and type(max_bytes) is int
    assert [column.dtype for column in columns] == [
        np.int32, np.int64, np.int32
    ]
    assert len(decomposition.offsets) == decomposition.treelet_count + 1


def test_replay_ships_decomposition_and_layout_as_columns():
    replay = replay_of(Job("SPNZA", TREELET_PREFETCH, SMOKE))
    decomposition, layout = replay.decomposition, replay.layout
    # The layout reads its treelet ids off the decomposition, uncopied.
    assert layout.node_treelet is decomposition.node_treelet
    _only_numpy_besides(
        pickle.dumps(decomposition),
        ("repro.treelet.formation", "TreeletDecomposition"),
        ("repro.bvh.node", "FlatBVH"),
    )
    _only_numpy_besides(pickle.dumps(layout),
                        ("repro.bvh.layout", "NodeLayout"))
    for state in (vars(decomposition), vars(layout)):
        assert all(
            isinstance(value, (int, str, np.ndarray)) or key == "bvh"
            for key, value in state.items()
        ), state.keys()
    # A shipped replay keeps the two sharing one column.
    shipped = pickle.loads(pickle.dumps(replay))
    assert shipped.layout.node_treelet is shipped.decomposition.node_treelet
    assert np.array_equal(shipped.layout.node_address, layout.node_address)
