"""Golden BVH digests: the builder must reproduce recorded trees exactly.

Each digest is the SHA-256 of a canonical dump of one wide BVH: the
``float.hex`` of every node bound and triangle vertex, plus node child,
primitive and parent ids and depths.  The cases cover every registered
scene at smoke scale, the benchmark suite's nine scenes at default
scale, the median strategy, leaf sizes 1 and 2, and inputs that drive
the builder's fallbacks (zero-extent axes, coincident centroids).

Re-record (only after an intended change to the tree shape)::

    PYTHONPATH=src python tests/test_bvh_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.bvh import BuildConfig, FlatBVH, build_wide_bvh
from repro.geometry import Triangle
from repro.scenes import ALL_SCENES, QUERY_SCENES, build_scene, soup

GOLDEN_PATH = Path(__file__).parent / "golden" / "bvh_digests.json"

#: The pipeline's build parameters (``core.pipeline.DEFAULT_BUILD`` and
#: ``DEFAULT_BRANCHING``), spelled out so a change there cannot
#: silently change what this file pins.
PIPELINE_LEAF = 2
PIPELINE_BRANCHING = 3
SMOKE_SCALE = 0.05
DEFAULT_SCALE = 1.0
#: The benchmark suite's render and query scenes.
SUITE_SCENES = (
    "WKND", "BUNNY", "SPNZA", "CRNVL", "SHIP", "REF", "CHSNT",
    "PTSUNI", "AMRTWO",
)


def bvh_digest(bvh: FlatBVH) -> str:
    """SHA-256 of a canonical, type-independent dump of ``bvh``."""
    digest = hashlib.sha256()
    for node in bvh.nodes:
        record = (
            int(node.node_id),
            [float.hex(float(x)) for x in node.bounds.lo + node.bounds.hi],
            [int(c) for c in node.child_ids],
            [int(p) for p in node.primitive_ids],
            int(node.parent_id),
            int(node.depth),
        )
        digest.update(repr(record).encode("ascii"))
    for tri in bvh.triangles:
        record = (
            int(tri.primitive_id),
            [float.hex(float(x)) for x in tri.v0 + tri.v1 + tri.v2],
        )
        digest.update(repr(record).encode("ascii"))
    return digest.hexdigest()


def _scene_triangles(name: str, scale: float) -> Callable[[], List[Triangle]]:
    return lambda: build_scene(name, scale).mesh.triangles()


def _coincident_centroids(n: int = 40) -> List[Triangle]:
    """Triangles of different shapes that all have centroid (0, 0, 0):
    every split search fails, so only the halving fallback can split."""
    tris = []
    for i in range(n):
        p = (float(i + 1), float(2 * i - 7), float(3 - i))
        q = (float(5 - 2 * i), float(i % 4), float(i + 2))
        r = tuple(-(a + b) for a, b in zip(p, q))
        tris.append(Triangle(p, q, r, primitive_id=i))
    return tris


def _planar(n: int = 60) -> List[Triangle]:
    """A flat soup (every vertex at y = 0): the y axis has zero extent."""
    mesh = soup(n, extent=6.0, tri_size=0.5, seed=3, clusters=3)
    tris = []
    for tri in mesh.triangles():
        flat = [(v[0], 0.0, v[2]) for v in (tri.v0, tri.v1, tri.v2)]
        tris.append(Triangle(*flat, primitive_id=tri.primitive_id))
    return tris


#: case name -> (triangle factory, build config, branching factor).
Case = Tuple[Callable[[], List[Triangle]], BuildConfig, int]


def golden_cases() -> Dict[str, Case]:
    pipeline = BuildConfig(max_leaf_size=PIPELINE_LEAF)
    cases: Dict[str, Case] = {}
    for name in ALL_SCENES + QUERY_SCENES:
        cases[f"smoke/{name}"] = (
            _scene_triangles(name, SMOKE_SCALE), pipeline, PIPELINE_BRANCHING
        )
    for name in SUITE_SCENES:
        cases[f"default/{name}"] = (
            _scene_triangles(name, DEFAULT_SCALE), pipeline,
            PIPELINE_BRANCHING,
        )
    for name in ("WKND", "SHIP", "PTSCLU"):
        smoke = _scene_triangles(name, SMOKE_SCALE)
        cases[f"median/{name}"] = (
            smoke, BuildConfig(max_leaf_size=PIPELINE_LEAF, strategy="median"),
            PIPELINE_BRANCHING,
        )
        cases[f"leaf1/{name}"] = (smoke, BuildConfig(max_leaf_size=1), 6)
        cases[f"leaf2-wide6/{name}"] = (
            smoke, BuildConfig(max_leaf_size=2), 6
        )
    cases["sah-default-config/WKND"] = (
        _scene_triangles("WKND", SMOKE_SCALE), BuildConfig(), 6
    )
    for strategy in ("sah", "median"):
        cases[f"coincident/{strategy}"] = (
            _coincident_centroids, BuildConfig(max_leaf_size=1,
                                               strategy=strategy), 3
        )
        cases[f"planar/{strategy}"] = (
            _planar, BuildConfig(max_leaf_size=2, strategy=strategy), 3
        )
    return cases


def build_case(case: Case) -> FlatBVH:
    factory, config, branching = case
    return build_wide_bvh(factory(), config=config, branching_factor=branching)


GOLDEN: Dict[str, str] = (
    json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
)
CASES = golden_cases()


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_bvh_matches_golden_digest(case):
    bvh = build_case(CASES[case])
    bvh.validate()
    assert bvh_digest(bvh) == GOLDEN[case]


def record() -> None:
    digests = {name: bvh_digest(build_case(case))
               for name, case in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
