"""Golden treelet digests: formation and layouts must reproduce recorded
decompositions and node addresses exactly.

Each case is one scene's pipeline BVH under one formation strategy and
treelet size.  Its value holds the SHA-256 of six canonical columns,
each dumped as little-endian int64: the decomposition's
``node_treelet``, ``offsets`` and ``members``, and the node address
column of the ``dfs``, ``treelet`` and ``treelet+stride768`` layouts.
The cases cover every registered scene at smoke scale and the
benchmark suite's replay-panel scenes at default scale.

Re-record (only after an intended change to formation or layout)::

    PYTHONPATH=src python tests/test_treelet_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.bvh import BuildConfig, FlatBVH, build_wide_bvh
from repro.bvh.layout import dfs_layout
from repro.scenes import ALL_SCENES, QUERY_SCENES, build_scene
from repro.treelet import FORMATION_STRATEGIES, form_treelets, treelet_layout

GOLDEN_PATH = Path(__file__).parent / "golden" / "treelet_digests.json"

#: The pipeline's build parameters, as in ``test_bvh_golden.py``.
PIPELINE_LEAF = 2
PIPELINE_BRANCHING = 3
SCALES = {"smoke": 0.05, "default": 1.0}
#: The benchmark suite's replay-panel scenes.
PANEL_SCENES = ("WKND", "BUNNY", "SPNZA", "CRNVL", "SHIP")
#: Figure 19's treelet sizes but 2048 B (a 2048 B slot holds every
#: smoke tree whole, so it pins nothing 1024 B does not).
TREELET_BYTES = (256, 512, 1024)
STRIDE = 768
#: Digest names in recording order.
COLUMNS = ("node_treelet", "offsets", "members",
           "dfs", "treelet", f"treelet+stride{STRIDE}")


def column_digests(columns: Dict[str, np.ndarray]) -> Dict[str, str]:
    """SHA-256 of each column, dumped as little-endian int64."""
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(columns[name], dtype="<i8").tobytes()
        ).hexdigest()
        for name in COLUMNS
    }


def golden_cases() -> Dict[str, Tuple[str, str, str, int]]:
    """case name -> (scale name, scene, strategy, treelet bytes)."""
    scenes = [("smoke", name) for name in ALL_SCENES + QUERY_SCENES]
    scenes += [("default", name) for name in PANEL_SCENES]
    return {
        f"{scale}/{scene}/{strategy}/{size}": (scale, scene, strategy, size)
        for scale, scene in scenes
        for strategy in FORMATION_STRATEGIES
        for size in TREELET_BYTES
    }


@lru_cache(maxsize=1)
def pipeline_bvh(scale: str, scene: str) -> FlatBVH:
    """The pipeline's tree of one scene; cached for the case run of one
    scene, which the sorted case names keep together."""
    mesh = build_scene(scene, SCALES[scale]).mesh
    return build_wide_bvh(
        mesh, config=BuildConfig(max_leaf_size=PIPELINE_LEAF),
        branching_factor=PIPELINE_BRANCHING,
    )


def case_columns(scale: str, scene: str, strategy: str,
                 size: int) -> Dict[str, np.ndarray]:
    bvh = pipeline_bvh(scale, scene)
    decomposition = form_treelets(bvh, size, strategy)
    decomposition.validate()
    return {
        "node_treelet": decomposition.node_treelet,
        "offsets": decomposition.offsets,
        "members": decomposition.members,
        "dfs": dfs_layout(bvh).node_address,
        "treelet": treelet_layout(decomposition).node_address,
        f"treelet+stride{STRIDE}": treelet_layout(
            decomposition, stride_bytes=STRIDE
        ).node_address,
    }


GOLDEN: Dict[str, Dict[str, str]] = (
    json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
)
CASES = golden_cases()


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_treelet_columns_match_golden_digest(case):
    assert column_digests(case_columns(*CASES[case])) == GOLDEN[case]


def record() -> None:
    digests = {name: column_digests(case_columns(*case))
               for name, case in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
