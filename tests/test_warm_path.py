"""A warm replay runs on columns alone.

After a cold ``api.sweep`` has filled the artifact cache, replays from
cleared memos load every BVH and trace set as arrays and replay them
without building a node, triangle or trace object, and give the same
SimStats bit for bit.  The replays pass ``cache=False``: a sweep would
load the stored results and replay nothing.
"""

from repro import api
from repro.core import build_counts, clear_caches, reset_build_counts
from repro.core.memo import MEMO
from repro.core.pipeline import COUNTED_KINDS
from repro.exec import set_artifact_cache
from repro.traversal import RayTrace

SCENES = ("SPNZA", "CRNVL")


SIDES = (("baseline", "baseline"), ("candidate", "treelet-prefetch"))


def _sweep():
    return api.sweep("treelet-prefetch", scenes=SCENES, scale="smoke")


def _replays():
    """``(scene, side) -> SimStats`` of every experiment of
    :func:`_sweep`, replayed past the stored results."""
    return {
        (scene, side): api.run(scene, spec, "smoke", cache=False).stats
        for scene in SCENES for side, spec in SIDES
    }


def test_warm_sweep_reads_columns_only(tmp_path, monkeypatch):
    set_artifact_cache(tmp_path)
    clear_caches()
    try:
        cold = _sweep()
        clear_caches()
        reset_build_counts()
        made = []
        build = RayTrace.__init__

        def counted(self, *args, **kwargs):
            made.append(1)
            build(self, *args, **kwargs)

        monkeypatch.setattr(RayTrace, "__init__", counted)
        warm = _replays()
        assert build_counts() == dict.fromkeys(COUNTED_KINDS, 0)
        assert made == []
        for (scene, side), stats in warm.items():
            assert stats == getattr(cold.outcomes[scene], side).stats, (
                scene, side
            )
        bvhs = [value for (kind, _), value in MEMO._entries.items()
                if kind == "bvh"]
        assert len(bvhs) == len(SCENES)
        for bvh in bvhs:
            assert bvh._nodes is None and bvh._triangles is None
    finally:
        set_artifact_cache(None)
        clear_caches()
