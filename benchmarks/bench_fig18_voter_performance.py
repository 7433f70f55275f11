"""Figure 18 — performance of the pseudo voter vs the full voter.

The paper's point: although the pseudo voter disagrees with the exact
majority ~9% of the time (Figure 17), that accuracy loss does not hurt
performance at all.
"""

from repro import Technique
from repro.core.report import geomean

from common import bench_scenes, print_figure, record, run_pair

FULL = Technique(
    traversal="treelet", layout="treelet", prefetch="treelet",
    voter_mode="full",
)
PSEUDO = Technique(
    traversal="treelet", layout="treelet", prefetch="treelet",
    voter_mode="pseudo",
)


def run_fig18() -> dict:
    scenes = bench_scenes()
    payload = {}
    rows = []
    full_gains = []
    pseudo_gains = []
    for scene in scenes:
        _, _, full_gain = run_pair(scene, FULL)
        _, _, pseudo_gain = run_pair(scene, PSEUDO)
        full_gains.append(full_gain)
        pseudo_gains.append(pseudo_gain)
        rows.append([scene, round(full_gain, 3), round(pseudo_gain, 3)])
        payload[scene] = {"full": full_gain, "pseudo": pseudo_gain}
    payload["gmean_full"] = geomean(full_gains)
    payload["gmean_pseudo"] = geomean(pseudo_gains)
    rows.append(
        ["GMean", round(payload["gmean_full"], 3),
         round(payload["gmean_pseudo"], 3)]
    )
    print_figure(
        "Figure 18: full vs pseudo two-level majority voter",
        ["scene", "full voter", "pseudo voter"],
        rows,
        "the pseudo voter's ~9% accuracy loss does not impact "
        "performance at all",
    )
    record(
        "fig18_voter_performance",
        {"full": payload["gmean_full"], "pseudo": payload["gmean_pseudo"]},
    )
    return payload


def test_fig18_voter_performance():
    payload = run_fig18()
    # Pseudo voter performs essentially identically to the full voter.
    assert abs(payload["gmean_pseudo"] - payload["gmean_full"]) < 0.08
