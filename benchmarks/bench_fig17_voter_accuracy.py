"""Figure 17 — decision accuracy of the pseudo two-level majority voter.

The pseudo voter (per-warp winners, then a vote among winners) agrees
with an exact full majority 91.2% of the time in the paper, with the
loss concentrated where rays spread across many treelets.
"""

from repro import Technique, run

from common import active_scale, bench_scenes, print_figure, record

LATENCIES = [0, 32, 128]


def technique_for(latency: int) -> Technique:
    return Technique(
        traversal="treelet",
        layout="treelet",
        prefetch="treelet",
        voter_mode="pseudo",
        voter_latency=latency,
    )


def run_fig17() -> dict:
    scale = active_scale()
    scenes = bench_scenes()
    payload = {}
    rows = []
    for scene in scenes:
        accuracies = {}
        for latency in LATENCIES:
            result = run(scene, technique_for(latency), scale)
            accuracies[str(latency)] = result.stats.voter_accuracy
        payload[scene] = accuracies
        rows.append(
            [scene]
            + [round(accuracies[str(l)], 3) for l in LATENCIES]
        )
    mean = {
        str(l): sum(payload[s][str(l)] for s in scenes) / len(scenes)
        for l in LATENCIES
    }
    payload["mean"] = mean
    rows.append(["Mean"] + [round(mean[str(l)], 3) for l in LATENCIES])
    print_figure(
        "Figure 17: pseudo vs full majority voter agreement",
        ["scene"] + [f"{l} cyc" for l in LATENCIES],
        rows,
        "pseudo voter agrees with the full voter 91.2% of the time on "
        "average",
    )
    record("fig17_voter_accuracy", mean)
    return payload


def test_fig17_voter_accuracy():
    payload = run_fig17()
    # The pseudo voter must agree with the full voter most of the time.
    assert payload["mean"]["0"] > 0.6
