"""Figure 8 — comparison to Lee et al.'s MTA prefetcher.

The paper implements the prior-work prefetcher optimistically (infinite
tables) and finds it ineffective for ray tracing: it fetches few useful
BVH nodes.  We run the same comparison: MTA on the DFS baseline vs our
treelet prefetcher.
"""

from repro import TREELET_PREFETCH, Technique
from repro.core.report import geomean

from common import bench_scenes, print_figure, record, run_pair

MTA = Technique(prefetch="mta")


def run_fig08() -> dict:
    rows = []
    payload = {}
    mta_speedups = []
    ours_speedups = []
    for scene in bench_scenes():
        base, mta, mta_gain = run_pair(scene, MTA)
        _, ours, ours_gain = run_pair(scene, TREELET_PREFETCH)
        useful = mta.stats.effectiveness.timely
        issued = max(1, mta.stats.effectiveness.issued)
        mta_speedups.append(mta_gain)
        ours_speedups.append(ours_gain)
        rows.append(
            [
                scene,
                round(mta_gain, 3),
                round(ours_gain, 3),
                f"{100 * useful / issued:.1f}%",
                f"{100 * ours.stats.effectiveness.fractions()['timely']:.1f}%",
            ]
        )
        payload[scene] = {
            "mta_speedup": mta_gain,
            "ours_speedup": ours_gain,
            "mta_timely_fraction": useful / issued,
        }
    payload["gmean_mta"] = geomean(mta_speedups)
    payload["gmean_ours"] = geomean(ours_speedups)
    rows.append(
        ["GMean", round(payload["gmean_mta"], 3),
         round(payload["gmean_ours"], 3), "", ""]
    )
    print_figure(
        "Figure 8: prior work (Lee et al. MTA, infinite tables) vs ours",
        ["scene", "MTA speedup", "ours speedup", "MTA timely", "ours timely"],
        rows,
        "MTA ~1.0 (ineffective: few useful BVH nodes fetched); "
        "ours ~1.32",
    )
    record("fig08_prior_work", payload)
    return payload


def test_fig08_prior_work():
    payload = run_fig08()
    # The treelet prefetcher must clearly beat the stride-based MTA.
    assert payload["gmean_ours"] > payload["gmean_mta"]
    # MTA stays near-ineffective on pointer-chasing traversal.
    assert payload["gmean_mta"] < 1.1
