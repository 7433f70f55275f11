"""Section 5.1 — speedups are consistent across frame resolutions.

The paper simulates at 32x32 to bound simulation time and validates the
methodology by re-running some scenes at 96x96: "the speedups remain
consistent".  We run the headline configuration at 16x16 and 32x32 on a
scene subset and check the per-scene speedups track each other.
"""

from repro import DEFAULT, FULL, SMOKE, TREELET_PREFETCH
from repro.core.report import geomean

from common import active_scale, bench_scenes, print_figure, record, run_pair


def _scale_pair():
    """(low, high) resolution scales for the active run size."""
    if active_scale().name == "smoke":
        return SMOKE, DEFAULT  # 8x8 vs 16x16 on miniature scenes
    return DEFAULT, FULL  # 16x16 vs 32x32 (the paper's resolution)


def run_sec51() -> dict:
    low_scale, high_scale = _scale_pair()
    scenes = bench_scenes()[:5]
    payload = {}
    rows = []
    low_gains = []
    high_gains = []
    for scene in scenes:
        _, _, low = run_pair(scene, TREELET_PREFETCH, low_scale)
        _, _, high = run_pair(scene, TREELET_PREFETCH, high_scale)
        low_gains.append(low)
        high_gains.append(high)
        rows.append(
            [scene, round(low, 3), round(high, 3),
             f"{100 * (high / low - 1):+.1f}%"]
        )
        payload[scene] = {"low_res": low, "high_res": high}
    payload["gmean_low"] = geomean(low_gains)
    payload["gmean_high"] = geomean(high_gains)
    rows.append(
        ["GMean", round(payload["gmean_low"], 3),
         round(payload["gmean_high"], 3), ""]
    )
    print_figure(
        "Section 5.1: speedup consistency across resolutions "
        f"({low_scale.width}x{low_scale.height} vs "
        f"{high_scale.width}x{high_scale.height})",
        ["scene", "low res", "high res", "diff"],
        rows,
        "paper validates 32x32 against 96x96: 'the speedups remain "
        "consistent' (per Principal Kernel Analysis)",
    )
    record(
        "sec51_resolution",
        {
            "gmean_low": payload["gmean_low"],
            "gmean_high": payload["gmean_high"],
        },
    )
    return payload


def test_sec51_resolution():
    payload = run_sec51()
    # The methodology claim: the aggregate speedup does not swing wildly
    # with resolution.
    low = payload["gmean_low"]
    high = payload["gmean_high"]
    assert abs(high - low) / low < 0.3
