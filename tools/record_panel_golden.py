"""Record the seeded all-pairs covering panel of replay configurations.

The panel spans the :class:`~repro.core.Technique` fields, the
:class:`~repro.core.GpuConfig` knobs the benches sweep, and a few
smoke scenes and query workloads.  Every pair of factor levels that
some valid configuration can hold appears in at least one entry; the
entries are chosen greedily from seeded random candidates, so the
panel is small (about thirty replays at smoke scale, a few seconds)
and the same on every run.

Each entry records its scene, workload, technique spec, GPU overrides
and the sha256 of its SimStats (the digest of
``tests/golden/replay_simstats.json``).  ``tests/test_panel.py``
replays every entry serially and through the replay pool and requires
the recorded digest each time.

Usage (from the repository root)::

    PYTHONPATH=src python tools/record_panel_golden.py          # write
    PYTHONPATH=src python tools/record_panel_golden.py --check  # compare

A change meant to alter simulated results re-records the file in its
own diff; nothing else should.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

from repro.api import parse_technique, run, technique_to_spec
from repro.core.config import CacheConfig, DramConfig
from repro.core.pipeline import SMOKE, Scale

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / \
    "panel_simstats.json"

SEED = 2027

#: scene -> the workload whose rays it answers.
SCENES = {
    "WKND": "render",
    "SHIP": "render",
    "CAR": "render",
    "AMRTWO": "containment",
    "PTSUNI": "knn",
}

#: Entries outside the pairwise design: a kNN replay costs about a
#: second at smoke scale (28k visits), twenty times a render one, so
#: kNN is covered by one fixed entry instead of one per level.
EXTRA_ROWS = [
    {"scene": "PTSUNI", "prefetch": "treelet", "traversal": "treelet",
     "heuristic": "partial", "voter_mode": "pseudo", "formation": "dfs",
     "deferred_order": "lifo", "layout": "treelet", "treelet_bytes": "256",
     "mapping_mode": "none", "adaptive": "false", "scheduler": "pmr",
     "gpu": "warp-buffer-8"},
]

#: Factor -> its levels.  Technique fields take spec values; ``gpu``
#: names an entry of :data:`GPU_VARIANTS`.
FACTORS = {
    "scene": [scene for scene in SCENES if scene != "PTSUNI"],
    "prefetch": ["treelet", "stream", "mta", "none"],
    "traversal": ["dfs", "treelet"],
    "heuristic": ["always", "popularity:0.5", "partial"],
    "voter_mode": ["full", "pseudo"],
    "formation": ["bfs", "dfs", "sah"],
    "deferred_order": ["nearest", "lifo", "fifo"],
    "layout": ["dfs", "treelet", "treelet-stride"],
    "treelet_bytes": ["512", "256", "1024"],
    "mapping_mode": ["none", "loose", "strict"],
    "adaptive": ["false", "true"],
    "scheduler": ["baseline", "pmr", "omr"],
    "gpu": ["smoke", "l1-4way", "warp-buffer-8", "dram-pressured",
            "stream-buffer"],
}

#: GPU variant -> overrides of the smoke config, as JSON.
GPU_VARIANTS = {
    "smoke": {},
    "l1-4way": {"l1": {"size_bytes": 1024, "associativity": 4}},
    "warp-buffer-8": {"warp_buffer_size": 8},
    # Fig 15's paper-regime DRAM pressure.
    "dram-pressured": {"dram": {"burst_cycles": 16}},
    "stream-buffer": {"prefetch_destination": "stream"},
}


def smoke_scale(overrides: dict) -> Scale:
    """SMOKE on the smoke GPU with ``overrides`` (nested for caches and
    DRAM)."""
    changes = {}
    for name, value in overrides.items():
        if isinstance(value, dict):
            kind = DramConfig if name == "dram" else CacheConfig
            current = dataclasses.asdict(getattr(SMOKE.gpu, name))
            value = kind(**{**current, **value})
        changes[name] = value
    return dataclasses.replace(
        SMOKE, gpu=dataclasses.replace(SMOKE.gpu, **changes)
    )


def _repair(row: dict) -> dict:
    """Make the dependent fields of ``row`` agree, the way a user
    asking for one of them would have to."""
    row = dict(row)
    if row["mapping_mode"] != "none":
        row["prefetch"], row["layout"] = "treelet", "dfs"
    if row["adaptive"] == "true":
        row["prefetch"] = "treelet"
    if row["prefetch"] == "treelet":
        row["traversal"] = "treelet"
    return row


def _technique(row: dict):
    layout, stride = row["layout"], 0
    if layout == "treelet-stride":
        layout, stride = "treelet", 256
    parts = [f"{name}={row[name]}" for name in (
        "traversal", "prefetch", "heuristic", "voter_mode", "formation",
        "deferred_order", "treelet_bytes", "mapping_mode", "adaptive",
        "scheduler",
    )]
    parts += [f"layout={layout}", f"layout_stride={stride}"]
    return parse_technique("baseline," + ",".join(parts))


#: Every pair of (factor, level) items, numbered: a row's pairs are a
#: bit mask over these.
PAIR_BITS = {
    pair: bit for bit, pair in enumerate(
        ((a, x), (b, y))
        for a, b in itertools.combinations(FACTORS, 2)
        for x in FACTORS[a] for y in FACTORS[b]
    )
}


def _pairs(row: dict) -> int:
    mask = 0
    for a, b in itertools.combinations(FACTORS, 2):
        mask |= 1 << PAIR_BITS[((a, row[a]), (b, row[b]))]
    return mask


def covering_rows(seed: int = SEED, samples: int = 3000) -> list:
    """Greedy all-pairs over ``samples`` seeded random rows (valid once
    repaired): keep the row covering the most uncovered pairs until
    every pair some sampled row holds is covered."""
    rng = random.Random(seed)
    pool = {}
    for _ in range(samples):
        row = _repair({name: rng.choice(levels)
                       for name, levels in FACTORS.items()})
        pool.setdefault(_pairs(row), row)
    uncovered = 0
    for mask in pool:
        uncovered |= mask
    rows = []
    while uncovered:
        best = max(pool, key=lambda mask: bin(mask & uncovered).count("1"))
        uncovered &= ~best
        rows.append(pool[best])
    return rows


def stats_digest(stats) -> str:
    canonical = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def panel() -> list:
    """The panel's entries, digests not yet taken."""
    return [
        {
            "id": f"panel/{index:02d}/{row['scene']}",
            "scene": row["scene"],
            "workload": SCENES[row["scene"]],
            "technique": technique_to_spec(_technique(row)),
            "gpu": GPU_VARIANTS[row["gpu"]],
        }
        for index, row in enumerate(covering_rows() + EXTRA_ROWS)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded file; write nothing")
    args = parser.parse_args(argv)
    entries = panel()
    for entry in entries:
        stats = run(entry["scene"], entry["technique"],
                    smoke_scale(entry["gpu"]),
                    workload=entry["workload"]).stats
        entry["digest"] = stats_digest(stats)
        entry["cycles"] = stats.cycles
    document = {
        "digest": "sha256 of json.dumps(dataclasses.asdict(SimStats), "
                  "sort_keys=True)",
        "scale": SMOKE.name,
        "seed": SEED,
        "entries": entries,
    }
    if args.check:
        recorded = json.loads(GOLDEN.read_text())
        if recorded != document:
            print("panel differs from", GOLDEN, file=sys.stderr)
            return 1
        print(f"{len(entries)} entries match {GOLDEN.name}")
        return 0
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
