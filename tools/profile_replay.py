#!/usr/bin/env python3
"""Sample where the replay engine spends its time.

Builds the benchmark's replay panel (five scenes by six techniques, the
lists of ``benchmarks/suite/workloads.py``) with every trace set warm,
then replays it ``--passes`` times under a ``SIGPROF`` sampler and
prints each function's share of the sampled CPU time.  A sample is
charged to the innermost Python frame (self time), so the table shows
where the interpreter actually runs, not who called it.

After the CPU seconds it prints the work one pass does: the visits
replayed, the ``RTUnit.step`` calls and the agenda flushes
(``MemorySystem._flush`` calls).  Every pass does the same work, so
they are counted in one more, untimed pass with those two methods
wrapped in counters.

Run:  PYTHONPATH=src python tools/profile_replay.py [--scale default]
      [--passes 3] [--interval-ms 1] [--top 25]

``--interval-ms 0`` turns the sampler off and only reports the CPU
time per pass.
"""

from __future__ import annotations

import argparse
import collections
import signal
import sys
import time
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))

from repro import api  # noqa: E402
from repro.core import pipeline  # noqa: E402
from repro.gpusim import MemorySystem, RTUnit  # noqa: E402
from workloads import PANEL_SCENES, PANEL_TECHNIQUES  # noqa: E402


def replay_panel(scale) -> int:
    """One pass: the panel's thirty replays, traces already warm;
    returns the visits replayed."""
    visits = 0
    for scene in PANEL_SCENES:
        for spec in PANEL_TECHNIQUES:
            result = api.run(scene, spec, scale, cache=False)
            visits += result.stats.visits_completed
    return visits


def count_work(scale) -> Dict[str, int]:
    """One pass with ``RTUnit.step`` and ``MemorySystem._flush`` counted;
    returns the pass's visits, unit steps and agenda flushes."""
    counts: Dict[str, int] = collections.Counter()
    targets = {"steps": (RTUnit, "step"), "flushes": (MemorySystem, "_flush")}
    originals = {
        key: getattr(cls, name) for key, (cls, name) in targets.items()
    }

    def counted(key):
        original = originals[key]

        def wrapper(self, *args):
            counts[key] += 1
            return original(self, *args)

        return wrapper

    for key, (cls, name) in targets.items():
        setattr(cls, name, counted(key))
    try:
        counts["visits"] = replay_panel(scale)
    finally:
        for key, (cls, name) in targets.items():
            setattr(cls, name, originals[key])
    return counts


def frame_key(frame) -> str:
    code = frame.f_code
    path = Path(code.co_filename)
    parts = path.parts
    if "repro" in parts:
        where = "/".join(parts[parts.index("repro") + 1:])
    else:
        where = path.name
    # ``co_qualname`` (3.11+) tells ``Cache.__init__`` from
    # ``CacheStats.__init__``; 3.9 and 3.10 have only ``co_name``.
    return f"{where}:{getattr(code, 'co_qualname', code.co_name)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="default",
                        choices=sorted(pipeline.SCALES))
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--interval-ms", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    scale = pipeline.SCALES[args.scale]

    pipeline.prewarm_traces(
        [(scene, api.parse_technique(spec)) for scene in PANEL_SCENES
         for spec in PANEL_TECHNIQUES],
        scale,
    )
    replay_panel(scale)  # warm every other memo (BVHs, layouts, configs)

    samples: collections.Counter = collections.Counter()

    def on_sample(_signum, frame) -> None:
        if frame is not None:
            samples[frame_key(frame)] += 1

    interval = args.interval_ms / 1000.0
    if interval > 0:
        signal.signal(signal.SIGPROF, on_sample)
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
    per_pass = []
    try:
        for _ in range(args.passes):
            start = time.process_time()
            replay_panel(scale)
            per_pass.append(time.process_time() - start)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    print(f"scale {scale.name}: {args.passes} passes of "
          f"{len(PANEL_SCENES) * len(PANEL_TECHNIQUES)} replays")
    print("CPU s per pass: " + " ".join(f"{s:.3f}" for s in per_pass)
          + f"  (min {min(per_pass):.3f})")
    work = count_work(scale)
    print(f"work per pass: {work['visits']:,} visits, "
          f"{work['steps']:,} RTUnit.step calls, "
          f"{work['flushes']:,} agenda flushes")
    total = sum(samples.values())
    if not total:
        return 0
    print(f"{total} samples at {args.interval_ms:g} ms; self-time share:")
    for key, count in samples.most_common(args.top):
        print(f"  {100.0 * count / total:5.1f}%  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
