#!/usr/bin/env python3
"""Sample where the replay engine spends its time.

Builds one case's replays with every trace set warm, then replays them
``--passes`` times under a ``SIGPROF`` sampler and prints each
function's share of the sampled CPU time.  A sample is charged to the
innermost Python frame (self time), so the table shows where the
interpreter actually runs, not who called it.  The cases
(``--case``), from the lists of ``benchmarks/suite/workloads.py``:

* ``panel`` — the benchmark's replay panel, five scenes by six
  techniques;
* ``knn`` — query-cold's PTSUNI kNN replays, baseline and
  treelet-prefetch, at that workload's scale (``--scale default``
  means ``q48``; ``--scale smoke`` is smoke scale, as in the
  benchmark's smoke run).

After the CPU seconds it prints the work one pass does: the visits
replayed, the ``RTUnit.step`` calls, the agenda flushes
(``MemorySystem._flush`` calls), the prefetcher hook calls the units
make (``pop_prefetch``, ``on_cycle``), and the voter's decisions with
the mean and largest number of distinct treelets in the vote tally at
a decision.  Every pass does the same work, so they are counted in one
more, untimed pass with those methods wrapped in counters.

Run:  PYTHONPATH=src python tools/profile_replay.py [--case panel]
      [--scale default] [--passes 3] [--interval-ms 1] [--top 25]

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
from repro.prefetch import MajorityVoter, Prefetcher  # noqa: E402
from workloads import (  # noqa: E402
    CANDIDATE, PANEL_SCENES, PANEL_TECHNIQUES, QUERY_SCALE,
)

#: case -> its replays, ``(scene, technique spec, workload)``.
CASES = {
    "panel": [(scene, spec, "render") for scene in PANEL_SCENES
              for spec in PANEL_TECHNIQUES],
    "knn": [("PTSUNI", spec, "knn") for spec in ("baseline", CANDIDATE)],
}
#: the prefetcher hooks whose calls a pass counts.
HOOKS = ("pop_prefetch", "on_cycle")


def replay(runs, scale) -> int:
    """One pass over ``runs``, traces already warm; returns the visits
    replayed."""
    visits = 0
    for scene, spec, workload in runs:
        result = api.run(scene, spec, scale, workload=workload, cache=False)
        visits += result.stats.visits_completed
    return visits


def prefetcher_classes(cls=Prefetcher):
    """``cls`` and every subclass of it, at any depth."""
    yield cls
    for sub in cls.__subclasses__():
        yield from prefetcher_classes(sub)


def count_work(runs, scale) -> Dict[str, int]:
    """One pass with ``RTUnit.step``, ``MemorySystem._flush``, the
    prefetcher hooks and the voter counted; returns the pass's visits,
    unit steps, agenda flushes, hook calls, voter decisions, and the
    sum and maximum of the tally's distinct treelets at a decision."""
    counts: Dict[str, int] = collections.Counter()
    decide = MajorityVoter.decide

    def counted_decide(self, tally, *args):
        treelets = len(tally.counts)
        counts["decisions"] += 1
        counts["tally_treelets"] += treelets
        counts["tally_max"] = max(counts["tally_max"], treelets)
        decision = decide(self, tally, *args)
        counts["winners"] += decision is not None
        return decision

    targets = [("steps", RTUnit, "step"), ("flushes", MemorySystem, "_flush")]
    # Each class that defines a hook gets its own wrapper, so the RT
    # unit still tells an overridden hook from the base class's.
    targets += [(name, cls, name) for name in HOOKS
                for cls in prefetcher_classes() if name in vars(cls)]
    originals = [vars(cls)[name] for _key, cls, name in targets]

    def counted(key, original):
        def wrapper(self, *args):
            counts[key] += 1
            return original(self, *args)

        return wrapper

    for (key, cls, name), original in zip(targets, originals):
        setattr(cls, name, counted(key, original))
    MajorityVoter.decide = counted_decide
    try:
        counts["visits"] = replay(runs, scale)
    finally:
        for (_key, cls, name), original in zip(targets, originals):
            setattr(cls, name, original)
        MajorityVoter.decide = decide
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
    parser.add_argument("--case", default="panel", choices=sorted(CASES))
    parser.add_argument("--scale", default="default",
                        choices=sorted(pipeline.SCALES))
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--interval-ms", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    scale = pipeline.SCALES[args.scale]
    if args.case == "knn" and args.scale == "default":
        scale = QUERY_SCALE
    runs = CASES[args.case]

    pipeline.prewarm_traces(
        [(scene, api.parse_technique(spec), workload)
         for scene, spec, workload in runs],
        scale,
    )
    replay(runs, scale)  # warm every other memo (BVHs, layouts, configs)

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
            replay(runs, scale)
            per_pass.append(time.process_time() - start)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    print(f"{args.case} at scale {scale.name}: {args.passes} passes of "
          f"{len(runs)} replays")
    print("CPU s per pass: " + " ".join(f"{s:.3f}" for s in per_pass)
          + f"  (min {min(per_pass):.3f})")
    work = count_work(runs, scale)
    print(f"work per pass: {work['visits']:,} visits, "
          f"{work['steps']:,} RTUnit.step calls, "
          f"{work['flushes']:,} agenda flushes")
    print("prefetcher calls per pass: " + ", ".join(
        f"{work[name]:,} {name}" for name in HOOKS))
    decisions = work["decisions"]
    mean = work["tally_treelets"] / decisions if decisions else 0.0
    print(f"voter per pass: {decisions:,} decisions "
          f"({work['winners']:,} with a winner), distinct treelets in the "
          f"tally at a decision: mean {mean:.1f}, max {work['tally_max']}")
    total = sum(samples.values())
    if not total:
        return 0
    print(f"{total} samples at {args.interval_ms:g} ms; self-time share:")
    for key, count in samples.most_common(args.top):
        print(f"  {100.0 * count / total:5.1f}%  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
