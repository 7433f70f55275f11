#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and by layer.

Run every workload, untraced and then traced, each in its own fresh
process, check every output, print every metric and write one result
document::

    python3 benchmarks/suite/run.py [--seed N] [--seconds S] [--out PATH]

Run one workload; the last line of standard output is the result as
one JSON object::

    python3 benchmarks/suite/run.py --workload replay-panel \
        --seed 3 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  End-to-end times are scaled to the
host speed at which the calibration kernel takes
``calibration.REFERENCE_S`` (see ``calibration.py``); per-layer times
are as measured, less the kernel runs.  ``--smoke`` runs one set-up,
one import probe and one cycle at smoke scale (the self-tests use it).  The process exits 1 when any output is
wrong.
"""

import time

ENTRY = time.perf_counter()  # setup_s counts from here, before `import repro`

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402  (this file's directory is on sys.path)

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
EXPECTED = SUITE / "expected.json"
SCRATCH = ROOT / ".bench_suite"
SCHEMA = "repro.suite/1"
#: Fresh interpreters that time the imports again: the import happens
#: once per process, and one sample of it is as noisy as the host.
IMPORT_PROBES = 8
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import argparse, json, platform, resource, statistics, subprocess; "
    "import numpy, workloads; print(time.perf_counter() - start)"
)
SCALED_CLOCK = "time.perf_counter (wall), scaled by the calibration kernel"
CLOCKS = {
    "setup_s": SCALED_CLOCK,
    "wall_ref_s": SCALED_CLOCK,
    "peak_rss_mb": "resource.getrusage ru_maxrss",
    "s": "time.perf_counter (wall)",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_block(spec: dict, trace: bool, values: dict) -> dict:
    entries = spec["per_layer" if trace else "end_to_end"]
    return {
        entry["name"]: {"value": values.get(entry["name"], 0.0),
                        "unit": entry["unit"]}
        for entry in entries
    }


def sum_of_medians(passes) -> float:
    """A pass's wall: each op's median over the cycles, summed."""
    return sum(
        statistics.median(times[op] for times in passes) for op in passes[0]
    )


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for
    (the serve-open service processes), in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def import_samples(probes: int) -> list:
    """(import wall, mean kernel wall just before and after) of
    ``probes`` fresh interpreters.  The kernel runs between the probes,
    not beside them: on a host whose CPUs share a core the two would
    slow each other."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(SUITE)]))
    samples = []
    for _ in range(probes):
        before = calibration.kernel()
        wall = float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=str(ROOT), env=env,
            capture_output=True, text=True, check=True,
        ).stdout)
        samples.append((wall, (before + calibration.kernel()) / 2))
    return samples


def scaled(wall: float, kernel: float) -> float:
    """``wall`` at the host speed where the kernel takes REFERENCE_S,
    given the kernel's wall at the time."""
    return wall * (calibration.REFERENCE_S / kernel) ** calibration.EXPONENT


def layer_metrics(setups, clocks, cycles, kernels) -> dict:
    """Per-layer metrics of one traced set-up plus one traced cycle.

    ``setups`` and ``clocks`` are (wall, span, clock) of each traced
    set-up and cycle.  Each layer reads its median over set-ups plus its median
    over cycles; the residual is the wall no layer covers, likewise.
    """
    from layers import VISITS_REPLAYED

    def setup_plus_cycle(value) -> float:
        return sum(
            statistics.median(value(wall, clock) for wall, _, clock in part)
            for part in (setups, clocks)
        )

    names = {name for _, _, clock in setups + clocks
             for name in {**clock.seconds, **clock.counts}}
    values = {
        name: setup_plus_cycle(
            lambda _, clock: {**clock.seconds, **clock.counts}.get(name, 0.0)
        )
        for name in names
    }
    replayed = values.pop(VISITS_REPLAYED, 0.0)
    values["gpusim.visits_per_s"] = (
        replayed / values["gpusim.run_s"] if values.get("gpusim.run_s")
        else 0.0
    )
    values["traced.setup_s"] = statistics.median(wall for wall, _, _ in setups)
    values["traced.wall_s"] = sum_of_medians([c.wall for c in cycles])
    values["host.kernel_s"] = statistics.median(kernels)
    values["api.residual_s"] = setup_plus_cycle(
        lambda wall, clock: wall - clock.total()
    )
    values["layers.coverage"] = 1.0 - values["api.residual_s"] / (
        setup_plus_cycle(lambda wall, _: wall)
    )
    values.update(cycles[-1].counters())
    for name in cycles[-1].serve:
        values[name] = statistics.median(c.serve[name] for c in cycles)
    return values


def run_workload(args, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: {ROOT / 'src' / 'repro'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(SUITE)]
    import numpy
    import workloads
    from layers import DigestCheck, LayerClock, instrument
    from repro.exec import set_artifact_cache

    imports = [(time.perf_counter() - ENTRY, calibration.kernel())]
    imports += import_samples(1 if args.smoke else IMPORT_PROBES)
    check = DigestCheck(json.loads(EXPECTED.read_text())["digests"])
    work = SCRATCH / f"work-{os.getpid()}"
    ctx = workloads.Context(root=ROOT, work=work, trace=bool(args.trace),
                            check=check, clock=LayerClock())
    workload = workloads.WORKLOADS[args.workload](args.smoke)
    sampler = ctx.sampler
    # A kernel run inside a traced call is no layer's time.
    sampler.on_sample = lambda seconds: ctx.clock.skip(seconds)

    def timed(call):
        """``call(ctx)``'s result, its wall less the kernel runs within
        it, its span, and the fresh clock it was traced on."""
        ctx.clock = LayerClock()
        ctx.begin()
        spent = sampler.total
        with instrument(ctx.clock) if ctx.trace else nullcontext():
            start = time.perf_counter()
            result = call(ctx)
            end = time.perf_counter()
        wall = end - start - (sampler.total - spent)
        return result, wall, (start, end), ctx.clock

    setups, cycles, clocks = [], [], []  # setups, clocks: (wall, span, clock)
    try:
        with sampler.running():
            for _ in range(1 if args.smoke else workload.setup_repeats):
                setups.append(timed(workload.setup)[1:])
            start = time.perf_counter()
            longest = 0.0
            while True:
                cycle, wall, span, clock = timed(workload.cycle)
                cycles.append(cycle)
                clocks.append((wall, span, clock))
                longest = max(longest, wall)
                if len(cycles) == 1:
                    # Later cycles grow the heap further (process-wide
                    # memos outlive clear_caches); one cycle is what a
                    # user's process running the workload once reaches.
                    rss = peak_rss_mb()
                    ctx.rng = random.Random(args.seed)
                elapsed = time.perf_counter() - start
                if args.smoke or elapsed + longest > args.seconds:
                    break
        workload.finish(ctx)
    finally:
        set_artifact_cache(None)
        shutil.rmtree(work, ignore_errors=True)

    # Ops without a span (serve-open's level) stay as measured.
    passes = [
        {op: scaled(wall, sampler.around(*c.spans[op])) if op in c.spans
         else wall
         for op, wall in c.wall.items()}
        for c in cycles
    ]
    kernels = [seconds for _, seconds in sampler.samples]
    if ctx.trace:
        values = layer_metrics(setups, clocks, cycles, kernels)
    else:
        values = {
            "setup_s": statistics.median(scaled(*i) for i in imports)
            + statistics.median(scaled(w, sampler.around(*span))
                                for w, span, _ in setups),
            "wall_ref_s": sum_of_medians(
                [p for p, c in zip(passes, cycles) if c.valid] or passes
            ),
            "peak_rss_mb": rss,
        }
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metric_block(spec, ctx.trace, values),
    }
    if args.out:
        document = dict(
            result,
            schema=SCHEMA,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=int(ctx.trace),
            smoke=args.smoke,
            host=host_facts(numpy.__version__),
            clocks={
                name: CLOCKS.get(name, CLOCKS.get(block["unit"],
                                                  "none (count or ratio)"))
                for name, block in result["metrics"].items()
            },
            errors=check.errors,
            samples={
                "import_s": [wall for wall, _ in imports],
                "setup_s": [wall for wall, _, _ in setups],
                "wall_s": [c.wall for c in cycles],
                "wall_ref_s": passes,
                "valid": [c.valid for c in cycles],
                # perf_counter times: each op's span, each kernel run's end
                "spans": [c.spans for c in cycles],
                "kernel_at": [at for at, _ in sampler.samples],
                "kernel_s": kernels,
            },
            **workload.document,
        )
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def host_facts(numpy_version: str) -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, one fresh process each."""
    SCRATCH.mkdir(exist_ok=True)
    merged = {"schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "workloads": {}}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = {}
        for trace in (0, 1):
            out = SCRATCH / f"{name}-trace{trace}-{os.getpid()}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            code = subprocess.run(command, cwd=str(ROOT),
                                  stdout=subprocess.DEVNULL).returncode
            if code != 0 or not out.exists():
                print(f"{name} (trace {trace}) exited {code}",
                      file=sys.stderr)
                status = 1
                continue
            runs[trace] = json.loads(out.read_text())
            out.unlink()
        if len(runs) == 2:
            merged["host"] = runs[0]["host"]
            merged["workloads"][name] = {"untraced": runs[0],
                                         "traced": runs[1]}
            report(name, runs[0], runs[1])
    out = Path(args.out or SCRATCH / "result.json")
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"result document: {out}")
    return status


def report(name: str, untraced: dict, traced: dict) -> None:
    print(f"{name}: {untraced['attempted']} ops, "
          f"{untraced['failed'] + traced['failed']} failed")
    for metric, block in untraced["metrics"].items():
        print(f"  {metric:<16} {block['value']:>12.4f} {block['unit']}")
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    wall = sum_of_medians(untraced["samples"]["wall_s"])
    traced_ref = sum_of_medians(traced["samples"]["wall_ref_s"])
    print(f"  traced pass {layers['traced.wall_s']:.4f} s "
          f"({layers['traced.wall_s'] / wall:.1%} of the untraced pass, "
          f"unscaled; {traced_ref / untraced['metrics']['wall_ref_s']['value']:.1%}"
          f" scaled), layers cover {layers['layers.coverage']:.1%} of "
          "set-up and pass")


def main(argv=None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="write the result document here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
