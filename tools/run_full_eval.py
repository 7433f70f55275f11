#!/usr/bin/env python3
"""Run the complete evaluation and regenerate all derived documents.

Equivalent to:

    pytest tests/
    pytest benchmarks/bench_*.py
    python tools/make_experiments_md.py

with outputs teed to ``test_output.txt`` / ``bench_output.txt``.

With ``--reports``, additionally writes one ``repro.run_report/1``
document per evaluation scene (headline technique, observer attached)
to ``results/reports/`` — the structured stats + histograms consumed by
downstream tooling (see ``docs/observability.md``).  ``--technique``
accepts a :func:`repro.api.parse_technique` spec string (e.g.
``treelet-prefetch,bytes=8192,order=lifo``) and applies it to those
report runs.

``--jobs N`` fans benchmark sweeps across N worker processes
(``REPRO_JOBS`` for the child pytest runs), and ``--cache-dir`` points
the persistent artifact cache somewhere other than ``results/cache``
(the harness caches by default; ``REPRO_CACHE=off`` disables).

Usage:  python tools/run_full_eval.py [--scale smoke|default|full]
                                      [--reports] [--technique SPEC]
                                      [--jobs N] [--cache-dir PATH]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cmd, log_name, env):
    log_path = ROOT / log_name
    print(f"$ {' '.join(cmd)}  (log: {log_path})")
    with log_path.open("w") as log:
        process = subprocess.Popen(
            cmd, cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for line in process.stdout:
            sys.stdout.write(line)
            log.write(line)
        process.wait()
    return process.returncode


def validate_technique(spec):
    """Resolve a --technique spec with repro.api.parse_technique, so a
    typo fails fast here rather than N subprocesses later."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.api import parse_technique

        return parse_technique(spec)
    finally:
        sys.path.pop(0)


def generate_reports(env, technique=None) -> int:
    """One run_report.json per bench scene for the headline technique
    (or the ``--technique`` spec when given)."""
    src = str(ROOT / "src")
    env = dict(env)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    sys.path.insert(0, src)
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from common import bench_scenes  # benchmarks/common.py

        scenes = bench_scenes()
    finally:
        sys.path.pop(0)
        sys.path.pop(0)
    reports_dir = ROOT / "results" / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    for scene in scenes:
        cmd = [
            sys.executable, "-m", "repro", "run", scene,
            "--scale", env.get("REPRO_SCALE", "default"),
            "--report", str(reports_dir / f"{scene}.json"),
        ]
        if technique:
            cmd += ["--technique", technique]
        code = run(cmd, f"report_{scene}.log", env)
        if code != 0:
            return code
    print(f"run reports in {reports_dir}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--scale", choices=["smoke", "default", "full"], default="default"
    )
    parser.add_argument(
        "--skip-tests", action="store_true",
        help="only run the benchmark harness",
    )
    parser.add_argument(
        "--reports", action="store_true",
        help="also write per-scene run_report.json files",
    )
    parser.add_argument(
        "--technique", default=None, metavar="SPEC",
        help="technique spec for the --reports runs "
             "(repro.api.parse_technique grammar; see `repro techniques`)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="fan benchmark sweeps across N worker processes",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache root (default: results/cache)",
    )
    args = parser.parse_args()
    if args.technique:
        try:
            validate_technique(args.technique)
        except ValueError as exc:
            print(f"bad --technique: {exc}", file=sys.stderr)
            return 2
    env = dict(os.environ, REPRO_SCALE=args.scale)
    if args.jobs > 1:
        env["REPRO_JOBS"] = str(args.jobs)
    # The bench run and the report CLI invocations cache by default and
    # share one artifact store (REPRO_CACHE=off still disables it
    # downstream).  The unit-test run deliberately does NOT get the
    # cache: several tests assert on cold-build behavior.
    bench_env = dict(env)
    bench_env["REPRO_CACHE_DIR"] = args.cache_dir or str(
        ROOT / "results" / "cache"
    )

    if not args.skip_tests:
        code = run(
            [sys.executable, "-m", "pytest", "tests/", "-q"],
            "test_output.txt", env,
        )
        if code != 0:
            print("tests failed; aborting", file=sys.stderr)
            return code
    env = bench_env
    code = run(
        [sys.executable, "-m", "pytest", *sorted(
            str(path.relative_to(ROOT))
            for path in ROOT.glob("benchmarks/bench_*.py")
        )],
        "bench_output.txt", env,
    )
    if code != 0:
        print("benchmarks failed", file=sys.stderr)
        return code
    if args.reports:
        code = generate_reports(env, technique=args.technique)
        if code != 0:
            print("report generation failed", file=sys.stderr)
            return code
    code = run(
        [sys.executable, "tools/make_experiments_md.py"],
        "experiments_gen.log", env,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
