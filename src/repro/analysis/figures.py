"""Render the experiment table's recorded results.

Two views of ``results/experiments.json``: ASCII charts with the
paper's values alongside (``repro figures``), and EXPERIMENTS.md's
paper-vs-measured document (``tools/run_full_eval.py`` writes it).
Titles, paper values and summaries come from
:data:`repro.analysis.experiments.EXPERIMENTS`.
"""

from __future__ import annotations

import json
from typing import List, Optional

from .charts import bar_chart, comparison_summary, stacked_chart
from .experiments import (
    BY_ID,
    EXPERIMENTS,
    FIG20_BUCKETS,
    default_results_path,
    load_results,
)


def _numbers(payload: dict) -> dict:
    return {str(k): float(v) for k, v in payload.items()
            if isinstance(v, (int, float))}


def render_speedup_figure(experiment_id: str, payload: dict) -> str:
    """One speedup-series figure as a bar chart with the 1.0 baseline."""
    series = _numbers(payload)
    parts = [bar_chart(series, baseline=1.0, unit="x")]
    experiment = BY_ID.get(experiment_id)
    if experiment is not None and experiment.paper_values:
        parts += ["", comparison_summary(series, experiment.paper_values)]
    return "\n".join(parts)


def render_effectiveness_figure(payload: dict) -> str:
    """Figure 20 as one stacked bar."""
    values = {k: v for k, v in _numbers(payload).items()
              if k in FIG20_BUCKETS}
    paper = BY_ID["fig20_effectiveness"].paper_values
    return "\n".join([
        stacked_chart({"prefetches": values}, buckets=list(FIG20_BUCKETS)),
        "",
        comparison_summary(values, paper),
    ])


def render_all(results: dict) -> List[str]:
    """Every charted experiment in ``results``, as titled blocks."""
    blocks = []
    for experiment in EXPERIMENTS:
        payload = results.get(experiment.id)
        if experiment.chart is None or payload is None:
            continue
        body = (render_effectiveness_figure(payload)
                if experiment.chart == "stacked"
                else render_speedup_figure(experiment.id, payload))
        blocks.append(f"--- {experiment.id} ---\n{body}")
    return blocks


HEADER = """# EXPERIMENTS — paper vs. measured

Auto-generated from `results/experiments.json`. Both files are written
by `python tools/run_full_eval.py --scale default`, which evaluates the
experiment table in `src/repro/analysis/experiments.py`. CI re-runs it
and fails when either file differs from what is committed.

Absolute magnitudes differ by design — the scenes are procedural
stand-ins hundreds of times smaller than LumiBench's and the caches are
scaled to match (see DESIGN.md) — so each entry compares the paper's
headline against the measured *shape*. Each entry lists the named
checks its scale runs; the runner exits 1 when one does not hold. A
**divergence** is a paper shape that this model does not reproduce: it
is recorded with its numbers, not asserted.

Technique sweeps run through `repro.api.compare`, whose replays may fan
out over worker processes; every `SimStats` is bit-for-bit equal to the
serial path (see `docs/execution.md`), so the numbers do not depend on
the host's CPU count.

The same invariance extends to the network path: results served by
`repro serve` (the asyncio simulation service) are bit-identical to
in-process `repro.api.run` calls, so any entry here could equally have
been collected through the service. Serving-layer performance itself —
open-loop latency under load — is measured by the `serve-open`
workload of `benchmarks/suite` (see `docs/serving.md`), and never
mixed into the paper-comparison numbers below.

The non-rendering query workloads (kNN neighbor search and AMR point
containment, `docs/queries.md`) are likewise reported outside this
file: they are not paper experiments, but they reuse the identical
pipeline and every decoded answer is verified exactly equal to brute
force (`tests/test_queries.py`). Their default-scale headline — treelet
prefetch 1.49× on sparse containment rays, ≈0.98× on dense kNN probe
grids — is the paper's incoherence story measured on query traffic.

"""


def _full_scale_supplement(data: dict) -> List[str]:
    per_scene = ", ".join(
        f"{scene} {value['speedup']:.2f}"
        for scene, value in data.items() if isinstance(value, dict)
    )
    return [
        "## Supplement — Figure 7 at full scale (32x32, all 16 scenes)\n",
        "- **Paper:** gmean speedup 1.321 at ~equal power (32x32, 1 SPP)",
        f"- **Measured:** gmean speedup {data['gmean_speedup']:.3f}, "
        f"power ratio {data['gmean_power_ratio']:.3f}",
        f"- Per scene: {per_scene}",
        "",
    ]


def render_markdown(results: dict,
                    full_scale: Optional[dict] = None) -> str:
    """EXPERIMENTS.md for the recorded ``results``, plus the offline
    full-scale Figure 7 sweep (``results/fig07_full_scale.json``)."""
    lines = [HEADER]
    for experiment in EXPERIMENTS:
        lines.append(f"## {experiment.title}\n")
        if experiment.id not in results:
            lines.append("*not yet recorded*\n")
            continue
        payload = dict(results[experiment.id])
        scale = payload.pop("scale")
        lines.append(f"- **Paper:** {experiment.paper}")
        lines.append(f"- **Measured:** {experiment.summary(payload)}")
        for divergence in experiment.divergences:
            state = ("holds at this scale" if divergence.holds(payload)
                     else "diverges")
            lines.append(f"- **Divergence `{divergence.name}`** "
                         f"({state}): {divergence.note(payload)}")
        checks = ", ".join(
            f"`{check.name}`" for check in experiment.checks
            if check.runs_at(scale)
        )
        lines.append(f"- *scale: {scale}; checks: {checks or 'none'}*")
        lines.append("")
    if full_scale is not None:
        lines.extend(_full_scale_supplement(full_scale))
    return "\n".join(lines)


def render_recorded() -> str:
    """EXPERIMENTS.md for what ``results/`` holds."""
    supplement = default_results_path().parent / "fig07_full_scale.json"
    return render_markdown(
        load_results(),
        json.loads(supplement.read_text()) if supplement.exists() else None,
    )
