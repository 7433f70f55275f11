"""EXPERIMENTS.md is generated: the committed file must be exactly what
the experiment table renders from ``results/``, so no hand edit can
drift from the recorded numbers (``tools/run_full_eval.py`` writes
both)."""

from pathlib import Path

from repro.analysis import render_recorded

ROOT = Path(__file__).resolve().parents[1]


def test_committed_file_matches_generator():
    committed = (ROOT / "EXPERIMENTS.md").read_text()
    assert render_recorded() == committed, (
        "EXPERIMENTS.md differs from what results/ renders to; "
        "regenerate both with `python tools/run_full_eval.py`"
    )
