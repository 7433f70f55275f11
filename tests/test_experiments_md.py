"""EXPERIMENTS.md is generated: the committed file must be exactly what
``tools/make_experiments_md.py`` renders from ``results/``, so no
hand edit can drift from the recorded numbers."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _generator():
    path = ROOT / "tools" / "make_experiments_md.py"
    spec = importlib.util.spec_from_file_location("make_experiments_md", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_file_matches_generator():
    rendered = _generator().render()
    committed = (ROOT / "EXPERIMENTS.md").read_text()
    assert rendered == committed, (
        "EXPERIMENTS.md differs from its generator's output; regenerate "
        "it with `python tools/make_experiments_md.py`"
    )
