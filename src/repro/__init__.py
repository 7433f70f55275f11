"""repro — reproduction of "Treelet Prefetching For Ray Tracing" (MICRO'23).

Public API tour:

* :mod:`repro.api` — the facade: `run`/`sweep`/`compare`,
  `RunRequest`/`RunResult`, `parse_technique`.  Start here.
* :mod:`repro.core` — `Technique`, configs, scales, the pipeline.
* :mod:`repro.scenes` — the 16 procedural evaluation scenes + ray gen.
* :mod:`repro.bvh` — SAH builder, 6-wide BVH, layouts, stats.
* :mod:`repro.treelet` — treelet formation, repacking, mapping table.
* :mod:`repro.traversal` — DFS and two-stack (Algorithm 1) traversal.
* :mod:`repro.gpusim` — the trace-driven RT-unit/memory timing model.
* :mod:`repro.prefetch` — treelet prefetcher, voter, baselines.
* :mod:`repro.power` — activity-based power model.
"""

from .core import (
    BASELINE,
    DEFAULT,
    FULL,
    PAPER,
    SMOKE,
    ExperimentResult,
    Scale,
    TREELET_PREFETCH,
    TREELET_TRAVERSAL_ONLY,
    Technique,
    default_config,
    paper_config,
    speedup,
)
from .api import (
    RunRequest,
    RunResult,
    compare,
    parse_technique,
    run,
    sweep,
)

__version__ = "1.0.0"

__all__ = [
    "BASELINE",
    "DEFAULT",
    "ExperimentResult",
    "FULL",
    "PAPER",
    "RunRequest",
    "RunResult",
    "SMOKE",
    "Scale",
    "TREELET_PREFETCH",
    "TREELET_TRAVERSAL_ONLY",
    "Technique",
    "__version__",
    "compare",
    "default_config",
    "paper_config",
    "parse_technique",
    "run",
    "speedup",
    "sweep",
]
