"""repro.api — the unified public facade.

Entry points::

    from repro.api import run, sweep, compare, parse_technique

    result = run("BUNNY", "treelet-prefetch", "default")
    print(result.cycles, result.stats.l1_hit_rate)

    outcome = sweep("treelet-prefetch,treelet_bytes=8192",
                    ["WKND", "SHIP"], "smoke", jobs=2)
    print(outcome.gmean_speedup)

Techniques are accepted as :class:`~repro.core.Technique` objects or
spec strings (see :func:`parse_technique`); scales as
:class:`~repro.core.Scale` objects or names.  This is the only entry
point for evaluations.  See ``docs/api.md``.
"""

from .facade import RunRequest, RunResult, SweepRequest, compare, run, sweep
from .techniques import (
    TECHNIQUE_PRESETS,
    describe_techniques,
    parse_technique,
    technique_fields,
    technique_to_spec,
)

__all__ = [
    "RunRequest",
    "RunResult",
    "SweepRequest",
    "TECHNIQUE_PRESETS",
    "compare",
    "describe_techniques",
    "parse_technique",
    "run",
    "sweep",
    "technique_fields",
    "technique_to_spec",
]
