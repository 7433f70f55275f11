"""Sweep results: one technique against a baseline across scenes.

:func:`repro.api.sweep` and :func:`repro.api.compare` return these;
they aggregate per-scene outcomes into gmean speedup and power ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .pipeline import ExperimentResult, Technique, speedup
from .report import geomean


@dataclass
class SceneOutcome:
    """Baseline + candidate results for one scene."""

    scene: str
    baseline: ExperimentResult
    candidate: ExperimentResult

    @property
    def speedup(self) -> float:
        return speedup(self.baseline, self.candidate)

    @property
    def latency_reduction(self) -> float:
        """Fractional cut in average BVH demand-load latency."""
        before = self.baseline.stats.avg_node_demand_latency
        after = self.candidate.stats.avg_node_demand_latency
        if before <= 0:
            return 0.0
        return 1.0 - after / before

    @property
    def power_ratio(self) -> float:
        base = self.baseline.power.avg_power
        if base <= 0:
            return 1.0
        return self.candidate.power.avg_power / base


@dataclass
class SweepResult:
    """One technique evaluated across a scene set."""

    technique: Technique
    outcomes: Dict[str, SceneOutcome] = field(default_factory=dict)
    #: The :class:`repro.exec.ExecutionReport` of the replays the sweep
    #: ran (its plan: how many processes, and why).
    execution: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    @property
    def scenes(self) -> List[str]:
        return list(self.outcomes)

    def speedups(self) -> Dict[str, float]:
        return {s: o.speedup for s, o in self.outcomes.items()}

    @property
    def gmean_speedup(self) -> float:
        values = list(self.speedups().values())
        return geomean(values) if values else 0.0

    @property
    def gmean_power_ratio(self) -> float:
        values = [o.power_ratio for o in self.outcomes.values()]
        # Neutral default for an empty sweep, matching
        # SceneOutcome.power_ratio's degenerate-baseline convention.
        return geomean(values) if values else 1.0

    def best_scene(self) -> Optional[str]:
        if not self.outcomes:
            return None
        return max(self.outcomes, key=lambda s: self.outcomes[s].speedup)

    def worst_scene(self) -> Optional[str]:
        if not self.outcomes:
            return None
        return min(self.outcomes, key=lambda s: self.outcomes[s].speedup)

