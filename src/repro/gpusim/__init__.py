"""Trace-driven cycle-approximate GPU timing model."""

from .cache import AccessOutcome, Cache, CacheStats
from .dram import Dram, DramStats
from .gpu import GpuModel, SimulationLimitError
from .memsys import (
    MemorySystem,
    REGION_MAPPING,
    REGION_NODE,
    REGION_PRIMITIVE,
)
from .rtunit import RTUnit, RTUnitStats
from .scheduler import SCHEDULER_NAMES, scheduler_for
from .stats import SimStats, merge_cache_stats
from .timeline import TimelineSample, TimelineSampler
from .warp import RayState, RayTask, WarpSlot

__all__ = [
    "AccessOutcome",
    "Cache",
    "CacheStats",
    "Dram",
    "DramStats",
    "GpuModel",
    "MemorySystem",
    "REGION_MAPPING",
    "REGION_NODE",
    "REGION_PRIMITIVE",
    "RTUnit",
    "RTUnitStats",
    "RayState",
    "RayTask",
    "SCHEDULER_NAMES",
    "SimStats",
    "TimelineSample",
    "TimelineSampler",
    "SimulationLimitError",
    "WarpSlot",
    "merge_cache_stats",
    "scheduler_for",
]
