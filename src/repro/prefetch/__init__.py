"""Prefetchers: the treelet prefetcher, its voter, and baselines."""

from .adaptive import AdaptiveConfig, AdaptiveThrottle
from .addresses import TreeletAddressMap
from .base import Prefetcher, PrefetcherStats, PrefetchRequest
from .classic import GhbPrefetcher, StridePrefetcher, StreamPrefetcher
from .effectiveness import EffectivenessCounts, PrefetchEffectivenessTracker
from .heuristics import HEURISTIC_KINDS, PrefetchHeuristic
from .mta import MtaPrefetcher
from .treelet_prefetcher import DEFAULT_QUEUE_LIMIT, TreeletPrefetcher
from .voter import (
    MajorityVoter,
    SEQUENTIAL_AREA_UM2,
    VoterStats,
    VoteTally,
    first_level_table_bytes,
    second_level_table_bytes,
    voter_latency_for_copies,
    voter_storage_bytes,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptiveThrottle",
    "DEFAULT_QUEUE_LIMIT",
    "EffectivenessCounts",
    "GhbPrefetcher",
    "HEURISTIC_KINDS",
    "MajorityVoter",
    "MtaPrefetcher",
    "Prefetcher",
    "PrefetcherStats",
    "PrefetchEffectivenessTracker",
    "PrefetchHeuristic",
    "PrefetchRequest",
    "SEQUENTIAL_AREA_UM2",
    "StridePrefetcher",
    "StreamPrefetcher",
    "TreeletAddressMap",
    "TreeletPrefetcher",
    "VoterStats",
    "VoteTally",
    "first_level_table_bytes",
    "second_level_table_bytes",
    "voter_latency_for_copies",
    "voter_storage_bytes",
]
