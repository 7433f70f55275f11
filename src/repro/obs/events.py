"""Typed trace events published on the :class:`~repro.obs.bus.TraceBus`.

Every instrumented component (RT units, caches, the memory system, DRAM,
the prefetcher and its voter) publishes events of a fixed, documented
taxonomy.  An event is a lightweight immutable record: its *kind* (one
of the ``EV_*`` constants below), the cycle it happened at, the *track*
it belongs to (one timeline row per SM, RT unit, cache, or DRAM
partition in the Perfetto export), an optional duration for span-shaped
events, and a small ``args`` dict of kind-specific payload.

The taxonomy (see ``docs/observability.md`` for the full field tables):

========================  =====  ====================================
kind                      shape  emitted by
========================  =====  ====================================
``warp.issue``            point  RT unit, warp admitted to the buffer
``warp.retire``           span   RT unit, warp lifetime on retire
``rtunit.stall``          span   RT unit / engine-skipped stretches
``cache.access``          point  every cache probe (L1/L2/stream)
``mshr.merge``            point  probe that merged into an MSHR
``dram.service``          span   DRAM partition bus occupancy
``demand.complete``       point  memory system, demand response
``prefetch.issue``        point  RT unit, prefetch sent to memory
``prefetch.fill``         point  memory system, prefetch-owned fill
``prefetch.first_hit``    point  cache, first demand hit on a
                                 prefetched line
``prefetch.decision``     point  treelet prefetcher, voter decision
``voter.decide``          point  majority voter, winner + agreement
========================  =====  ====================================
"""

from __future__ import annotations

from typing import NamedTuple, Optional

# -- event kinds ------------------------------------------------------------

EV_WARP_ISSUE = "warp.issue"
EV_WARP_RETIRE = "warp.retire"
EV_RTUNIT_STALL = "rtunit.stall"
EV_CACHE_ACCESS = "cache.access"
EV_MSHR_MERGE = "mshr.merge"
EV_DRAM_SERVICE = "dram.service"
EV_DEMAND_COMPLETE = "demand.complete"
EV_PREFETCH_ISSUE = "prefetch.issue"
EV_PREFETCH_FILL = "prefetch.fill"
EV_PREFETCH_FIRST_HIT = "prefetch.first_hit"
EV_PREFETCH_DECISION = "prefetch.decision"
EV_VOTER_DECIDE = "voter.decide"

#: Every kind a conforming component may emit.
ALL_EVENT_KINDS = (
    EV_WARP_ISSUE,
    EV_WARP_RETIRE,
    EV_RTUNIT_STALL,
    EV_CACHE_ACCESS,
    EV_MSHR_MERGE,
    EV_DRAM_SERVICE,
    EV_DEMAND_COMPLETE,
    EV_PREFETCH_ISSUE,
    EV_PREFETCH_FILL,
    EV_PREFETCH_FIRST_HIT,
    EV_PREFETCH_DECISION,
    EV_VOTER_DECIDE,
)


class TraceEvent(NamedTuple):
    """One published event (immutable, cheap to create)."""

    kind: str
    cycle: int
    track: str
    dur: Optional[int]
    args: Optional[dict]
