"""Prefetcher interface shared by the treelet prefetcher and baselines.

The base class owns the one prefetch queue every prefetcher uses: a
bounded FIFO of :class:`PrefetchRequest` entries, each with the cycle
it may issue from, plus the enqueue/issue/drop counts.  Subclasses fill
it through :meth:`Prefetcher.enqueue`; the RT unit drains it.

The replay engine drives a prefetcher through five hooks:

* :meth:`on_cycle` — decision logic, called in a unit step only when
  the step's cycle has reached :attr:`decision_cycle` and the unit's
  vote version differs from :attr:`decided_version` (a step where the
  hook could not act skips the call);
* :meth:`on_demand_issue` — whenever a demand load is issued (history
  based prefetchers such as stride/stream/MTA learn from this);
* :meth:`on_feedback` — in every step, for an adaptive prefetcher;
* :meth:`pop_prefetch` — when the memory scheduler has a free port and
  the queue head is released, the RT unit pops it and issues it to L1;
* :meth:`queue_depth` — entries waiting (the timeline sampler reads it).

The unit resolves :meth:`on_cycle`, :meth:`on_demand_issue` and
:meth:`on_feedback` once, and never calls one the subclass does not
override.  It also computes when a unit with nothing to issue must
still be stepped for the prefetcher's sake from the prefetcher's state:
the queue head's release cycle, the decision gate
(:attr:`decision_cycle`, :attr:`decided_version`,
:attr:`strict_outstanding`) and an adaptive throttle's next epoch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional


@dataclass
class PrefetchRequest:
    """One queued prefetch: a line-aligned address plus bookkeeping."""

    address: int
    region: str = "node"
    #: invoked when the prefetch's data arrives (Strict Wait uses this).
    on_complete: Optional[Callable[[int], None]] = None
    #: earliest cycle this entry may issue (the voter-latency gate is
    #: per entry: a later decision must not re-delay earlier entries).
    release_cycle: int = 0


@dataclass
class PrefetcherStats:
    decisions: int = 0
    treelets_prefetched: int = 0
    requests_enqueued: int = 0
    requests_issued: int = 0
    requests_dropped: int = 0  # queue overflow


class Prefetcher:
    """Base class: a no-op prefetcher (the baseline RT unit), and the
    prefetch queue its subclasses share."""

    def __init__(self, queue_limit: int = 256) -> None:
        if queue_limit < 1:
            raise ValueError("queue limit must be positive")
        self.stats = PrefetcherStats()
        self.queue_limit = queue_limit
        #: queued prefetches, oldest first.  The RT unit holds this
        #: deque, so it is never replaced.
        self.queue: Deque[PrefetchRequest] = deque()
        #: the treelet the schedulers should favor; None when undefined.
        self.last_prefetched_treelet: Optional[int] = None
        #: the earliest cycle :meth:`on_cycle` can act in ...
        self.decision_cycle = 0
        #: ... and the vote version it last acted on: the RT unit calls
        #: it only when its own version differs (it is never negative).
        self.decided_version = -2
        #: table loads :meth:`on_cycle` waits for before it decides again
        #: (the treelet prefetcher's Strict Wait); the unit does not
        #: wake for a decision while any is outstanding.
        self.strict_outstanding = 0
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None
        #: trace track name (the observer stamps in the SM id).
        self.obs_track = "Prefetcher"

    def enqueue(
        self,
        address: int,
        region: str = "node",
        release: int = 0,
        on_complete: Optional[Callable[[int], None]] = None,
    ) -> bool:
        """Queue one line prefetch, issuable from cycle ``release``;
        a full queue drops it (counted) and returns False."""
        if len(self.queue) >= self.queue_limit:
            self.stats.requests_dropped += 1
            return False
        self.queue.append(PrefetchRequest(address, region, on_complete, release))
        self.stats.requests_enqueued += 1
        return True

    def on_cycle(self, cycle: int, warps, version: int = -1) -> None:
        """Observe the warp buffer; may enqueue prefetches.

        ``version`` is a monotonically increasing counter the RT unit
        bumps whenever warp-buffer vote state changes; implementations
        may skip recomputation when it has not moved.
        """

    def on_demand_issue(self, warp_id: int, address: int, cycle: int) -> None:
        """Observe a demand load issued by the memory scheduler."""

    def on_feedback(self, cycle: int, counts) -> None:
        """Observe the SM's cumulative prefetch-effectiveness counters.

        Called in every unit step for a prefetcher with an ``adaptive``
        throttle, which uses it to tune its throttling (Section 7.1's
        suggestion).
        """

    def pop_prefetch(self, cycle: int) -> Optional[PrefetchRequest]:
        """The queue head if it is released by ``cycle``, else None."""
        queue = self.queue
        if not queue or cycle < queue[0].release_cycle:
            return None
        self.stats.requests_issued += 1
        return queue.popleft()

    def queue_depth(self) -> int:
        """Entries waiting to issue."""
        return len(self.queue)
