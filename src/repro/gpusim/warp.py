"""Per-ray and per-warp state inside the RT unit's warp buffer.

A :class:`RayTask` replays one ray's traversal trace: fetch the next
node, run the box/primitive tests, advance.  Successive node fetches are
*dependent* (pointer chasing) — visit ``i+1`` cannot issue until visit
``i`` has been fetched and tested — which is exactly the serialization
treelet prefetching attacks.

A :class:`WarpSlot` groups up to 32 ray tasks and maintains the treelet
occupancy counters the pseudo voter and the treelet schedulers read.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bvh import FlatBVH, NodeLayout, PRIMITIVE_SIZE_BYTES
from ..bvh.soa import runs


class RayState(Enum):
    FETCH_READY = "fetch_ready"  # next node load can issue
    WAIT_NODE = "wait_node"  # node load outstanding
    PRIM_READY = "prim_ready"  # leaf primitive loads can issue
    WAIT_PRIM = "wait_prim"  # primitive loads outstanding
    TESTING = "testing"  # op units busy on this ray
    DONE = "done"


def visit_prims(
    node_ids: Sequence[int], bvh: FlatBVH, layout: NodeLayout, line_bytes: int
) -> List[Optional[Tuple[int, ...]]]:
    """Per visit, the distinct line addresses of the visited leaf's
    triangles, or ``None`` for a visit that fetches no primitives.

    Memoized on the tree per primitive-region base and line size (the
    only layout facts the lines depend on), so every replay of a
    memoized tree reuses them, and filled for the nodes these visits
    reach only: every revisit shares one tuple.
    """
    memo = bvh.__dict__.setdefault("_prim_lines", {}).setdefault(
        (layout.primitive_base, line_bytes), {}
    )
    try:
        return [memo[node_id] for node_id in node_ids]
    except KeyError:
        pass
    # Every missing leaf's primitives, then each primitive's run of
    # lines, in one numpy pass; ``dict.fromkeys`` deduplicates a leaf's
    # lines, preserving order.  Other nodes fetch no primitives.
    missing = set(node_ids).difference(memo)
    memo.update(dict.fromkeys(missing))
    arrays = bvh.arrays
    nodes = np.fromiter(missing, np.int64, len(missing))
    leaves = nodes[arrays.prim_counts[nodes] > 0]
    counts, prim = arrays.leaf_primitives(leaves)
    address = layout.primitive_base + prim * PRIMITIVE_SIZE_BYTES
    first = address // line_bytes
    spans = (address + PRIMITIVE_SIZE_BYTES - 1) // line_bytes - first + 1
    lines = (runs(first, spans) * line_bytes).tolist()
    bounds = np.concatenate(([0], np.cumsum(spans)))[np.cumsum(counts)]
    start = 0
    for node_id, end in zip(leaves.tolist(), bounds.tolist()):
        memo[node_id] = tuple(dict.fromkeys(lines[start:end]))
        start = end
    return [memo[node_id] for node_id in node_ids]


def next_treelets(treelets: np.ndarray, starts: np.ndarray) -> List[int]:
    """Per visit, the next *different* treelet its ray will enter (-1 if
    none), over rays laid end to end: ``treelets`` holds their per-visit
    treelet ids and ``starts`` the index of each ray's first visit."""
    n = len(treelets)
    if not n:
        return []
    change = np.empty(n, dtype=bool)
    change[0] = False
    np.not_equal(treelets[1:], treelets[:-1], out=change[1:])
    change[starts] = False  # a ray's first visit enters no treelet
    # The first change strictly after each visit, and its ray's end.
    after = np.where(change, np.arange(n), n)
    after = np.append(np.minimum.accumulate(after[::-1])[::-1][1:], n)
    ends = np.append(starts[1:], n)
    end = np.repeat(ends, ends - starts)
    inside = after < end
    return np.where(inside, treelets[np.where(inside, after, 0)], -1).tolist()


# The members again as plain globals, in definition order: an enum
# member lookup costs about ten global reads on CPython 3.11, and the
# replay engine tests ray states on every issue, response and test.
FETCH_READY, WAIT_NODE, PRIM_READY, WAIT_PRIM, TESTING, DONE = RayState


class RayTask:
    """One ray's traversal replay state.

    The per-visit addresses, treelets, lookahead treelets and primitive
    lines are structure-of-arrays columns shared by every ray of a
    batch: ``GpuModel.load`` gathers them for a whole trace set in one
    pass, and a ray holds the columns plus its ``[start, end)`` slice
    of them.  ``cursor`` is the batch index of the visit the ray is on,
    so the hot paths in the RT unit index the columns directly.

    A ``__slots__`` class (not a dataclass): the replay engine reads
    ``state``/``cursor``/the columns on every issue, response, and test
    completion, so the slot layout is a measurable win.
    """

    __slots__ = (
        "start",
        "end",
        "cursor",
        "state",
        "prim_lines_pending",
        "prim_lines_outstanding",
        "slot_index",
        "addresses",
        "treelets",
        "lookahead",
        "prims",
    )

    def __init__(
        self,
        addresses: List[int],
        treelets: List[int],
        lookahead: List[int],
        prims: List[Optional[Tuple[int, ...]]],
        start: int = 0,
        end: Optional[int] = None,
    ) -> None:
        if end is None:
            end = len(addresses)
        #: the ray's visits are ``[start, end)`` of the columns.
        self.start = start
        self.end = end
        self.cursor = start
        self.state = FETCH_READY if start < end else DONE
        #: distinct lines still to issue for the current leaf's triangles
        #: (the shared empty tuple until the ray reaches a leaf).
        self.prim_lines_pending = ()
        self.prim_lines_outstanding = 0
        #: position within the owning warp (set by WarpSlot); the batched
        #: issue path uses it to keep the warp's ready-ray bitmask current.
        self.slot_index = 0
        #: byte address of each visit's node.
        self.addresses = addresses
        #: treelet id of each visit's node (-1 = no treelet).
        self.treelets = treelets
        #: per visit, the next *different* treelet the ray will enter (-1
        #: if none).  Hardware knows this from the top of the ray's
        #: otherTreeletStack; the trace model recovers it by scanning the
        #: visit sequence.  The majority voter votes on this lookahead so
        #: prefetches lead demand by one treelet transit.
        self.lookahead = lookahead
        #: per visit, the line addresses of a leaf's triangles, or None.
        self.prims = prims

    @property
    def n_visits(self) -> int:
        return self.end - self.start

    @property
    def done(self) -> bool:
        return self.state is DONE


class WarpSlot:
    """One warp-buffer entry: up to ``warp_size`` ray tasks plus counters.

    ``alive_treelet_counts`` counts, per treelet, unfinished rays whose
    *lookahead* (next different) treelet is that treelet — the pseudo
    voter's first-level input.  ``ready_treelet_counts`` counts
    issue-ready rays by the treelet of their *current* fetch target —
    the treelet schedulers' input (those rays benefit from the
    prefetched treelet right now); a treelet's count may rest at zero.

    Each is kept only for its readers: ``count_votes=False`` (an RT unit
    whose voter reads only the unit's merged tally, or that has no
    voter) leaves ``alive_treelet_counts`` None, and
    ``count_ready=False`` (the baseline scheduler) leaves
    ``ready_treelet_counts`` None.  ``tally`` is the unit's
    :class:`~repro.prefetch.voter.VoteTally`, which the slot's rays'
    initial votes are added to; the unit keeps it current afterwards.
    """

    def __init__(
        self,
        warp_id: int,
        rays: List[RayTask],
        entry_cycle: int,
        tally=None,
        count_votes: bool = True,
        count_ready: bool = True,
    ) -> None:
        self.warp_id = warp_id
        self.rays = rays
        self.entry_cycle = entry_cycle
        alive = defaultdict(int) if count_votes else None
        ready_treelets = defaultdict(int) if count_ready else None
        self.alive_treelet_counts: Optional[Dict[int, int]] = alive
        self.ready_treelet_counts: Optional[Dict[int, int]] = ready_treelets
        self.ready_count = 0
        self.done_count = 0
        #: bitmask over ``rays`` of issue-ready rays (FETCH_READY or
        #: PRIM_READY) — always ``ready_count`` bits set.  The batched
        #: issue path iterates set bits instead of scanning the list.
        self.ready_mask = 0
        for index, ray in enumerate(rays):
            ray.slot_index = index
            state = ray.state
            if state is DONE:
                self.done_count += 1
                continue
            cursor = ray.cursor
            vote = ray.lookahead[cursor]
            if vote != -1:
                if alive is not None:
                    alive[vote] += 1
                if tally is not None:
                    tally.add(vote)
            if state is FETCH_READY:
                self.ready_count += 1
                self.ready_mask |= 1 << index
                if ready_treelets is not None:
                    ready_treelets[ray.treelets[cursor]] += 1

    @property
    def done(self) -> bool:
        return self.done_count >= len(self.rays)

    def trace_args(self) -> Dict[str, int]:
        """Event payload for this warp's trace events (repro.obs)."""
        return {
            "warp_id": self.warp_id,
            "rays": len(self.rays),
            "done": self.done_count,
            "entry_cycle": self.entry_cycle,
        }

    # -- counter maintenance (called by the RT unit on transitions) ------

    def note_vote_change(self, old: int, new: int) -> None:
        """A ray's lookahead treelet moved from ``old`` to ``new`` (``-1``:
        no vote, as for a finished ray)."""
        if old != -1:
            self._dec(self.alive_treelet_counts, old)
        if new != -1:
            self.alive_treelet_counts[new] += 1

    @staticmethod
    def _dec(counts: Dict[int, int], key: int) -> None:
        counts[key] -= 1
        if counts[key] <= 0:
            del counts[key]

    def winner_treelet(self) -> Optional[int]:
        """This warp's most common next-treelet (the level-1 voter)."""
        if not self.alive_treelet_counts:
            return None
        # Deterministic tie-break: highest count, then lowest treelet id.
        return min(
            self.alive_treelet_counts,
            key=lambda t: (-self.alive_treelet_counts[t], t),
        )
