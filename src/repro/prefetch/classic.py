"""Classic hardware prefetchers (Section 2.3 background).

The paper argues stride, stream, and GHB prefetchers cannot capture BVH
pointer chasing.  These reference implementations back that argument in
our ablation experiment (``ablation_classic_prefetchers``): all three
run against the same RT-unit demand stream as the treelet prefetcher.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from .base import Prefetcher


class StridePrefetcher(Prefetcher):
    """Classic PC-local stride prefetcher [Chen & Baer; Fu et al.].

    We have no PCs in the trace model, so the locality key is the warp id
    — the closest analog of "the same instruction re-executed".  A stride
    observed twice in a row triggers a prefetch of the next address.
    """

    def __init__(self, line_bytes: int = 128, table_size: int = 64,
                 queue_limit: int = 256) -> None:
        super().__init__(queue_limit)
        if table_size < 1:
            raise ValueError("table must hold at least one entry")
        self.line_bytes = line_bytes
        self.table_size = table_size
        self._table: "Dict[int, List[int]]" = {}  # key -> [last, stride, conf]

    def on_demand_issue(self, warp_id: int, address: int, cycle: int) -> None:
        entry = self._table.get(warp_id)
        if entry is None:
            if len(self._table) >= self.table_size:
                self._table.pop(next(iter(self._table)))
            self._table[warp_id] = [address, 0, 0]
            return
        last, stride, confidence = entry
        new_stride = address - last
        if new_stride == stride and new_stride != 0:
            confidence += 1
        else:
            confidence = 0
        entry[0], entry[1], entry[2] = address, new_stride, confidence
        target = address + new_stride
        if confidence >= 1 and target >= 0:
            self.enqueue((target // self.line_bytes) * self.line_bytes)


class StreamPrefetcher(Prefetcher):
    """Next-N-lines stream prefetcher [Jouppi].

    On every demand access the following ``depth`` sequential lines are
    enqueued (deduplicated against a small recent-issue window).
    """

    def __init__(self, line_bytes: int = 128, depth: int = 2,
                 queue_limit: int = 256) -> None:
        super().__init__(queue_limit)
        if depth < 1:
            raise ValueError("stream depth must be positive")
        self.line_bytes = line_bytes
        self.depth = depth
        self._recent: Deque[int] = deque(maxlen=64)

    def on_demand_issue(self, warp_id: int, address: int, cycle: int) -> None:
        line = address // self.line_bytes
        for step in range(1, self.depth + 1):
            target = line + step
            if target not in self._recent and self.enqueue(
                target * self.line_bytes
            ):
                self._recent.append(target)


@dataclass
class _GhbEntry:
    address: int
    prev_index: Optional[int] = None  # previous occurrence of same key


class GhbPrefetcher(Prefetcher):
    """Global History Buffer prefetcher [Nesbit & Smith], G/AC flavor.

    Miss addresses enter a FIFO history buffer; an index table links each
    address to its previous occurrence.  On a repeat, the addresses that
    followed the previous occurrence are prefetched (temporal
    correlation).  Per Guo et al.'s GPU study, coverage on divergent
    traversal streams is poor.
    """

    def __init__(self, line_bytes: int = 128, history: int = 256,
                 width: int = 2, queue_limit: int = 256) -> None:
        super().__init__(queue_limit)
        if history < 2 or width < 1:
            raise ValueError("history >= 2 and width >= 1 required")
        self.line_bytes = line_bytes
        self.history_size = history
        self.width = width
        self._buffer: List[_GhbEntry] = []
        self._head = 0  # ring cursor
        self._index: Dict[int, int] = {}

    def on_demand_issue(self, warp_id: int, address: int, cycle: int) -> None:
        line = address // self.line_bytes
        prev = self._index.get(line)
        entry = _GhbEntry(address=line, prev_index=prev)
        if len(self._buffer) < self.history_size:
            self._buffer.append(entry)
            position = len(self._buffer) - 1
        else:
            position = self._head
            evicted = self._buffer[position]
            if self._index.get(evicted.address) == position:
                del self._index[evicted.address]
            self._buffer[position] = entry
            self._head = (self._head + 1) % self.history_size
        self._index[line] = position
        if prev is not None and prev < len(self._buffer):
            self._emit_followers(prev)

    def _emit_followers(self, position: int) -> None:
        self.stats.decisions += 1
        for step in range(1, self.width + 1):
            follower = position + step
            if follower >= len(self._buffer):
                break
            self.enqueue(self._buffer[follower].address * self.line_bytes)
