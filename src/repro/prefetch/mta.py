"""Many-Thread-Aware (MTA) stride/stream prefetcher — Lee et al. [24].

The Figure 8 comparator.  Per the paper's methodology it is implemented
*optimistically* with unbounded tables: per-warp stride detection over
the demand-address stream, issuing inter-thread prefetches (next one or
two strides ahead) once a stride repeats.  On BVH pointer chasing the
detected strides are noise, so almost nothing it fetches is useful —
that is the point of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .base import Prefetcher


@dataclass
class _WarpHistory:
    last_address: Optional[int] = None
    last_stride: Optional[int] = None
    confirmations: int = 0


class MtaPrefetcher(Prefetcher):
    """Per-warp stride detector with inter-thread prefetch distance."""

    def __init__(
        self,
        line_bytes: int = 128,
        degree: int = 2,
        confirm: int = 1,
        queue_limit: int = 256,
    ) -> None:
        super().__init__(queue_limit)
        if degree < 1 or confirm < 1 or line_bytes <= 0:
            raise ValueError("degree, confirm, and line size must be positive")
        self.line_bytes = line_bytes
        self.degree = degree
        self.confirm = confirm
        self._history: Dict[int, _WarpHistory] = {}  # unbounded table

    def on_demand_issue(self, warp_id: int, address: int, cycle: int) -> None:
        history = self._history.get(warp_id)
        if history is None:
            history = self._history[warp_id] = _WarpHistory()
        if history.last_address is not None:
            stride = address - history.last_address
            if stride != 0 and stride == history.last_stride:
                history.confirmations += 1
                if history.confirmations >= self.confirm:
                    self._emit(address, stride)
            else:
                history.confirmations = 0
            history.last_stride = stride
        history.last_address = address

    def _emit(self, address: int, stride: int) -> None:
        self.stats.decisions += 1
        for step in range(1, self.degree + 1):
            target = address + stride * step
            if target < 0:
                continue
            self.enqueue((target // self.line_bytes) * self.line_bytes)
