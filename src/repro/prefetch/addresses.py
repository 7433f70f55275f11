"""Treelet -> prefetch address resolution.

With the repacked layout a treelet's nodes are contiguous, so the
prefetcher derives the line burst straight from the treelet root address
(upper address bits).  With an unmodified BVH layout the node addresses
are scattered and must be looked up through the mapping table, whose own
entries cost loads (Section 4.4 / Figure 14).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bvh import NodeLayout
from ..treelet import MappingTable, TreeletDecomposition


class TreeletAddressMap:
    """Resolves treelets to the line addresses a prefetch must fetch."""

    def __init__(
        self,
        decomposition: TreeletDecomposition,
        layout: NodeLayout,
        line_bytes: int,
        mapping_table: Optional[MappingTable] = None,
    ) -> None:
        if line_bytes <= 0:
            raise ValueError("line size must be positive")
        self.line_bytes = line_bytes
        self.mapping_table = mapping_table
        # Every treelet's member lines in formation order, as Python
        # ints: a treelet is its CSR slice of them.
        self._offsets = decomposition.offsets.tolist()
        self._member_lines = (
            layout.node_address[decomposition.members] // line_bytes
        ).tolist()
        self._line_cache: Dict[Tuple[int, int], List[int]] = {}
        self._mapping_cache: Dict[int, List[int]] = {}

    def prefetch_lines(self, treelet_id: int, fraction: float = 1.0) -> List[int]:
        """Line-aligned addresses covering the first ``fraction`` of the
        treelet's nodes (node order = formation order, upper levels first).
        """
        if not 0.0 < fraction <= 1.0:
            if fraction == 0.0:
                return []
            raise ValueError("fraction must be in [0, 1]")
        start, end = self._offsets[treelet_id : treelet_id + 2]
        count = max(1, round(fraction * (end - start)))
        key = (treelet_id, count)
        cached = self._line_cache.get(key)
        if cached is not None:
            return cached
        lines = self._line_addresses(
            self._member_lines[start : start + count]
        )
        self._line_cache[key] = lines
        return lines

    def _line_addresses(self, lines: List[int]) -> List[int]:
        """The distinct ``lines``, in first-seen order, as addresses."""
        line_bytes = self.line_bytes
        return [line * line_bytes for line in dict.fromkeys(lines)]

    def mapping_lines(self, treelet_id: int) -> List[int]:
        """Mapping-table line addresses needed to resolve one treelet."""
        if self.mapping_table is None:
            return []
        cached = self._mapping_cache.get(treelet_id)
        if cached is not None:
            return cached
        line_bytes = self.line_bytes
        lines = self._line_addresses([
            address // line_bytes for address in
            self.mapping_table.table_load_addresses(treelet_id)
        ])
        self._mapping_cache[treelet_id] = lines
        return lines
