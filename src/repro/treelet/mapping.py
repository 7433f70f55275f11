"""Node-to-treelet mapping table (the Section 4.4 alternative to repacking).

When the BVH keeps its original (depth-first) layout, node addresses carry
no treelet information, so the prefetcher must consult an in-memory table
that maps node ids to treelet ids and member addresses.  The table costs
4 bytes per BVH node — roughly 1/16th of the tree, as the paper notes —
and every prefetch decision requires a table load before the treelet's
node addresses are known.

Two scheduling extremes from Section 5 are modeled by the timing side:

* **Loose Wait** — the table load is just prepended to the prefetch queue
  (best case: metadata could have been loaded in advance).
* **Strict Wait** — treelet prefetches may only enter the queue after the
  table load returns (worst case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..bvh import FlatBVH
from ..bvh.layout import NodeLayout
from .formation import TreeletDecomposition

#: Bytes of mapping-table storage per BVH node (Section 6.4).
MAPPING_ENTRY_BYTES = 4


@dataclass
class MappingTable:
    """In-memory node-id → treelet-id table with its own address range."""

    decomposition: TreeletDecomposition
    base_address: int

    @property
    def entry_count(self) -> int:
        return len(self.decomposition.bvh)

    @property
    def size_bytes(self) -> int:
        return self.entry_count * MAPPING_ENTRY_BYTES

    def entry_address(self, node_id: int) -> int:
        if not 0 <= node_id < self.entry_count:
            raise IndexError(f"node id {node_id} out of range")
        return self.base_address + node_id * MAPPING_ENTRY_BYTES

    def lookup(self, node_id: int) -> int:
        """Functional view of the table: the treelet id for ``node_id``."""
        return self.decomposition.treelet_of(node_id)

    def table_load_addresses(self, treelet_id: int) -> List[int]:
        """Addresses the prefetcher must load to resolve one treelet.

        Resolving a treelet means reading the entries of its member nodes
        to learn their (scattered) addresses; the entries of one treelet's
        members are themselves scattered in the table, so this can span
        multiple lines.
        """
        dec = self.decomposition
        start, end = dec.offsets[treelet_id : treelet_id + 2].tolist()
        return [self.entry_address(node_id)
                for node_id in dec.members[start:end].tolist()]


def build_mapping_table(
    decomposition: TreeletDecomposition, layout: NodeLayout
) -> MappingTable:
    """Place the mapping table directly after the primitive region."""
    bvh: FlatBVH = decomposition.bvh
    table_base = layout.primitive_base + bvh.primitive_bytes()
    # Align to the table entry granularity's cache friendliness (64B).
    table_base = (table_base + 63) // 64 * 64
    return MappingTable(decomposition=decomposition, base_address=table_base)
