"""Binary BVH construction: binned SAH and median-split builders.

The paper's scenes use BVHs built by Intel Embree; Embree's default builder
is a binned surface-area-heuristic (SAH) top-down build.  We implement that
algorithm here, plus a cheaper median-split builder used by tests and by
very small scenes.  The binary tree produced here is then collapsed to a
6-wide BVH by :mod:`repro.bvh.wide`.

The build is level-synchronous: every open node of one tree level is
bounded, binned, costed and partitioned by one set of segmented numpy
calls (``reduceat`` for node bounds, ``bincount`` and ``minimum.at`` over
``node * bins + bin`` for the bins, ``accumulate``/``cumsum`` along the
bin axis for the sweep, and a stable ``argsort`` on ``(node, side)`` for
the partition), so the number of numpy calls grows with the tree's depth
rather than its node count.  Each node's split depends only on its own
primitives in their order, so the tree is the one a node-at-a-time
build makes, tie rules included: the first cheapest bin of an axis, a
lower axis on equal cost, axes of zero centroid extent skipped, then
the median split and, failing that, halving.

The input is a :class:`~repro.geometry.TriangleArrays` (a
:class:`~repro.geometry.Mesh` or a ``Triangle`` sequence is converted
once), and the output is a :class:`BinaryTree`: each level's node
bounds, leaf primitive ranges and left-child ids, appended as numpy
columns.  No per-node object exists at any point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..geometry import Mesh, TriangleArrays, triangles_to_arrays

#: Number of bins per axis for the SAH sweep (Embree uses 16-32).
SAH_BIN_COUNT = 16

#: SAH cost constants: traversal vs intersection cost ratio.
TRAVERSAL_COST = 1.0
INTERSECTION_COST = 1.5


@dataclass(frozen=True, eq=False)
class BinaryTree:
    """A binary BVH as columns, its nodes numbered level by level.

    The root is node 0, and each level's nodes follow the previous
    level's.  ``left[n]`` is node ``n``'s left child, whose right
    sibling is ``left[n] + 1``, or -1 at a leaf.  A leaf's primitive ids
    are ``prim_ids[prim_offsets[n]:prim_offsets[n] + prim_counts[n]]``
    (inner nodes count 0).
    """

    lo: np.ndarray  # [n, 3] float64 node bounds
    hi: np.ndarray  # [n, 3] float64
    left: np.ndarray  # [n] int64
    prim_offsets: np.ndarray  # [n] int64
    prim_counts: np.ndarray  # [n] int64
    prim_ids: np.ndarray  # [total_leaf_prims] int64

    def __len__(self) -> int:
        return len(self.left)


@dataclass(frozen=True)
class BuildConfig:
    """Knobs for the top-down build."""

    max_leaf_size: int = 4
    strategy: str = "sah"  # "sah" or "median"
    bin_count: int = SAH_BIN_COUNT

    def __post_init__(self) -> None:
        if self.max_leaf_size < 1:
            raise ValueError("max_leaf_size must be >= 1")
        if self.strategy not in ("sah", "median"):
            raise ValueError(f"unknown build strategy {self.strategy!r}")
        if self.bin_count < 2:
            raise ValueError("bin_count must be >= 2")


@dataclass
class _BuildArrays:
    """Column-oriented primitive data shared by every split."""

    prim_ids: np.ndarray  # (N,) int64 primitive ids
    lo: np.ndarray  # (N, 3) AABB minima
    hi: np.ndarray  # (N, 3) AABB maxima
    centroid: np.ndarray  # (N, 3)


def as_triangle_arrays(triangles) -> TriangleArrays:
    """``triangles`` as :class:`TriangleArrays`: a :class:`Mesh` gives
    its faces with sequential ids, and a ``Triangle`` sequence is
    converted once."""
    if isinstance(triangles, TriangleArrays):
        return triangles
    if isinstance(triangles, Mesh):
        return triangles.triangle_arrays()
    return triangles_to_arrays(triangles)


def build_binary_bvh(
    triangles, config: Optional[BuildConfig] = None
) -> BinaryTree:
    """Build a binary BVH over ``triangles`` (a :class:`TriangleArrays`,
    a :class:`Mesh` or a ``Triangle`` sequence).

    Triangle ``primitive_id`` values must be unique; leaves store them.
    An empty triangle list yields a single empty leaf.
    """
    config = config or BuildConfig()
    tris = as_triangle_arrays(triangles)
    n = len(tris)
    if n == 0:
        zero = np.zeros(1, dtype=np.int64)
        return BinaryTree(
            lo=np.full((1, 3), np.inf), hi=np.full((1, 3), -np.inf),
            left=zero - 1, prim_offsets=zero, prim_counts=zero,
            prim_ids=zero[:0],
        )
    verts = np.stack((tris.v0, tris.v1, tris.v2), axis=1)  # (N, 3, 3)
    arrays = _BuildArrays(
        prim_ids=tris.primitive_ids,
        lo=verts.min(axis=1),
        hi=verts.max(axis=1),
        centroid=verts.mean(axis=1),
    )
    if len(np.unique(arrays.prim_ids)) != n:
        raise ValueError("triangle primitive_ids must be unique")
    return _build_levels(arrays, config)


def _build_levels(arrays: _BuildArrays, config: BuildConfig) -> BinaryTree:
    """Top-down build, one tree level per iteration.

    ``order`` lists the primitive indices of every open node of the
    current level, node after node, and ``sizes`` gives each node's
    count.  Every node's result depends only on its own primitives (in
    their order), so building a level at a time yields the same tree
    as building one node at a time.  The ``k``-th inner node of a level
    splits into the next level's nodes ``2k`` and ``2k + 1``.
    """
    lo, hi, left, counts, prims = [], [], [], [], []
    order = np.arange(len(arrays.prim_ids))
    sizes = np.array([len(order)])
    level_end = 0  # one past the id of the level's last node
    while True:
        starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        lo.append(np.minimum.reduceat(arrays.lo[order], starts))
        hi.append(np.maximum.reduceat(arrays.hi[order], starts))
        leaf = sizes <= config.max_leaf_size
        in_leaf = np.repeat(leaf, sizes)
        prims.append(arrays.prim_ids[order[in_leaf]])
        counts.append(np.where(leaf, sizes, 0))
        inner = ~leaf
        level_end += len(sizes)
        level_left = np.full(len(sizes), -1, dtype=np.int64)
        level_left[inner] = level_end + 2 * np.arange(int(inner.sum()))
        left.append(level_left)
        if leaf.all():
            break
        order = order[~in_leaf]
        sizes = sizes[inner]
        order, left_sizes = _split_level(arrays, order, sizes, config)
        sizes = np.stack((left_sizes, sizes - left_sizes), axis=1).ravel()
    prim_counts = np.concatenate(counts).astype(np.int64)
    return BinaryTree(
        lo=np.concatenate(lo),
        hi=np.concatenate(hi),
        left=np.concatenate(left),
        prim_offsets=np.cumsum(prim_counts) - prim_counts,
        prim_counts=prim_counts,
        prim_ids=np.concatenate(prims).astype(np.int64),
    )


def _split_level(
    arrays: _BuildArrays,
    order: np.ndarray,
    sizes: np.ndarray,
    config: BuildConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split every open node of a level in two.

    Returns the level's primitive order regrouped so each node's left
    child's primitives come before its right child's, and the left
    children's sizes.  Nodes that the SAH cannot split (and every node
    under ``strategy="median"``) take the median split; when that fails
    too, the node is halved so the build always terminates.
    """
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    segment = np.repeat(np.arange(len(sizes)), sizes)
    if config.strategy == "sah":
        axis, split_bin, bins = _sah_level(
            arrays, order, segment, starts, config.bin_count
        )
        chosen = bins[axis[segment], np.arange(len(order))]
        right = (chosen > split_bin[segment]) & (axis[segment] >= 0)
        # A finite SAH cost has primitives on both sides, so the SAH
        # partition never leaves a child empty.
        left_sizes = np.bincount(segment[~right], minlength=len(sizes))
        order = order[np.argsort(segment * 2 + right, kind="stable")]
        fallback = np.flatnonzero(axis < 0).tolist()
    else:
        left_sizes = np.zeros(len(sizes), dtype=np.int64)
        fallback = range(len(sizes))
    for node in fallback:
        start, stop = int(starts[node]), int(starts[node] + sizes[node])
        indices = order[start:stop]
        halves = _median_split(arrays, indices)
        if halves is None:
            # Degenerate spatial distribution: halve arbitrarily.
            mid = len(indices) // 2
            halves = (indices[:mid], indices[mid:])
        order[start:stop] = np.concatenate(halves)
        left_sizes[node] = len(halves[0])
    return order, left_sizes


def _median_split(
    arrays: _BuildArrays, indices: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Split at the median centroid along the longest centroid axis."""
    centroids = arrays.centroid[indices]
    extent = centroids.max(axis=0) - centroids.min(axis=0)
    axis = int(np.argmax(extent))
    if extent[axis] <= 0.0:
        return None
    order = np.argsort(centroids[:, axis], kind="stable")
    mid = len(indices) // 2
    return indices[order[:mid]], indices[order[mid:]]


def _sah_level(
    arrays: _BuildArrays,
    order: np.ndarray,
    segment: np.ndarray,
    starts: np.ndarray,
    n_bins: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binned SAH over every node of a level at once.

    Per node, each axis with nonzero centroid extent is cut into
    ``n_bins`` bins, and the plane after bin ``i`` costs
    ``A_L*N_L + A_R*N_R`` (half surface areas times primitive counts).
    The cheapest plane of an axis is its first minimum; a later axis
    replaces it only when strictly cheaper.  Returns per node the best
    axis (-1 when no plane has a finite cost) and bin, plus every
    primitive's bin along each axis, shape ``(3, len(order))``.
    """
    n_nodes = len(starts)
    centroids = arrays.centroid[order]
    # Bin bounds accumulate one coordinate at a time: ``ufunc.at`` on a
    # contiguous 1-D target is several times faster than on rows.
    prim_lo = arrays.lo[order].T.copy()
    prim_hi = arrays.hi[order].T.copy()
    lo_bound = np.minimum.reduceat(centroids, starts)
    extent = np.maximum.reduceat(centroids, starts) - lo_bound
    best_cost = np.full(n_nodes, np.inf)
    best_axis = np.full(n_nodes, -1)
    best_bin = np.zeros(n_nodes, dtype=np.int64)
    bins = np.empty((3, len(order)), dtype=np.int64)
    rows = np.arange(n_nodes)
    for axis in range(3):
        live = extent[:, axis] > 0.0
        scale = n_bins / np.where(live, extent[:, axis], 1.0)
        bins[axis] = np.minimum(
            ((centroids[:, axis] - lo_bound[segment, axis]) * scale[segment])
            .astype(np.int64),
            n_bins - 1,
        )
        key = segment * n_bins + bins[axis]
        counts = np.bincount(key, minlength=n_nodes * n_bins)
        counts = counts.reshape(n_nodes, n_bins)
        bin_lo = np.full((3, n_nodes * n_bins), np.inf)
        bin_hi = np.full((3, n_nodes * n_bins), -np.inf)
        for dim in range(3):
            np.minimum.at(bin_lo[dim], key, prim_lo[dim])
            np.maximum.at(bin_hi[dim], key, prim_hi[dim])
        bin_lo = bin_lo.reshape(3, n_nodes, n_bins)
        bin_hi = bin_hi.reshape(3, n_nodes, n_bins)
        # Extents of the running boxes from the left (index 0) and from
        # the right (index 1), then their half surface areas; empty
        # running boxes have -inf extents and count as zero area.
        ext = np.stack((
            np.maximum.accumulate(bin_hi, axis=2)
            - np.minimum.accumulate(bin_lo, axis=2),
            np.maximum.accumulate(bin_hi[..., ::-1], axis=2)[..., ::-1]
            - np.minimum.accumulate(bin_lo[..., ::-1], axis=2)[..., ::-1],
        ))
        ext = np.where(np.isfinite(ext) & (ext > 0.0), ext, 0.0)
        area = (
            ext[:, 0] * ext[:, 1]
            + ext[:, 1] * ext[:, 2]
            + ext[:, 2] * ext[:, 0]
        )
        left_count = np.cumsum(counts, axis=1)
        right_count = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
        cost = (
            area[0, :, :-1] * left_count[:, :-1]
            + area[1, :, 1:] * right_count[:, 1:]
        )
        cost[(left_count[:, :-1] == 0) | (right_count[:, 1:] == 0)] = np.inf
        split_bin = np.argmin(cost, axis=1)
        axis_cost = cost[rows, split_bin]
        # Infinite costs never pass the strict test, so an axis only
        # wins with a finite cost, and a tie keeps the lower axis.
        better = live & (axis_cost < best_cost)
        best_cost[better] = axis_cost[better]
        best_axis[better] = axis
        best_bin[better] = split_bin[better]
    return best_axis, best_bin, bins
