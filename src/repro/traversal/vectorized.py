"""Vectorized ray traversal: one lane pool fed from a ray stream.

The scalar traversal modules (:mod:`.dfs`, :mod:`.two_stack`) run one
pure-Python slab or Möller–Trumbore test at a time; generating the
traces the timing model replays dominates experiment wall-clock long
before the cycle model starts.  This module amortizes that cost over a
*lane pool*: the BVH's columns (:mod:`repro.bvh.soa`) plus two batched
kernels — :func:`ray_aabb_test_batch` and
:func:`ray_triangle_test_batch` — and a driver that advances every live
lane by one node visit per iteration, folding all of the pool's box
tests (and, separately, all of its primitive tests) into one kernel
call each.  The pool has :data:`LANES` slots; when a slot's ray
finishes, the slot takes the next ray of the stream (ray-stream
tracing in the manner of Grauer et al.), so the lanes stay full until
the stream runs dry.  The driver writes the :class:`~.trace.TraceSet`
columns straight from its visit log.

**Bit-identical contract.**  The drivers are a drop-in replacement for
the scalar reference: same visit order, same box- and primitive-test
counts, same hits, bit-for-bit.  That holds because

* every lane runs the *same control flow* as its scalar counterpart —
  the pool only changes where the arithmetic happens, never the
  per-ray decision sequence;
* the kernels evaluate the *same IEEE double expressions in the same
  order* as the scalar tests (elementwise numpy float64 ops round
  exactly like Python floats; reductions that would reassociate sums,
  e.g. ``np.dot``, are deliberately avoided);
* the ``0 * inf`` slab edge case follows the fixed scalar semantics
  (see :func:`.intersect.ray_aabb_test`).

Unlike the scalar reference, the drivers leave their input rays as
they are: a ray's final interval is its trace's ``hit_t``.  The scalar
traversal stays as the reference the kernels are checked against: the
golden tests in ``tests/test_vectorized.py`` assert equality on every
library scene.  The pipeline builds every trace set through
:func:`traverse_forest_jobs`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..bvh import MAX_CHILDREN, FlatBVH
from ..core.memo import MEMO
from ..geometry import Ray, rays_to_arrays
from ..geometry.vec import EPSILON
from ..treelet import TreeletDecomposition
from .intersect import _TRI_EPSILON
from .trace import TraceSet
from .two_stack import DEFERRED_ORDERS

#: Lane slots the driver advances together.  A wide pool amortizes the
#: per-iteration numpy kernel-call overhead over thousands of box
#: tests; divergence costs little because a finished slot takes the
#: next ray of the stream instead of idling.
LANES = 1024


# ---------------------------------------------------------------------------
# Batched kernels.
# ---------------------------------------------------------------------------


def slab_buffers(rows: int) -> tuple:
    """Output buffers for :func:`ray_aabb_test_batch`, ``rows`` deep."""
    import numpy as np

    return (
        np.empty((rows, 6)),
        np.empty((rows, 3)),
        np.empty((rows, 3)),
        np.empty(rows),
        np.empty(rows),
        np.empty(rows, dtype=bool),
    )


def ray_aabb_test_batch(
    origin2, inv_direction2, t_min, t_max, lohi, out=None, check=True
):
    """Slab test for ``n`` independent (ray, box) rows at once.

    All six plane distances come from two ops: ``origin2`` and
    ``inv_direction2`` are ``[n, 6]`` with the ray's origin and inverse
    direction each written twice (``[o | o]``), ``lohi`` is ``[n, 6]``
    with the box as ``[lo | hi]``, and ``t_min``/``t_max`` are ``[n]``.
    Returns ``(hit, t_near, t_far)`` — a bool mask plus the clipped
    overlap — where every row matches :func:`.intersect.ray_aabb_test`
    on the same inputs bit-for-bit (``hit[i]`` False exactly when the
    scalar test returns ``None``).

    ``out`` is an optional :func:`slab_buffers` tuple at least ``n``
    rows deep; the results are then views into it, valid until its next
    use (above numpy's mmap threshold a fresh temporary per op costs
    page faults).  ``check=False`` skips the ``0 * inf`` and empty-box
    cases, which cannot arise when every box is finite and non-empty
    and every ray's data is finite.
    """
    import numpy as np

    n = len(lohi)
    t6, near3, far3, t_near, t_far, hit = (
        buf[:n] for buf in (out or slab_buffers(n))
    )
    miss = None
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        np.subtract(lohi, origin2, out=t6)
        np.multiply(t6, inv_direction2, out=t6)
        if check:
            nan = np.isnan(t6)
            if nan.any():
                # 0 * inf: parallel ray with its origin exactly on a
                # slab plane.  Fixed scalar semantics: inside the slab
                # the axis constrains nothing; outside it the row can
                # never hit.
                axis = nan[:, :3] | nan[:, 3:]
                o3 = origin2[:, :3]
                inside = (lohi[:, :3] <= o3) & (o3 <= lohi[:, 3:])
                miss = (axis & ~inside).any(axis=1)
                np.copyto(t6[:, :3], -np.inf, where=axis)
                np.copyto(t6[:, 3:], np.inf, where=axis)
            # Empty boxes (lo > hi on some axis) never hit, matching the
            # scalar test's AABB.is_empty() early-out.
            empty = (lohi[:, :3] > lohi[:, 3:]).any(axis=1)
            miss = empty if miss is None else miss | empty
        np.minimum(t6[:, :3], t6[:, 3:], out=near3)
        np.maximum(t6[:, :3], t6[:, 3:], out=far3)
        near3.max(axis=1, out=t_near)
        np.maximum(t_near, t_min, out=t_near)
        far3.min(axis=1, out=t_far)
        np.minimum(t_far, t_max, out=t_far)
        np.less_equal(t_near, t_far, out=hit)
        if miss is not None:
            hit &= ~miss
    return hit, t_near, t_far


def ray_triangle_test_batch(origin, direction, t_min, t_max, v0, edge1, edge2):
    """Möller–Trumbore for ``n`` independent (ray, triangle) rows.

    ``origin``/``direction``/``v0``/``edge1``/``edge2`` are ``[n, 3]``
    float64 arrays (edges precomputed as ``v1 - v0`` / ``v2 - v0``, the
    exact subtractions the scalar test performs); ``t_min``/``t_max``
    are ``[n]``.  Returns ``(hit, t, u, v)`` where ``hit[i]`` is True
    exactly when :func:`.intersect.ray_triangle_test` returns a hit for
    row ``i``, and ``t[i]`` then equals the scalar hit distance
    bit-for-bit.

    All dot products are written out as ``x*x + y*y + z*z`` (binary
    left-to-right adds) rather than ``np.dot`` so the summation order —
    and therefore the rounding — matches the scalar code.
    """
    import numpy as np

    ox, oy, oz = origin[:, 0], origin[:, 1], origin[:, 2]
    dx, dy, dz = direction[:, 0], direction[:, 1], direction[:, 2]
    e1x, e1y, e1z = edge1[:, 0], edge1[:, 1], edge1[:, 2]
    e2x, e2y, e2z = edge2[:, 0], edge2[:, 1], edge2[:, 2]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # pvec = cross(direction, edge2)
        px = dy * e2z - dz * e2y
        py = dz * e2x - dx * e2z
        pz = dx * e2y - dy * e2x
        det = e1x * px + e1y * py + e1z * pz
        hit = np.abs(det) >= _TRI_EPSILON
        # Masked rows get a placeholder determinant so the division
        # below cannot trap; their outputs are never read.
        inv_det = 1.0 / np.where(hit, det, 1.0)
        # tvec = origin - v0
        tx = ox - v0[:, 0]
        ty = oy - v0[:, 1]
        tz = oz - v0[:, 2]
        u = (tx * px + ty * py + tz * pz) * inv_det
        hit &= ~((u < 0.0) | (u > 1.0))
        # qvec = cross(tvec, edge1)
        qx = ty * e1z - tz * e1y
        qy = tz * e1x - tx * e1z
        qz = tx * e1y - ty * e1x
        v = (dx * qx + dy * qy + dz * qz) * inv_det
        hit &= ~((v < 0.0) | (u + v > 1.0))
        t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
        hit &= (t >= t_min) & (t <= t_max)
    return hit, t, u, v


# ---------------------------------------------------------------------------
# The lane-pool driver.
# ---------------------------------------------------------------------------


#: Attribute caching per-BVH traversal statics on the FlatBVH instance
#: (dropped from pickles by FlatBVH.__getstate__ like the SoA arrays).
_STATICS_ATTR = "_packet_statics"

#: Larger than any merged node id; pads invalid slots in the batched
#: nearest-policy deferred pop so a plain min resolves the tie-break.
_ID_SENTINEL = 1 << 62


class _PacketTrees:
    """Static traversal context for one tree — or a merged forest.

    The driver is tree-agnostic: it walks whatever node/triangle tables
    this object holds.  :func:`_packet_statics` builds one per BVH;
    :func:`_forest_statics` concatenates several BVHs into a single id
    space (node ``i`` of tree ``s`` becomes ``node_base[s] + i``) so
    the lane pool can mix rays from different scenes and amortize the
    fixed per-iteration dispatch cost across an entire sweep.
    """

    __slots__ = (
        "node_base",  # np.ndarray [num_trees] int64 (merged-id offsets)
        "child_base",  # np.ndarray [num_trees] int64 (CSR offsets)
        "local_ids",  # np.ndarray [num_nodes]: merged id -> tree-local id
        "tri_ids",  # np.ndarray [num_triangles]: position -> primitive id
        "stack_cap",
        "node_lohi",  # [num_nodes, 6]
        "tri_cat",  # [num_triangles, 9]
        "plain_boxes",  # every box finite and non-empty
        "is_leaf",
        "child_offsets",
        "child_counts",
        "child_ids",
        "prim_offsets",
        "prim_counts",
        "prim_ids",
    )


def _packet_statics(bvh: FlatBVH) -> _PacketTrees:
    """Per-BVH constants for the driver, read off the tree's columns.
    ``stack_cap`` bounds the traversal stack: a visit pops one entry
    and pushes at most ``MAX_CHILDREN``.
    """
    import numpy as np

    cached = getattr(bvh, _STATICS_ATTR, None)
    if cached is None:
        soa = bvh.arrays
        ctx = _PacketTrees()
        ctx.node_base = np.zeros(1, dtype=np.int64)
        ctx.child_base = np.zeros(1, dtype=np.int64)
        ctx.local_ids = np.arange(len(bvh), dtype=np.int64)
        ctx.tri_ids = soa.triangles.primitive_ids
        ctx.stack_cap = bvh.depth() * MAX_CHILDREN + 8
        # Fused gather targets: one fancy-index per kernel input group
        # instead of one per component array.
        ctx.node_lohi = np.concatenate([soa.node_lo, soa.node_hi], axis=1)
        tris = soa.triangles
        ctx.tri_cat = np.concatenate(
            [tris.v0, tris.edge1, tris.edge2], axis=1
        )
        # Ray inverse directions are capped (safe_inverse never returns
        # inf or 0), so with finite, non-empty boxes the slab kernel's
        # 0 * inf and empty-box checks are provably dead.
        ctx.plain_boxes = bool(np.isfinite(ctx.node_lohi).all()) and not (
            soa.node_lo > soa.node_hi
        ).any()
        ctx.is_leaf = soa.is_leaf
        ctx.child_offsets = soa.child_offsets
        ctx.child_counts = soa.child_counts
        ctx.child_ids = soa.child_ids
        ctx.prim_offsets = soa.prim_offsets
        ctx.prim_counts = soa.prim_counts
        ctx.prim_ids = soa.prim_ids
        cached = ctx
        setattr(bvh, _STATICS_ATTR, cached)
    return cached


def _forest_statics(bvhs: Tuple[FlatBVH, ...]) -> _PacketTrees:
    """One merged :class:`_PacketTrees` over several trees.

    Per-tree tables are concatenated with node ids shifted by
    ``node_base[s]`` and triangle ids by the cumulative triangle count,
    so one flat id space covers the whole forest.  ``local_ids`` maps
    a merged id back to its tree-local id, which is what traces
    contain.
    """
    import numpy as np

    parts = [_packet_statics(b) for b in bvhs]
    ctx = _PacketTrees()
    node_counts = [p.node_lohi.shape[0] for p in parts]
    child_counts_tot = [p.child_ids.size for p in parts]
    tri_counts = [p.tri_cat.shape[0] for p in parts]
    ctx.node_base = np.concatenate(
        [[0], np.cumsum(node_counts[:-1])]
    ).astype(np.int64)
    ctx.child_base = np.concatenate(
        [[0], np.cumsum(child_counts_tot[:-1])]
    ).astype(np.int64)
    tri_base = np.concatenate([[0], np.cumsum(tri_counts[:-1])])
    prim_base = np.concatenate(
        [[0], np.cumsum([p.prim_ids.size for p in parts][:-1])]
    )
    ctx.local_ids = np.concatenate([p.local_ids for p in parts])
    ctx.tri_ids = np.concatenate([p.tri_ids for p in parts])
    ctx.stack_cap = max(p.stack_cap for p in parts)
    ctx.node_lohi = np.concatenate([p.node_lohi for p in parts])
    ctx.tri_cat = np.concatenate([p.tri_cat for p in parts])
    ctx.plain_boxes = all(p.plain_boxes for p in parts)
    ctx.is_leaf = np.concatenate([p.is_leaf for p in parts])
    ctx.child_offsets = np.concatenate(
        [p.child_offsets + cb for p, cb in zip(parts, ctx.child_base)]
    )
    ctx.child_counts = np.concatenate([p.child_counts for p in parts])
    ctx.child_ids = np.concatenate(
        [p.child_ids + nb for p, nb in zip(parts, ctx.node_base)]
    )
    ctx.prim_offsets = np.concatenate(
        [p.prim_offsets + pb for p, pb in zip(parts, prim_base)]
    )
    ctx.prim_counts = np.concatenate([p.prim_counts for p in parts])
    ctx.prim_ids = np.concatenate(
        [p.prim_ids + tb for p, tb in zip(parts, tri_base)]
    )
    return ctx


def _traverse_pool(
    rays: Sequence[Ray],
    ctx: _PacketTrees,
    root,
    policy,
    sbase,
    same_flat,
) -> TraceSet:
    """Trace ``rays`` through ``ctx``'s trees in one lane pool
    (:func:`_run_pool`); returns their traces, one per ray, in order.

    ``root``, ``policy`` and ``sbase`` are per ray: the merged id of its
    tree's root, its deferred order (an index into
    :data:`.two_stack.DEFERRED_ORDERS`) and the offset of its job's
    same-treelet flags in ``same_flat`` (merged child slot ``c`` has
    its flag at ``sbase + c``).  ``same_flat`` is ``None`` when no ray
    defers, i.e. every job is DFS.
    """
    import numpy as np

    n = len(rays)
    arrays = rays_to_arrays(rays)
    # One fused per-ray gather source: columns are [origin|origin]
    # (0:6), [inv|inv] (6:12) — the slab kernel's six-wide inputs —
    # then direction (12:15) for the triangle kernel and
    # [t_min|t_max] (15, 16) with the shrinking t_max in column 16.  A
    # single fancy-index per phase replaces one per component array.
    G = np.concatenate(
        [
            arrays.origin,
            arrays.origin,
            arrays.inv_direction,
            arrays.inv_direction,
            arrays.direction,
            arrays.t_min[:, None],
            arrays.t_max[:, None],
        ],
        axis=1,
    )
    del arrays
    ray_log, node_log, has_hit, win_prim, box_count, prim_count = (
        _run_pool(G, ctx, root, policy, sbase, same_flat)
    )

    # --- The columns: the visit log grouped by ray (a stable sort by
    # ray keeps each ray's visits in order), and one set of hit fields
    # per hitting ray from its winner and final t.  Each intermediate
    # is dropped once used: the whole call's log lives here at once.
    visit_rays = np.concatenate(ray_log or [np.zeros(0, np.int32)])
    del ray_log
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(visit_rays, minlength=n), out=offsets[1:])
    order = np.argsort(visit_rays, kind="stable")
    del visit_rays
    nodes = np.concatenate(node_log or [np.zeros(0, np.int32)]).take(order)
    del node_log, order
    hit_t = np.where(has_hit, G[:, 16], 0.0)
    hit_prim = np.zeros(n, dtype=np.int64)
    hit_point = np.zeros((n, 3))
    hit_normal = np.zeros((n, 3))
    rows = np.flatnonzero(has_hit)
    if rows.size:
        winners = win_prim.take(rows)
        hit_prim[rows] = ctx.tri_ids.take(winners)
        hit_point[rows] = G[rows, 0:3] + G[rows, 12:15] * hit_t[rows, None]
        hit_normal[rows] = _unit_normals(
            np.take(ctx.tri_cat, winners, axis=0)
        )
    del G
    return TraceSet(
        ray_ids=np.fromiter(
            (ray.ray_id for ray in rays), dtype=np.int64, count=n
        ),
        offsets=offsets,
        box_tests=box_count,
        primitive_tests=prim_count,
        node_ids=ctx.local_ids.take(nodes),
        is_leaf=ctx.is_leaf.take(nodes),
        primitive_counts=ctx.prim_counts.take(nodes),
        hit_mask=has_hit,
        hit_t=hit_t,
        hit_prim=hit_prim,
        hit_point=hit_point,
        hit_normal=hit_normal,
    )


def _run_pool(G, ctx: _PacketTrees, root, policy, sbase, same_flat):
    """Advance every ray of ``G`` (:func:`_traverse_pool`'s gather
    source) to completion in one lane pool.

    Returns the visit log — ``(ray, node)`` as lists of int32 chunks,
    in iteration order — and per ray its hit flag, winning triangle
    position and box- and primitive-test counts.  ``G``'s ``t_max``
    column ends at each ray's final ``t_max``.

    The pool holds ``min(LANES, len(G))`` slots; slot ``s`` traces ray
    ``slot_ray[s]``.  Per-ray state (``G``, hit, winner, test counts)
    is sized by the rays; per-slot state (stacks, deferred stores, slab
    buffers) by the pool.  Each iteration advances every live slot by
    exactly one node visit: a vectorized pop-and-prune selects the next
    node per slot out of numpy-resident stacks, one
    :func:`ray_aabb_test_batch` call covers every internal visit's
    children, one :func:`ray_triangle_test_batch` call covers every
    leaf visit's primitives, and the resulting pushes are scattered
    back with segmented numpy ops — so per-iteration Python cost is a
    fixed number of array calls, not O(visits).  A slot whose ray has
    finished (stack and deferred store empty) takes the next ray of the
    stream.  Lanes are independent, so neither the slot a ray lands in
    nor the iteration of a visit can change the ray's own visit
    sequence.
    """
    import numpy as np

    n = len(G)
    lanes = min(LANES, n)
    stack_cap = ctx.stack_cap
    node_lohi = ctx.node_lohi
    tri_cat = ctx.tri_cat
    is_leaf = ctx.is_leaf
    child_offsets, child_counts = ctx.child_offsets, ctx.child_counts
    child_ids_all = ctx.child_ids
    prim_offsets, prim_counts = ctx.prim_offsets, ctx.prim_counts
    prim_ids_all = ctx.prim_ids
    two_stack = same_flat is not None
    inf = np.inf

    # Contiguous t_max mirror: the prune test and leaf accept test hit
    # it with cheap 1-D takes instead of strided column reads of G.
    tmax1d = np.ascontiguousarray(G[:, 16])
    check = not (ctx.plain_boxes and bool(np.isfinite(G).all()))

    has_hit = np.zeros(n, dtype=bool)
    win_prim = np.zeros(n, dtype=np.int64)
    box_count = np.zeros(n, dtype=np.int64)
    prim_count = np.zeros(n, dtype=np.int64)

    # Per-slot traversal stacks, numpy-resident (top at sp-1).  The
    # scalar reference seeds each with (root, ray.t_min); the first
    # ``lanes`` rays of the stream start in the pool.
    slot_ray = np.arange(lanes, dtype=np.int64)
    next_ray = lanes
    stack_ids = np.zeros((lanes, stack_cap), dtype=np.int64)
    stack_t = np.zeros((lanes, stack_cap), dtype=np.float64)
    flat_ids = stack_ids.reshape(-1)
    flat_t = stack_t.reshape(-1)
    stack_ids[:, 0] = root[:lanes]
    stack_t[:, 0] = G[:lanes, 15]
    sp = np.ones(lanes, dtype=np.int64)
    # numpy-resident per-slot deferred structures (the two-stack
    # "other treelet" store).  Pushes scatter in bulk like the main
    # stack; pops are policy-resolved in batch once per iteration
    # (the refill step below).  ``def_head`` only advances for fifo
    # rays; nearest rays use swap-removal, which is safe because
    # (t, id) keys are unique per ray so the pop order is the sorted
    # order regardless of array layout.
    if two_stack:
        dcap = 16
        def_ids = np.zeros((lanes, dcap), dtype=np.int64)
        def_t = np.zeros((lanes, dcap), dtype=np.float64)
        def_count = np.zeros(lanes, dtype=np.int64)
        def_head = np.zeros(lanes, dtype=np.int64)

    # Reusable slab-kernel outputs: every live slot can visit one
    # internal node with MAX_CHILDREN children.
    slab_out = slab_buffers(lanes * MAX_CHILDREN)

    # Visit log: per-iteration (ray, node) arrays, regrouped per ray at
    # the end (a stable sort by ray preserves iteration order, which IS
    # the per-ray visit order because a ray makes at most one visit per
    # iteration).
    visit_ray_chunks: List = []
    visit_node_chunks: List = []

    active = np.arange(lanes, dtype=np.int64)

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while active.size:
            # --- Refill drained slots: from their deferred store while
            # it holds a treelet root, else from the ray stream.  A slot
            # whose stack drains gets exactly one policy-resolved pop
            # per iteration (scalar semantics: pop one deferred root
            # when the stack empties); a slot that drains mid-select
            # just sits the rest of this iteration out.
            drained = sp.take(active) == 0
            if drained.any():
                done = active[drained]
                if two_stack:
                    has = def_count.take(done) > def_head.take(done)
                    if has.any():
                        fill = done[has]
                        done = done[~has]
                        pol = policy.take(slot_ray.take(fill))
                        for code in (0, 1, 2):
                            g = fill[pol == code]
                            if not g.size:
                                continue
                            cg = def_count.take(g)
                            if code == 0:
                                # nearest: pop the min (t, id) key —
                                # identical to the scalar heap pop
                                # because keys are unique per ray.
                                tg = np.take(def_t, g, axis=0)
                                ig = np.take(def_ids, g, axis=0)
                                valid = np.arange(dcap) < cg[:, None]
                                tm = np.where(valid, tg, inf)
                                te = tm.min(axis=1)
                                im = np.where(
                                    valid & (tm == te[:, None]),
                                    ig,
                                    _ID_SENTINEL,
                                )
                                nid = im.min(axis=1)
                                jstar = (im == nid[:, None]).argmax(
                                    axis=1
                                )
                                last = cg - 1
                                def_ids[g, jstar] = def_ids[g, last]
                                def_t[g, jstar] = def_t[g, last]
                                def_count[g] = last
                            elif code == 1:  # lifo
                                last = cg - 1
                                nid = def_ids[g, last]
                                te = def_t[g, last]
                                def_count[g] = last
                            else:  # fifo
                                hd = def_head.take(g)
                                nid = def_ids[g, hd]
                                te = def_t[g, hd]
                                def_head[g] = hd + 1
                            stack_ids[g, 0] = nid
                            stack_t[g, 0] = te
                            sp[g] = 1
                if done.size:
                    # Their rays are finished: the next rays of the
                    # stream take the slots; slots left over retire.
                    fresh = done[:n - next_ray]
                    if fresh.size:
                        new = np.arange(next_ray, next_ray + fresh.size)
                        next_ray += fresh.size
                        slot_ray[fresh] = new
                        stack_ids[fresh, 0] = root.take(new)
                        stack_t[fresh, 0] = G[new, 15]
                        sp[fresh] = 1
                        if two_stack:
                            def_count[fresh] = 0
                            def_head[fresh] = 0
                    active = active[sp.take(active) > 0]

            # --- Select: vectorized pop-and-prune, one node per slot.
            sel_lane_parts: List = []
            sel_node_parts: List = []
            pending = active
            while pending.size:
                spp = sp.take(pending)
                empty = spp == 0
                if empty.any():
                    pending = pending[~empty]
                    if not pending.size:
                        break
                    spp = sp.take(pending)
                top = spp - 1
                fpos = pending * stack_cap + top
                tids = flat_ids.take(fpos)
                tts = flat_t.take(fpos)
                sp[pending] = top
                ok = tts < tmax1d.take(slot_ray.take(pending))
                if ok.all():
                    sel_lane_parts.append(pending)
                    sel_node_parts.append(tids)
                    break
                if ok.any():
                    sel_lane_parts.append(pending[ok])
                    sel_node_parts.append(tids[ok])
                pending = pending[~ok]  # pruned: pop again

            if not sel_lane_parts:
                continue  # every stack pruned dry; refill next round
            if len(sel_lane_parts) == 1:
                sel_lanes = sel_lane_parts[0]
                sel_nodes = sel_node_parts[0]
            else:
                sel_lanes = np.concatenate(sel_lane_parts)
                sel_nodes = np.concatenate(sel_node_parts)
            sel_rays = slot_ray.take(sel_lanes)
            visit_ray_chunks.append(sel_rays.astype(np.int32))
            visit_node_chunks.append(sel_nodes.astype(np.int32))

            leaf_mask = is_leaf[sel_nodes]
            inner = ~leaf_mask
            int_nodes = sel_nodes[inner]

            # --- Internal visits: batched child slab tests + pushes.
            if int_nodes.size:
                int_lanes = sel_lanes[inner]
                int_rays = sel_rays[inner]
                counts = child_counts[int_nodes]
                box_count[int_rays] += counts  # unique per iteration
                cum = np.cumsum(counts)
                total = int(cum[-1])
                excl = cum - counts
                m = int_nodes.size
                seg = np.repeat(np.arange(m), counts)
                ridx = np.repeat(int_rays, counts)
                cpos = np.arange(total) + np.repeat(
                    child_offsets[int_nodes] - excl, counts
                )
                kids = child_ids_all.take(cpos)
                gr = np.take(G, ridx, axis=0)
                hit, t_near, _ = ray_aabb_test_batch(
                    gr[:, :6],
                    gr[:, 6:12],
                    gr[:, 15],
                    gr[:, 16],
                    np.take(node_lohi, kids, axis=0),
                    out=slab_out,
                    check=check,
                )
                if two_stack:
                    near = hit & same_flat.take(sbase.take(ridx) + cpos)
                    defer = hit ^ near  # hit & ~same
                    if defer.any():
                        # Foreign-treelet children scatter to the
                        # per-slot deferred arrays in child order —
                        # the same order the scalar loop pushes them
                        # (appends for lifo/fifo; for nearest the pop
                        # resolves by (t, id) key, so insertion order
                        # is immaterial).
                        didx = np.flatnonzero(defer)
                        dseg = seg.take(didx)
                        dlanes = int_lanes.take(dseg)
                        dk = np.bincount(dseg, minlength=m)
                        need = def_count.take(int_lanes) + dk
                        nmax = int(need.max())
                        if nmax > dcap:
                            new_cap = max(dcap * 2, nmax)
                            grown_ids = np.zeros(
                                (lanes, new_cap), dtype=np.int64
                            )
                            grown_t = np.zeros(
                                (lanes, new_cap), dtype=np.float64
                            )
                            grown_ids[:, :dcap] = def_ids
                            grown_t[:, :dcap] = def_t
                            def_ids, def_t = grown_ids, grown_t
                            dcap = new_cap
                        dkcum = np.cumsum(dk)
                        dintra = np.arange(didx.size) - np.repeat(
                            dkcum - dk, dk
                        )
                        dpos = (
                            dlanes * dcap
                            + def_count.take(dlanes)
                            + dintra
                        )
                        def_ids.reshape(-1)[dpos] = kids.take(didx)
                        def_t.reshape(-1)[dpos] = t_near.take(didx)
                        def_count[int_lanes] += dk
                else:
                    near = hit
                nidx = np.flatnonzero(near)
                if nidx.size:
                    # Surviving children, grouped by visit and ordered
                    # far-to-near so the nearest pops first.  lexsort
                    # is stable: ties keep child order, exactly like
                    # the scalar reference's list.sort(reverse=True).
                    nt = t_near.take(nidx)
                    ns = seg.take(nidx)
                    order = np.lexsort((-nt, ns))
                    st = nt.take(order)
                    sid = kids.take(nidx).take(order)
                    sl = int_lanes.take(ns.take(order))
                    k = np.bincount(ns, minlength=m)
                    kcum = np.cumsum(k)
                    intra = np.arange(nidx.size) - np.repeat(
                        kcum - k, k
                    )
                    flat_pos = sl * stack_cap + sp.take(sl) + intra
                    flat_ids[flat_pos] = sid
                    flat_t[flat_pos] = st
                    sp[int_lanes] += k

            # --- Leaf visits: batched triangle tests + hit updates.
            leaf_nodes = sel_nodes[leaf_mask]
            if leaf_nodes.size:
                leaf_rays = sel_rays[leaf_mask]
                counts = prim_counts[leaf_nodes]
                prim_count[leaf_rays] += counts
                if (counts == 0).any():
                    keep = counts > 0
                    leaf_nodes = leaf_nodes[keep]
                    leaf_rays = leaf_rays[keep]
                    counts = counts[keep]
            if leaf_nodes.size:
                cum = np.cumsum(counts)
                total = int(cum[-1])
                excl = cum - counts
                seg = np.repeat(np.arange(leaf_nodes.size), counts)
                ridx = np.repeat(leaf_rays, counts)
                flat = np.arange(total)
                prims = prim_ids_all[
                    flat + np.repeat(prim_offsets[leaf_nodes] - excl, counts)
                ]
                gr = np.take(G, ridx, axis=0)
                tcr = np.take(tri_cat, prims, axis=0)
                hit, t, _, _ = ray_triangle_test_batch(
                    gr[:, :3],
                    gr[:, 12:15],
                    gr[:, 15],
                    gr[:, 16],
                    tcr[:, 0:3],
                    tcr[:, 3:6],
                    tcr[:, 6:9],
                )
                # Winner per leaf = first strictly-closest valid
                # candidate, which is exactly what the scalar in-leaf
                # loop keeps; validity against the leaf-entry t_max is
                # equivalent because candidates between the winner and
                # the entry t_max never survive there either.
                t_eff = np.where(hit, t, inf)
                best_t = np.minimum.reduceat(t_eff, excl)
                win_flat = np.minimum.reduceat(
                    np.where(t_eff == best_t[seg], flat, total), excl
                )
                accept = (best_t < inf) & (
                    ~has_hit.take(leaf_rays)
                    | (best_t < tmax1d.take(leaf_rays))
                )
                if accept.any():
                    # Record (winner, t) and shrink the interval; the
                    # hit fields are computed once per ray at the end.
                    # The scalar path constructs every interim Hit too,
                    # but only the final one survives in the trace, and
                    # neither ``ray.at(t)`` nor ``triangle.normal()``
                    # depends on when it runs.
                    rows = np.flatnonzero(accept)
                    ll = leaf_rays.take(rows)
                    bt = best_t.take(rows)
                    G[ll, 16] = bt
                    tmax1d[ll] = bt
                    has_hit[ll] = True
                    win_prim[ll] = prims.take(win_flat.take(rows))

    return (
        visit_ray_chunks,
        visit_node_chunks,
        has_hit,
        win_prim,
        box_count,
        prim_count,
    )


def _unit_normals(tri_rows):
    """``Triangle.normal()`` of each ``[v0 | edge1 | edge2]`` row, with
    the scalar code's operations in its order."""
    import numpy as np

    e1x, e1y, e1z = tri_rows[:, 3], tri_rows[:, 4], tri_rows[:, 5]
    e2x, e2y, e2z = tri_rows[:, 6], tri_rows[:, 7], tri_rows[:, 8]
    nx = e1y * e2z - e1z * e2y
    ny = e1z * e2x - e1x * e2z
    nz = e1x * e2y - e1y * e2x
    norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    if (norm < EPSILON).any():
        raise ValueError("cannot normalize a zero-length vector")
    inv = 1.0 / norm
    return np.stack([nx * inv, ny * inv, nz * inv], axis=1)


def traverse_forest_jobs(
    jobs: Sequence[
        Tuple[
            FlatBVH,
            Sequence[Ray],
            Optional[TreeletDecomposition],
            str,
        ]
    ],
) -> List[TraceSet]:
    """Traverse several ``(bvh, rays, decomposition, order)`` jobs in
    one lane pool spanning *different trees*; a ``None`` decomposition
    is a DFS job, any other a two-stack job under ``order``.

    The trees are merged into one flat id space
    (:func:`_forest_statics`), and the jobs' rays form one stream, so
    rays from every scene of a sweep advance in the same driver
    iterations — the fixed per-iteration numpy dispatch cost is paid
    once for the whole workload instead of once per scene.  Per-job
    results are exactly what the scalar reference produces for each
    job; the rays are left unchanged.
    """
    import numpy as np

    if not jobs:
        return []
    trees: List[FlatBVH] = []
    tree_index: dict = {}
    for bvh, _, _, _ in jobs:
        if id(bvh) not in tree_index:
            tree_index[id(bvh)] = len(trees)
            trees.append(bvh)
    # A forest is memoized under the identity of its trees; the entry
    # holds the trees too, so the ids stay valid while it lives.
    ctx = _packet_statics(trees[0]) if len(trees) == 1 else MEMO.get_or_build(
        "forest", tuple(map(id, trees)),
        lambda: (trees, _forest_statics(tuple(trees))),
    )[1]
    job_tree = np.array(
        [tree_index[id(bvh)] for bvh, _, _, _ in jobs], dtype=np.int64
    )
    sizes = [len(rays) for _, rays, _, _ in jobs]
    job_of_ray = np.repeat(np.arange(len(jobs)), sizes)
    policy = np.array(
        [0 if dec is None else DEFERRED_ORDERS.index(order)
         for _, _, dec, order in jobs],
        dtype=np.int64,
    ).take(job_of_ray)
    flags = [None if dec is None else dec.child_bits()
             for _, _, dec, _ in jobs]
    if any(row is not None for row in flags):
        # Pack each job's flags for its own tree's child slots end to
        # end; DFS jobs get all-True flags (nothing ever defers, which
        # IS DFS).  ``sbase`` maps a merged child slot of a ray's tree
        # into its job's stretch of the packed layout.
        tree_slots = np.diff(np.append(ctx.child_base, ctx.child_ids.size))
        slots = tree_slots.take(job_tree)
        same_flat = np.concatenate([
            np.ones(size, dtype=bool) if row is None else row
            for row, size in zip(flags, slots.tolist())
        ])
        packed_base = np.cumsum(slots) - slots
        sbase = (packed_base - ctx.child_base.take(job_tree)).take(
            job_of_ray
        )
    else:
        same_flat = sbase = None
    traces = _traverse_pool(
        [ray for _, rays, _, _ in jobs for ray in rays],
        ctx,
        ctx.node_base.take(job_tree).take(job_of_ray),
        policy,
        sbase,
        same_flat,
    )
    bounds = np.cumsum([0] + sizes).tolist()
    return [traces[a:b] for a, b in zip(bounds, bounds[1:])]


def traverse_dfs_packet(rays: Sequence[Ray], bvh: FlatBVH) -> TraceSet:
    """Lane-pool DFS traversal; bit-identical to
    :func:`.dfs.traverse_dfs_batch` (the rays are left unchanged).
    """
    return traverse_forest_jobs([(bvh, rays, None, "nearest")])[0]


def traverse_two_stack_packet(
    rays: Sequence[Ray],
    bvh: FlatBVH,
    decomposition: TreeletDecomposition,
    deferred_order: str = "nearest",
) -> TraceSet:
    """Lane-pool two-stack (Algorithm 1) traversal; bit-identical to
    :func:`.two_stack.traverse_two_stack_batch` (the rays are left
    unchanged).
    """
    return traverse_forest_jobs(
        [(bvh, rays, decomposition, deferred_order)]
    )[0]
