"""Vectorized ray-packet traversal backend.

The scalar traversal modules (:mod:`.dfs`, :mod:`.two_stack`) run one
pure-Python slab or Möller–Trumbore test at a time; generating the
traces the timing model replays dominates experiment wall-clock long
before the cycle model starts.  This module amortizes that cost over
*ray packets*: the BVH's columns (:mod:`repro.bvh.soa`) plus two
batched kernels —
:func:`ray_aabb_test_batch` and :func:`ray_triangle_test_batch` — and a
packet-stepped driver that advances every active ray of a packet by one
node visit per iteration, folding all of the packet's box tests (and,
separately, all of its primitive tests) into one kernel call each.  The
driver writes each packet's :class:`~.trace.TraceSet` columns straight
from its visit log.

**Bit-identical contract.**  The packet drivers are a drop-in
replacement for the scalar reference: same visit order, same box- and
primitive-test counts, same hits, bit-for-bit.  That holds because

* every lane runs the *same control flow* as its scalar counterpart —
  the packet only changes where the arithmetic happens, never the
  per-ray decision sequence;
* the kernels evaluate the *same IEEE double expressions in the same
  order* as the scalar tests (elementwise numpy float64 ops round
  exactly like Python floats; reductions that would reassociate sums,
  e.g. ``np.dot``, are deliberately avoided);
* the ``0 * inf`` slab edge case follows the fixed scalar semantics
  (see :func:`.intersect.ray_aabb_test`).

The scalar traversal stays as the reference the packet kernels are
checked against: the golden tests in ``tests/test_vectorized.py`` assert
equality on every library scene.  The pipeline builds every trace set
through :func:`traverse_forest_jobs`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..bvh import MAX_CHILDREN, FlatBVH
from ..core.memo import MEMO
from ..geometry import Ray, rays_to_arrays
from ..geometry.vec import EPSILON
from ..treelet import TreeletDecomposition
from .intersect import _TRI_EPSILON, ray_aabb_test, ray_triangle_t
from .trace import TraceSet
from .two_stack import DEFERRED_ORDERS, _DeferredTreelets

#: Rays advanced together per driver iteration.  Large packets amortize
#: the per-iteration numpy kernel-call overhead over thousands of box
#: tests; divergence costs nothing here because exhausted lanes drop
#: out of the active set instead of idling.
DEFAULT_PACKET_SIZE = 1024


# ---------------------------------------------------------------------------
# Batched kernels.
# ---------------------------------------------------------------------------


def ray_aabb_test_batch(origin, inv_direction, t_min, t_max, lo, hi):
    """Slab test for ``n`` independent (ray, box) rows at once.

    Arguments are numpy arrays: ``origin``/``inv_direction``/``lo``/``hi``
    shaped ``[n, 3]``, ``t_min``/``t_max`` shaped ``[n]``.  Returns
    ``(hit, t_near, t_far)`` — a bool mask plus the clipped overlap —
    where every row matches :func:`.intersect.ray_aabb_test` on the same
    inputs bit-for-bit (``hit[i]`` False exactly when the scalar test
    returns ``None``).
    """
    import numpy as np

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        t0 = (lo - origin) * inv_direction
        t1 = (hi - origin) * inv_direction
        nan = np.isnan(t0) | np.isnan(t1)
        if nan.any():
            # 0 * inf: parallel ray with its origin exactly on a slab
            # plane.  Fixed scalar semantics: inside the slab the axis
            # constrains nothing; outside it the row can never hit.
            inside = (lo <= origin) & (origin <= hi)
            miss_rows = (nan & ~inside).any(axis=1)
            t0 = np.where(nan, -np.inf, t0)
            t1 = np.where(nan, np.inf, t1)
        else:
            miss_rows = None
        near = np.minimum(t0, t1)
        far = np.maximum(t0, t1)
        t_near = np.maximum(near.max(axis=1), t_min)
        t_far = np.minimum(far.min(axis=1), t_max)
        hit = t_near <= t_far
        if miss_rows is not None:
            hit &= ~miss_rows
        # Empty boxes (lo > hi on some axis) never hit, matching the
        # scalar test's AABB.is_empty() early-out.
        empty = (lo > hi).any(axis=1)
        if empty.any():
            hit &= ~empty
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
# Packet-stepped drivers.
# ---------------------------------------------------------------------------


#: Attribute caching per-BVH traversal statics on the FlatBVH instance
#: (dropped from pickles by FlatBVH.__getstate__ like the SoA arrays).
_STATICS_ATTR = "_packet_statics"

#: Once a packet has at most this many live lanes, the driver hands the
#: stragglers to the scalar reference code to finish.  The per-iteration
#: numpy dispatch overhead is fixed, so a nearly-empty packet would pay
#: it for a handful of box tests; the scalar path is faster there and
#: bit-identity is free because the scalar path *is* the reference.
SCALAR_TAIL_LANES = 8

#: Larger than any merged node id; pads invalid slots in the batched
#: nearest-policy deferred pop so a plain min resolves the tie-break.
_ID_SENTINEL = 1 << 62


class _PacketTrees:
    """Static traversal context for one tree — or a merged forest.

    The packet driver is tree-agnostic: it walks whatever node/triangle
    tables this object holds.  :func:`_packet_statics` builds one per
    BVH; :func:`_forest_statics` concatenates several BVHs into a
    single id space (node ``i`` of tree ``s`` becomes
    ``node_base[s] + i``) so packets can mix lanes from different
    scenes and amortize the fixed per-iteration dispatch cost across
    an entire sweep.
    """

    __slots__ = (
        "trees",  # List[FlatBVH], index = tree id
        "node_base",  # np.ndarray [num_trees] int64 (merged-id offsets)
        "child_base",  # np.ndarray [num_trees] int64 (CSR offsets)
        "tri_base",  # np.ndarray [num_trees] int64 (triangle offsets)
        "local_ids",  # np.ndarray [num_nodes]: merged id -> tree-local id
        "tri_ids",  # np.ndarray [num_triangles]: position -> primitive id
        "stack_cap",
        "node_lohi",  # [num_nodes, 6]
        "tri_cat",  # [num_triangles, 9]
        "nonempty_csr",  # [total_children] bool or None
        "finite_nodes",
        "is_leaf",
        "child_offsets",
        "child_counts",
        "child_ids",
        "prim_offsets",
        "prim_counts",
        "prim_ids",
    )


def _packet_statics(bvh: FlatBVH) -> _PacketTrees:
    """Per-BVH constants for the packet driver, read off the tree's
    columns.  ``stack_cap`` bounds the traversal stack: a visit pops
    one entry and pushes at most ``MAX_CHILDREN``.
    """
    import numpy as np

    cached = getattr(bvh, _STATICS_ATTR, None)
    if cached is None:
        soa = bvh.arrays
        ctx = _PacketTrees()
        ctx.trees = [bvh]
        ctx.node_base = np.zeros(1, dtype=np.int64)
        ctx.child_base = np.zeros(1, dtype=np.int64)
        ctx.tri_base = np.zeros(1, dtype=np.int64)
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
        # Per-child "parent gave me a real box" flags in CSR child
        # position: sentinel (lo > hi) boxes are rejected with one
        # boolean take per iteration instead of re-deriving the
        # emptiness from six gathered floats every time.  None when the
        # tree has no empty boxes, so the common case skips the op.
        empty_node = (soa.node_lo > soa.node_hi).any(axis=1)
        if empty_node.any():
            ctx.nonempty_csr = ~empty_node[soa.child_ids]
        else:
            ctx.nonempty_csr = None
        # NaN in the slab product needs 0 * inf; ray inverse directions
        # are capped (safe_inverse never returns inf or 0), so finite
        # bounds make the per-iteration isnan sweep provably dead.
        ctx.finite_nodes = bool(np.isfinite(ctx.node_lohi).all())
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
    ctx.trees = list(bvhs)
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
    ctx.tri_base = tri_base.astype(np.int64)
    prim_base = np.concatenate(
        [[0], np.cumsum([p.prim_ids.size for p in parts][:-1])]
    )
    ctx.local_ids = np.concatenate([p.local_ids for p in parts])
    ctx.tri_ids = np.concatenate([p.tri_ids for p in parts])
    ctx.stack_cap = max(p.stack_cap for p in parts)
    ctx.node_lohi = np.concatenate([p.node_lohi for p in parts])
    ctx.tri_cat = np.concatenate([p.tri_cat for p in parts])
    if any(p.nonempty_csr is not None for p in parts):
        ctx.nonempty_csr = np.concatenate(
            [
                p.nonempty_csr
                if p.nonempty_csr is not None
                else np.ones(p.child_ids.size, dtype=bool)
                for p in parts
            ]
        )
    else:
        ctx.nonempty_csr = None
    ctx.finite_nodes = all(p.finite_nodes for p in parts)
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


def _traverse_packet(
    rays: Sequence[Ray],
    ctx: _PacketTrees,
    lane_ctx,
) -> TraceSet:
    """Advance one packet of rays to completion (lanes step in lockstep).

    ``lane_ctx`` is ``None`` when every lane runs plain DFS over
    ``ctx.trees[0]``; otherwise it is ``(job_of_lane, same_flat,
    sbase_of_job, assign_list, orders, job_tree)``: per-lane job
    indices, the per-job same-treelet flags packed end to end (job
    ``j``'s flags for child slot ``c`` live at ``sbase_of_job[j] + c``;
    ``None`` when no job is two-stack), one node->treelet array (or
    ``None`` for DFS jobs) per job, one deferred-order string per job,
    and the job->tree index (``None`` when every job walks
    ``ctx.trees[0]``).  Lanes are fully independent, so a packet may
    mix rays from different traversal configurations — and, through a
    forest context, different scenes — which is how the batched trace
    generator amortizes the fixed per-iteration dispatch cost.
    Returns the packet's traces, one ray per input ray, in order.

    Each iteration advances every live lane by exactly one node visit:
    a vectorized pop-and-prune selects the next node per lane out of
    numpy-resident stacks, one :func:`ray_aabb_test_batch` call covers
    every internal visit's children, one :func:`ray_triangle_test_batch`
    call covers every leaf visit's primitives, and the resulting pushes
    are scattered back with segmented numpy ops — so per-iteration
    Python cost is a fixed number of array calls, not O(visits).
    """
    import numpy as np

    n = len(rays)
    stack_cap = ctx.stack_cap
    node_lohi = ctx.node_lohi
    tri_cat = ctx.tri_cat
    nonempty_csr = ctx.nonempty_csr
    finite_nodes = ctx.finite_nodes
    arrays = rays_to_arrays(rays)
    origin = arrays.origin
    # One fused per-ray gather source: columns are [origin|origin]
    # (0:6), [inv|inv] (6:12) — the slab test does
    # (lohi - o·o)·(inv·inv) in two six-wide ops — then direction
    # (12:15) for the triangle kernel and [t_min|t_max] (15, 16) with
    # the mutable t_max in column 16.  A single fancy-index per phase
    # replaces one per component array.
    G = np.concatenate(
        [
            origin,
            origin,
            arrays.inv_direction,
            arrays.inv_direction,
            arrays.direction,
            arrays.t_min[:, None],
            arrays.t_max[:, None],
        ],
        axis=1,
    )
    is_leaf = ctx.is_leaf
    child_offsets, child_counts = ctx.child_offsets, ctx.child_counts
    child_ids_all = ctx.child_ids
    prim_offsets, prim_counts = ctx.prim_offsets, ctx.prim_counts
    prim_ids_all = ctx.prim_ids
    if lane_ctx is not None:
        (
            job_of_lane,
            same_flat,
            sbase_of_job,
            assign_list,
            orders,
            job_tree,
        ) = lane_ctx
        two_stack = same_flat is not None
        # With a single job the flags are the plain CSR table and the
        # per-child flag column is the child slot itself.
        if sbase_of_job is not None:
            sbase = sbase_of_job.take(job_of_lane)
        else:
            sbase = None
    else:
        two_stack = False
        job_tree = None
    neg_inf = -np.inf
    inf = np.inf

    # Contiguous t_max mirror: the prune test and leaf accept test hit
    # it with cheap 1-D takes instead of strided column reads of G.
    tmax1d = np.ascontiguousarray(G[:, 16])
    # NaN in the slab product requires 0 * inf.  Ray inverse directions
    # from safe_inverse are capped (never 0 or inf), so with finite
    # bounds and finite ray data no product can be NaN and the
    # per-iteration isnan sweep is skipped entirely.
    may_nan = not (finite_nodes and bool(np.isfinite(G).all()))

    has_hit = np.zeros(n, dtype=bool)
    win_prim = np.zeros(n, dtype=np.int64)
    box_count = np.zeros(n, dtype=np.int64)
    prim_count = np.zeros(n, dtype=np.int64)

    # Per-lane traversal stacks, numpy-resident (top at sp-1).  The
    # scalar reference seeds each with (root, ray.t_min).
    stack_ids = np.zeros((n, stack_cap), dtype=np.int64)
    stack_t = np.zeros((n, stack_cap), dtype=np.float64)
    flat_ids = stack_ids.reshape(-1)
    flat_t = stack_t.reshape(-1)
    if job_tree is not None:
        # Forest packet: every lane starts at its own tree's root.
        stack_ids[:, 0] = ctx.node_base.take(job_tree.take(job_of_lane))
    else:
        stack_ids[:, 0] = ctx.trees[0].ROOT_ID
    stack_t[:, 0] = G[:, 15]
    sp = np.ones(n, dtype=np.int64)
    # numpy-resident per-lane deferred structures (the two-stack
    # "other treelet" store).  Pushes scatter in bulk like the main
    # stack; pops are policy-resolved in batch once per iteration
    # (:ref: the refill step below).  ``def_head`` only advances for
    # fifo lanes; nearest lanes use swap-removal, which is safe
    # because (t, id) keys are unique per lane so the pop order is
    # the sorted order regardless of array layout.
    if two_stack:
        dcap = 16
        def_ids = np.zeros((n, dcap), dtype=np.int64)
        def_t = np.zeros((n, dcap), dtype=np.float64)
        def_count = np.zeros(n, dtype=np.int64)
        def_head = np.zeros(n, dtype=np.int64)
        pol_of_lane = np.fromiter(
            (DEFERRED_ORDERS.index(o) for o in orders),
            dtype=np.int64,
            count=len(orders),
        ).take(job_of_lane)

    # Reusable output buffers for the slab arithmetic: above numpy's
    # mmap threshold a fresh temporary per op costs page faults every
    # iteration, so the six hot elementwise results write into slices
    # of preallocated arrays instead.  Capacity: every live lane can
    # visit one internal node with MAX_CHILDREN children.
    cap_rows = n * MAX_CHILDREN
    buf_t = np.empty((cap_rows, 6), dtype=np.float64)
    buf_near = np.empty((cap_rows, 3), dtype=np.float64)
    buf_far = np.empty((cap_rows, 3), dtype=np.float64)
    buf_tn = np.empty(cap_rows, dtype=np.float64)
    buf_tf = np.empty(cap_rows, dtype=np.float64)
    buf_hit = np.empty(cap_rows, dtype=bool)

    # Visit log: per-iteration (lane, node) arrays, regrouped per lane
    # at the end (a stable sort by lane preserves iteration order, which
    # IS the per-lane visit order because each lane contributes at most
    # one visit per iteration).
    visit_lane_chunks: List = []
    visit_node_chunks: List = []

    tail = SCALAR_TAIL_LANES
    active = np.arange(n, dtype=np.int64)

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while active.size > tail:
            # --- Cull finished lanes; batch-refill drained two-stack
            # lanes from their deferred stores.  A lane whose current
            # stack drains gets exactly one policy-resolved pop per
            # iteration (scalar semantics: pop one deferred root when
            # the stack empties); a lane that drains mid-select just
            # sits the rest of this iteration out — lanes are
            # independent, so delaying a lane's next visit to a later
            # iteration cannot change its own visit sequence.
            spa = sp.take(active)
            drained = spa == 0
            if drained.any():
                if two_stack:
                    dl = active[drained]
                    has = def_count.take(dl) > def_head.take(dl)
                    if has.any():
                        fill = dl[has]
                        pol = pol_of_lane.take(fill)
                        for code in (0, 1, 2):
                            g = fill[pol == code]
                            if not g.size:
                                continue
                            cg = def_count.take(g)
                            if code == 0:
                                # nearest: pop the min (t, id) key —
                                # identical to the scalar heap pop
                                # because keys are unique per lane.
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
                    active = active[sp.take(active) > 0]
                else:
                    active = active[~drained]
                continue  # re-check the tail cutoff before selecting

            # --- Select: vectorized pop-and-prune, one node per lane.
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
                ok = tts < tmax1d.take(pending)
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
            visit_lane_chunks.append(sel_lanes)
            visit_node_chunks.append(sel_nodes)

            leaf_mask = is_leaf[sel_nodes]
            int_nodes = sel_nodes[~leaf_mask]
            int_lanes = sel_lanes[~leaf_mask]

            # --- Internal visits: batched child slab tests + pushes.
            # The slab arithmetic is ray_aabb_test_batch inlined on the
            # fused six-wide arrays: identical expressions, same IEEE
            # rounding, two ops for all six plane distances.
            if int_nodes.size:
                counts = child_counts[int_nodes]
                box_count[int_lanes] += counts  # unique per iteration
                cum = np.cumsum(counts)
                total = int(cum[-1])
                excl = cum - counts
                m = int_nodes.size
                seg = np.repeat(np.arange(m), counts)
                ridx = np.repeat(int_lanes, counts)
                flat = np.arange(total)
                cpos = flat + np.repeat(
                    child_offsets[int_nodes] - excl, counts
                )
                kids = child_ids_all.take(cpos)
                lohi = np.take(node_lohi, kids, axis=0)
                gr = np.take(G, ridx, axis=0)
                t_all = buf_t[:total]
                np.subtract(lohi, gr[:, :6], out=t_all)
                np.multiply(t_all, gr[:, 6:12], out=t_all)
                if may_nan and np.isnan(t_all).any():
                    nan = np.isnan(t_all)
                    # 0 * inf: parallel ray with its origin exactly on
                    # a slab plane (fixed scalar semantics: inside the
                    # slab the axis constrains nothing; outside it the
                    # row can never hit).
                    o3 = gr[:, :3]
                    inside = (lohi[:, :3] <= o3) & (o3 <= lohi[:, 3:])
                    nan_axis = nan[:, :3] | nan[:, 3:]
                    miss_rows = (nan_axis & ~inside).any(axis=1)
                else:
                    miss_rows = None
                t0 = t_all[:, :3]
                t1 = t_all[:, 3:]
                if miss_rows is not None:
                    t0 = np.where(nan[:, :3], neg_inf, t0)
                    t1 = np.where(nan[:, 3:], inf, t1)
                near3 = np.minimum(t0, t1, out=buf_near[:total])
                far3 = np.maximum(t0, t1, out=buf_far[:total])
                t_near = near3.max(axis=1, out=buf_tn[:total])
                np.maximum(t_near, gr[:, 15], out=t_near)
                t_far = far3.min(axis=1, out=buf_tf[:total])
                np.minimum(t_far, gr[:, 16], out=t_far)
                hit = np.less_equal(t_near, t_far, out=buf_hit[:total])
                if miss_rows is not None:
                    hit &= ~miss_rows
                if nonempty_csr is not None:
                    hit &= nonempty_csr.take(cpos)
                if two_stack:
                    if sbase is not None:
                        scol = sbase.take(ridx) + cpos
                    else:
                        scol = cpos
                    near = hit & same_flat.take(scol)
                    defer = hit ^ near  # hit & ~same
                    if defer.any():
                        # Foreign-treelet children scatter to the
                        # per-lane deferred arrays in child order —
                        # the same order the scalar loop pushes them
                        # (appends for lifo/fifo; for nearest the pop
                        # resolves by (t, id) key, so insertion order
                        # is immaterial).
                        didx = np.flatnonzero(defer)
                        dlanes = ridx.take(didx)
                        dseg = seg.take(didx)
                        dk = np.bincount(dseg, minlength=m)
                        need = def_count.take(int_lanes) + dk
                        nmax = int(need.max())
                        if nmax > dcap:
                            new_cap = max(dcap * 2, nmax)
                            grown_ids = np.zeros(
                                (n, new_cap), dtype=np.int64
                            )
                            grown_t = np.zeros(
                                (n, new_cap), dtype=np.float64
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
                    sl = ridx.take(nidx).take(order)
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
            leaf_lanes = sel_lanes[leaf_mask]
            if leaf_nodes.size:
                counts = prim_counts[leaf_nodes]
                prim_count[leaf_lanes] += counts
                if (counts == 0).any():
                    keep = counts > 0
                    leaf_nodes = leaf_nodes[keep]
                    leaf_lanes = leaf_lanes[keep]
                    counts = counts[keep]
            if leaf_nodes.size:
                cum = np.cumsum(counts)
                total = int(cum[-1])
                excl = cum - counts
                m = leaf_nodes.size
                seg = np.repeat(np.arange(m), counts)
                ridx = np.repeat(leaf_lanes, counts)
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
                    ~has_hit.take(leaf_lanes)
                    | (best_t < tmax1d.take(leaf_lanes))
                )
                if accept.any():
                    # Record (winner, t) and shrink the interval; the
                    # hit fields are computed once per lane at the end.
                    # The scalar path constructs every interim Hit too,
                    # but only the final one survives in the trace, and
                    # neither ``ray.at(t)`` nor ``triangle.normal()``
                    # depends on when it runs.
                    rows = np.flatnonzero(accept)
                    ll = leaf_lanes.take(rows)
                    bt = best_t.take(rows)
                    G[ll, 16] = bt
                    tmax1d[ll] = bt
                    has_hit[ll] = True
                    win_prim[ll] = prims.take(win_flat.take(rows))

    # Same observable side effect as the scalar path: the ray's
    # interval reflects early ray termination.
    for ray, t_max in zip(rays, G[:, 16].tolist()):
        ray.t_max = t_max

    # --- Scalar tail: finish the last few lanes at reference speed. --
    # Their visits join the log after the packet's own.
    for i in active.tolist():
        depth = int(sp[i])
        stack = list(
            zip(stack_ids[i, :depth].tolist(), stack_t[i, :depth].tolist())
        )
        tree_idx = 0
        deferred = None
        assignment = None
        if lane_ctx is not None:
            j = int(job_of_lane[i])
            assignment = assign_list[j]
            tree_idx = int(job_tree[j]) if job_tree is not None else 0
            base = int(ctx.node_base[tree_idx])
            if assignment is not None:
                # Rebuild the lane's deferred structure from the
                # packed arrays.  Forest lanes carry merged node ids
                # and the scalar reference walks the original tree, so
                # ids shift down by the tree's base — a constant shift,
                # which preserves the (t, id) heap order.  For fifo the
                # live window is [head, count); for nearest/lifo head
                # is always zero.
                deferred = _DeferredTreelets(orders[j])
                hd = int(def_head[i])
                cnt = int(def_count[i])
                for t_e, nid in zip(
                    def_t[i, hd:cnt].tolist(),
                    def_ids[i, hd:cnt].tolist(),
                ):
                    deferred.push(t_e, nid - base)
            if base:
                stack = [(nid - base, t) for nid, t in stack]
        visits: List[int] = []
        boxes, prims, winner = _finish_lane_scalar(
            rays[i],
            ctx.trees[tree_idx],
            stack,
            deferred,
            assignment,
            visits,
            float(tmax1d[i]) if has_hit[i] else None,
        )
        box_count[i] += boxes
        prim_count[i] += prims
        if winner is not None:
            has_hit[i] = True
            win_prim[i] = winner + ctx.tri_base[tree_idx]
            tmax1d[i] = rays[i].t_max
        visit_lane_chunks.append(np.full(len(visits), i, dtype=np.int64))
        visit_node_chunks.append(
            ctx.node_base[tree_idx] + np.asarray(visits, dtype=np.int64)
        )

    # --- The packet's columns: the visit log grouped by lane (a stable
    # sort by lane keeps each lane's visits in order), and one set of
    # hit fields per hitting lane from its winner and final t.
    all_lanes = np.concatenate(visit_lane_chunks or [np.zeros(0, np.int64)])
    all_nodes = np.concatenate(visit_node_chunks or [np.zeros(0, np.int64)])
    nodes = all_nodes.take(np.argsort(all_lanes, kind="stable"))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_lanes, minlength=n), out=offsets[1:])
    hit_prim = np.zeros(n, dtype=np.int64)
    hit_point = np.zeros((n, 3))
    hit_normal = np.zeros((n, 3))
    rows = np.flatnonzero(has_hit)
    if rows.size:
        winners = win_prim.take(rows)
        hit_prim[rows] = ctx.tri_ids.take(winners)
        hit_point[rows] = origin[rows] + arrays.direction[rows] * (
            tmax1d.take(rows)[:, None]
        )
        hit_normal[rows] = _unit_normals(np.take(tri_cat, winners, axis=0))
    return TraceSet(
        ray_ids=[ray.ray_id for ray in rays],
        offsets=offsets,
        box_tests=box_count,
        primitive_tests=prim_count,
        node_ids=ctx.local_ids.take(nodes),
        is_leaf=is_leaf.take(nodes),
        primitive_counts=prim_counts.take(nodes),
        hit_mask=has_hit,
        hit_t=np.where(has_hit, tmax1d, 0.0),
        hit_prim=hit_prim,
        hit_point=hit_point,
        hit_normal=hit_normal,
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


def _finish_lane_scalar(
    ray: Ray,
    bvh: FlatBVH,
    stack: List[Tuple[int, float]],
    deferred: Optional[_DeferredTreelets],
    assignment,
    visits: List[int],
    best_t: Optional[float],
) -> Tuple[int, int, Optional[int]]:
    """Resume one lane mid-traversal with the scalar reference code.

    Identical statement-for-statement to :func:`.dfs.traverse_dfs` /
    :func:`.two_stack.traverse_two_stack` from the current state
    onward, so equality with the reference is by construction.
    ``best_t`` is the distance of the lane's hit so far (None without
    one).  Appends each visited node id to ``visits`` and returns
    ``(box_tests, primitive_tests, winner)``: the tests run here and
    the triangle position of the closest hit found here, if any.
    It reads the tree's child and primitive lists, and builds only the
    boxes and vertex triples it tests (:meth:`FlatBVH.box`,
    :meth:`FlatBVH.corners`): no node or triangle object.
    """
    children = bvh.child_lists()
    prims = bvh.prim_lists()
    box = bvh.box
    corners = bvh.corners
    box_tests = primitive_tests = 0
    winner = None
    while stack or (deferred is not None and deferred):
        if not stack:
            stack.append(deferred.pop())
        node_id, t_enter = stack.pop()
        if t_enter >= ray.t_max:
            continue
        visits.append(node_id)
        child_ids = children[node_id]
        if not child_ids:
            for prim_id in prims[node_id]:
                primitive_tests += 1
                t = ray_triangle_t(ray, *corners(prim_id))
                if t is not None and (best_t is None or t < best_t):
                    best_t = t
                    winner = prim_id
                    ray.t_max = t
            continue
        near_hits: List[Tuple[float, int]] = []
        if assignment is None:
            for child_id in child_ids:
                box_tests += 1
                overlap = ray_aabb_test(ray, box(child_id))
                if overlap is not None:
                    near_hits.append((overlap[0], child_id))
        else:
            treelet_id = assignment[node_id]
            for child_id in child_ids:
                box_tests += 1
                overlap = ray_aabb_test(ray, box(child_id))
                if overlap is None:
                    continue
                if assignment[child_id] == treelet_id:
                    near_hits.append((overlap[0], child_id))
                else:
                    deferred.push(overlap[0], child_id)
        # Push far-to-near so the nearest child pops first.
        near_hits.sort(key=_near_key, reverse=True)
        for t_child, child_id in near_hits:
            stack.append((child_id, t_child))
    return box_tests, primitive_tests, winner


def _near_key(pair: Tuple[float, int]) -> float:
    return pair[0]


def _two_stack_tables(bvh: FlatBVH, decomposition: TreeletDecomposition):
    """``(assignment, same_csr)`` for one decomposition, memoized on it.

    The node->treelet array and the per-child same-treelet flags are
    derived once per decomposition (a decomposition is bound to one
    tree, and sweeps traverse the same pair many times).
    """
    import numpy as np

    cached = getattr(decomposition, "_packet_tables", None)
    if cached is None:
        mapping = decomposition.assignment
        assignment = np.fromiter(
            (mapping[node_id] for node_id in range(len(bvh))),
            dtype=np.int64,
            count=len(bvh),
        )
        soa = bvh.arrays
        same_csr = assignment[soa.child_ids] == np.repeat(
            assignment, soa.child_counts
        )
        cached = (assignment, same_csr)
        try:
            decomposition._packet_tables = cached
        except AttributeError:  # e.g. __slots__; just rebuild next call
            pass
    return cached


def _traverse_packets(
    rays: Sequence[Ray],
    ctx: _PacketTrees,
    lane_ctx,
    packet_size: int,
) -> TraceSet:
    if packet_size <= 0:
        raise ValueError("packet_size must be positive")
    parts: List[TraceSet] = []
    for start in range(0, len(rays), packet_size):
        if lane_ctx is None:
            sliced = None
        else:
            sliced = (
                lane_ctx[0][start:start + packet_size],
            ) + lane_ctx[1:]
        parts.append(_traverse_packet(
            rays[start:start + packet_size],
            ctx,
            sliced,
        ))
    return TraceSet.concat(parts)


def traverse_forest_jobs(
    jobs: Sequence[
        Tuple[
            FlatBVH,
            Sequence[Ray],
            Optional[TreeletDecomposition],
            str,
        ]
    ],
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> List[TraceSet]:
    """Traverse several ``(bvh, rays, decomposition, order)`` jobs in
    shared packets spanning *different trees*.

    The trees are merged into one flat id space
    (:func:`_forest_statics`), so lanes from every scene of a sweep
    advance in the same driver iterations — the fixed per-iteration
    numpy dispatch cost, which dominates once any single packet runs
    low on live lanes, is paid once for the whole workload instead of
    once per scene.  Per-job results are exactly what the standalone
    per-tree calls would produce; callers pass a separate ray list per
    job (rays are mutated by early termination).
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
    single_tree = len(trees) == 1
    # A forest is memoized under the identity of its trees; the entry
    # holds the trees too, so the ids stay valid while it lives.
    ctx = _packet_statics(trees[0]) if single_tree else MEMO.get_or_build(
        "forest", tuple(map(id, trees)),
        lambda: (trees, _forest_statics(tuple(trees))),
    )[1]
    all_rays: List[Ray] = []
    job_of_lane_parts: List = []
    assign_list: List = []
    orders: List[str] = []
    same_rows: List = []
    job_tree_list: List[int] = []
    for j, (bvh, rays, dec, order) in enumerate(jobs):
        all_rays.extend(rays)
        job_of_lane_parts.append(np.full(len(rays), j, dtype=np.int64))
        orders.append(order if dec is not None else "nearest")
        job_tree_list.append(tree_index[id(bvh)])
        if dec is not None:
            assignment, same_csr = _two_stack_tables(bvh, dec)
            assign_list.append(assignment)
            same_rows.append(same_csr)
        else:
            assign_list.append(None)
            same_rows.append(None)
    any_two_stack = any(row is not None for row in same_rows)
    if any_two_stack:
        if len(jobs) == 1:
            same_flat = same_rows[0]
            sbase_of_job = None
        else:
            # Pack each job's flags for its own tree's child slots end
            # to end; DFS jobs get all-True flags (nothing ever
            # defers, which IS DFS).  ``sbase_of_job`` maps a merged
            # child-slot index back into the packed layout.
            child_sizes = np.diff(
                np.append(
                    ctx.child_base, np.int64(ctx.child_ids.size)
                )
            )
            sizes = [int(child_sizes[t]) for t in job_tree_list]
            packed_base = np.concatenate(
                [[0], np.cumsum(sizes[:-1])]
            ).astype(np.int64)
            same_flat = np.empty(int(sum(sizes)), dtype=bool)
            for j, row in enumerate(same_rows):
                seg = same_flat[packed_base[j]:packed_base[j] + sizes[j]]
                if row is None:
                    seg[:] = True
                else:
                    seg[:] = row
            sbase_of_job = packed_base - ctx.child_base[
                np.asarray(job_tree_list, dtype=np.int64)
            ]
    else:
        same_flat = None
        sbase_of_job = None
    if single_tree and not any_two_stack:
        lane_ctx = None
    else:
        lane_ctx = (
            np.concatenate(job_of_lane_parts),
            same_flat,
            sbase_of_job,
            assign_list,
            orders,
            None
            if single_tree
            else np.asarray(job_tree_list, dtype=np.int64),
        )
    traces = _traverse_packets(all_rays, ctx, lane_ctx, packet_size)
    out: List[TraceSet] = []
    pos = 0
    for _, rays, _, _ in jobs:
        out.append(traces[pos:pos + len(rays)])
        pos += len(rays)
    return out


def traverse_dfs_packet(
    rays: Sequence[Ray],
    bvh: FlatBVH,
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> TraceSet:
    """Packet-stepped DFS traversal; bit-identical to
    :func:`.dfs.traverse_dfs_batch` (the rays are mutated the same way).
    """
    return _traverse_packets(rays, _packet_statics(bvh), None, packet_size)


def traverse_two_stack_packet(
    rays: Sequence[Ray],
    bvh: FlatBVH,
    decomposition: TreeletDecomposition,
    deferred_order: str = "nearest",
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> TraceSet:
    """Packet-stepped two-stack (Algorithm 1) traversal; bit-identical
    to :func:`.two_stack.traverse_two_stack_batch`.
    """
    import numpy as np

    assignment, same_csr = _two_stack_tables(bvh, decomposition)
    lane_ctx = (
        np.zeros(len(rays), dtype=np.int64),
        same_csr,
        None,
        [assignment],
        [deferred_order],
        None,
    )
    return _traverse_packets(
        rays, _packet_statics(bvh), lane_ctx, packet_size
    )
