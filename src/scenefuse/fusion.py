"""Per-frame graph construction and streaming fusion into the global graph.

The engine consumes one frame at a time: detections above the confidence
threshold are lifted to 3D Gaussians (geometry module), wrapped in a local
per-frame graph together with surviving relations, and then folded into the
global graph by greedy Hellinger-gated merging. Merging is symmetric moment
matching, so node weights are strictly additive and the Gaussian of a merged
node is the moment projection of the weighted mixture of its parents.

The integrate step processes local nodes in descending detection-score
order. For each node it finds the joint nearest same-class candidate among
(a) nodes still waiting in the queue and (b) existing global nodes. If the
nearest distance clears the merge threshold the node is merged (global
candidates win exact ties); a node merged with another queued node replaces
it at the front of the queue so the combined evidence is reconsidered
immediately. Nodes with no candidate below the threshold are inserted as new
global nodes. Local nodes whose covariance is degenerate (non-positive
determinant) skip matching entirely and are inserted directly. Candidates
that an exact bound rules out are never scored (see integrate). A frame's
evaluation points are recorded after its decisions (record_points).
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import _accel
from ._accel import best_match, merge_moments_into
from .errors import DegenerateCovarianceError, MergeContractError, MissingDepthError, SceneFuseError
from .geometry import CameraIntrinsics, CameraPose, Gaussian3D, Z_MIN, lift_detections
from .geometry import lift_detection  # noqa: F401  (fusion.lift_detection: perfbench's tracer wraps it)
from .graph import DET_MIN, GlobalSSG, LocalSSG, RelationEdge, log_det9, top_keys
from .graph import merge_point_reservoirs  # noqa: F401  (fusion.merge_point_reservoirs: perfbench's tracer wraps it)

if TYPE_CHECKING:  # pragma: no cover
    from .streams import DepthMap, Detection, FrameRecord

log = logging.getLogger("scenefuse")

_NEG_INF = -math.inf


@dataclass(frozen=True)
class FusionConfig:
    """Knobs of the fusion engine.

    hellinger_threshold: merge gate; candidate pairs at or above it stay apart.
    confidence_threshold: detections scoring below it are dropped at ingest.
    top_k_relations: per-frame cap on relations kept after deduplication.
    min_depth: centroid depths below this reject the detection.
    eval_point_cap: per-node reservoir size for evaluation points.
    """

    hellinger_threshold: float = 0.85
    confidence_threshold: float = 0.7
    top_k_relations: int = 10
    min_depth: float = Z_MIN
    eval_point_cap: int = 256

    def validate(self) -> None:
        """ValueError for a setting the engine cannot run with: a threshold
        or min_depth that is not a number, a count that is not an integer
        (bools are neither), or one out of its range."""
        for name in ("hellinger_threshold", "confidence_threshold", "min_depth"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number")
        for name in ("top_k_relations", "eval_point_cap"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer")
        if not (0.0 < self.hellinger_threshold < 1.0):
            raise ValueError("hellinger_threshold must lie in (0, 1)")
        if not (0.0 <= self.confidence_threshold <= 1.0):
            raise ValueError("confidence_threshold must lie in [0, 1]")
        if self.top_k_relations < 0:
            raise ValueError("top_k_relations must be >= 0")
        if not (0.0 < self.min_depth < math.inf):
            raise ValueError("min_depth must be positive and finite")
        if self.eval_point_cap < 1:
            raise ValueError("eval_point_cap must be >= 1")


class MergeEvent(NamedTuple):
    """One merge decision. Ids >= 0 are global node ids; a local queue slot
    i is encoded as -(i + 1)."""

    kept_id: int
    absorbed_id: int
    distance: float
    frame_id: int


@dataclass
class FrameResult:
    """Outcome of processing one frame."""

    frame_id: int
    lifted: int = 0
    dropped: int = 0
    merge_events: list[MergeEvent] = field(default_factory=list)
    lift_seconds: float = 0.0
    merge_seconds: float = 0.0
    skipped: bool = False
    skip_reason: str = ""


def bhattacharyya(a: Gaussian3D, b: Gaussian3D) -> float:
    """Bhattacharyya distance between two 3D Gaussians.

    The engine's kernel (_accel.bhattacharyya) on log-dets from
    graph.log_det9, as integrate scores a pair, so the distance is exactly
    0.0 for bit-identical inputs. The kernel reads only the upper triangle,
    so each covariance C is first symmetrized as (C + C') 0.5, which leaves
    a symmetric one as it is. Raises DegenerateCovarianceError if either
    input covariance, or their average, has determinant below the guard.
    """
    cov_a = ((a.cov + a.cov.T) * 0.5).reshape(9).tolist()
    cov_b = ((b.cov + b.cov.T) * 0.5).reshape(9).tolist()
    ld_a, ld_b = log_det9(cov_a), log_det9(cov_b)
    for ld, who in ((ld_a, "first"), (ld_b, "second")):
        if ld == _NEG_INF:
            raise DegenerateCovarianceError(f"{who} covariance has determinant <= {DET_MIN:g}")
    dist = _accel.bhattacharyya(a.mean.tolist(), cov_a, ld_a, b.mean.tolist(), cov_b, ld_b, DET_MIN)
    if dist == math.inf:
        raise DegenerateCovarianceError(f"averaged covariance has determinant <= {DET_MIN:g}")
    return dist


def hellinger(a: Gaussian3D, b: Gaussian3D) -> float:
    """Hellinger distance in [0, 1): sqrt(1 - exp(-B)). A merge that integrate
    records (MergeEvent.distance) has exactly this distance of the two
    Gaussians it merged."""
    return _accel.hellinger_of(bhattacharyya(a, b))


def _frame_eval_points(
    boxes: np.ndarray,
    maps: "list[DepthMap | None]",
    means: np.ndarray,
    cam: CameraIntrinsics,
    pose: CameraPose,
    cap: int,
    rng: np.random.Generator,
    floors: list[float] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], list[int]]:
    """Evaluation points of a frame's detections, in one pass over their windows.

    boxes is (n, 4): pixel center cx, cy and extents w, h; maps[k] is the
    depth map of detection k or None; means[k] is its lifted mean. Returns,
    per detection, its points (k_i, 3), one sampling key per point and the
    number of points it offered.

    A detection's window is its central half-size sub-window: the half-open
    pixel ranges [ceil(c - extent/4), ceil(c + extent/4)) in each axis,
    intersected with the image. Its valid pixels (finite, positive depth)
    are back-projected to the world frame, and each gets a key drawn
    uniformly from rng: one draw per pixel, in detection order and row-major
    pixel order within a window. A detection keeps the points of its `cap`
    largest keys (ties to the earlier pixel), in pixel order; all its valid
    pixels count as offered. A detection with no map or no valid pixel
    offers its mean as its one point; those keys are drawn after the
    pixels'. The world transform is elementwise, so that a point rounds the
    same however many points share the pass.

    floors[k], if given, is the floor of the reservoir detection k's points
    go to (_GlobalNode.eval_floor): pixels whose keys are at or below it are
    dropped before they are back-projected, as that reservoir could never
    keep them. They still count as offered, and the keys drawn are the same.
    """
    n = len(boxes)
    groups = list({id(m): m for m in maps if m is not None}.values())  # distinct maps
    limits = np.array([(0, 0) if m is None else (m.width, m.height) for m in maps], dtype=np.float64)
    limits = limits.reshape(n, 2)
    quarter = boxes[:, 2:] / 4.0
    lo = np.minimum(np.maximum(np.ceil(boxes[:, :2] - quarter), 0.0), limits).astype(np.int64)
    hi = np.minimum(np.maximum(np.ceil(boxes[:, :2] + quarter), 0.0), limits).astype(np.int64)
    cols, rows = np.maximum(hi - lo, 0).T
    # every window pixel, in detection order and row-major within a window,
    # laid out row by row: a row's pixels share v, and u counts up from its lo
    row_det = np.repeat(np.arange(n), rows)
    row_len = cols[row_det]
    row_v = lo[row_det, 1] + (np.arange(len(row_det)) - (np.cumsum(rows) - rows)[row_det])
    row_u0 = lo[row_det, 0] - (np.cumsum(row_len) - row_len)
    det = np.repeat(row_det, row_len)
    v = np.repeat(row_v, row_len)
    u = np.arange(len(det)) + np.repeat(row_u0, row_len)
    if len(groups) == 1:
        d = groups[0].values[v, u].astype(np.float64, copy=False)
    else:
        slot = {id(m): g for g, m in enumerate(groups)}
        pixel_group = np.array([-1 if m is None else slot[id(m)] for m in maps], dtype=np.int64)[det]
        d = np.empty(len(det))
        for g, m in enumerate(groups):
            sel = pixel_group == g
            d[sel] = m.values[v[sel], u[sel]]
    valid = (np.isfinite(d) & (d > 0.0)).nonzero()[0]
    det = det[valid]
    offered = np.bincount(det, minlength=n).tolist()
    keys = rng.random(len(det) + offered.count(0))
    fallback_keys = keys[len(det):]
    keys = keys[: len(det)]
    held = offered  # per detection, the valid pixels its reservoir can still keep
    if floors is not None:
        above = keys > np.array(floors)[det]
        if not above.all():
            kept = above.nonzero()[0]
            valid, det, keys = valid[kept], det[kept], keys[kept]
            held = np.bincount(det, minlength=n).tolist()
    if max(held, default=0) > cap:
        keep = np.ones(len(det), dtype=bool)
        start = 0
        for m in held:
            if m > cap:
                keep[start:start + m] = False
                keep[start + top_keys(keys[start:start + m], cap)] = True
            start += m
        kept = keep.nonzero()[0]
        valid, keys = valid[kept], keys[kept]
    d = d[valid]
    x = (u[valid].astype(np.float64) - cam.cx) / cam.fx * d
    y = (v[valid].astype(np.float64) - cam.cy) / cam.fy * d
    r = pose.rotation
    # column i is x * r[i, 0] + y * r[i, 1] + d * r[i, 2] + t[i], summed left to right
    pts = np.multiply.outer(x, r[:, 0])
    pts += np.multiply.outer(y, r[:, 1])
    pts += np.multiply.outer(d, r[:, 2])
    pts += pose.translation
    points: list[np.ndarray] = []
    point_keys: list[np.ndarray] = []
    start = f = 0
    for k, m in enumerate(offered):
        if m:
            stop = start + min(held[k], cap)
            points.append(pts[start:stop].copy())
            point_keys.append(keys[start:stop].copy())
            start = stop
        else:
            points.append(means[k].reshape(1, 3).copy())
            point_keys.append(fallback_keys[f:f + 1].copy())
            f += 1
    return points, point_keys, [max(m, 1) for m in offered]


class _EvalSources(NamedTuple):
    """What build_local_graph lifted a local graph's nodes from: per detection
    lifted, its index and the detection; the positions in lifts of the
    nodes' detections; per detection lifted, its box (cx, cy, w, h) and its
    lifted mean; the frame's camera and pose; and the frame's depth maps by
    ref, each read once (None for a read that failed)."""

    lifts: "list[tuple[int, Detection]]"
    kept: list[int]
    boxes: np.ndarray
    means: np.ndarray
    cam: CameraIntrinsics
    pose: CameraPose
    depth_maps: "dict[str, DepthMap | None]"


def _eval_point_pass(
    local: LocalSSG,
    cfg: FusionConfig,
    depth_provider: Callable[[str], "DepthMap"] | None,
    rng: np.random.Generator,
    floors: list[float] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], list[int]]:
    """_frame_eval_points over the detections build_local_graph lifted the
    local graph from, with keys from rng. A detection reads its depth_ref's
    map, if any, from the frame's table (eval_sources.depth_maps), and a ref
    not in it yet is read into it: each distinct ref is read once per frame.
    One that cannot be read gives no map, with a debug log."""
    lifts, kept, boxes, means, cam, pose, depth_maps = local.eval_sources
    maps: list["DepthMap | None"] = []
    for k in kept:
        ref = lifts[k][1].depth_ref
        if ref is not None and ref not in depth_maps and depth_provider is not None:
            depth_maps[ref] = None  # stays None if the read raises
            try:
                depth_maps[ref] = depth_provider(ref)
            except (SceneFuseError, OSError) as exc:
                log.debug("frame %d: depth map %s unreadable (%s), eval points fall back to means",
                          local.frame_id, ref, exc)
        maps.append(depth_maps.get(ref))
    if len(kept) < len(lifts):
        boxes, means = boxes[kept], means[kept]
    return _frame_eval_points(boxes, maps, means, cam, pose, cfg.eval_point_cap, rng, floors)


def build_local_graph(
    frame: "FrameRecord",
    cam: CameraIntrinsics,
    pose: CameraPose,
    cfg: FusionConfig,
    *,
    depth_provider: Callable[[str], "DepthMap"] | None = None,
) -> LocalSSG:
    """Lift one frame's detections into a per-frame graph.

    Detections below the confidence threshold are dropped silently; a
    detection whose depth is missing/invalid or whose lift fails is dropped
    with a debug log but never aborts the frame. Relations survive only if
    both endpoints survived; duplicates per (subject, object) keep the
    highest score; the survivors are sorted by descending score and truncated
    to top_k_relations. Self-relations are dropped.

    Each distinct depth_ref is read once per frame, through depth_provider:
    a read that fails is not tried again for the frame's other detections,
    each of which is dropped with its own debug log.

    The local graph holds no eval points; it keeps what its nodes were
    lifted from (eval_sources), from which record_points draws them once
    integrate has placed the nodes.
    """
    lifts: list[tuple[int, "Detection"]] = []
    depth_maps: dict[str, "DepthMap | None"] = {}  # this frame's refs: the map read, or None if it failed
    depths: list[float] = []
    coords: list[float] = []  # the boxes, (cx, cy, w, h) per detection lifted
    for det_idx, det in enumerate(frame.detections):
        if det.score < cfg.confidence_threshold:
            continue
        z = det.centroid_depth
        if z is None:
            ref = det.depth_ref
            if depth_provider is None or ref is None:
                log.debug("frame %d det %d: no depth source, dropped", frame.frame_id, det_idx)
                continue
            from .streams import sample_centroid_depth

            try:
                if ref not in depth_maps:
                    depth_maps[ref] = None  # stays None if the read raises
                    depth_maps[ref] = depth_provider(ref)
                elif depth_maps[ref] is None:
                    raise MissingDepthError(f"depth map {ref} could not be read earlier in the frame")
                z = sample_centroid_depth(det, depth_maps[ref])
            except (MissingDepthError, SceneFuseError, OSError) as exc:
                log.debug("frame %d det %d: depth lookup failed (%s), dropped", frame.frame_id, det_idx, exc)
                continue
        if not math.isfinite(z) or z < cfg.min_depth:
            log.debug("frame %d det %d: depth %r rejected, dropped", frame.frame_id, det_idx, z)
            continue
        lifts.append((det_idx, det))
        depths.append(z)
        coords += (det.cx, det.cy, det.w, det.h)
    # the columns of the local graph, one entry per detection kept
    index_map: dict[int, int] = {}  # detection index -> local node id
    kept: list[int] = []  # positions in lifts
    class_ids: list[int] = []
    scores: list[float] = []
    row_means: list[list[float]] = []
    row_covs: list[list[float]] = []
    if lifts:
        boxes = np.array(coords).reshape(-1, 4)
        means, covs, errors = lift_detections(boxes, np.array(depths), cam, pose)
        for k, (det_idx, det) in enumerate(lifts):
            if errors[k] is None:
                index_map[det_idx] = len(kept)
                kept.append(k)
                class_ids.append(det.class_id)
                scores.append(det.score)
            else:
                log.debug("frame %d det %d: lift failed (%s), dropped", frame.frame_id, det_idx, errors[k])
        row_means, row_covs = means.tolist(), covs.reshape(-1, 9).tolist()
        if len(kept) < len(lifts):
            row_means = [row_means[k] for k in kept]
            row_covs = [row_covs[k] for k in kept]
    best: dict[tuple[int, int], tuple[int, float]] = {}
    for rel in frame.relations:
        s = index_map.get(rel.subject)
        o = index_map.get(rel.object)
        if s is None or o is None or s == o:
            continue
        key = (s, o)
        if key not in best or rel.score > best[key][1]:
            best[key] = (rel.predicate, rel.score)
    ranked = sorted(best.items(), key=lambda kv: -kv[1][1])[: cfg.top_k_relations]
    edges = [
        RelationEdge(subject_id=s, object_id=o, votes={pid: [1, score]})
        for (s, o), (pid, score) in ranked
    ]
    sources = _EvalSources(lifts, kept, boxes, means, cam, pose, depth_maps) if kept else None
    return LocalSSG(frame.frame_id, edges, class_ids, scores, row_means, row_covs, sources)


# Relative slack on the cull bound and the scorer's early reject, for rounding
# in the computed distance. Both stay exact while the rounding error of the
# computed Bhattacharyya distance is below this share of it, i.e. for averaged
# covariances with a condition number up to about 1e8.
_CULL_MARGIN = 1e-6


def _gate_bound(threshold: float) -> float:
    """B* (1 + _CULL_MARGIN): a pair whose Bhattacharyya distance, or any lower
    bound of it, exceeds this cannot merge.

    H < delta means B < B* = -ln(1 - delta^2). For symmetric positive definite
    A and B, log det is concave, so the log-det term of B is >= 0 and
    B >= (1/8) d' S^-1 d with S = (A + B)/2: the scorer stops at that term
    when it alone exceeds the bound. Also, on every axis k, d' S^-1 d >=
    d_k^2 / S_kk (Cauchy-Schwarz: d_k = e_k' S^(1/2) S^(-1/2) d), hence
    B >= d_k^2 / (8 S_kk) = d_k^2 / (4 (A_kk + B_kk)), and the cull rules a
    pair out when d_k^2 > 4 B* (A_kk + B_kk) on any axis, i.e. beyond a reach
    of 4 times this bound. This is never weaker than the same test on the
    sums over k, |d|^2 > 4 B* (tr A + tr B): if that holds, some axis's
    does.
    """
    return -math.log1p(-threshold * threshold) * (1.0 + _CULL_MARGIN)


# Padding of the x slab searched for global candidates: relative, for the
# rounding of its half-width, and relative to |x|, for the rounding of x -/+ w.
_SLAB_PAD = 1.0 + 1e-9
_ULP_PAD = 1e-15


def integrate(
    local: LocalSSG,
    global_graph: GlobalSSG,
    cfg: FusionConfig,
) -> tuple[GlobalSSG, list[MergeEvent]]:
    """Fold a local graph into the global graph; returns it plus merge events.

    The global graph is mutated in place. Node weight is conserved: every
    local node is one detection, and the total global weight grows by
    exactly their number. Every local edge lands on the merged endpoints'
    global nodes unless the merge made it a self-loop, in which case it is
    dropped. An edge whose endpoint is not a local node raises
    MergeContractError before the global graph changes.

    Candidates are culled before they are scored: a same-class candidate that
    the per-axis reach of _gate_bound rules out, in the current state of both
    Gaussians, could never pass the gate, so only the others are scored and
    the decisions are those of scoring every candidate. Global candidates
    come from the graph's per-class view (GlobalSSG.x_order, bisected to
    the x reach of the class's x_var_bounds), queued peers from a scan of
    the queue. The scorer, given the same bound, stops early on a pair that
    cannot pass the gate either.

    Eval-point reservoirs play no part in the decisions, and integrate
    leaves them as they are; record_points records them afterwards.

    integrate reads the local graph's columns and leaves them as they are.
    It sets local.placement to the merge order: the local nodes each root
    carried (the root, then the queued peers it absorbed, in absorb order),
    root by root, in the order the roots left the queue, each with the
    global node it ended in.
    """
    cls = local.class_ids
    n = len(cls)
    events: list[MergeEvent] = []
    if n == 0:
        if local.edges:
            raise MergeContractError("local graph has edges but no nodes")
        return global_graph, events
    for edge in local.edges:
        s, o = edge.subject_id, edge.object_id
        if not (0 <= s < n and 0 <= o < n):
            raise MergeContractError(f"edge references unknown local node {o if 0 <= s < n else s}")

    # working state of the queue, per local node: the local graph's rows and
    # sums (copied where a merge of queued peers changes them), the
    # Gaussian's log det, and the global node it ends in
    weight = [1] * n
    score = list(local.score_sums)
    qm = list(local.row_means)
    qc = list(local.row_covs)
    qld = [log_det9(c) for c in qc]
    gid_of = [0] * n
    placement: list[tuple[int, int]] = []  # (local node, global id), in merge order
    peers_of: dict[int, list[int]] = {}
    for i, cid in enumerate(cls):
        peers_of.setdefault(cid, []).append(i)
    alive = [True] * n
    queue = deque(sorted(range(n), key=score.__getitem__, reverse=True))  # stable: ties by id
    threshold = cfg.hellinger_threshold
    bound = _gate_bound(threshold)
    reach = 4.0 * bound
    gm, gc, gld = global_graph.row_means, global_graph.row_covs, global_graph.row_logdets
    x_order, x_var_bounds = global_graph.x_order, global_graph.x_var_bounds

    def insert(i: int) -> int:
        return global_graph.add_node(
            class_id=cls[i],
            gaussian=Gaussian3D(mean=np.array(qm[i]), cov=np.array(qc[i])),
            weight=weight[i],
            score_sum=score[i],
        ).id

    while queue:
        i = queue.popleft()
        alive[i] = False
        if qld[i] == _NEG_INF:
            log.warning(
                "frame %d: local node %d has degenerate covariance, inserted without matching",
                local.frame_id,
                i,
            )
            gid_of[i] = insert(i)
            placement.append((i, gid_of[i]))
            continue
        ci = cls[i]
        # the class's index, which changes only once the root is placed
        order = x_order.get(ci)
        class_bound = x_var_bounds.get(ci)
        carried = [i]  # the root, then the queued peers it absorbs
        gid = -1
        while True:
            m, c = qm[i], qc[i]
            m0, m1, m2 = m
            v0, v1, v2 = c[0], c[4], c[8]
            cand_q = []
            for j in peers_of[ci]:
                if alive[j]:
                    n0, n1, n2 = qm[j]
                    d0, d1, d2 = n0 - m0, n1 - m1, n2 - m2
                    b = qc[j]
                    if not (d0 * d0 > reach * (v0 + b[0]) or d1 * d1 > reach * (v1 + b[4])
                            or d2 * d2 > reach * (v2 + b[8])):
                        cand_q.append(j)
            # the class's nodes within the bound's reach along x, then the bound on each axis
            cand_g = []
            if order is not None:
                xs, ids = order
                w2 = reach * (v0 + class_bound)
                w = (math.sqrt(w2) * _SLAB_PAD if w2 > 0.0 else 0.0) + _ULP_PAD * abs(m0)
                for g in ids[bisect_left(xs, m0 - w):bisect_right(xs, m0 + w)]:
                    n0, n1, n2 = gm[g]
                    d0, d1, d2 = n0 - m0, n1 - m1, n2 - m2
                    b = gc[g]
                    if not (d0 * d0 > reach * (v0 + b[0]) or d1 * d1 > reach * (v1 + b[4])
                            or d2 * d2 > reach * (v2 + b[8])):
                        cand_g.append(g)
                if len(cand_g) > 1:
                    cand_g.sort()  # candidate order is ascending id
            best_q, dq, best_g, dg = best_match(
                m, c, qld[i],
                qm, qc, qld, cand_q,
                gm, gc, gld, cand_g,
                DET_MIN, bound,
            )
            if dq >= threshold and dg >= threshold:
                break
            if dg <= dq:
                gid = cand_g[best_g]
                gnode = global_graph.nodes[gid]
                mean, cov = merge_moments_into(float(gnode.weight), gm[gid], gc[gid], float(weight[i]), m, c)
                gnode.weight += weight[i]
                gnode.score_sum += score[i]
                global_graph.store_row(gid, ci, mean, cov)
                events.append(MergeEvent(gid, -(i + 1), dg, local.frame_id))
                break
            j = cand_q[best_q]
            queue.remove(j)
            alive[j] = False
            mean, cov = merge_moments_into(float(weight[i]), m, c, float(weight[j]), qm[j], qc[j])
            qm[i], qc[i], qld[i] = mean, cov, log_det9(cov)
            weight[i] += weight[j]
            score[i] += score[j]
            carried.append(j)
            events.append(MergeEvent(-(i + 1), -(j + 1), dq, local.frame_id))
            if qld[i] == _NEG_INF:
                break
        if gid < 0:
            gid = insert(i)
        for k in carried:
            gid_of[k] = gid
            placement.append((k, gid))

    local.placement = placement
    for edge in local.edges:
        s, o = gid_of[edge.subject_id], gid_of[edge.object_id]
        if s == o:
            continue
        global_graph.accumulate_edge(s, o, edge.votes)
    return global_graph, events


def record_points(
    local: LocalSSG,
    graph: GlobalSSG,
    cfg: FusionConfig,
    *,
    rng: np.random.Generator,
    depth_provider: Callable[[str], "DepthMap"] | None = None,
) -> None:
    """Record the eval points of a local graph that integrate has placed.

    Each local node's reservoir merges into the lazy reservoir of the global
    node it ended in, in merge order (local.placement), so a node created in
    the frame takes its creator's points first. The merges are by the
    points' keys, and merges by key are associative, so this keeps the
    points, in the order, that merging at every decision would.

    The points are drawn here from what build_local_graph lifted the nodes
    from (local.eval_sources), in one pass over their detections' windows
    (_frame_eval_points) with keys from rng. The pass drops the pixels whose
    keys are at or below the floor of the reservoir they go to
    (_GlobalNode.eval_floor), which could never keep them, so they are never
    back-projected. A local graph without eval_sources, or one that
    integrate has not placed, records nothing and draws nothing.
    """
    placement = local.placement
    if not placement or local.eval_sources is None:
        return
    cap = cfg.eval_point_cap
    nodes = graph.nodes
    floors = [0.0] * len(placement)
    for k, gid in placement:
        floors[k] = nodes[gid].eval_floor(cap)
    points, keys, seen = _eval_point_pass(local, cfg, depth_provider, rng, floors)
    for k, gid in placement:
        nodes[gid].merge_eval_points(points[k], keys[k], seen[k], cap)


def process_frame(
    frame: "FrameRecord",
    state: GlobalSSG,
    cfg: FusionConfig,
    *,
    rng: np.random.Generator | None = None,
    depth_provider: Callable[[str], "DepthMap"] | None = None,
    record_eval_points: bool = False,
) -> FrameResult:
    """Lift one frame and integrate it, reporting per-stage wall time.

    With record_eval_points, the frame's eval points are recorded by
    record_points, with keys from rng, after integrate has placed its
    nodes; lift_seconds covers that step. record_eval_points without rng
    raises ValueError before the state is touched: a fixed default
    generator would give every frame the same keys.

    A frame whose construction fails outright is skipped with a warning and
    leaves the state untouched; integrate itself is total for any local
    graph that build_local_graph can produce.
    """
    if record_eval_points and rng is None:
        raise ValueError("record_eval_points needs rng, the generator of the points' keys")
    result = FrameResult(frame_id=frame.frame_id)
    t0 = time.perf_counter()
    try:
        frame.camera.validate()
        frame.pose.validate(tol=1e-6)
    except ValueError as exc:
        log.warning("frame %d skipped: %s", frame.frame_id, exc)
        result.skipped = True
        result.skip_reason = str(exc)
        return result
    try:
        local = build_local_graph(frame, frame.camera, frame.pose, cfg, depth_provider=depth_provider)
    except SceneFuseError as exc:
        log.warning("frame %d skipped: %s", frame.frame_id, exc)
        result.skipped = True
        result.skip_reason = str(exc)
        result.lift_seconds = time.perf_counter() - t0
        return result
    t1 = time.perf_counter()
    _, events = integrate(local, state, cfg)
    t2 = time.perf_counter()
    if record_eval_points:
        record_points(local, state, cfg, rng=rng, depth_provider=depth_provider)
    result.lifted = len(local.class_ids)
    result.dropped = len(frame.detections) - result.lifted
    result.merge_events = events
    result.lift_seconds = t1 - t0 + time.perf_counter() - t2
    result.merge_seconds = t2 - t1
    return result
