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
that an exact bound rules out are never scored (see integrate).
"""

from __future__ import annotations

import logging
import math
import time
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
        if not (0.0 < self.hellinger_threshold < 1.0):
            raise ValueError("hellinger_threshold must lie in (0, 1)")
        if not (0.0 <= self.confidence_threshold <= 1.0):
            raise ValueError("confidence_threshold must lie in [0, 1]")
        if self.top_k_relations < 0:
            raise ValueError("top_k_relations must be >= 0")
        if not (self.min_depth > 0.0):
            raise ValueError("min_depth must be positive")
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
    0.0 for bit-identical inputs. Raises DegenerateCovarianceError if either
    input covariance, or their average, has determinant below the guard.
    """
    cov_a = a.cov.reshape(9).tolist()
    cov_b = b.cov.reshape(9).tolist()
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
    lifted, its index, the detection and the depth map its centroid depth
    came from (or None); the positions in lifts of the nodes' detections;
    and per detection lifted, its box (cx, cy, w, h) and its lifted mean."""

    lifts: "list[tuple[int, Detection, DepthMap | None]]"
    kept: list[int]
    boxes: np.ndarray
    means: np.ndarray


def _eval_point_pass(
    local: LocalSSG,
    cam: CameraIntrinsics,
    pose: CameraPose,
    cfg: FusionConfig,
    depth_provider: Callable[[str], "DepthMap"] | None,
    rng: np.random.Generator | None,
    floors: list[float] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], list[int]]:
    """_frame_eval_points over the detections build_local_graph lifted the
    local graph from, with keys from rng (default_rng(0) if None). A
    detection whose centroid depth came with it reads its depth_ref's map, if
    any; one that cannot be read gives no map."""
    lifts, kept, boxes, means = local.eval_sources
    maps: list["DepthMap | None"] = []
    for k in kept:
        _, det, depth_map = lifts[k]
        if depth_map is None and depth_provider is not None and det.depth_ref is not None:
            try:
                depth_map = depth_provider(det.depth_ref)
            except (SceneFuseError, OSError):
                depth_map = None
        maps.append(depth_map)
    if len(kept) < len(lifts):
        boxes, means = boxes[kept], means[kept]
    if rng is None:
        rng = np.random.default_rng(0)
    return _frame_eval_points(boxes, maps, means, cam, pose, cfg.eval_point_cap, rng, floors)


def build_local_graph(
    frame: "FrameRecord",
    cam: CameraIntrinsics,
    pose: CameraPose,
    cfg: FusionConfig,
    *,
    depth_provider: Callable[[str], "DepthMap"] | None = None,
    record_eval_points: bool = False,
    rng: np.random.Generator | None = None,
) -> LocalSSG:
    """Lift one frame's detections into a per-frame graph.

    Detections below the confidence threshold are dropped silently; a
    detection whose depth is missing/invalid or whose lift fails is dropped
    with a debug log but never aborts the frame. Relations survive only if
    both endpoints survived; duplicates per (subject, object) keep the
    highest score; the survivors are sorted by descending score and truncated
    to top_k_relations. Self-relations are dropped.
    """
    from .streams import sample_centroid_depth

    lifts: list[tuple[int, "Detection", "DepthMap | None"]] = []
    depths: list[float] = []
    for det_idx, det in enumerate(frame.detections):
        if det.score < cfg.confidence_threshold:
            continue
        depth_map = None
        z = det.centroid_depth
        if z is None:
            if depth_provider is None or det.depth_ref is None:
                log.debug("frame %d det %d: no depth source, dropped", frame.frame_id, det_idx)
                continue
            try:
                depth_map = depth_provider(det.depth_ref)
                z = sample_centroid_depth(det, depth_map)
            except (MissingDepthError, SceneFuseError, OSError) as exc:
                log.debug("frame %d det %d: depth lookup failed (%s), dropped", frame.frame_id, det_idx, exc)
                continue
        if not math.isfinite(z) or z < cfg.min_depth:
            log.debug("frame %d det %d: depth %r rejected, dropped", frame.frame_id, det_idx, z)
            continue
        lifts.append((det_idx, det, depth_map))
        depths.append(z)
    # the columns of the local graph, one entry per detection kept
    index_map: dict[int, int] = {}  # detection index -> local node id
    kept: list[int] = []  # positions in lifts
    class_ids: list[int] = []
    scores: list[float] = []
    row_means: list[list[float]] = []
    row_covs: list[list[float]] = []
    if lifts:
        boxes = np.array([(det.cx, det.cy, det.w, det.h) for _, det, _ in lifts])
        means, covs, errors = lift_detections(boxes, np.array(depths), cam, pose)
        for k, (det_idx, det, _) in enumerate(lifts):
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
    n = len(kept)
    local = LocalSSG.from_columns(frame.frame_id, edges, class_ids, scores, row_means, row_covs,
                                  [None] * n, [None] * n, [0] * n)
    if kept:
        local.eval_sources = _EvalSources(lifts, kept, boxes, means)
        if record_eval_points:
            local.eval_points, local.eval_keys, local.eval_seen = _eval_point_pass(
                local, cam, pose, cfg, depth_provider, rng,
            )
    return local


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
    when it alone exceeds the bound. Also d' S^-1 d >= |d|^2 / tr S, hence
    B >= |d|^2 / (8 tr S) = |d|^2 / (4 (tr A + tr B)), and the cull rules a
    pair out when |d|^2 > 4 B* (tr A + tr B), i.e. beyond a reach of 4 times
    this bound.
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

    The global graph is mutated in place. Node weight is conserved: the total
    global weight grows by exactly the sum of local node weights. Every local
    edge lands on the merged endpoints' global nodes unless the merge made it
    a self-loop, in which case it is dropped.

    Candidates are culled before they are scored: a same-class candidate that
    the reach of _gate_bound rules out, in the current state of both
    Gaussians, could never pass the gate, so only the others are scored and
    the decisions are those of scoring every candidate. Global candidates
    come from the graph's x index (GlobalSSG.x_range with the class's trace
    bound), queued peers from a scan of the queue. The scorer, given the
    same bound, stops early on a pair that cannot pass the gate either.

    Eval-point reservoirs play no part in the decisions. Once every local
    node is placed, each one's reservoir merges into its global node's lazy
    reservoir (_merge_reservoirs), in merge order: the local nodes each root
    carried (the root, then the queued peers it absorbed, in absorb order),
    root by root, in the order the roots left the queue; a node a root
    created gets that root's first. The merges are by the points' keys,
    which the local graph carries (LocalSSG), so integrate draws no random
    numbers; and merges by key are associative, so this keeps the points,
    in the order, that merging at every decision would.

    integrate reads only the local graph's columns, never its `nodes` view,
    and leaves them as they are; it sets local.placement to the merge order.
    """
    cls = local.class_ids
    n = len(cls)
    events: list[MergeEvent] = []
    if n == 0:
        if local.edges:
            raise MergeContractError("local graph has edges but no nodes")
        return global_graph, events

    # working state of the queue, per local node: the local graph's rows and
    # sums (copied where a merge of queued peers changes them), the
    # Gaussian's log det and trace, and the global node it ends in
    weight = list(local.weights)
    score = list(local.score_sums)
    qm = list(local.row_means)
    qc = list(local.row_covs)
    qld = [log_det9(c) for c in qc]
    qtr = [c[0] + c[4] + c[8] for c in qc]
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
    gtr = global_graph.row_traces

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
        carried = [i]  # the root, then the queued peers it absorbs
        gid = -1
        while True:
            m, tr = qm[i], qtr[i]
            m0, m1, m2 = m
            cand_q = []
            for j in peers_of[ci]:
                if alive[j]:
                    n0, n1, n2 = qm[j]
                    d0, d1, d2 = n0 - m0, n1 - m1, n2 - m2
                    if not (d0 * d0 + d1 * d1 + d2 * d2 > reach * (tr + qtr[j])):
                        cand_q.append(j)
            # the class's nodes within the bound's reach along x, then the bound itself
            w2 = reach * (tr + global_graph.trace_bound(ci))
            w = (math.sqrt(w2) * _SLAB_PAD if w2 > 0.0 else 0.0) + _ULP_PAD * abs(m0)
            cand_g = []
            for g in global_graph.x_range(ci, m0 - w, m0 + w):
                n0, n1, n2 = gm[g]
                d0, d1, d2 = n0 - m0, n1 - m1, n2 - m2
                if not (d0 * d0 + d1 * d1 + d2 * d2 > reach * (tr + gtr[g])):
                    cand_g.append(g)
            if len(cand_g) > 1:
                cand_g.sort()  # candidate order is ascending id
            best_q, dq, best_g, dg = best_match(
                m, qc[i], qld[i],
                qm, qc, qld, cand_q,
                gm, gc, gld, cand_g,
                DET_MIN, bound,
            )
            if dq >= threshold and dg >= threshold:
                break
            if dg <= dq:
                gid = cand_g[best_g]
                gnode = global_graph.nodes[gid]
                mean, cov = merge_moments_into(float(gnode.weight), gm[gid], gc[gid], float(weight[i]), m, qc[i])
                gnode.weight += weight[i]
                gnode.score_sum += score[i]
                global_graph.set_row(gid, mean, cov)
                events.append(MergeEvent(gid, -(i + 1), dg, local.frame_id))
                break
            j = cand_q[best_q]
            queue.remove(j)
            alive[j] = False
            mean, cov = merge_moments_into(float(weight[i]), m, qc[i], float(weight[j]), qm[j], qc[j])
            qm[i], qc[i], qld[i], qtr[i] = mean, cov, log_det9(cov), cov[0] + cov[4] + cov[8]
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

    _merge_reservoirs(global_graph, placement, local.eval_points, local.eval_keys, local.eval_seen,
                      cfg.eval_point_cap)
    local.placement = placement
    for edge in local.edges:
        s, o = edge.subject_id, edge.object_id
        if not (0 <= s < n and 0 <= o < n):
            raise MergeContractError(f"edge references unknown local node {o if 0 <= s < n else s}")
        s, o = gid_of[s], gid_of[o]
        if s == o:
            continue
        global_graph.accumulate_edge(s, o, edge.votes)
    return global_graph, events


def _merge_reservoirs(
    global_graph: GlobalSSG,
    placement: list[tuple[int, int]],
    points: list[np.ndarray | None],
    keys: list[np.ndarray | None],
    seen: list[int],
    cap: int,
) -> None:
    """Merge local node k's eval-point reservoir (points[k], keys[k],
    seen[k]) into global node g's, for each (k, g) of placement in turn."""
    nodes = global_graph.nodes
    for k, gid in placement:
        node = nodes[gid]
        chunk, held = points[k], node._points
        if chunk is None and (held is None or len(held)):
            node.eval_seen += seen[k]  # nothing to merge, and no empty held reservoir to clear
        else:
            node.merge_eval_points(chunk, keys[k], seen[k], cap)


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

    With record_eval_points, the frame's eval points are recorded after
    integrate has placed its nodes: the pass (_eval_point_pass) draws the
    keys build_local_graph(record_eval_points=True) would, and drops the
    pixels that the reservoir they go to can no longer keep (its floor), so
    that they are never back-projected. The graph is the one that
    build_local_graph(record_eval_points=True) and integrate would give.
    lift_seconds covers the pass.

    A frame whose construction fails outright is skipped with a warning and
    leaves the state untouched; integrate itself is total for any local
    graph that build_local_graph can produce.
    """
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
    if record_eval_points and local.placement:
        nodes, cap = state.nodes, cfg.eval_point_cap
        floors = [0.0] * len(local.placement)
        for k, gid in local.placement:
            floors[k] = nodes[gid].eval_floor(cap)
        points, keys, seen = _eval_point_pass(local, frame.camera, frame.pose, cfg, depth_provider, rng, floors)
        _merge_reservoirs(state, local.placement, points, keys, seen, cap)
    result.lifted = len(local.class_ids)
    result.dropped = len(frame.detections) - result.lifted
    result.merge_events = events
    result.lift_seconds = t1 - t0 + time.perf_counter() - t2
    result.merge_seconds = t2 - t1
    return result
