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
from .graph import (
    DET_MIN,
    GlobalSSG,
    LocalSSG,
    RelationEdge,
    log_det9,
    merge_point_reservoirs,
    top_keys,
)

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
    pixels'. The world transform is written out per coordinate so that a
    point rounds the same however many points share the pass.
    """
    n = len(boxes)
    groups = list({id(m): m for m in maps if m is not None}.values())  # distinct maps
    limits = np.array([(0, 0) if m is None else (m.width, m.height) for m in maps], dtype=np.float64)
    limits = limits.reshape(n, 2)
    quarter = boxes[:, 2:] / 4.0
    lo = np.clip(np.ceil(boxes[:, :2] - quarter), 0.0, limits).astype(np.int64)
    hi = np.clip(np.ceil(boxes[:, :2] + quarter), 0.0, limits).astype(np.int64)
    extent = np.maximum(hi - lo, 0)
    cols = extent[:, 0]
    area = cols * extent[:, 1]
    # every window pixel, in detection order and row-major within a window
    det = np.repeat(np.arange(n), area)
    row, col = np.divmod(np.arange(len(det)) - (np.cumsum(area) - area)[det], cols[det])
    v = lo[det, 1] + row
    u = lo[det, 0] + col
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
    if max(offered, default=0) > cap:
        keep = np.ones(len(det), dtype=bool)
        start = 0
        for m in offered:
            if m > cap:
                keep[start:start + m] = False
                keep[start + top_keys(keys[start:start + m], cap)] = True
            start += m
        kept = keep.nonzero()[0]
        valid, keys = valid[kept], keys[kept]
    d = d[valid]
    x = (u[valid].astype(np.float64) - cam.cx) / cam.fx * d
    y = (v[valid].astype(np.float64) - cam.cy) / cam.fy * d
    r, t = pose.rotation, pose.translation
    pts = np.empty((len(d), 3))
    for i in range(3):
        pts[:, i] = x * r[i, 0] + y * r[i, 1] + d * r[i, 2] + t[i]
    points: list[np.ndarray] = []
    point_keys: list[np.ndarray] = []
    start = f = 0
    for k, m in enumerate(offered):
        if m:
            stop = start + min(m, cap)
            points.append(pts[start:stop].copy())
            point_keys.append(keys[start:stop].copy())
            start = stop
        else:
            points.append(means[k].reshape(1, 3).copy())
            point_keys.append(fallback_keys[f:f + 1].copy())
            f += 1
    return points, point_keys, [max(m, 1) for m in offered]


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

    if rng is None:
        rng = np.random.default_rng(0)
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
    points: list[np.ndarray | None] = [None] * len(kept)
    keys: list[np.ndarray | None] = [None] * len(kept)
    seen = [0] * len(kept)
    if record_eval_points and kept:
        maps: list["DepthMap | None"] = []
        for k in kept:
            _, det, depth_map = lifts[k]
            if depth_map is None and depth_provider is not None and det.depth_ref is not None:
                try:
                    depth_map = depth_provider(det.depth_ref)
                except (SceneFuseError, OSError):
                    depth_map = None
            maps.append(depth_map)
        points, keys, seen = _frame_eval_points(
            boxes[kept], maps, means[kept], cam, pose, cfg.eval_point_cap, rng
        )
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
    return LocalSSG.from_columns(frame.frame_id, edges, class_ids, scores, row_means, row_covs, points, keys, seen)


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

    Eval points merged into a global node go to its lazy reservoir
    (_GlobalNode.merge_eval_points); queued peers merge theirs eagerly. Every
    merge is by the points' keys, which the local graph carries (LocalSSG),
    so integrate draws no random numbers.

    integrate reads only the local graph's columns, never its `nodes` view,
    and leaves them as they are.
    """
    cls = local.class_ids
    n = len(cls)
    events: list[MergeEvent] = []
    if n == 0:
        if local.edges:
            raise MergeContractError("local graph has edges but no nodes")
        return global_graph, events

    # working state of the queue, per local node: the local graph's columns
    # (copied where a merge of queued peers changes them), the Gaussian's
    # log det and trace, and the node that absorbed it (itself while it is a
    # root) or, for a root that left the queue, its global id
    weight = list(local.weights)
    score = list(local.score_sums)
    points = list(local.eval_points)
    keys = list(local.eval_keys)
    seen = list(local.eval_seen)
    qm = list(local.row_means)
    qc = list(local.row_covs)
    qld = [log_det9(c) for c in qc]
    qtr = [c[0] + c[4] + c[8] for c in qc]
    absorbed_by = list(range(n))
    gid_of = [0] * n
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

    def insert(i: int) -> None:
        gid_of[i] = global_graph.add_node(
            class_id=cls[i],
            gaussian=Gaussian3D(mean=np.array(qm[i]), cov=np.array(qc[i])),
            weight=weight[i],
            score_sum=score[i],
            eval_points=points[i],
            eval_seen=seen[i],
            eval_keys=keys[i],
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
            insert(i)
            continue
        ci = cls[i]
        merged_into_global = False
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
                if points[i] is None and gnode._points is None:
                    gnode.eval_seen += seen[i]  # no points on either side (runs without eval points)
                else:
                    gnode.merge_eval_points(points[i], keys[i], seen[i], cfg.eval_point_cap)
                gnode.weight += weight[i]
                gnode.score_sum += score[i]
                global_graph.set_row(gid, mean, cov)
                events.append(MergeEvent(gid, -(i + 1), dg, local.frame_id))
                gid_of[i] = gid
                merged_into_global = True
                break
            j = cand_q[best_q]
            queue.remove(j)
            alive[j] = False
            mean, cov = merge_moments_into(float(weight[i]), m, qc[i], float(weight[j]), qm[j], qc[j])
            if points[i] is None and points[j] is None:
                seen[i] += seen[j]
            else:
                points[i], keys[i], seen[i] = merge_point_reservoirs(
                    points[i], keys[i], seen[i], points[j], keys[j], seen[j], cfg.eval_point_cap,
                )
            qm[i], qc[i], qld[i], qtr[i] = mean, cov, log_det9(cov), cov[0] + cov[4] + cov[8]
            weight[i] += weight[j]
            score[i] += score[j]
            absorbed_by[j] = i
            events.append(MergeEvent(-(i + 1), -(j + 1), dq, local.frame_id))
            if qld[i] == _NEG_INF:
                break
        if not merged_into_global:
            insert(i)

    for edge in local.edges:
        s, o = edge.subject_id, edge.object_id
        if not (0 <= s < n and 0 <= o < n):
            raise MergeContractError(f"edge references unknown local node {o if 0 <= s < n else s}")
        while absorbed_by[s] != s:
            s = absorbed_by[s]
        while absorbed_by[o] != o:
            o = absorbed_by[o]
        s, o = gid_of[s], gid_of[o]
        if s == o:
            continue
        global_graph.accumulate_edge(s, o, edge.votes)
    return global_graph, events


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
        local = build_local_graph(
            frame, frame.camera, frame.pose, cfg,
            depth_provider=depth_provider, record_eval_points=record_eval_points, rng=rng,
        )
    except SceneFuseError as exc:
        log.warning("frame %d skipped: %s", frame.frame_id, exc)
        result.skipped = True
        result.skip_reason = str(exc)
        result.lift_seconds = time.perf_counter() - t0
        return result
    t1 = time.perf_counter()
    _, events = integrate(local, state, cfg)
    t2 = time.perf_counter()
    result.lifted = len(local.class_ids)
    result.dropped = len(frame.detections) - result.lifted
    result.merge_events = events
    result.lift_seconds = t1 - t0
    result.merge_seconds = t2 - t1
    return result
