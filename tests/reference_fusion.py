"""Reference implementations kept as oracles for the fusion engine.

`lift_detection` here is the step-by-step lift, one detection at a time:
box to 2D Gaussian, back-projected mean, projection Jacobian, its closed-form
pseudo-inverse, and the back-projected covariance. geometry.lift_detections,
the one lift of the package, must equal it bit for bit row by row, and raise
the same errors with the same messages.

`integrate` here is the plain per-query form of the engine's algorithm:
every query scans every live same-class candidate with the vectorized numpy
Hellinger kernel, merges go through the numpy moment merge, and point
reservoirs merge by a full sort of their keys. The engine, which culls
candidates first, scores and merges in scalar Python and partitions keys,
must reproduce its decisions, merge events, distances and reservoirs
exactly; tests/test_oracle.py checks that on random streams. Neither integrate
draws a random number: every point already has its key.

`frame_eval_points` back-projects evaluation points one detection at a time
(`eval_region_points`); the engine's one pass over a frame must equal it bit
for bit.

`validate_pose` is the numpy pose check; CameraPose.validate's scalar check
must reach its verdicts, and word its errors, except within rounding of tol.

`export_graph` builds the graph document one Python float at a time;
graph.save_graph must write exactly the bytes that json's pure-Python encoder
makes of it.

`mixture_moment_oracle` estimates a two-component mixture's moments by Monte
Carlo, against which the closed-form moment merge is checked.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from scenefuse.errors import InvalidDepthError, MergeContractError
from scenefuse.fusion import FusionConfig, MergeEvent
from scenefuse.geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    CameraPose,
    Gaussian3D,
    Z_MIN,
    _check_box,
    _check_depth,
    _check_gram,
    _check_lifted,
)
from scenefuse.graph import (
    DET_MIN,
    ClassVocabulary,
    GlobalSSG,
    LocalSSG,
    log_det9,
    resolve_predicate,
)

log = logging.getLogger("scenefuse")


def validate_pose(pose: CameraPose, tol: float = 1e-9) -> None:
    """CameraPose.validate by numpy's R.T @ R and det alone."""
    R = pose.rotation
    if not np.all(np.isfinite(R)) or not np.all(np.isfinite(pose.translation)):
        raise ValueError("non-finite pose")
    err = np.abs(R.T @ R - np.eye(3)).max()
    if err > tol:
        raise ValueError(f"rotation is not orthonormal (max |R'R - I| = {err:.3e})")
    det = np.linalg.det(R)
    if abs(det - 1.0) > tol:
        raise ValueError(f"rotation must be proper (det {det:.12f} != +1)")


@dataclass(frozen=True)
class Gaussian2D:
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class ProjectionJacobian:
    """2x3 linearization of perspective projection at a camera-frame point."""

    matrix: np.ndarray
    z: float


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A.T)/2 — suppresses floating-point asymmetry before det/solve use."""
    return (a + a.T) * 0.5


def bbox_to_gaussian2d(bbox: BoundingBox2D) -> Gaussian2D:
    """Model a box as the moments of a uniform density over its area.

    A uniform distribution over width W has variance W^2/12, so the box maps
    to mean = center, cov = diag(W^2/12, H^2/12).
    """
    _check_box(bbox.width, bbox.height)
    cov = np.array(
        [[bbox.width * bbox.width / 12.0, 0.0], [0.0, bbox.height * bbox.height / 12.0]]
    )
    return Gaussian2D(mean=bbox.center.copy(), cov=cov)


def backproject_mean(
    p: np.ndarray, z: float, cam: CameraIntrinsics, pose: CameraPose
) -> np.ndarray:
    """Back-project pixel p at depth z into the world frame.

    Returns R @ (K^-1 @ (px, py, 1)) * z + t.
    """
    if not (z > 0.0) or not math.isfinite(z):
        raise InvalidDepthError(f"depth must be positive finite, got {z}")
    px, py = float(p[0]), float(p[1])
    cam_pt = np.array(
        [(px - cam.cx) / cam.fx * z, (py - cam.cy) / cam.fy * z, z]
    )
    return pose.rotation @ cam_pt + pose.translation


def projection_jacobian(cam_point: np.ndarray, cam: CameraIntrinsics) -> ProjectionJacobian:
    """Linearize perspective projection at a camera-frame point (x, y, z).

    J = [[fx/z, 0, -fx*x/z^2],
         [0, fy/z, -fy*y/z^2]]
    """
    x, y, z = float(cam_point[0]), float(cam_point[1]), float(cam_point[2])
    if not (z >= Z_MIN) or not math.isfinite(z):
        raise InvalidDepthError(f"evaluation depth {z} below minimum {Z_MIN}")
    inv_z = 1.0 / z
    inv_z2 = inv_z * inv_z
    J = np.array(
        [
            [cam.fx * inv_z, 0.0, -cam.fx * x * inv_z2],
            [0.0, cam.fy * inv_z, -cam.fy * y * inv_z2],
        ]
    )
    return ProjectionJacobian(matrix=J, z=z)


def jacobian_pseudoinverse(J: ProjectionJacobian) -> np.ndarray:
    """Right pseudo-inverse J+ = J.T @ (J @ J.T)^-1, closed form.

    The 2x2 Gram matrix is inverted by adjugate; its condition number is
    checked first so a rank-deficient J fails loudly instead of amplifying
    noise. Satisfies J @ J+ = I_2 for well-conditioned inputs.
    """
    m = J.matrix
    # Gram matrix entries: [[a, b], [b, c]]
    a = m[0, 0] * m[0, 0] + m[0, 1] * m[0, 1] + m[0, 2] * m[0, 2]
    b = m[0, 0] * m[1, 0] + m[0, 1] * m[1, 1] + m[0, 2] * m[1, 2]
    c = m[1, 0] * m[1, 0] + m[1, 1] * m[1, 1] + m[1, 2] * m[1, 2]
    tr = a + c
    disc = math.sqrt(max((a - c) * (a - c) + 4.0 * b * b, 0.0))
    _check_gram(0.5 * (tr - disc), 0.5 * (tr + disc))
    det = a * c - b * b
    inv = np.array([[c, -b], [-b, a]]) / det
    return m.T @ inv


def backproject_covariance(
    cov2d: np.ndarray, J: ProjectionJacobian, pose: CameraPose
) -> np.ndarray:
    """Pull a 2D pixel covariance back into a world-frame 3D covariance.

    Sigma'' = J+ @ cov2d @ J+.T is rank deficient along the viewing ray, so
    the (3,3) entry gets the average of the (1,1) and (2,2) entries before
    the camera-frame result is rotated into the world: R @ Sigma' @ R.T.
    The output is explicitly symmetrized.
    """
    jp = jacobian_pseudoinverse(J)
    s = jp @ np.asarray(cov2d, dtype=np.float64) @ jp.T
    s[2, 2] += 0.5 * (s[0, 0] + s[1, 1])
    R = pose.rotation
    out = R @ s @ R.T
    return symmetrize(out)


def lift_detection(
    bbox: BoundingBox2D,
    z: float,
    cam: CameraIntrinsics,
    pose: CameraPose,
) -> Gaussian3D:
    """Lift one detection plus centroid depth into a world-frame Gaussian3D.

    The projection Jacobian is evaluated at the back-projected camera-frame
    point z*K^-1(p,1).
    """
    _check_depth(z)
    g2 = bbox_to_gaussian2d(bbox)
    px, py = float(bbox.center[0]), float(bbox.center[1])
    x_cam = (px - cam.cx) / cam.fx * z
    y_cam = (py - cam.cy) / cam.fy * z
    cam_pt = np.array([x_cam, y_cam, z])
    with np.errstate(over="ignore", invalid="ignore"):  # a huge extent overflows; _check_lifted refuses it
        cov = backproject_covariance(g2.cov, projection_jacobian(cam_pt, cam), pose)
        mean = pose.rotation @ cam_pt + pose.translation
    _check_lifted(mean, cov)
    return Gaussian3D(mean=mean, cov=cov)


def export_graph(g: GlobalSSG, vocab: ClassVocabulary) -> dict:
    """graph.export_graph with every array entry converted by float()."""
    nodes = []
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        rec = {
            "id": n.id,
            "class_id": n.class_id,
            "weight": n.weight,
            "score_sum": n.score_sum,
            "mean": [float(v) for v in n.gaussian.mean],
            "cov": [float(v) for v in n.gaussian.cov.reshape(9)],
        }
        if n.eval_points is not None:
            rec["eval_points"] = [[float(c) for c in p] for p in n.eval_points]
            rec["eval_points_seen"] = n.eval_seen
        nodes.append(rec)
    edges = []
    for s, o in sorted(g.edges):
        e = g.edges[(s, o)]
        edges.append(
            {
                "subject": s,
                "object": o,
                "predicate": resolve_predicate(e),
                "votes": {str(pid): [e.votes[pid][0], e.votes[pid][1]] for pid in sorted(e.votes)},
            }
        )
    return {
        "nodes": nodes,
        "edges": edges,
        "vocab": {"objects": list(vocab.object_classes), "predicates": list(vocab.predicates)},
    }


def merge_point_reservoirs(points_a, keys_a, seen_a, points_b, keys_b, seen_b, cap):
    """graph.merge_point_reservoirs by a stable sort of all keys, largest first."""
    if points_a is None or len(points_a) == 0:
        return (
            None if points_b is None else points_b.copy(),
            None if keys_b is None else keys_b.copy(),
            seen_a + seen_b,
        )
    if points_b is None or len(points_b) == 0:
        return points_a.copy(), keys_a.copy(), seen_a + seen_b
    points = np.concatenate((points_a, points_b))
    keys = np.concatenate((keys_a, keys_b))
    keep = np.sort(np.argsort(-keys, kind="stable")[:cap])
    return points[keep], keys[keep], seen_a + seen_b


def eval_region_points(det, depth, cam: CameraIntrinsics, pose: CameraPose, cap: int, rng: np.random.Generator):
    """Back-project the valid pixels of one detection's central half-size sub-window.

    The sub-window spans the half-open pixel ranges
    [ceil(c - extent/4), ceil(c + extent/4)) in each axis, intersected with
    the image. Pixels with non-finite or non-positive depth are skipped. Each
    valid pixel gets a key from rng.random; at most cap points are kept, those
    of the largest keys, in pixel order. Returns (points, keys, seen), or
    (None, None, 0) when no pixel is valid. The world transform is written out
    per coordinate: a BLAS matrix product rounds a one-row product differently
    from a many-row one.
    """
    u0 = max(math.ceil(det.cx - det.w / 4.0), 0)
    u1 = min(math.ceil(det.cx + det.w / 4.0), depth.width)
    v0 = max(math.ceil(det.cy - det.h / 4.0), 0)
    v1 = min(math.ceil(det.cy + det.h / 4.0), depth.height)
    if u1 <= u0 or v1 <= v0:
        return None, None, 0
    window = depth.values[v0:v1, u0:u1]
    vs, us = np.nonzero(np.isfinite(window) & (window > 0.0))
    if len(us) == 0:
        return None, None, 0
    d = window[vs, us].astype(np.float64)
    u = (us + u0).astype(np.float64)
    v = (vs + v0).astype(np.float64)
    x = (u - cam.cx) / cam.fx * d
    y = (v - cam.cy) / cam.fy * d
    r, t = pose.rotation, pose.translation
    pts_world = np.empty((len(d), 3))
    for i in range(3):
        pts_world[:, i] = x * r[i, 0] + y * r[i, 1] + d * r[i, 2] + t[i]
    seen = len(pts_world)
    keys = rng.random(seen)
    if seen > cap:
        keep = np.sort(np.argsort(-keys, kind="stable")[:cap])
        pts_world, keys = pts_world[keep], keys[keep]
    return pts_world, keys, seen


def frame_eval_points(dets, maps, means, cam, pose, cap, rng):
    """fusion._frame_eval_points one detection at a time: eval_region_points for
    each detection with a map, then one key per detection that offers its mean."""
    points, keys, seen = [], [], []
    fallback = []
    for k, (det, depth) in enumerate(zip(dets, maps)):
        pts, ks, n = (None, None, 0) if depth is None else eval_region_points(det, depth, cam, pose, cap, rng)
        if pts is None:
            fallback.append(k)
            pts, n = np.asarray(means[k], dtype=np.float64).reshape(1, 3).copy(), 1
        points.append(pts)
        keys.append(ks)
        seen.append(n)
    for k, key in zip(fallback, rng.random(len(fallback))):
        keys[k] = np.array([key])
    return points, keys, seen


def log_det9_batch(a: np.ndarray) -> np.ndarray:
    """log_det9 over a stack of (n, 3, 3) matrices, same cofactor order."""
    d = (
        a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
        - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
        + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
    )
    # the logs one at a time through math, as graph.log_det9 takes them
    return np.array([math.log(x) if DET_MIN < x < math.inf else -math.inf for x in d.tolist()])


def merge_moments_np(w_a, mean_a, cov_a, w_b, mean_b, cov_b, out_mean, out_cov):
    """Moment-matched merge in numpy; outputs may alias inputs, so both are computed first."""
    w = w_a + w_b
    d = mean_a - mean_b
    mean = (w_a * mean_a + w_b * mean_b) / w
    cov = (w_a * cov_a + w_b * cov_b) / w + (w_a * w_b / (w * w)) * np.outer(d, d)
    out_mean[:] = mean
    out_cov[:] = 0.5 * (cov + cov.T)


def hellinger_scan_np(mean, cov, logdet, means, covs, logdets, ids, det_min, out):
    """Hellinger distance of one query to each candidate row, vectorized in numpy."""
    if len(ids) == 0:
        return
    s = 0.5 * (covs[ids] + cov)
    d = means[ids] - mean
    s00 = s[:, 0, 0]; s01 = s[:, 0, 1]; s02 = s[:, 0, 2]
    s10 = s[:, 1, 0]; s11 = s[:, 1, 1]; s12 = s[:, 1, 2]
    s20 = s[:, 2, 0]; s21 = s[:, 2, 1]; s22 = s[:, 2, 2]
    c00 = s11 * s22 - s12 * s21
    c01 = s10 * s22 - s12 * s20
    c02 = s10 * s21 - s11 * s20
    det = s00 * c00 - s01 * c01 + s02 * c02
    bad = ~(det > det_min)
    det_safe = np.where(bad, 1.0, det)
    # adjugate entries for the symmetric solve d' S^-1 d = d' adj(S) d / det
    a00 = c00
    a11 = s00 * s22 - s02 * s20
    a22 = s00 * s11 - s01 * s10
    a01 = -(s01 * s22 - s02 * s21)
    a02 = s01 * s12 - s02 * s11
    a12 = -(s00 * s12 - s02 * s10)
    d0, d1, d2 = d[:, 0], d[:, 1], d[:, 2]
    quad = (
        a00 * d0 * d0 + a11 * d1 * d1 + a22 * d2 * d2
        + 2.0 * (a01 * d0 * d1 + a02 * d0 * d2 + a12 * d1 * d2)
    )
    # logs and exps one element at a time through math, as the engine's kernel takes them
    log_det = np.array([math.log(x) for x in det_safe.tolist()])
    b = 0.125 * quad / det_safe + 0.5 * (log_det - 0.5 * (logdet + logdets[ids]))
    # (for B < 0 the distance is 0 whatever exp(-B) is, and math.exp(-B) could overflow)
    exp_neg_b = np.array([math.exp(min(x, 0.0)) for x in (-b).tolist()])
    h = np.sqrt(np.maximum(1.0 - exp_neg_b, 0.0))
    # B = +inf (a degenerate candidate, log det -inf) is unmergeable, as in the engine
    out[: len(ids)] = np.where(bad | (b == np.inf), np.inf, h)


def best_match_np(
    mean, cov, logdet,
    a_means, a_covs, a_logdets, a_ids,
    b_means, b_covs, b_logdets, b_ids,
    det_min,
):
    """Closest candidate in each of two sets: (idx_a, dist_a, idx_b, dist_b).

    Index is the position within the ids array, -1 with distance +inf when
    the set is empty or entirely unmergeable.
    """
    bi_a, bd_a = -1, np.inf
    if len(a_ids):
        dist = np.empty(len(a_ids))
        hellinger_scan_np(mean, cov, logdet, a_means, a_covs, a_logdets, a_ids, det_min, dist)
        k = int(dist.argmin())
        if dist[k] < np.inf:
            bi_a, bd_a = k, float(dist[k])
    bi_b, bd_b = -1, np.inf
    if len(b_ids):
        dist = np.empty(len(b_ids))
        hellinger_scan_np(mean, cov, logdet, b_means, b_covs, b_logdets, b_ids, det_min, dist)
        k = int(dist.argmin())
        if dist[k] < np.inf:
            bi_b, bd_b = k, float(dist[k])
    return bi_a, bd_a, bi_b, bd_b


def graph_arrays(g: GlobalSSG) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph's node rows as arrays indexed by node id: means (n, 3),
    covariances (n, 3, 3) and log-determinants (n,); unused ids read 0."""
    n = len(g.row_means)
    means = np.zeros((n, 3))
    covs = np.zeros((n, 3, 3))
    for i in g.nodes:
        means[i] = g.row_means[i]
        covs[i] = np.reshape(g.row_covs[i], (3, 3))
    return means, covs, np.array(g.row_logdets, dtype=np.float64)


@dataclass
class _Slot:
    """Mutable working copy of a queued local node during integrate."""

    class_id: int
    weight: int
    score_sum: float
    eval_points: np.ndarray | None
    eval_keys: np.ndarray | None
    eval_seen: int
    carried: list[int]


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
    """
    n = len(local.nodes)
    events: list[MergeEvent] = []
    if n == 0:
        if local.edges:
            raise MergeContractError("local graph has edges but no nodes")
        return global_graph, events

    q_means = np.empty((n, 3))
    q_covs = np.empty((n, 3, 3))
    slots: list[_Slot] = []
    for i, node in enumerate(local.nodes):
        q_means[i] = node.gaussian.mean
        q_covs[i] = node.gaussian.cov
        slots.append(
            _Slot(
                class_id=node.class_id,
                weight=node.weight,
                score_sum=node.score_sum,
                eval_points=node.eval_points,
                eval_keys=node.eval_keys,
                eval_seen=node.eval_seen,
                carried=[node.id],
            )
        )
    q_logdets = log_det9_batch(q_covs)
    class_ids = np.array([s.class_id for s in slots], dtype=np.int64)
    local_by_class = {int(cid): np.nonzero(class_ids == cid)[0] for cid in set(class_ids.tolist())}
    alive = np.zeros(n, dtype=bool)
    order = sorted(range(n), key=lambda i: (-slots[i].score_sum, i))
    queue = deque(order)
    alive[order] = True
    remap: dict[int, int] = {}
    threshold = cfg.hellinger_threshold

    while queue:
        i = queue.popleft()
        alive[i] = False
        slot = slots[i]

        if q_logdets[i] == -math.inf:
            log.warning(
                "frame %d: local node %d has degenerate covariance, inserted without matching",
                local.frame_id,
                i,
            )
            node = global_graph.add_node(
                class_id=slot.class_id,
                gaussian=Gaussian3D(mean=q_means[i].copy(), cov=q_covs[i].copy()),
                weight=slot.weight,
                score_sum=slot.score_sum,
                eval_points=slot.eval_points,
                eval_seen=slot.eval_seen,
                eval_keys=slot.eval_keys,
            )
            for orig in slot.carried:
                remap[orig] = node.id
            continue

        merged_into_global = False
        while True:
            peers = local_by_class[slot.class_id]
            cand_q = peers[alive[peers]]
            cand_g = np.asarray(
                sorted(nid for nid, n in global_graph.nodes.items() if n.class_id == slot.class_id),
                dtype=np.int64,
            )
            g_means, g_covs, g_logdets = graph_arrays(global_graph)
            best_q, dq, best_g, dg = best_match_np(
                q_means[i], q_covs[i], q_logdets[i],
                q_means, q_covs, q_logdets, cand_q,
                g_means, g_covs, g_logdets, cand_g,
                DET_MIN,
            )
            if min(dq, dg) >= threshold:
                break
            if dg <= dq:
                gid = int(cand_g[best_g])
                gnode = global_graph.nodes[gid]
                mean = np.empty(3)
                cov = np.empty((3, 3))
                merge_moments_np(
                    float(gnode.weight), g_means[gid], g_covs[gid],
                    float(slot.weight), q_means[i], q_covs[i], mean, cov,
                )
                if gnode.eval_points is None and slot.eval_points is None:
                    points, keys, seen = None, None, gnode.eval_seen + slot.eval_seen
                else:
                    points, keys, seen = merge_point_reservoirs(
                        gnode.eval_points, gnode.eval_keys, gnode.eval_seen,
                        slot.eval_points, slot.eval_keys, slot.eval_seen,
                        cfg.eval_point_cap,
                    )
                gnode.weight += slot.weight
                gnode.score_sum += slot.score_sum
                gnode.eval_points = points
                gnode.eval_keys = keys
                gnode.eval_seen = seen
                global_graph.set_gaussian(gid, Gaussian3D(mean=mean, cov=cov))
                events.append(MergeEvent(kept_id=gid, absorbed_id=-(i + 1), distance=float(dg), frame_id=local.frame_id))
                for orig in slot.carried:
                    remap[orig] = gid
                merged_into_global = True
                break
            j = int(cand_q[best_q])
            queue.remove(j)
            alive[j] = False
            other = slots[j]
            merge_moments_np(
                float(slot.weight), q_means[i], q_covs[i],
                float(other.weight), q_means[j], q_covs[j], q_means[i], q_covs[i],
            )
            if slot.eval_points is None and other.eval_points is None:
                points, keys, seen = None, None, slot.eval_seen + other.eval_seen
            else:
                points, keys, seen = merge_point_reservoirs(
                    slot.eval_points, slot.eval_keys, slot.eval_seen,
                    other.eval_points, other.eval_keys, other.eval_seen,
                    cfg.eval_point_cap,
                )
            q_logdets[i] = log_det9(q_covs[i].reshape(9).tolist())
            slot.weight += other.weight
            slot.score_sum += other.score_sum
            slot.eval_points = points
            slot.eval_keys = keys
            slot.eval_seen = seen
            slot.carried.extend(other.carried)
            events.append(MergeEvent(kept_id=-(i + 1), absorbed_id=-(j + 1), distance=float(dq), frame_id=local.frame_id))
            if q_logdets[i] == -math.inf:
                break

        if not merged_into_global:
            node = global_graph.add_node(
                class_id=slot.class_id,
                gaussian=Gaussian3D(mean=q_means[i].copy(), cov=q_covs[i].copy()),
                weight=slot.weight,
                score_sum=slot.score_sum,
                eval_points=slot.eval_points,
                eval_seen=slot.eval_seen,
                eval_keys=slot.eval_keys,
            )
            for orig in slot.carried:
                remap[orig] = node.id

    for edge in local.edges:
        try:
            s = remap[edge.subject_id]
            o = remap[edge.object_id]
        except KeyError as exc:
            raise MergeContractError(f"edge references unknown local node {exc}") from exc
        if s == o:
            continue
        global_graph.accumulate_edge(s, o, edge.votes)
    return global_graph, events


def mixture_moment_oracle(
    a: Gaussian3D,
    w_a: float,
    b: Gaussian3D,
    w_b: float,
    n_samples: int,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean/covariance of the (w_a, w_b)-weighted two-component
    Gaussian mixture, from n_samples Monte-Carlo draws."""
    if w_a <= 0 or w_b <= 0:
        raise ValueError("mixture weights must be positive")
    if n_samples < 100_000:
        raise ValueError("n_samples must be >= 100000 for a usable estimate")
    if rng is None:
        rng = np.random.default_rng(0)
    pick_a = rng.random(n_samples) < w_a / (w_a + w_b)
    n_a = int(pick_a.sum())
    samples = np.empty((n_samples, 3))
    samples[pick_a] = rng.multivariate_normal(a.mean, a.cov, size=n_a)
    samples[~pick_a] = rng.multivariate_normal(b.mean, b.cov, size=n_samples - n_a)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / n_samples
    return mean, cov
