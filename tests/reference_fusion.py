"""Reference implementations kept as oracles for the fusion engine.

`integrate` here is the plain per-query form of the engine's algorithm:
every query scans every live same-class candidate with the vectorized numpy
Hellinger kernel, and merges go through the numpy moment merge. The engine,
which culls candidates first and scores and merges in scalar Python, must
reproduce its decisions, merge events, distances and rng draws exactly;
tests/test_oracle.py checks that on random streams.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from scenefuse.errors import MergeContractError
from scenefuse.fusion import FusionConfig, MergeEvent
from scenefuse.geometry import Gaussian3D
from scenefuse.graph import (
    DET_MIN,
    GlobalSSG,
    LocalSSG,
    log_det3x3,
    merge_point_reservoirs,
)

log = logging.getLogger("scenefuse")


def log_det3x3_batch(a: np.ndarray) -> np.ndarray:
    """log_det3x3 over a stack of (n, 3, 3) matrices, same cofactor order."""
    d = (
        a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
        - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
        + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
    )
    ok = (d > DET_MIN) & np.isfinite(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ok, np.log(np.where(ok, d, 1.0)), -np.inf)
    return out


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
    b = 0.125 * quad / det_safe + 0.5 * (np.log(det_safe) - 0.5 * (logdet + logdets[ids]))
    h = np.sqrt(np.maximum(1.0 - np.exp(-b), 0.0))
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
    eval_seen: int
    carried: list[int]


def integrate(
    local: LocalSSG,
    global_graph: GlobalSSG,
    cfg: FusionConfig,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[GlobalSSG, list[MergeEvent]]:
    """Fold a local graph into the global graph; returns it plus merge events.

    The global graph is mutated in place. Node weight is conserved: the total
    global weight grows by exactly the sum of local node weights. Every local
    edge lands on the merged endpoints' global nodes unless the merge made it
    a self-loop, in which case it is dropped.
    """
    if rng is None:
        rng = np.random.default_rng(0)
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
                eval_seen=node.eval_seen,
                carried=[node.id],
            )
        )
    q_logdets = log_det3x3_batch(q_covs)
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
            )
            for orig in slot.carried:
                remap[orig] = node.id
            continue

        merged_into_global = False
        while True:
            peers = local_by_class[slot.class_id]
            cand_q = peers[alive[peers]]
            cand_g = np.asarray(global_graph.class_index.get(slot.class_id, ()), dtype=np.int64)
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
                    points, seen = None, gnode.eval_seen + slot.eval_seen
                else:
                    points, seen = merge_point_reservoirs(
                        gnode.eval_points, gnode.eval_seen, slot.eval_points, slot.eval_seen,
                        cfg.eval_point_cap, rng,
                    )
                gnode.weight += slot.weight
                gnode.score_sum += slot.score_sum
                gnode.eval_points = points
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
                points, seen = None, slot.eval_seen + other.eval_seen
            else:
                points, seen = merge_point_reservoirs(
                    slot.eval_points, slot.eval_seen, other.eval_points, other.eval_seen,
                    cfg.eval_point_cap, rng,
                )
            q_logdets[i] = log_det3x3(q_covs[i])
            slot.weight += other.weight
            slot.score_sum += other.score_sum
            slot.eval_points = points
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
