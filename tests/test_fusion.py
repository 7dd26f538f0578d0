"""Fusion engine: distances, moment merging, local-graph build, integrate."""

import gc
import hashlib
import json
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from scenefuse.errors import DegenerateCovarianceError, MergeContractError
from scenefuse.fusion import (
    FusionConfig,
    MergeEvent,
    bhattacharyya,
    build_local_graph,
    hellinger,
    integrate,
    process_frame,
)
from scenefuse.geometry import CameraIntrinsics, CameraPose, Gaussian3D
from scenefuse.graph import (
    DET_MIN,
    ClassVocabulary,
    GlobalSSG,
    LocalSSG,
    ObjectNode,
    RelationEdge,
    export_graph,
    import_graph,
    load_graph,
    log_det9,
    save_graph,
)
from scenefuse.streams import DepthMap, Detection, FrameRecord, Relation2D
from scenefuse.synthetic import NoiseModel, SceneSpec, generate_scene, orbit_frames, render_frames

from reference_fusion import best_match_np, merge_moments_np


def _g(mean, cov=None):
    cov = np.eye(3) if cov is None else np.asarray(cov, dtype=float)
    return Gaussian3D(mean=np.asarray(mean, dtype=float), cov=cov)


def _node(i, cid, mean, cov=None, w=1, score=0.9):
    return ObjectNode(id=i, class_id=cid, gaussian=_g(mean, cov), weight=w, score_sum=score)


def _random_gauss(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return _g(rng.normal(size=3) * scale, a @ a.T + 0.5 * np.eye(3))


def _cam():
    return CameraIntrinsics(fx=10.0, fy=10.0, cx=10.0, cy=10.0, width=20, height=20)


def _pose():
    return CameraPose(rotation=np.eye(3), translation=np.zeros(3))


def _det(cid=0, score=0.9, cx=10.0, cy=10.0, w=4.0, h=4.0, depth=2.0, ref=None):
    return Detection(class_id=cid, score=score, cx=cx, cy=cy, w=w, h=h,
                     centroid_depth=depth, depth_ref=ref)


def _frame(dets, rels=(), frame_id=0):
    return FrameRecord(frame_id=frame_id, camera=_cam(), pose=_pose(),
                       detections=list(dets), relations=list(rels))


# -- config ------------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = FusionConfig()
    cfg.validate()
    assert cfg.hellinger_threshold == 0.85
    assert cfg.confidence_threshold == 0.7
    assert cfg.top_k_relations == 10
    for bad in (
        FusionConfig(hellinger_threshold=0.0),
        FusionConfig(hellinger_threshold=1.0),
        FusionConfig(confidence_threshold=1.1),
        FusionConfig(top_k_relations=-1),
        FusionConfig(min_depth=0.0),
        FusionConfig(eval_point_cap=0),
    ):
        with pytest.raises(ValueError):
            bad.validate()


# -- distances ---------------------------------------------------------------


def test_bhattacharyya_identical_is_zero():
    g = _g([1, 2, 3], np.diag([1.0, 2.0, 3.0]))
    assert bhattacharyya(g, g) == 0.0


def test_bhattacharyya_mean_offset():
    # identity covariances, offset (2,0,0): (1/8) * 4 = 0.5, no shape term
    assert bhattacharyya(_g([0, 0, 0]), _g([2, 0, 0])) == pytest.approx(0.5, abs=1e-9)


def test_bhattacharyya_shape_term():
    # I vs 4I, same mean: det avg = 2.5^3 = 15.625, sqrt(1 * 64) = 8
    b = bhattacharyya(_g([0, 0, 0]), _g([0, 0, 0], 4.0 * np.eye(3)))
    assert b == pytest.approx(0.5 * math.log(15.625 / 8.0), abs=1e-9)
    assert b == pytest.approx(0.33471, abs=5e-5)


def test_hellinger_identical_is_exactly_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = _random_gauss(rng)
        assert hellinger(g, g) == 0.0


def test_hellinger_reference_values():
    h1 = hellinger(_g([0, 0, 0]), _g([2, 0, 0]))
    assert h1 == pytest.approx(math.sqrt(1.0 - math.exp(-0.5)), abs=1e-9)
    assert h1 == pytest.approx(0.62728, abs=5e-5)  # 5-decimal rounding of the closed form
    h2 = hellinger(_g([0, 0, 0]), _g([0, 0, 0], 4.0 * np.eye(3)))
    assert h2 == pytest.approx(math.sqrt(1.0 - math.exp(-0.5 * math.log(15.625 / 8.0))), abs=1e-9)
    assert h2 == pytest.approx(0.53333, abs=5e-5)


def test_degenerate_covariance_rejected():
    good = _g([0, 0, 0])
    flat = _g([0, 0, 0], np.zeros((3, 3)))
    tiny = _g([0, 0, 0], np.eye(3) * 1e-11)  # det 1e-33 under the floor
    for bad in (flat, tiny):
        with pytest.raises(DegenerateCovarianceError):
            bhattacharyya(bad, good)
        with pytest.raises(DegenerateCovarianceError):
            hellinger(good, bad)


def test_hellinger_of_a_pair_that_is_not_positive_definite_does_not_overflow():
    # S = diag(-1, -1, 1000) has det S > 0 and a positive trace, which pass
    # the guards and the cull, but is indefinite: B = -1250, and exp(-B) would
    # overflow; the distance is 0.0, in hellinger and in a merge. A LocalSSG
    # built from nodes refuses such a covariance, so the merge goes through
    # columns, which are not checked (as a lift's rows are not)
    a = _g([0, 0, 0], np.diag([-1.0, -1.0, 1000.0]))
    b = _g([100, 0, 0], np.diag([-1.0, -1.0, 1000.0]))
    assert bhattacharyya(a, b) == -1250.0
    assert hellinger(a, b) == 0.0
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=a)
    with pytest.raises(MergeContractError, match="not positive definite"):
        LocalSSG(frame_id=0, nodes=[_node(0, 0, b.mean, b.cov)], edges=[])
    local = LocalSSG.from_columns(0, [], [0], [0.9], [b.mean.tolist()], [b.cov.reshape(9).tolist()],
                                  [None], [None], [0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, events = integrate(local, g, FusionConfig())
    assert events == [MergeEvent(0, -1, 0.0, 0)]


def test_hellinger_symmetric_bounded():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        a, b = _random_gauss(rng, 2.0), _random_gauss(rng, 2.0)
        hab, hba = hellinger(a, b), hellinger(b, a)
        worst = max(worst, abs(hab - hba))
        assert 0.0 <= hab < 1.0
    assert worst < 1e-12


def test_hellinger_monotone_in_mean_offset():
    cov = np.diag([1.0, 2.0, 0.5])
    prev = -1.0
    for t in np.linspace(0.0, 5.0, 11):
        h = hellinger(_g([0, 0, 0], cov), _g([t, 0, 0], cov))
        assert h > prev or (t == 0.0 and h == 0.0)
        prev = h


def test_best_match_agrees_with_scalar_distance():
    # the engine's scalar scorer must pick the same winner as the per-pair
    # public hellinger, and give its distances and the vectorized reference's
    # bit for bit
    from scenefuse import _accel

    rng = np.random.default_rng(41)
    for _ in range(50):
        na, nb = rng.integers(0, 6), rng.integers(0, 8)
        query = _random_gauss(rng)
        a = [_random_gauss(rng) for _ in range(na)]
        b = [_random_gauss(rng) for _ in range(nb)]
        a_means = np.array([g.mean for g in a]).reshape(na, 3)
        a_covs = np.array([g.cov for g in a]).reshape(na, 3, 3)
        b_means = np.array([g.mean for g in b]).reshape(nb, 3)
        b_covs = np.array([g.cov for g in b]).reshape(nb, 3, 3)
        a_lds = np.array([log_det9(g.cov.reshape(9).tolist()) for g in a])
        b_lds = np.array([log_det9(g.cov.reshape(9).tolist()) for g in b])
        bi_a, bd_a, bi_b, bd_b = _accel.best_match(
            query.mean.tolist(), query.cov.reshape(9).tolist(), log_det9(query.cov.reshape(9).tolist()),
            a_means.tolist(), a_covs.reshape(na, 9).tolist(), a_lds.tolist(), list(range(na)),
            b_means.tolist(), b_covs.reshape(nb, 9).tolist(), b_lds.tolist(), list(range(nb)),
            1e-30,
        )
        ref_a = [hellinger(query, g) for g in a]
        ref_b = [hellinger(query, g) for g in b]
        if na == 0:
            assert bi_a == -1 and bd_a == math.inf
        else:
            assert bi_a == int(np.argmin(ref_a))
            assert bd_a == min(ref_a)
        if nb == 0:
            assert bi_b == -1 and bd_b == math.inf
        else:
            assert bi_b == int(np.argmin(ref_b))
            assert bd_b == min(ref_b)
        # the vectorized numpy kernel kept as the reference must agree
        ref = best_match_np(
            query.mean, query.cov, log_det9(query.cov.reshape(9).tolist()),
            a_means, a_covs, a_lds, np.arange(na, dtype=np.int64),
            b_means, b_covs, b_lds, np.arange(nb, dtype=np.int64),
            1e-30,
        )
        assert ref == (bi_a, bd_a, bi_b, bd_b)


def test_best_match_bound_keeps_every_decision():
    # best_match given the bound B* (1 + margin) stops scoring a pair once its
    # Mahalanobis term alone exceeds the bound. Pairs just below and just
    # above B* must come out exactly as without the bound, and on random
    # candidate sets every result below the gate is unchanged.
    from scenefuse import _accel
    from scenefuse.fusion import _gate_bound

    threshold = 0.85
    bound = _gate_bound(threshold)
    b_star = -math.log1p(-threshold * threshold)
    cov = (np.eye(3) * 0.3).reshape(9).tolist()
    ld = log_det9(cov)  # the kernel logs det S alike: the log-det term is exactly 0

    def at(b):  # a mean at Bhattacharyya distance b from the origin, under cov
        return [math.sqrt(8.0 * 0.3 * b), 0.0, 0.0]

    origin = [0.0, 0.0, 0.0]
    for rel in (-1e-7, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-7):
        near, far = at(b_star * (1.0 + rel)), at(b_star * 1.01)
        args = (origin, cov, ld, [near, far], [cov, cov], [ld, ld], [1, 0],
                [far, near], [cov, cov], [ld, ld], [0, 1], DET_MIN)
        unbounded = _accel.best_match(*args)
        assert _accel.best_match(*args, bound) == unbounded
        assert unbounded[0] == 1 and unbounded[2] == 1
        assert (unbounded[1] < threshold) == (rel < 0.0) or abs(unbounded[1] - threshold) < 1e-12
    far_only = (origin, cov, ld, [at(b_star * 1.01)], [cov], [ld], [0], [], [], [], [], DET_MIN)
    assert _accel.best_match(*far_only, bound) == (-1, math.inf, -1, math.inf)
    assert _accel.best_match(*far_only)[1] > threshold

    rng = np.random.default_rng(17)
    rejected = merged = 0
    for _ in range(300):
        query = _random_gauss(rng)
        n = int(rng.integers(1, 6))
        cands = [_random_gauss(rng, scale=float(rng.uniform(0.5, 4.0))) for _ in range(n)]
        means = [g.mean.tolist() for g in cands]
        covs = [g.cov.reshape(9).tolist() for g in cands]
        lds = [log_det9(c) for c in covs]
        args = (query.mean.tolist(), query.cov.reshape(9).tolist(), log_det9(query.cov.reshape(9).tolist()),
                means, covs, lds, list(range(n)), [], [], [], [], DET_MIN)
        plain, fast = _accel.best_match(*args), _accel.best_match(*args, bound)
        if plain[1] < threshold:
            assert fast == plain
            merged += 1
        else:
            assert fast[1] >= threshold
        rejected += sum(_accel.bhattacharyya(args[0], args[1], args[2], means[j], covs[j], lds[j], DET_MIN, bound)
                        == math.inf for j in range(n))
    assert merged > 30 and rejected > 100


def test_merge_events_record_hellinger_bit_for_bit():
    # the distance a merge records is the one the public hellinger gives the
    # two Gaussians before the merge, to the last bit, both for a merge into a
    # global node and for a merge of two queued peers
    cfg = FusionConfig(hellinger_threshold=0.99)
    rng = np.random.default_rng(5)
    into_global = between_peers = 0
    for _ in range(1500):
        a, b = _random_gauss(rng), _random_gauss(rng)
        g = GlobalSSG()
        g.add_node(class_id=0, gaussian=a)
        _, events = integrate(LocalSSG(frame_id=0, nodes=[_node(0, 0, b.mean, b.cov)], edges=[]), g, cfg)
        if events:
            assert events == [MergeEvent(0, -1, hellinger(a, b), 0)]
            into_global += 1
        local = LocalSSG(frame_id=0, nodes=[_node(0, 0, a.mean, a.cov), _node(1, 0, b.mean, b.cov, score=0.8)],
                         edges=[])
        _, events = integrate(local, GlobalSSG(), cfg)
        if events:
            assert events == [MergeEvent(-1, -2, hellinger(a, b), 0)]
            between_peers += 1
    assert into_global >= 1000 and between_peers >= 1000


def test_merge_kernel_paths_agree():
    # the engine's scalar merge against the numpy merge kept as the reference
    from scenefuse import _accel

    rng = np.random.default_rng(42)
    for _ in range(200):
        a, b = _random_gauss(rng), _random_gauss(rng)
        wa, wb = float(rng.uniform(0.5, 40)), float(rng.uniform(0.5, 40))
        mean_a, cov_a = a.mean.tolist(), a.cov.reshape(9).tolist()
        mean_b, cov_b = b.mean.tolist(), b.cov.reshape(9).tolist()
        m1, c1 = _accel.merge_moments_into(wa, mean_a, cov_a, wb, mean_b, cov_b)
        # new lists; the inputs are left as they were
        assert type(m1) is list and type(c1) is list and len(m1) == 3 and len(c1) == 9
        assert (mean_a, cov_a) == (a.mean.tolist(), a.cov.reshape(9).tolist())
        assert (mean_b, cov_b) == (b.mean.tolist(), b.cov.reshape(9).tolist())
        m1, c1 = np.array(m1), np.array(c1)
        m2 = np.empty(3)
        c2 = np.empty((3, 3))
        merge_moments_np(wa, a.mean, a.cov, wb, b.mean, b.cov, m2, c2)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(c1.reshape(3, 3), c2)


# -- moment merging ----------------------------------------------------------


def _merge_into_global(a: ObjectNode, b: ObjectNode):
    """The global node integrate makes of global node a and local node b,
    with a gate (0.99) that lets the pair merge."""
    g = GlobalSSG()
    g.add_node(class_id=a.class_id, gaussian=a.gaussian, weight=a.weight, score_sum=a.score_sum)
    _, events = integrate(LocalSSG(frame_id=0, nodes=[replace(b, id=0)], edges=[]), g,
                          FusionConfig(hellinger_threshold=0.99))
    assert len(events) == 1 and list(g.nodes) == [0]
    return g.nodes[0]


def _merge_rows(wa, a: Gaussian3D, wb, b: Gaussian3D):
    """The engine's moment merge of (a, weight wa) and (b, weight wb), as arrays."""
    from scenefuse import _accel

    mean, cov = _accel.merge_moments_into(
        float(wa), a.mean.tolist(), a.cov.reshape(9).tolist(), float(wb), b.mean.tolist(), b.cov.reshape(9).tolist()
    )
    return np.array(mean), np.array(cov).reshape(3, 3)


def test_merge_equal_weights():
    k = _merge_into_global(_node(0, 0, [0, 0, 0]), _node(1, 0, [2, 0, 0]))
    np.testing.assert_array_equal(k.gaussian.mean, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(k.gaussian.cov, np.diag([2.0, 1.0, 1.0]))
    assert k.weight == 2
    assert k.id == 0 and k.class_id == 0


def test_merge_identical_fixed_point():
    # dyadic values stay bit-exact through the weighted average
    g = _g([0.5, -0.25, 2.0], np.diag([1.0, 0.5, 0.25]))
    a = ObjectNode(id=0, class_id=1, gaussian=g, weight=3, score_sum=2.0)
    b = ObjectNode(id=1, class_id=1, gaussian=g, weight=5, score_sum=4.0)
    k = _merge_into_global(a, b)
    np.testing.assert_array_equal(k.gaussian.mean, g.mean)
    np.testing.assert_array_equal(k.gaussian.cov, g.cov)
    assert k.weight == 8
    assert k.score_sum == pytest.approx(6.0)


def test_merge_weighted_three_to_one():
    k = _merge_into_global(_node(0, 0, [0, 0, 0], w=3), _node(1, 0, [4, 0, 0], w=1))
    np.testing.assert_array_equal(k.gaussian.mean, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(k.gaussian.cov, np.diag([4.0, 1.0, 1.0]))
    assert k.weight == 4


def test_merge_commutative():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, wa = _random_gauss(rng), int(rng.integers(1, 8))
        b, wb = _random_gauss(rng), int(rng.integers(1, 8))
        m1, c1 = _merge_rows(wa, a, wb, b)
        m2, c2 = _merge_rows(wb, b, wa, a)
        np.testing.assert_allclose(m1, m2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c1, c2, rtol=0, atol=1e-12)


def test_merge_result_psd():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, wa = _random_gauss(rng, 3.0), int(rng.integers(1, 20))
        b, wb = _random_gauss(rng, 3.0), int(rng.integers(1, 20))
        _, cov = _merge_rows(wa, a, wb, b)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > 0.0


def test_merge_matches_mixture_moments_monte_carlo():
    rng = np.random.default_rng(21)
    a, wa = _g([1.0, -0.5, 2.0], np.diag([0.5, 1.0, 2.0])), 2
    b, wb = _g([2.0, 1.5, 1.0], np.diag([1.5, 0.3, 0.8])), 3
    mean, cov = _merge_rows(wa, a, wb, b)
    n = 1_000_000
    pick_a = rng.random(n) < wa / (wa + wb)
    samples = np.empty((n, 3))
    samples[pick_a] = rng.multivariate_normal(a.mean, a.cov, size=int(pick_a.sum()))
    samples[~pick_a] = rng.multivariate_normal(b.mean, b.cov, size=int((~pick_a).sum()))
    emp_mean = samples.mean(axis=0)
    centered = samples - emp_mean
    emp_cov = centered.T @ centered / n
    assert np.linalg.norm(mean - emp_mean) / np.linalg.norm(mean) < 0.01
    assert np.linalg.norm(cov - emp_cov) / np.linalg.norm(cov) < 0.01


# -- local graph construction -------------------------------------------------


def test_build_filters_by_confidence():
    frame = _frame([_det(score=0.9), _det(score=0.8, cx=5.0), _det(score=0.5, cx=15.0)])
    local = build_local_graph(frame, frame.camera, frame.pose, FusionConfig())
    assert len(local.nodes) == 2
    assert all(n.weight == 1 for n in local.nodes)
    assert [n.score_sum for n in local.nodes] == [0.9, 0.8]


def test_local_graph_is_freed_without_the_cycle_collector():
    # a reference cycle between a local graph and its nodes would leave every
    # frame's graph to the cyclic garbage collector, whose passes stall frames
    frame = _frame([_det(score=0.9), _det(score=0.8, cx=5.0)])
    local = build_local_graph(frame, frame.camera, frame.pose, FusionConfig())
    refs = [weakref.ref(local)] + [weakref.ref(n) for n in local.nodes]
    assert len(refs) == 3
    enabled = gc.isenabled()
    gc.disable()
    try:
        del local
        assert all(r() is None for r in refs)
    finally:
        if enabled:
            gc.enable()


def test_build_truncates_relations_to_top_k():
    dets = [_det(cx=4.0 + 2.5 * i, score=0.95 - 0.01 * i) for i in range(5)]
    rels = []
    scores = [0.99, 0.55, 0.7, 0.62, 0.9, 0.35, 0.8, 0.45, 0.65, 0.5, 0.3, 0.75]
    pairs = [(s, o) for s in range(5) for o in range(5) if s != o][:12]
    for (s, o), sc in zip(pairs, scores):
        rels.append(Relation2D(subject=s, object=o, predicate=1, score=sc))
    local = build_local_graph(_frame(dets, rels), _cam(), _pose(), FusionConfig())
    assert len(local.edges) == 10
    kept = sorted((e.votes[1][1] for e in local.edges), reverse=True)
    assert kept == sorted(scores, reverse=True)[:10]
    # descending score order, one vote each
    listed = [e.votes[1][1] for e in local.edges]
    assert listed == kept
    assert all(e.votes[1][0] == 1 for e in local.edges)


def test_build_drops_relations_of_dropped_detections():
    dets = [_det(score=0.9), _det(score=0.5, cx=15.0)]
    rels = [Relation2D(0, 1, 0, 0.9), Relation2D(1, 0, 0, 0.9)]
    local = build_local_graph(_frame(dets, rels), _cam(), _pose(), FusionConfig())
    assert len(local.nodes) == 1
    assert local.edges == []


def test_build_dedupes_pairs_keeping_best_score():
    dets = [_det(score=0.9), _det(score=0.9, cx=5.0)]
    rels = [Relation2D(0, 1, 1, 0.6), Relation2D(0, 1, 2, 0.9), Relation2D(0, 1, 0, 0.3)]
    local = build_local_graph(_frame(dets, rels), _cam(), _pose(), FusionConfig())
    (edge,) = local.edges
    assert edge.votes == {2: [1, 0.9]}


def test_build_drops_self_relations():
    dets = [_det(score=0.9)]
    rels = [Relation2D(0, 0, 1, 0.8)]
    local = build_local_graph(_frame(dets, rels), _cam(), _pose(), FusionConfig())
    assert local.edges == []


def test_build_drops_detection_without_depth_source():
    dets = [_det(score=0.9), _det(score=0.9, cx=5.0, depth=None)]
    rels = [Relation2D(0, 1, 0, 0.9)]
    local = build_local_graph(_frame(dets, rels), _cam(), _pose(), FusionConfig())
    assert len(local.nodes) == 1
    assert local.edges == []


def test_build_drops_sub_minimum_depth():
    dets = [_det(score=0.9, depth=1e-5)]
    local = build_local_graph(_frame(dets), _cam(), _pose(), FusionConfig())
    assert local.nodes == []


def test_build_inline_eval_point_is_the_mean():
    frame = _frame([_det(score=0.9)])
    local = build_local_graph(frame, _cam(), _pose(), FusionConfig(), record_eval_points=True)
    (node,) = local.nodes
    assert node.eval_seen == 1
    np.testing.assert_array_equal(node.eval_points, node.gaussian.mean.reshape(1, 3))


def test_build_region_eval_points_from_depth_map():
    # bbox 8x8 at (10,10): central half-size window is pixels [8,12) x [8,12)
    depth = DepthMap(width=20, height=20, values=np.full((20, 20), 2.0, dtype=np.float32))
    frame = _frame([_det(score=0.9, cx=10.0, cy=10.0, w=8.0, h=8.0, depth=None, ref="d.frdp")])
    local = build_local_graph(
        frame, _cam(), _pose(), FusionConfig(),
        depth_provider=lambda ref: depth, record_eval_points=True,
    )
    (node,) = local.nodes
    assert node.eval_seen == 16
    assert node.eval_points.shape == (16, 3)
    # corner pixel (8,8): x = (8-10)/10*2 = -0.4, y = -0.4, z = 2
    np.testing.assert_allclose(node.eval_points[0], [-0.4, -0.4, 2.0], atol=1e-12)
    assert np.all(node.eval_points[:, 2] == 2.0)


def test_build_region_eval_points_capped():
    depth = DepthMap(width=20, height=20, values=np.full((20, 20), 2.0, dtype=np.float32))
    frame = _frame([_det(score=0.9, w=16.0, h=16.0, depth=None, ref="d.frdp")])
    cfg = FusionConfig(eval_point_cap=5)
    local = build_local_graph(frame, _cam(), _pose(), cfg,
                              depth_provider=lambda ref: depth, record_eval_points=True,
                              rng=np.random.default_rng(0))
    (node,) = local.nodes
    assert node.eval_points.shape == (5, 3)
    assert node.eval_seen == 64  # the full 8x8 window was offered


def test_build_skips_invalid_region_pixels():
    vals = np.full((20, 20), 2.0, dtype=np.float32)
    vals[8:12, 8:10] = -1.0  # half the window has no reading
    depth = DepthMap(width=20, height=20, values=vals)
    frame = _frame([_det(score=0.9, w=8.0, h=8.0, depth=None, ref="d.frdp")])
    local = build_local_graph(frame, _cam(), _pose(), FusionConfig(),
                              depth_provider=lambda ref: depth, record_eval_points=True)
    (node,) = local.nodes
    assert node.eval_seen == 8


# -- integrate ---------------------------------------------------------------


def test_integrate_distinct_classes_insert():
    g = GlobalSSG()
    local = LocalSSG(frame_id=0,
                     nodes=[_node(0, 0, [0, 0, 0]), _node(1, 1, [1, 0, 0]), _node(2, 2, [0, 1, 0])],
                     edges=[])
    g2, events = integrate(local, g, FusionConfig())
    assert g2 is g
    assert len(g.nodes) == 3
    assert all(n.weight == 1 for n in g.nodes.values())
    assert events == []
    g.validate()


def test_integrate_identical_frame_twice():
    cfg = FusionConfig()
    g = GlobalSSG()

    def fresh_local(fid):
        return LocalSSG(frame_id=fid,
                        nodes=[_node(0, 0, [0, 0, 0]), _node(1, 1, [3, 0, 0]), _node(2, 0, [9, 0, 0])],
                        edges=[RelationEdge(0, 1, {1: [1, 0.8]})])

    integrate(fresh_local(0), g, cfg)
    n_after_first = len(g.nodes)
    _, events = integrate(fresh_local(1), g, cfg)
    assert len(g.nodes) == n_after_first == 3
    assert sorted(n.weight for n in g.nodes.values()) == [2, 2, 2]
    assert len(events) == 3
    assert all(e.distance == 0.0 and e.kept_id >= 0 for e in events)
    assert g.edges[(0, 1)].votes == {1: [2, pytest.approx(1.6)]}
    g.validate()


def test_integrate_queue_internal_merge():
    # two same-class nodes at Hellinger distance 0.3
    offset = math.sqrt(-8.0 * math.log(1.0 - 0.3 ** 2))
    local = LocalSSG(frame_id=0,
                     nodes=[_node(0, 0, [0, 0, 0], score=0.9), _node(1, 0, [offset, 0, 0], score=0.8)],
                     edges=[])
    g = GlobalSSG()
    _, events = integrate(local, g, FusionConfig(hellinger_threshold=0.85))
    assert len(g.nodes) == 1
    (node,) = g.nodes.values()
    assert node.weight == 2
    (ev,) = events
    assert ev.kept_id == -1 and ev.absorbed_id == -2
    assert ev.distance == pytest.approx(0.3, abs=1e-12)


def test_integrate_chain_merge_through_reinsertion():
    # A(0), B(0.8), C(1.6), identity covariances, threshold 0.5:
    # H(A,B) ~ 0.2773 merges; widened A+B then reaches C at ~0.3933,
    # while H(A,C) ~ 0.5233 alone would not have merged.
    h_ab = math.sqrt(1.0 - math.exp(-0.08))
    h_ac = math.sqrt(1.0 - math.exp(-0.32))
    b_abc = 1.44 / (8.0 * 1.08) + 0.5 * math.log(1.08 / math.sqrt(1.16))
    h_abc = math.sqrt(1.0 - math.exp(-b_abc))
    assert h_ab < 0.5 < h_ac and h_abc < 0.5
    local = LocalSSG(frame_id=0,
                     nodes=[_node(0, 0, [0, 0, 0], score=0.9),
                            _node(1, 0, [0.8, 0, 0], score=0.8),
                            _node(2, 0, [1.6, 0, 0], score=0.7)],
                     edges=[])
    g = GlobalSSG()
    _, events = integrate(local, g, FusionConfig(hellinger_threshold=0.5))
    assert len(g.nodes) == 1
    (node,) = g.nodes.values()
    assert node.weight == 3
    assert [(e.kept_id, e.absorbed_id) for e in events] == [(-1, -2), (-1, -3)]
    assert events[0].distance == pytest.approx(h_ab, abs=1e-9)
    assert events[1].distance == pytest.approx(h_abc, abs=1e-9)


def test_integrate_without_reinsertion_would_split():
    # same layout, but only A and C: distance 0.5233 >= 0.5 keeps them apart
    local = LocalSSG(frame_id=0,
                     nodes=[_node(0, 0, [0, 0, 0], score=0.9), _node(1, 0, [1.6, 0, 0], score=0.7)],
                     edges=[])
    g = GlobalSSG()
    _, events = integrate(local, g, FusionConfig(hellinger_threshold=0.5))
    assert len(g.nodes) == 2 and events == []


def test_integrate_prefers_global_on_exact_tie():
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=_g([0, 0, 0]), weight=1, score_sum=0.9)
    # both local copies are bit-identical to the global node: every distance 0
    local = LocalSSG(frame_id=1,
                     nodes=[_node(0, 0, [0, 0, 0], score=0.9), _node(1, 0, [0, 0, 0], score=0.8)],
                     edges=[])
    _, events = integrate(local, g, FusionConfig())
    assert len(g.nodes) == 1
    assert g.nodes[0].weight == 3
    # the tie rule sends both into the global node, never local-local first
    assert [e.kept_id for e in events] == [0, 0]
    assert all(e.distance == 0.0 for e in events)


def test_integrate_processes_by_descending_score():
    # B (higher score) dequeues first and absorbs A: kept slot is B's (-2 is A)
    local = LocalSSG(frame_id=0,
                     nodes=[_node(0, 0, [0, 0, 0], score=0.7), _node(1, 0, [0.1, 0, 0], score=0.95)],
                     edges=[])
    g = GlobalSSG()
    _, events = integrate(local, g, FusionConfig())
    (ev,) = events
    assert ev.kept_id == -2 and ev.absorbed_id == -1


def test_integrate_degenerate_node_inserted_directly():
    deg = ObjectNode(id=0, class_id=0, gaussian=_g([0, 0, 0], np.zeros((3, 3))), weight=1, score_sum=0.95)
    local = LocalSSG(frame_id=0,
                     nodes=[deg, _node(1, 0, [0, 0, 0], score=0.9)],
                     edges=[RelationEdge(0, 1, {2: [1, 0.7]})])
    g = GlobalSSG()
    _, events = integrate(local, g, FusionConfig())
    # identical position and class, but the degenerate node never matches
    assert len(g.nodes) == 2
    assert events == []
    assert len(g.edges) == 1
    g.validate()


def test_integrate_degenerate_never_attracts_later_nodes():
    deg = ObjectNode(id=0, class_id=0, gaussian=_g([0, 0, 0], np.zeros((3, 3))), weight=1, score_sum=0.95)
    g = GlobalSSG()
    integrate(LocalSSG(frame_id=0, nodes=[deg], edges=[]), g, FusionConfig())
    local = LocalSSG(frame_id=1, nodes=[_node(0, 0, [0, 0, 0], score=0.9)], edges=[])
    _, events = integrate(local, g, FusionConfig())
    assert len(g.nodes) == 2 and events == []


def test_integrate_redirects_edges_and_drops_self_loops():
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=_g([0, 0, 0]), weight=1, score_sum=0.9)
    g.add_node(class_id=1, gaussian=_g([5, 0, 0]), weight=1, score_sum=0.9)
    # local nodes 0 and 1 both merge into global 0; their edge becomes a self-loop
    local = LocalSSG(
        frame_id=1,
        nodes=[_node(0, 0, [0, 0, 0], score=0.9), _node(1, 0, [0.05, 0, 0], score=0.8),
               _node(2, 1, [5, 0, 0], score=0.7)],
        edges=[RelationEdge(0, 1, {0: [1, 0.9]}), RelationEdge(1, 2, {1: [1, 0.6]})],
    )
    integrate(local, g, FusionConfig())
    assert len(g.nodes) == 2
    assert set(g.edges) == {(0, 1)}
    assert g.edges[(0, 1)].votes == {1: [1, 0.6]}
    g.validate()


def test_integrate_empty_local_noop():
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=_g([0, 0, 0]))
    _, events = integrate(LocalSSG(frame_id=0, nodes=[], edges=[]), g, FusionConfig())
    assert events == [] and len(g.nodes) == 1


def test_integrate_weight_conservation_random_streams():
    rng = np.random.default_rng(33)
    cfg = FusionConfig(hellinger_threshold=0.85)
    g = GlobalSSG()
    accepted = 0
    for fid in range(50):
        n = int(rng.integers(0, 8))
        nodes = [
            _node(i, int(rng.integers(0, 3)), rng.normal(size=3) * 2.0,
                  cov=None, score=float(0.7 + 0.3 * rng.random()))
            for i in range(n)
        ]
        edges = []
        for _ in range(int(rng.integers(0, n + 1))):
            s, o = rng.integers(0, n, size=2)
            if s != o and all(not (e.subject_id == s and e.object_id == o) for e in edges):
                edges.append(RelationEdge(int(s), int(o), {int(rng.integers(0, 4)): [1, float(rng.random())]}))
        _, events = integrate(LocalSSG(frame_id=fid, nodes=nodes, edges=edges), g, cfg)
        accepted += n
        assert g.total_weight() == accepted
        assert all(e.distance < cfg.hellinger_threshold for e in events)
        g.validate()


def test_integrate_reingestion_never_grows_node_count():
    rng = np.random.default_rng(44)
    cfg = FusionConfig()
    frames = []
    for fid in range(10):
        nodes = [_node(i, int(rng.integers(0, 2)), rng.normal(size=3) * 3.0, score=0.9)
                 for i in range(int(rng.integers(1, 5)))]
        frames.append([(n.class_id, n.gaussian.mean.copy(), n.score_sum) for n in nodes])
    g = GlobalSSG()
    for fid, spec in enumerate(frames):
        nodes = [_node(i, cid, mean, score=s) for i, (cid, mean, s) in enumerate(spec)]
        integrate(LocalSSG(frame_id=fid, nodes=nodes, edges=[]), g, cfg)
    count_first = len(g.nodes)
    for fid, spec in enumerate(frames):
        nodes = [_node(i, cid, mean, score=s) for i, (cid, mean, s) in enumerate(spec)]
        integrate(LocalSSG(frame_id=100 + fid, nodes=nodes, edges=[]), g, cfg)
    assert len(g.nodes) == count_first


# -- process_frame -----------------------------------------------------------


def test_process_frame_populates_state_and_timings():
    g = GlobalSSG()
    frame = _frame([_det(score=0.9), _det(score=0.8, cid=1, cx=5.0)],
                   rels=[Relation2D(0, 1, 2, 0.9)])
    result = process_frame(frame, g, FusionConfig())
    assert not result.skipped
    assert result.lifted == 2 and result.dropped == 0
    assert len(g.nodes) == 2 and len(g.edges) == 1
    assert result.lift_seconds > 0.0 and result.merge_seconds > 0.0


def test_process_frame_skips_malformed_frame():
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=_g([0, 0, 0]))
    bad_pose = CameraPose(rotation=2.0 * np.eye(3), translation=np.zeros(3))
    frame = FrameRecord(frame_id=0, camera=_cam(), pose=bad_pose,
                        detections=[_det(score=0.9)], relations=[])
    result = process_frame(frame, g, FusionConfig())
    assert result.skipped and result.skip_reason
    assert len(g.nodes) == 1 and g.total_weight() == 1


def test_process_frame_counts_dropped():
    g = GlobalSSG()
    frame = _frame([_det(score=0.9), _det(score=0.2), _det(score=0.8, depth=None)])
    result = process_frame(frame, g, FusionConfig())
    assert result.lifted == 1 and result.dropped == 2


_RECORDED_CFG = FusionConfig(eval_point_cap=5)
_RECORDED_VOCAB = ClassVocabulary(("a", "b", "c"), ("near",))


def _fuse_recorded(g, first, rng):
    """Fuse six frames of three jittered detections, with eval points from
    one depth map, into g; returns the number of detections lifted."""
    depth = DepthMap(width=20, height=20,
                     values=(2.0 + 0.05 * np.random.default_rng(4).random((20, 20))).astype(np.float32))
    lifted = 0
    for fid in range(first, first + 6):
        jitter = 0.2 * rng.standard_normal(2)
        dets = [_det(cid=c, cx=cx + jitter[0], cy=cy + jitter[1], w=8.0, h=6.0, depth=None, ref="d")
                for c, (cx, cy) in enumerate([(5.0, 5.0), (14.0, 6.0), (9.0, 15.0)])]
        frame = _frame(dets, [Relation2D(0, 1, 0, 0.9)], frame_id=fid)
        result = process_frame(frame, g, _RECORDED_CFG, rng=rng, depth_provider=lambda ref: depth,
                               record_eval_points=True)
        lifted += result.lifted
    return lifted


def test_fusing_into_a_loaded_graph_keeps_reservoirs_valid(tmp_path):
    # a graph document carries no keys; its points are keyed as they enter
    # the loaded graph, and fusing more frames merges them by key
    rng = np.random.default_rng(4)
    cap = _RECORDED_CFG.eval_point_cap
    g = GlobalSSG()
    lifted = _fuse_recorded(g, 0, rng)
    g.validate(eval_point_cap=cap)
    save_graph(tmp_path / "g.json", g, _RECORDED_VOCAB)
    loaded, _ = load_graph(tmp_path / "g.json")
    assert all(n.eval_keys is not None and len(n.eval_points) == 5 for n in loaded.nodes.values())
    loaded.validate(eval_point_cap=cap)
    lifted += _fuse_recorded(loaded, 6, rng)
    loaded.validate(eval_point_cap=cap)
    assert loaded.total_weight() == lifted == 36
    assert all(n.eval_keys is not None and len(n.eval_points) == 5 for n in loaded.nodes.values())
    assert sum(n.eval_seen for n in loaded.nodes.values()) == sum(n.eval_seen for n in g.nodes.values()) * 2


def test_a_loaded_graph_fuses_to_the_same_bytes_every_time(tmp_path):
    # entry keys come from each node's id, so the same document, loaded twice
    # or with its nodes in reverse order, fuses the same frames identically
    g = GlobalSSG()
    _fuse_recorded(g, 0, np.random.default_rng(4))
    path = tmp_path / "g.json"
    save_graph(path, g, _RECORDED_VOCAB)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["nodes"].reverse()
    outputs = []
    for loaded in (load_graph(path)[0], load_graph(path)[0], import_graph(doc)[0]):
        _fuse_recorded(loaded, 6, np.random.default_rng(5))
        loaded.validate(eval_point_cap=_RECORDED_CFG.eval_point_cap)
        out = tmp_path / f"fused{len(outputs)}.json"
        save_graph(out, loaded, _RECORDED_VOCAB)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_keyless_local_graph_is_refused_before_the_global_graph_changes():
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=_g([0, 0, 0]), eval_points=np.zeros((2, 3)), eval_seen=2)
    before = json.dumps(export_graph(g, _RECORDED_VOCAB))
    keys_before = g.nodes[0].eval_keys.tobytes()
    keyed = ObjectNode(id=0, class_id=0, gaussian=_g([0, 0, 0]), score_sum=0.9,
                       eval_points=np.ones((1, 3)), eval_seen=1, eval_keys=np.array([0.5]))
    keyless = ObjectNode(id=1, class_id=0, gaussian=_g([0.1, 0, 0]), score_sum=0.8,
                         eval_points=np.ones((2, 3)), eval_seen=3)
    with pytest.raises(MergeContractError, match="local node 1 has eval points without keys"):
        integrate(LocalSSG(frame_id=1, nodes=[keyed, keyless], edges=[]), g, FusionConfig())
    assert json.dumps(export_graph(g, _RECORDED_VOCAB)) == before
    assert g.nodes[0].eval_keys.tobytes() == keys_before and g.nodes[0].eval_seen == 2
    # no points, or an empty array of them, needs no keys
    empty = ObjectNode(id=0, class_id=0, gaussian=_g([0, 0, 0]), eval_points=np.empty((0, 3)))
    integrate(LocalSSG(frame_id=2, nodes=[empty, _node(1, 0, [0, 0, 0])], edges=[]), g, FusionConfig())
    g.validate()


def test_merge_event_fields():
    ev = MergeEvent(kept_id=3, absorbed_id=-1, distance=0.4, frame_id=7)
    assert (ev.kept_id, ev.absorbed_id, ev.distance, ev.frame_id) == (3, -1, 0.4, 7)


# -- covariances from outside the program --------------------------------------


def test_node_built_local_graph_refuses_covariances_the_gate_cannot_score():
    def local(cov):
        return LocalSSG(frame_id=0, nodes=[_node(0, 0, [0, 0, 0]), _node(1, 0, [1, 0, 0], cov)], edges=[])

    skew = np.eye(3)
    skew[0, 1] = 1e-3
    for cov, problem in (
        (skew, "not symmetric"),
        (np.diag([-1.0, -1.0, 1000.0]), "not positive definite"),  # det > 0, c00 < 0
        (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]]), "not positive definite"),  # 2x2 minor < 0
    ):
        with pytest.raises(MergeContractError, match=f"local node 1: covariance is {problem}"):
            local(cov)
    # degenerate covariances are taken, and inserted without matching
    for cov in (np.zeros((3, 3)), -np.eye(3), np.diag([1.0, 1.0, 0.0])):
        g = GlobalSSG()
        _, events = integrate(local(cov), g, FusionConfig())
        assert len(g.nodes) == 2 and events == []
    # a rank-one v v' whose determinant rounds above DET_MIN, its 2x2 minor to -1e-16
    v = np.array([1.0, 0.8, 0.1875])
    local(np.outer(v, v))


def test_node_built_local_graph_refuses_non_finite_entries():
    # the check import_graph makes; the lift's own rows (from_columns) are not checked
    for mean, cov, problem in (
        ([math.nan, 0, 0], None, "mean is not finite"),
        ([0, 0, math.inf], None, "mean is not finite"),
        ([1, 0, 0], np.diag([math.inf, 1.0, 1.0]), "covariance is not finite"),
        ([1, 0, 0], np.full((3, 3), math.nan), "covariance is not finite"),
    ):
        with pytest.raises(MergeContractError, match=f"local node 1: {problem}"):
            LocalSSG(frame_id=0, nodes=[_node(0, 0, [0, 0, 0]), _node(1, 0, mean, cov)], edges=[])


# -- graph bytes, and the two ways of building a local graph --------------------


def _room_stream():
    """A short noisy synthetic room with depth maps and relations."""
    spec = SceneSpec(seed=21, n_objects=8, n_classes=4, n_frames=40, image_width=160, image_height=120,
                     focal=125.0, noise=NoiseModel(bbox_jitter_px=1.0, depth_sigma_m=0.03,
                                                   false_positive_rate=0.05, miss_rate=0.05))
    return render_frames(generate_scene(spec), with_depth_maps=True)


def _fused_sha256(tmp_path, frames, depth_maps=None) -> tuple[GlobalSSG, str]:
    g, cfg, rng = GlobalSSG(), FusionConfig(), np.random.default_rng(5)
    depth = None if depth_maps is None else depth_maps.__getitem__
    for frame in frames:
        res = process_frame(frame, g, cfg, rng=rng, depth_provider=depth, record_eval_points=depth is not None)
        assert not res.skipped
    g.validate(eval_point_cap=cfg.eval_point_cap)
    vocab = ClassVocabulary(tuple(f"class_{i}" for i in range(10)), tuple(f"predicate_{i}" for i in range(5)))
    save_graph(tmp_path / "graph.json", g, vocab)
    return g, hashlib.sha256((tmp_path / "graph.json").read_bytes()).hexdigest()


def test_graph_bytes_are_pinned(tmp_path):
    # the bytes an engine change must not move without saying why
    g, sha = _fused_sha256(tmp_path, orbit_frames(360))
    assert len(g.nodes) == 166
    assert sha == "98c8b5bf80363ffafc9989cc0cdeb26c4ad32118419e5d932be3ed8a2b738c2f"
    frames, maps = _room_stream()
    g, sha = _fused_sha256(tmp_path, frames, maps)
    assert (len(g.nodes), len(g.edges)) == (19, 12)
    assert sum(len(n.eval_points) > 1 for n in g.nodes.values()) == 9
    assert sha == "69d2cfb396a3599a27e5664806c68edde0820e37ea4ec35834a6576cfdf1bec1"


def test_node_built_and_columnar_local_graphs_integrate_alike():
    # build_local_graph's columns, and a LocalSSG built from the nodes they
    # view, give the same events and the same graph, eval keys included
    frames, maps = _room_stream()
    cfg = FusionConfig()
    rng = np.random.default_rng(5)
    g_cols, g_nodes = GlobalSSG(), GlobalSSG()
    merges = 0
    for frame in frames:
        local = build_local_graph(frame, frame.camera, frame.pose, cfg, depth_provider=maps.__getitem__,
                                  record_eval_points=True, rng=rng)
        nodes = local.nodes
        assert all(n.eval_keys is not None and len(n.eval_keys) == len(n.eval_points) for n in nodes)
        hand = LocalSSG(frame.frame_id, nodes, [RelationEdge(e.subject_id, e.object_id,
                                                             {p: list(v) for p, v in e.votes.items()})
                                                for e in local.edges])
        _, ev_cols = integrate(local, g_cols, cfg)
        _, ev_nodes = integrate(hand, g_nodes, cfg)
        assert ev_cols == ev_nodes
        merges += len(ev_cols)
        # integrate leaves the columns, and so the view, as they were
        for a, b in zip(local.nodes, nodes):
            assert (a.class_id, a.weight, a.score_sum, a.eval_seen) == (b.class_id, b.weight, b.score_sum, b.eval_seen)
            assert a.gaussian.cov.tobytes() == b.gaussian.cov.tobytes()
            assert a.eval_points is b.eval_points and a.eval_keys is b.eval_keys
    assert merges > 0 and g_cols.edges
    g_cols.validate(eval_point_cap=cfg.eval_point_cap)
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(10)), tuple(f"p{i}" for i in range(5)))
    assert json.dumps(export_graph(g_cols, vocab)) == json.dumps(export_graph(g_nodes, vocab))
    for nid, node in g_cols.nodes.items():
        assert node.eval_keys.tobytes() == g_nodes.nodes[nid].eval_keys.tobytes()
