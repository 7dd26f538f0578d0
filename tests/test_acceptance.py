"""Acceptance suite: ten go/no-go checks over the full pipeline.

Each test covers one release gate and prints a single verdict line of the
form `[acceptance] <gate>: PASS|FAIL` (visible with `pytest -s` and in the
captured output of failures). The gates: closed-form geometry and fusion
examples, pseudo-inverse identity at scale, merge vs a Monte-Carlo moment
oracle, Hellinger metric properties, exact weight doubling on a replayed
stream, recall floors on clean synthetic scenes, threshold trends under
noise, matcher parity with a brute-force reference, streaming throughput
targets, and graph invariants over a long randomized run.
"""

import math
import time
from dataclasses import replace

import numpy as np

from scenefuse import (
    BoundingBox2D,
    CameraIntrinsics,
    CameraPose,
    ClassVocabulary,
    Detection,
    FrameRecord,
    FusionConfig,
    Gaussian3D,
    GlobalSSG,
    LocalSSG,
    NoiseModel,
    ObjectNode,
    Relation2D,
    RelationEdge,
    SceneSpec,
    bhattacharyya,
    compute_recalls,
    generate_scene,
    hellinger,
    integrate,
    lift_detection,
    match_objects,
    process_frame,
    render_frames,
    resolve_predicate,
    sample_centroid_depth,
    write_frame_stream,
)
from scenefuse.cli import _execute_run
from scenefuse.evaluation import GroundTruthInstance, GroundTruthScene, collect_eval_points
from scenefuse._accel import merge_moments_into
from scenefuse.streams import DepthMap, RunConfig
from scenefuse.synthetic import _look_at, orbit_frames

IDENTITY_POSE = CameraPose(rotation=np.eye(3), translation=np.zeros(3))


def _report(gate: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"[acceptance] {gate}: {'PASS' if ok else 'FAIL'}")
    for label, flag in checks:
        print(f"  {'ok  ' if flag else 'FAIL'} {label}")
    for label, flag in checks:
        assert flag, f"{gate}: {label}"


def _cam(fx: float, fy: float | None = None, cx: float = 0.0, cy: float = 0.0) -> CameraIntrinsics:
    return CameraIntrinsics(fx=fx, fy=fx if fy is None else fy, cx=cx, cy=cy, width=640, height=480)


def _random_spd(rng: np.random.Generator, lo: float = 0.3, hi: float = 2.5) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q @ np.diag(rng.uniform(lo, hi, 3)) @ q.T


def _fuse(frames, cfg=None, seed_pair=None, record=False) -> GlobalSSG:
    g = GlobalSSG()
    cfg = cfg or FusionConfig()
    rng = np.random.default_rng(seed_pair) if seed_pair is not None else None
    for f in frames:
        res = process_frame(f, g, cfg, rng=rng, record_eval_points=record)
        assert not res.skipped
    return g


def _merged_node(a: Gaussian3D, w_a: int, b: Gaussian3D, w_b: int) -> ObjectNode:
    """The node integrate makes of a global node (a, weight w_a) and a local
    one (b, weight w_b), with a gate (0.99) that lets the pair merge."""
    g = GlobalSSG()
    g.add_node(0, a, weight=w_a)
    local = LocalSSG(frame_id=0, nodes=[ObjectNode(id=0, class_id=0, gaussian=b, weight=w_b)], edges=[])
    _, events = integrate(local, g, FusionConfig(hellinger_threshold=0.99))
    assert len(events) == 1 and len(g.nodes) == 1
    return g.nodes[0]


def _clean_scene_spec(seed: int) -> SceneSpec:
    n = 15 + (seed * 7) % 16
    side = round(8 * math.sqrt(n / 20), 1)
    return SceneSpec(seed=seed, n_objects=n, n_classes=5, n_frames=120, room_size=(side, side, 3.0))


def test_closed_form_examples_hold_at_tolerance():
    # imported here, as below: tests/ is not on sys.path under perfbench/selftest.py
    from reference_fusion import backproject_covariance, backproject_mean, jacobian_pseudoinverse, projection_jacobian

    t0 = time.perf_counter()
    checks: list[tuple[str, bool]] = []

    m = backproject_mean(np.array([50.0, 0.0]), 4.0, _cam(100.0), IDENTITY_POSE)
    checks.append(("pixel (50,0) at depth 4 lands at (2,0,4)", bool(np.max(np.abs(m - [2, 0, 4])) < 1e-9)))

    J = projection_jacobian(np.array([1.0, 1.0, 1.0]), _cam(1.0))
    checks.append(
        ("jacobian at (1,1,1), f=1 is [[1,0,-1],[0,1,-1]]",
         bool(np.max(np.abs(J.matrix - [[1, 0, -1], [0, 1, -1]])) < 1e-9))
    )
    resid = np.max(np.abs(J.matrix @ jacobian_pseudoinverse(J) - np.eye(2)))
    checks.append(("J @ J+ recovers the 2x2 identity", bool(resid < 1e-9)))

    J2 = projection_jacobian(np.array([0.0, 0.0, 2.0]), _cam(1.0))
    lifted = backproject_covariance(np.diag([1 / 3, 1 / 3]), J2, IDENTITY_POSE)
    checks.append(
        ("pixel cov diag(1/3,1/3) at z=2 lifts to diag(4/3,4/3,4/3)",
         bool(np.max(np.abs(lifted - np.diag([4 / 3, 4 / 3, 4 / 3]))) < 1e-9))
    )

    # 90 degree roll about x swaps the lateral/vertical axes of diag(2,4,3)
    r90x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    rotated = backproject_covariance(
        np.diag([0.5, 1.0]), J2, CameraPose(rotation=r90x, translation=np.zeros(3))
    )
    checks.append(
        ("rotated lift conjugates diag(2,4,3) into diag(2,3,4)",
         bool(np.max(np.abs(rotated - np.diag([2.0, 3.0, 4.0]))) < 1e-9))
    )

    box = BoundingBox2D(center=(0.0, 0.0), width=1.0, height=1.0, score=1.0, class_id=0)
    g = lift_detection(box, 2.0, _cam(1.0), IDENTITY_POSE)
    checks.append(("unit box at z=2 lifts to mean (0,0,2)", bool(np.max(np.abs(g.mean - [0, 0, 2])) < 1e-9)))
    checks.append(
        ("unit box at z=2 lifts to cov diag(1/3,1/3,1/3)",
         bool(np.max(np.abs(g.cov - np.eye(3) / 3)) < 1e-9))
    )

    ga = Gaussian3D(mean=[0.0, 0.0, 0.0], cov=np.eye(3))
    gb = Gaussian3D(mean=[2.0, 0.0, 0.0], cov=np.eye(3))
    gc = Gaussian3D(mean=[0.0, 0.0, 0.0], cov=4.0 * np.eye(3))
    checks.append(("B(I vs I shifted by 2) = 0.5", bool(abs(bhattacharyya(ga, gb) - 0.5) < 1e-9)))
    b_scale = bhattacharyya(ga, gc)
    checks.append(
        ("B(I vs 4I) = 0.5 ln(15.625/8)", bool(abs(b_scale - 0.5 * math.log(15.625 / 8.0)) < 1e-9))
    )
    checks.append(("B(I vs 4I) matches 0.33471 to 1e-5", bool(abs(b_scale - 0.33471) < 1e-5)))
    h_shift = hellinger(ga, gb)
    checks.append(
        ("H of the shifted pair = sqrt(1 - e^-0.5)",
         bool(abs(h_shift - math.sqrt(1.0 - math.exp(-0.5))) < 1e-9))
    )
    checks.append(("H of the shifted pair matches 0.62728 to 5e-5", bool(abs(h_shift - 0.62728) < 5e-5)))
    h_scale = hellinger(ga, gc)
    checks.append(
        ("H of the scaled pair = sqrt(1 - (15.625/8)^-0.5)",
         bool(abs(h_scale - math.sqrt(1.0 - math.exp(-0.5 * math.log(15.625 / 8.0)))) < 1e-9))
    )
    checks.append(("H of the scaled pair matches 0.53333 to 5e-5", bool(abs(h_scale - 0.53333) < 5e-5)))
    checks.append(("H is exactly 0.0 on an identical pair", hellinger(ga, ga) == 0.0))

    even = _merged_node(ga, 1, gb, 1)
    checks.append(
        ("1:1 merge of the shifted pair gives ((1,0,0), diag(2,1,1), w=2)",
         even.weight == 2
         and np.array_equal(even.gaussian.mean, [1.0, 0.0, 0.0])
         and np.array_equal(even.gaussian.cov, np.diag([2.0, 1.0, 1.0])))
    )
    skewed = _merged_node(ga, 3, Gaussian3D(mean=[4.0, 0.0, 0.0], cov=np.eye(3)), 1)
    checks.append(
        ("3:1 merge gives ((1,0,0), diag(4,1,1), w=4)",
         skewed.weight == 4
         and np.array_equal(skewed.gaussian.mean, [1.0, 0.0, 0.0])
         and np.array_equal(skewed.gaussian.cov, np.diag([4.0, 1.0, 1.0])))
    )

    tie_score = RelationEdge(subject_id=0, object_id=1, votes={0: [2, 1.2], 1: [2, 1.5]})
    tie_full = RelationEdge(subject_id=0, object_id=1, votes={0: [2, 1.2], 1: [2, 1.2]})
    checks.append(("vote count tie resolves by larger score sum", resolve_predicate(tie_score) == 1))
    checks.append(("full vote tie resolves to the smaller id", resolve_predicate(tie_full) == 0))

    vals = np.full((5, 5), np.nan)
    vals[0, :] = [1.0, 2.0, 3.0, 4.0, 5.0]
    vals[4, :] = 3.0
    depth = DepthMap(width=5, height=5, values=vals)
    fallback = sample_centroid_depth(Detection(class_id=0, score=1.0, cx=2.0, cy=2.0, w=1.0, h=1.0), depth)
    checks.append(("invalid centroid falls back to the 5x5 median 3.0", fallback == 3.0))

    cluster_a = np.array([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0], [0.0, 0.02, 0.0], [0.0, 0.0, 0.02]])
    cluster_b = cluster_a + [5.0, 0.0, 0.0]
    gt = GroundTruthScene(
        instances=[
            GroundTruthInstance(instance_id=7, class_id=0, points=cluster_a),
            GroundTruthInstance(instance_id=9, class_id=0, points=cluster_b),
        ],
        triplets=[],
    )
    graph = GlobalSSG()
    blob = Gaussian3D(mean=[0.0, 0.0, 0.0], cov=0.01 * np.eye(3))
    majority = graph.add_node(
        0, blob, eval_points=np.vstack([cluster_a[:3], cluster_b[:1]]), eval_seen=4
    )
    split = graph.add_node(
        0, blob, eval_points=np.vstack([cluster_a[:2], cluster_b[:2]]), eval_seen=4
    )
    match = match_objects(graph, gt)
    checks.append(("3-vs-1 point split matches its majority instance", match.assignment.get(majority.id) == 7))
    checks.append(("2-vs-2 point split stays unmatched", split.id not in match.assignment))

    vocab = ClassVocabulary(object_classes=("chair", "table"), predicates=("on", "near"))
    gt2 = GroundTruthScene(
        instances=[
            GroundTruthInstance(instance_id=0, class_id=0, points=cluster_a),
            GroundTruthInstance(instance_id=1, class_id=0, points=cluster_a + [3.0, 0.0, 0.0]),
            GroundTruthInstance(instance_id=2, class_id=1, points=cluster_a + [6.0, 0.0, 0.0]),
        ],
        triplets=[(0, 1, 0), (1, 0, 1)],
    )
    pred = GlobalSSG()
    n0 = pred.add_node(0, blob, eval_points=cluster_a, eval_seen=4)
    n1 = pred.add_node(0, blob, eval_points=cluster_a + [3.0, 0.0, 0.0], eval_seen=4)
    pred.accumulate_edge(n0.id, n1.id, {0: [3, 2.0]})
    pred.accumulate_edge(n1.id, n0.id, {0: [2, 1.0]})
    rep = compute_recalls(match_objects(pred, gt2), pred, gt2, vocab)
    checks.append(("two of three instances matched: object recall 2/3", abs(rep.object_recall - 2 / 3) < 1e-12))
    checks.append(("chair found, table missed: mean object recall 0.5", rep.object_mrecall == 0.5))
    checks.append(("one of two triplets correct: relationship recall 0.5", rep.relationship_recall == 0.5))
    checks.append(("predicate recall over matched endpoints 0.5", rep.predicate_recall == 0.5))

    checks.append(("all closed-form examples ran inside 1s", time.perf_counter() - t0 < 1.0))
    _report("closed-form examples", checks)


def test_pseudoinverse_identity_residual_stays_below_1e9():
    from reference_fusion import jacobian_pseudoinverse, projection_jacobian

    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(1000):
        fx, fy = rng.uniform(50.0, 1500.0, 2)
        x, y = rng.uniform(-4.0, 4.0, 2)
        z = rng.uniform(0.2, 20.0)
        J = projection_jacobian(np.array([x, y, z]), _cam(fx, fy))
        jp = jacobian_pseudoinverse(J)
        worst = max(worst, float(np.max(np.abs(J.matrix @ jp - np.eye(2)))))
    _report(
        "pseudo-inverse identity",
        [(f"worst residual {worst:.3e} over 1000 random cameras < 1e-9", worst < 1e-9)],
    )


def test_merge_agrees_with_monte_carlo_moment_oracle():
    # imported here: perfbench/selftest.py imports this module outside pytest,
    # where tests/ is not on sys.path
    from reference_fusion import mixture_moment_oracle

    t0 = time.perf_counter()
    worst_cov = 0.0
    worst_mean = 0.0
    for k in range(20):
        rng = np.random.default_rng([303, k])
        a = Gaussian3D(mean=rng.uniform(-2, 2, 3), cov=_random_spd(rng))
        b = Gaussian3D(mean=rng.uniform(-2, 2, 3), cov=_random_spd(rng))
        w_a = float(rng.uniform(0.5, 8.0))
        w_b = float(rng.uniform(0.5, 8.0))
        mean, cov = merge_moments_into(
            w_a, a.mean.tolist(), a.cov.reshape(9).tolist(), w_b, b.mean.tolist(), b.cov.reshape(9).tolist()
        )
        mean, cov = np.array(mean), np.array(cov).reshape(3, 3)
        mc_mean, mc_cov = mixture_moment_oracle(a, w_a, b, w_b, 1_000_000, rng=np.random.default_rng([404, k]))
        worst_cov = max(worst_cov, float(np.linalg.norm(cov - mc_cov) / np.linalg.norm(mc_cov)))
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - mc_mean))))
    elapsed = time.perf_counter() - t0
    _report(
        "merge vs Monte-Carlo oracle",
        [
            (f"worst relative Frobenius cov error {worst_cov:.4f} < 1%", worst_cov < 0.01),
            (f"worst absolute mean error {worst_mean:.4f} < 0.01", worst_mean < 0.01),
            (f"20 million-sample comparisons in {elapsed:.1f}s < 30s", elapsed < 30.0),
        ],
    )


def test_hellinger_is_a_bounded_symmetric_monotone_distance():
    rng = np.random.default_rng(2004)
    checks: list[tuple[str, bool]] = []
    worst_asym = 0.0
    in_range = True
    zero_on_self = True
    monotone = True
    for k in range(1000):
        a = Gaussian3D(mean=rng.uniform(-3, 3, 3), cov=_random_spd(rng, 0.2, 3.0))
        b = Gaussian3D(mean=rng.uniform(-3, 3, 3), cov=_random_spd(rng, 0.2, 3.0))
        h_ab = hellinger(a, b)
        h_ba = hellinger(b, a)
        worst_asym = max(worst_asym, abs(h_ab - h_ba))
        in_range = in_range and 0.0 <= h_ab < 1.0
        zero_on_self = zero_on_self and hellinger(a, a) == 0.0
        if k < 200:
            # growing mean separation along a fixed direction, shared covariance
            u = rng.normal(size=3)
            u = u / np.linalg.norm(u)
            prev = -1.0
            for t in np.linspace(0.5, 4.0, 5):
                h = hellinger(a, Gaussian3D(mean=a.mean + t * u, cov=a.cov))
                monotone = monotone and h > prev
                prev = h
    checks.append((f"worst |H(a,b) - H(b,a)| = {worst_asym:.2e} < 1e-12", worst_asym < 1e-12))
    checks.append(("H stays inside [0, 1) on all 1000 pairs", in_range))
    checks.append(("H(a,a) is exactly 0.0 on all 1000 pairs", zero_on_self))
    checks.append(("H grows strictly with mean separation (200 pairs x 5 steps)", monotone))
    _report("Hellinger metric properties", checks)


def test_replayed_stream_keeps_nodes_and_doubles_weights_exactly():
    checks: list[tuple[str, bool]] = []
    for seed in (11, 12, 14):
        spec = SceneSpec(seed=seed, n_objects=10, n_classes=4, n_frames=80, room_size=(6.5, 6.5, 3.0))
        frames, _ = render_frames(generate_scene(spec))
        doubled = frames + [replace(f, frame_id=f.frame_id + len(frames)) for f in frames]
        once = _fuse(frames)
        twice = _fuse(doubled)
        base = sorted((n.class_id, n.weight) for n in once.nodes.values())
        repl = sorted((n.class_id, n.weight) for n in twice.nodes.values())
        checks.append((f"seed {seed}: node count unchanged by replay", len(once.nodes) == len(twice.nodes)))
        checks.append(
            (f"seed {seed}: every node weight exactly doubles",
             repl == [(c, 2 * w) for c, w in base])
        )
    _report("replayed stream doubling", checks)


def test_clean_scenes_meet_recall_floors():
    checks: list[tuple[str, bool]] = []
    for seed in range(10):
        scene = generate_scene(_clean_scene_spec(seed))
        frames, _ = render_frames(scene)
        g = _fuse(frames, seed_pair=[seed, 2], record=True)
        rep = compute_recalls(match_objects(g, scene.gt), g, scene.gt, scene.vocab)
        checks.append(
            (f"seed {seed}: object recall {rep.object_recall:.3f} >= 0.90", rep.object_recall >= 0.90)
        )
        checks.append(
            (f"seed {seed}: relationship recall {rep.relationship_recall:.3f} >= 0.80",
             rep.relationship_recall >= 0.80)
        )
    _report("clean-scene recall floors", checks)


def test_threshold_sweep_shows_expected_tradeoff_under_noise():
    noise = NoiseModel(
        bbox_jitter_px=2.5, depth_sigma_m=0.12, false_positive_rate=0.05, miss_rate=0.1, class_flip_rate=0.02
    )
    deltas = (0.6, 0.85, 0.9)
    obj: dict[float, list[float]] = {d: [] for d in deltas}
    rel: dict[float, list[float]] = {d: [] for d in deltas}
    for seed in range(5):
        n = 15 + (seed * 2) % 11
        side = round(8 * math.sqrt(n / 20), 1)
        spec = SceneSpec(
            seed=seed, n_objects=n, n_classes=5, n_frames=120, room_size=(side, side, 3.0), noise=noise
        )
        scene = generate_scene(spec)
        frames, _ = render_frames(scene)
        for d in deltas:
            g = _fuse(frames, cfg=FusionConfig(hellinger_threshold=d), seed_pair=[seed, 2], record=True)
            rep = compute_recalls(match_objects(g, scene.gt), g, scene.gt, scene.vocab)
            obj[d].append(rep.object_recall)
            rel[d].append(rep.relationship_recall)
    obj_m = {d: float(np.mean(v)) for d, v in obj.items()}
    rel_m = {d: float(np.mean(v)) for d, v in rel.items()}
    _report(
        "noisy threshold sweep",
        [
            (f"strict gate keeps objects apart: obj({0.6})={obj_m[0.6]:.3f} > obj({0.9})={obj_m[0.9]:.3f}",
             obj_m[0.6] > obj_m[0.9]),
            (f"looser gate consolidates votes: rel({0.85})={rel_m[0.85]:.3f} > rel({0.6})={rel_m[0.6]:.3f}",
             rel_m[0.85] > rel_m[0.6]),
            (f"looser gate consolidates votes: rel({0.9})={rel_m[0.9]:.3f} > rel({0.6})={rel_m[0.6]:.3f}",
             rel_m[0.9] > rel_m[0.6]),
        ],
    )


def _brute_force_match(pred, gt, *, radius=0.1, majority_min=0.5, runner_up_max=0.75, count_unassociated=True):
    """O(points x gt points) re-statement of the matching contract."""
    if not gt.instances:
        return {}
    gt_pts = np.concatenate([np.asarray(i.points, dtype=float) for i in gt.instances])
    owner = np.concatenate([np.full(len(i.points), k) for k, i in enumerate(gt.instances)])
    candidates = []
    for nid in sorted(pred.nodes):
        pts = collect_eval_points(pred.nodes[nid])
        if len(pts) == 0:
            continue
        d2 = ((pts[:, None, :] - gt_pts[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1)
        assoc = np.sqrt(d2[np.arange(len(pts)), nearest]) <= radius
        counts = np.zeros(len(gt.instances), dtype=int)
        for k in owner[nearest[assoc]]:
            counts[k] += 1
        top_idx = int(counts.argmax())
        top = int(counts[top_idx])
        counts[top_idx] = -1
        second = int(counts.max()) if len(gt.instances) > 1 else 0
        denom = len(pts) if count_unassociated else int(assoc.sum())
        majority = top / denom if denom > 0 else 0.0
        ratio = second / top if top > 0 else 0.0
        if majority > majority_min and ratio < runner_up_max:
            candidates.append((-top, nid, top_idx))
    assignment = {}
    taken = set()
    for _, nid, idx in sorted(candidates):
        if idx in taken:
            continue
        taken.add(idx)
        assignment[nid] = gt.instances[idx].instance_id
    return assignment


def test_matcher_agrees_with_brute_force_reference():
    rng = np.random.default_rng(2008)
    blob = Gaussian3D(mean=np.zeros(3), cov=0.01 * np.eye(3))
    mismatches = []
    for case in range(50):
        n_inst = int(rng.integers(1, 6))
        centers = rng.uniform(-4, 4, (n_inst, 3))
        instances = [
            GroundTruthInstance(
                instance_id=10 + 3 * k,
                class_id=int(rng.integers(0, 4)),
                points=centers[k] + rng.normal(0.0, 0.03, (int(rng.integers(3, 13)), 3)),
            )
            for k in range(n_inst)
        ]
        gt = GroundTruthScene(instances=instances, triplets=[])
        pred = GlobalSSG()
        for _ in range(int(rng.integers(1, 9))):
            if rng.random() < 0.2:
                pred.add_node(0, blob)  # no recorded points: diagnostics only
                continue
            primary = instances[int(rng.integers(0, n_inst))]
            pts = []
            for _ in range(int(rng.integers(1, 13))):
                roll = rng.random()
                if roll < 0.7:
                    src = primary.points[int(rng.integers(0, len(primary.points)))]
                    pts.append(src + rng.uniform(-0.05, 0.05, 3))
                elif roll < 0.9 and n_inst > 1:
                    other = instances[int(rng.integers(0, n_inst))]
                    src = other.points[int(rng.integers(0, len(other.points)))]
                    pts.append(src + rng.uniform(-0.05, 0.05, 3))
                else:
                    pts.append(rng.uniform(20.0, 30.0, 3))  # unassociated
            arr = np.asarray(pts)
            pred.add_node(primary.class_id, blob, eval_points=arr, eval_seen=len(arr))
        count_unassoc = case % 5 != 0
        got = match_objects(pred, gt, count_unassociated=count_unassoc).assignment
        want = _brute_force_match(pred, gt, count_unassociated=count_unassoc)
        if got != want:
            mismatches.append(case)
    _report(
        "matcher vs brute force",
        [(f"assignments identical on all 50 micro-scenes (diverged: {mismatches})", not mismatches)],
    )


# the gate's stream; perfbench/selftest.py imports it under this name
_benchmark_frames = orbit_frames


def test_hour_long_stream_meets_throughput_targets(tmp_path):
    frames = _benchmark_frames()
    stream = tmp_path / "bench_stream.jsonl"
    write_frame_stream(frames, stream)

    warm = tmp_path / "warmup.jsonl"
    write_frame_stream(frames[:5], warm)
    _execute_run(RunConfig(input=str(warm), bench=True))  # keeps first-call costs (lazy imports) out of the timed run

    graph, _, bench = _execute_run(RunConfig(input=str(stream), bench=True))
    merge_mean = bench["stages"]["merge"]["mean_ms"]
    _report(
        "streaming throughput",
        [
            ("all 3600 frames processed, none skipped",
             bench["frames"] == 3600 and bench["skipped_frames"] == 0),
            (f"live object count {len(graph.nodes)} <= 200", len(graph.nodes) <= 200),
            (f"mean merge latency {merge_mean:.3f}ms < 0.5ms", merge_mean < 0.5),
            (f"throughput {bench['fps']:.0f} fps >= 500", bench["fps"] >= 500.0),
            (f"wall time {bench['wall_seconds']:.1f}s < 60s", bench["wall_seconds"] < 60.0),
        ],
    )


def test_long_randomized_stream_preserves_graph_invariants():
    rng = np.random.default_rng(1010)
    pool = [
        (
            np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.2, 2.2)]),
            int(rng.integers(0, 7)),
            rng.uniform(0.3, 0.9, 3),
        )
        for _ in range(40)
    ]
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    cfg = FusionConfig()
    g = GlobalSSG()
    total_lifted = 0
    worst_eig = math.inf
    for fid in range(10_000):
        eye = np.array(
            [
                rng.uniform(6, 14) * math.cos(rng.uniform(0, 2 * math.pi)),
                rng.uniform(6, 14) * math.sin(rng.uniform(0, 2 * math.pi)),
                rng.uniform(0.5, 3.5),
            ]
        )
        pose = _look_at(eye, np.zeros(3))
        rt = pose.rotation.T
        dets = []
        for idx in rng.choice(40, size=int(rng.integers(0, 9)), replace=False):
            center, cls, ext = pool[idx]
            c = rt @ (center + rng.uniform(-0.02, 0.02, 3) - pose.translation)
            if c[2] < 0.25:
                continue
            px = cam.fx * c[0] / c[2] + cam.cx + rng.uniform(-1, 1)
            py = cam.fy * c[1] / c[2] + cam.cy + rng.uniform(-1, 1)
            if not (0 <= px < cam.width and 0 <= py < cam.height):
                continue
            dets.append(
                Detection(
                    class_id=cls,
                    score=float(rng.uniform(0.6, 1.0)),  # some fall below the confidence gate
                    cx=px,
                    cy=py,
                    w=max(cam.fx * ext[0] / c[2], 2.0),
                    h=max(cam.fy * ext[2] / c[2], 2.0),
                    centroid_depth=float(c[2]),
                )
            )
        rels = []
        if len(dets) >= 2:
            for _ in range(int(rng.integers(0, 4))):
                s, o = rng.integers(0, len(dets), 2)
                rels.append(
                    Relation2D(
                        subject=int(s), object=int(o), predicate=int(rng.integers(0, 5)),
                        score=float(rng.uniform(0.1, 1.0)),
                    )
                )
        res = process_frame(FrameRecord(frame_id=fid, camera=cam, pose=pose, detections=dets, relations=rels), g, cfg)
        assert not res.skipped
        total_lifted += res.lifted

        assert g.total_weight() == total_lifted, f"frame {fid}: weight leak"
        for (s, o), edge in g.edges.items():
            assert s != o, f"frame {fid}: self loop {s}"
            assert s in g.nodes and o in g.nodes, f"frame {fid}: dangling edge {s}->{o}"
            assert edge.subject_id == s and edge.object_id == o
        ids = np.fromiter(g.nodes.keys(), dtype=np.int64)
        if len(ids):
            eigs = np.linalg.eigvalsh(np.array([g.row_covs[i] for i in ids]).reshape(-1, 3, 3))
            worst_eig = min(worst_eig, float(eigs.min()))
            assert eigs.min() > -1e-9, f"frame {fid}: non-PSD covariance"
        if fid % 500 == 499:
            g.validate()
    g.validate()
    _report(
        "long-run graph invariants",
        [
            (f"10000 frames, {total_lifted} detections fused, weight conserved at every step", True),
            (f"no dangling edges or self loops among {len(g.edges)} edges", True),
            (f"covariances stayed PSD (worst eigenvalue {worst_eig:.2e})", worst_eig > -1e-9),
        ],
    )
