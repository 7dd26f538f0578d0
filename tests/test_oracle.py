"""The fusion engine against its slow reference, on random streams.

`integrate` culls candidates with a bound and scores the survivors with
scalar kernels; tests/reference_fusion.py keeps the per-query algorithm that
scans every live candidate with the vectorized numpy kernel. Both must make
the same decisions in the same order, consume the random generator the same
way and leave byte-identical graphs. The batched lift must likewise equal the
per-detection lift bit for bit and drop the same detections, and the
per-frame evaluation-point pass must equal the per-detection one bit for bit.
"""

import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scenefuse.errors import InvalidDepthError, InvalidDetectionError, SingularJacobianError
from scenefuse.fusion import FusionConfig, _frame_eval_points, integrate
from scenefuse.geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    CameraPose,
    Gaussian3D,
    lift_detection,
    lift_detections,
)
from scenefuse.graph import ClassVocabulary, GlobalSSG, LocalSSG, ObjectNode, RelationEdge, export_graph
from scenefuse.streams import DepthMap, Detection

import reference_fusion

SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

unit = st.floats(-1.0, 1.0, allow_nan=False)


def _rotation(q) -> np.ndarray:
    a, b, c, d = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (c * c + d * d), 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), 1 - 2 * (b * b + d * d), 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), 1 - 2 * (b * b + c * c)],
    ])


quaternions = st.tuples(unit, unit, unit, unit).filter(lambda q: sum(v * v for v in q) > 0.1)


@st.composite
def covariances(draw):
    kind = draw(st.sampled_from(["spd", "iso", "aniso", "tiny", "degenerate"]))
    if kind == "spd":
        a = np.array(draw(st.lists(unit, min_size=9, max_size=9))).reshape(3, 3)
        cov = (a @ a.T + 0.1 * np.eye(3)) * draw(st.floats(0.01, 0.5))
    elif kind == "iso":
        cov = np.eye(3) * draw(st.floats(0.01, 0.5))
    elif kind == "aniso":  # condition number up to 1e6
        r = _rotation(draw(quaternions))
        scales = [draw(st.floats(1e-6, 1.0)) for _ in range(3)]
        cov = r @ np.diag(scales) @ r.T * draw(st.floats(0.01, 0.5))
    elif kind == "tiny":  # determinant just above or below the DET_MIN guard
        cov = np.eye(3) * draw(st.floats(0.9e-10, 1.2e-10))
    else:  # zero or rank one
        v = np.array(draw(st.lists(unit, min_size=3, max_size=3)))
        cov = np.outer(v, v) if draw(st.booleans()) else np.zeros((3, 3))
    return 0.5 * (cov + cov.T)


def _offset_for(h: float, var: float) -> float:
    """Offset along an eigenvector of variance var at which two Gaussians with
    the same covariance lie at Hellinger distance h: B = offset^2 / (8 var)."""
    return math.sqrt(-8.0 * var * math.log1p(-h * h))


@st.composite
def probe_shapes(draw):
    """(u, var, cov): cov has variance var along the unit vector u and is
    either isotropic or thin across u; thin makes the cull's trace bound
    nearly tight for offsets along u."""
    u = _rotation(draw(quaternions))[:, 0]
    var = draw(st.floats(0.01, 0.5))
    thin = draw(st.sampled_from([1.0, 1e-3, 1e-6]))
    cov = var * (np.outer(u, u) + thin * (np.eye(3) - np.outer(u, u)))
    return u, var, 0.5 * (cov + cov.T)


@st.composite
def streams(draw):
    """(config, frames): each frame is a list of [class, mean, cov, score,
    eval points, seen, eval keys] and a list of (subject, object, predicate,
    score). Keys are absent (as in a graph read back from its document) or
    drawn from a few values, so that merges meet equal keys at the cut."""
    threshold = draw(st.sampled_from([0.5, 0.85, 0.95]))
    b_gate = -math.log1p(-threshold * threshold)
    cfg = FusionConfig(hellinger_threshold=threshold, eval_point_cap=draw(st.integers(1, 3)))
    n_classes = draw(st.integers(1, 3))
    anchors = draw(st.lists(
        st.tuples(st.integers(0, n_classes - 1), st.tuples(unit, unit, unit)), min_size=1, max_size=5,
    ))
    # probe families get a class of their own, so only their own nodes change them
    gates: list[tuple[int, np.ndarray, np.ndarray, float, np.ndarray]] = []
    ties: list[tuple[int, np.ndarray, float]] = []
    next_class = n_classes
    frames = []
    for _ in range(draw(st.integers(1, 6))):
        nodes = []
        for _ in range(draw(st.integers(0, 7))):
            kind = draw(st.sampled_from(["anchor", "anchor", "anchor", "far", "gate", "gate", "tie", "tie"]))
            score = draw(st.sampled_from([0.5, 0.8, 0.9, 1.0]))
            if kind in ("anchor", "far"):
                cid, centre = draw(st.sampled_from(anchors))
                spread = 0.05 if kind == "anchor" else 3.0
                jitter = np.array(draw(st.tuples(unit, unit, unit))) * spread
                nodes.append([cid, np.array(centre) * 3.0 + jitter, draw(covariances()), score])
            elif kind == "gate" and (not gates or draw(st.booleans())):
                u, var, cov = draw(probe_shapes())
                centre = np.array(draw(st.tuples(unit, unit, unit))) * 20.0
                gates.append((next_class, centre, u, var, cov))
                nodes.append([next_class, centre, cov, score])
                next_class += 1
            elif kind == "gate":  # within 1e-6 of the gate from a probe, and maybe a peer as far on
                cid, centre, u, var, cov = draw(st.sampled_from(gates))
                step = _offset_for(threshold + draw(st.floats(-1e-6, 1e-6)), var)
                nodes.append([cid, centre + step * u, cov, score])
                if draw(st.booleans()):
                    nodes.append([cid, centre + 2.0 * step * u, cov, draw(st.sampled_from([0.5, 1.0]))])
            elif not ties or draw(st.booleans()):
                # two probes on either side of a centre, at exactly equal distances from
                # it (dyadic coordinates), each within the gate of it but not of each other
                centre = np.array(draw(st.tuples(*[st.integers(-80, 80)] * 3)), dtype=float) / 8.0
                half = draw(st.integers(2, 16)) / 16.0
                var = half * half / (8.0 * b_gate * draw(st.floats(0.3, 0.9)))
                cid = next_class
                next_class += 1
                ties.append((cid, centre, var))
                side = np.array([half, 0.0, 0.0])
                if draw(st.booleans()):  # the centre comes later and meets two global nodes
                    nodes += [[cid, centre - side, np.eye(3) * var, 0.5], [cid, centre + side, np.eye(3) * var, 0.5]]
                else:  # the centre is popped first and meets two queued peers
                    nodes += [[cid, centre - side, np.eye(3) * var, 0.5], [cid, centre, np.eye(3) * var, 1.0],
                              [cid, centre + side, np.eye(3) * var, 0.5]]
            else:
                cid, centre, var = draw(st.sampled_from(ties))
                nodes.append([cid, centre, np.eye(3) * var, score])
        for node in nodes:
            if draw(st.booleans()):
                k = draw(st.integers(1, cfg.eval_point_cap))  # a lifted node holds at most cap
                pts = node[1] + np.array(draw(st.lists(unit, min_size=3 * k, max_size=3 * k))).reshape(k, 3)
                keys = draw(st.one_of(st.none(), st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=k, max_size=k)))
                node += [pts, k + draw(st.integers(0, 6)), None if keys is None else np.array(keys)]
            else:
                node += [None, 0, None]
        relations = []
        if len(nodes) >= 2:
            for _ in range(draw(st.integers(0, 3))):
                s, o = draw(st.integers(0, len(nodes) - 1)), draw(st.integers(0, len(nodes) - 1))
                if s != o:
                    relations.append((s, o, draw(st.integers(0, 2)), draw(st.floats(0.1, 1.0))))
        frames.append((nodes, relations))
    return cfg, frames, next_class


def _local(fid, nodes, relations) -> LocalSSG:
    return LocalSSG(
        frame_id=fid,
        nodes=[
            ObjectNode(id=i, class_id=cid, gaussian=Gaussian3D(mean=mean, cov=cov), weight=1,
                       score_sum=score, eval_points=pts, eval_seen=seen, eval_keys=keys)
            for i, (cid, mean, cov, score, pts, seen, keys) in enumerate(nodes)
        ],
        edges=[RelationEdge(s, o, {p: [1, sc]}) for s, o, p, sc in relations],
    )


@SETTINGS
@given(streams())
def test_integrate_matches_reference_on_random_streams(stream):
    cfg, frames, n_classes = stream
    g_new, g_ref = GlobalSSG(), GlobalSSG()
    rng_new, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
    for fid, (nodes, relations) in enumerate(frames):
        _, ev_new = integrate(_local(fid, nodes, relations), g_new, cfg, rng=rng_new)
        _, ev_ref = reference_fusion.integrate(_local(fid, nodes, relations), g_ref, cfg, rng=rng_ref)
        assert [(e.kept_id, e.absorbed_id, e.frame_id) for e in ev_new] == \
            [(e.kept_id, e.absorbed_id, e.frame_id) for e in ev_ref]
        for a, b in zip(ev_new, ev_ref):
            assert abs(a.distance - b.distance) <= 1e-15
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    g_new.validate(eval_point_cap=cfg.eval_point_cap)
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(n_classes)), ("p0", "p1", "p2"))
    assert json.dumps(export_graph(g_new, vocab)) == json.dumps(export_graph(g_ref, vocab))
    for nid, node in g_new.nodes.items():
        ref = g_ref.nodes[nid].eval_keys
        assert (node.eval_keys is None) == (ref is None)
        if ref is not None:
            assert node.eval_keys.tobytes() == ref.tobytes()


@st.composite
def eval_frames(draw):
    """(detections, maps, means, camera, pose, cap) for one frame: small images
    with invalid depths, windows clipped at the edges, over the cap, empty or
    zero-area, and detections on none, one or two depth maps."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cam = CameraIntrinsics(fx=draw(st.floats(5.0, 50.0)), fy=draw(st.floats(5.0, 50.0)),
                           cx=draw(st.floats(0.0, width)), cy=draw(st.floats(0.0, height)),
                           width=width, height=height)
    pose = CameraPose(rotation=_rotation(draw(quaternions)),
                      translation=np.array(draw(st.tuples(unit, unit, unit))) * 10.0)
    depth = st.one_of(st.floats(0.0625, 20.0, width=32),
                      st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]))
    maps = [
        DepthMap(width=width, height=height,
                 values=np.array(draw(st.lists(depth, min_size=width * height, max_size=width * height)),
                                 dtype=draw(st.sampled_from([np.float32, np.float64]))).reshape(height, width))
        for _ in range(2)
    ]
    extent = st.one_of(st.floats(0.0, 3.0 * max(width, height)), st.sampled_from([0.0, 1e-9, 2.0, 4.0]))
    n = draw(st.integers(0, 8))
    dets = [
        Detection(class_id=0, score=1.0, cx=draw(st.floats(-4.0, width + 4.0)),
                  cy=draw(st.floats(-4.0, height + 4.0)), w=draw(extent), h=draw(extent))
        for _ in range(n)
    ]
    which = [draw(st.sampled_from([None, 0, 0, 1])) for _ in range(n)]
    means = np.array(draw(st.lists(unit, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    return dets, [None if k is None else maps[k] for k in which], means, cam, pose, draw(st.integers(1, 6))


@SETTINGS
@given(eval_frames())
def test_frame_eval_points_match_per_detection_reference(frame):
    dets, maps, means, cam, pose, cap = frame
    boxes = np.array([(d.cx, d.cy, d.w, d.h) for d in dets], dtype=np.float64).reshape(len(dets), 4)
    rng_new, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    points, keys, seen = _frame_eval_points(boxes, maps, means, cam, pose, cap, rng_new)
    ref_points, ref_keys, ref_seen = reference_fusion.frame_eval_points(dets, maps, means, cam, pose, cap, rng_ref)
    assert seen == ref_seen
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    for p, k, rp, rk in zip(points, keys, ref_points, ref_keys):
        assert p.shape == rp.shape and p.tobytes() == rp.tobytes()
        assert k.shape == rk.shape == (len(p),) and k.tobytes() == rk.tobytes()
    assert len(points) == len(keys) == len(dets)


@st.composite
def lift_batches(draw):
    cam = CameraIntrinsics(
        fx=draw(st.floats(50.0, 1000.0)), fy=draw(st.floats(50.0, 1000.0)),
        cx=draw(st.floats(0.0, 640.0)), cy=draw(st.floats(0.0, 480.0)), width=640, height=480,
    )
    pose = CameraPose(rotation=_rotation(draw(quaternions)),
                      translation=np.array(draw(st.tuples(unit, unit, unit))) * 10.0)
    n = draw(st.integers(0, 12))
    extent = st.one_of(st.floats(0.5, 500.0), st.sampled_from([0.0, -1.0, 1e-3, math.inf, math.nan]))
    depth = st.one_of(st.floats(0.01, 50.0), st.sampled_from([0.0, 5e-5, 1e-4, 1e-3, math.inf, math.nan]))
    boxes = [
        (draw(st.floats(-5000.0, 5000.0)), draw(st.floats(-5000.0, 5000.0)), draw(extent), draw(extent))
        for _ in range(n)
    ]
    z = [draw(depth) for _ in range(n)]
    return cam, pose, np.array(boxes, dtype=np.float64).reshape(n, 4), np.array(z, dtype=np.float64)


@SETTINGS
@given(lift_batches(), st.sampled_from(["camera-frame", "pixel"]))
def test_batched_lift_matches_per_detection_lift(batch, mode):
    cam, pose, boxes, z = batch
    means, covs, errors = lift_detections(boxes, z, cam, pose, jacobian_mode=mode)
    assert len(errors) == len(z)
    for k, ((cx, cy, w, h), zk) in enumerate(zip(boxes.tolist(), z.tolist())):
        box = BoundingBox2D(center=np.array([cx, cy]), width=w, height=h, score=1.0, class_id=0)
        try:
            g = lift_detection(box, zk, cam, pose, jacobian_mode=mode)
        except (InvalidDepthError, InvalidDetectionError, SingularJacobianError) as exc:
            assert type(errors[k]) is type(exc) and str(errors[k]) == str(exc)
            continue
        assert errors[k] is None
        np.testing.assert_array_equal(means[k], g.mean)
        np.testing.assert_array_equal(covs[k], g.cov)
