"""The fusion engine against its slow reference, on random streams.

`integrate` culls candidates with a bound and scores the survivors with
scalar kernels; tests/reference_fusion.py keeps the per-query algorithm that
scans every live candidate with the vectorized numpy kernel. Both must make
the same decisions in the same order and, with `record_points` after
`integrate`, leave byte-identical graphs, eval keys included. The batched
lift must likewise equal the reference's step-by-step lift bit for bit and
drop the same detections, and the per-frame evaluation-point pass must
equal the per-detection one bit for bit.

The per-frame checks around the merge have references too: the one-pass
frame reader must give the record of the per-field walk that defines the
frame grammar (reference_fusion.walk_frame), or raise its error with the
same message; the scalar pose check must reach the numpy check's verdicts; a
local graph handed over as the lift's float rows must integrate exactly as
one built from nodes lifted one by one; and the stream parser, which decodes with orjson
first, must give the records and errors of a json-only reference on raw
bytes.
"""

import json
import math
import tempfile

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from scenefuse.errors import (
    FrameParseError, InvalidDepthError, InvalidDetectionError, SingularJacobianError, StreamOrderError,
)
from scenefuse import fusion
from scenefuse.fusion import FusionConfig, _frame_eval_points, build_local_graph, integrate, process_frame
from scenefuse.geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    CameraPose,
    Gaussian3D,
    lift_detection,
    lift_detections,
)
from scenefuse.graph import (
    ClassVocabulary, GlobalSSG, ObjectNode, RelationEdge, export_graph, load_graph, log_det9, save_graph,
)
from scenefuse.streams import (
    ID_LIMIT, DepthMap, Detection, FrameRecord, Relation2D, _read_frame, frame_to_obj, parse_frame_stream,
)
from scenefuse.synthetic import orbit_frames

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
    either isotropic or thin across u; thin makes the cull's per-axis bound
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
                keys = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=k, max_size=k))
                node += [pts, k + draw(st.integers(0, 6)), np.array(keys)]
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


def _local(fid, nodes, relations) -> reference_fusion.LocalNodes:
    return reference_fusion.LocalNodes(
        frame_id=fid,
        nodes=[
            ObjectNode(id=i, class_id=cid, gaussian=Gaussian3D(mean=mean, cov=cov), weight=1,
                       score_sum=score, eval_points=pts, eval_seen=seen, eval_keys=keys)
            for i, (cid, mean, cov, score, pts, seen, keys) in enumerate(nodes)
        ],
        edges=[RelationEdge(s, o, {p: [1, sc]}) for s, o, p, sc in relations],
    )


def _engine_local(fid, nodes, relations):
    """_local's graph as the engine takes it, without the nodes' eval points."""
    ref = _local(fid, [(cid, mean, cov, score, None, 0, None) for cid, mean, cov, score, *_ in nodes], relations)
    return reference_fusion.local_ssg(*ref)


@SETTINGS
@given(streams())
def test_integrate_matches_reference_on_random_streams(stream):
    # The engine records eval points only from what it lifted, so the nodes'
    # own points are merged here, in the order integrate placed the nodes
    # (local.placement), as record_points merges the points it draws; the
    # reference merges them at every decision
    cfg, frames, n_classes = stream
    g_new, g_ref = GlobalSSG(), GlobalSSG()
    for fid, (nodes, relations) in enumerate(frames):
        local = _engine_local(fid, nodes, relations)
        _, ev_new = integrate(local, g_new, cfg)
        for k, gid in local.placement or ():
            _, _, _, _, points, seen, keys = nodes[k]
            g_new.nodes[gid].merge_eval_points(points, keys, seen, cfg.eval_point_cap)
        _, ev_ref = reference_fusion.integrate(_local(fid, nodes, relations), g_ref, cfg)
        assert [(e.kept_id, e.absorbed_id, e.frame_id) for e in ev_new] == \
            [(e.kept_id, e.absorbed_id, e.frame_id) for e in ev_ref]
        for a, b in zip(ev_new, ev_ref):
            assert abs(a.distance - b.distance) <= 1e-15
    g_new.validate(eval_point_cap=cfg.eval_point_cap)
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(n_classes)), ("p0", "p1", "p2"))
    assert json.dumps(export_graph(g_new, vocab)) == json.dumps(export_graph(g_ref, vocab))
    for nid, node in g_new.nodes.items():
        ref = g_ref.nodes[nid].eval_keys
        assert (node.eval_keys is None) == (ref is None)
        if ref is not None:
            assert node.eval_keys.tobytes() == ref.tobytes()


def test_integrate_matches_reference_where_the_axis_cull_beats_the_trace_cull():
    # Wide, thin Gaussians, as room_depth's walls and tables lift to: side by
    # side across a thin axis, a pair is near enough for the trace test
    # |d|^2 <= reach (tr A + tr B) but not for the per-axis test on that axis.
    # Every frame must still decide and store exactly as the reference,
    # which scores every candidate; the count shows the frames had such pairs.
    rng = np.random.default_rng(23)
    cfg = FusionConfig()
    reach = 4.0 * fusion._gate_bound(cfg.hellinger_threshold)
    anchors = rng.uniform(-3.0, 3.0, size=(6, 3))
    g_new, g_ref = GlobalSSG(), GlobalSSG()
    beaten = merges = 0
    for fid in range(40):
        nodes = []
        for _ in range(int(rng.integers(2, 8))):
            k = int(rng.integers(0, 6))
            variances = np.full(3, rng.uniform(0.005, 0.05))
            variances[k % 3] = rng.uniform(1.0, 4.0)
            r = Rotation.from_rotvec(rng.normal(size=3) * 0.1).as_matrix()
            cov = r @ np.diag(variances) @ r.T
            mean = anchors[k] + rng.normal(size=3) * np.sqrt(variances) * 2.0
            nodes.append([k % 2, mean, 0.5 * (cov + cov.T), float(rng.uniform(0.7, 1.0)), None, 0, None])
        for cid, mean, cov, *_ in nodes:
            for gid, node in g_new.nodes.items():
                if node.class_id == cid:
                    d = np.array(g_new.row_means[gid]) - mean
                    b = np.array(g_new.row_covs[gid]).reshape(3, 3)
                    axes = d * d > reach * (np.diag(cov) + np.diag(b))
                    beaten += bool(axes.any()) and not float(d @ d) > reach * float(np.trace(cov) + np.trace(b))
        _, ev_new = integrate(_engine_local(fid, nodes, []), g_new, cfg)
        _, ev_ref = reference_fusion.integrate(_local(fid, nodes, []), g_ref, cfg)
        assert [(e.kept_id, e.absorbed_id) for e in ev_new] == [(e.kept_id, e.absorbed_id) for e in ev_ref]
        assert [e.distance for e in ev_new] == pytest.approx([e.distance for e in ev_ref], abs=1e-15)
        merges += len(ev_new)
    g_new.validate()
    vocab = ClassVocabulary(("c0", "c1"), ("p0",))
    assert json.dumps(export_graph(g_new, vocab)) == json.dumps(export_graph(g_ref, vocab))
    assert beaten > 500 and merges > 50, (beaten, merges)


def test_queue_log_dets_match_reference_bit_for_bit():
    # queued nodes, graph rows and the public distance all take graph.log_det9;
    # numpy's and math's log differ in the last bit on about 0.1% of inputs, so
    # the reference's per-element math.log is checked on many covariances at once
    rng = np.random.default_rng(17)
    a = rng.normal(size=(20000, 3, 3)) * rng.uniform(1e-5, 10.0, size=(20000, 1, 1))
    covs = a @ a.transpose(0, 2, 1)
    covs[::97] = 0.0
    covs[::89] *= 1e-12  # determinant below the guard
    covs[::83, 1, 1] = np.nan
    ours = np.array([log_det9(c) for c in covs.reshape(-1, 9).tolist()])
    assert ours.tobytes() == reference_fusion.log_det9_batch(covs).tobytes()


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


# one small camera for the recorded streams: 24 x 18 px, so that windows hold
# tens of pixels and a cap of a few points is full after a frame or two
_REC_CAM = CameraIntrinsics(fx=20.0, fy=20.0, cx=12.0, cy=9.0, width=24, height=18)


def _rec_map(seed: int, invalid: float, fill: float) -> DepthMap:
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 4.0, (18, 24))
    values[rng.random((18, 24)) < invalid] = fill
    return DepthMap(width=24, height=18, values=values.astype(np.float32))


@st.composite
def recorded_streams(draw):
    """(frames, maps, caps, reads, reload_at): frames of repeated boxes, with one
    depth map each (some pixels invalid, or all), so that boxes of one
    anchor merge as queued peers and into global nodes, and windows exceed
    small caps. Some detections carry their centroid depth, some only a
    depth_ref, some a ref that cannot be read, and some are below the
    confidence threshold. caps[f] is frame f's eval_point_cap, so the cap
    also grows and shrinks. Before frame f, every node's eval points are read
    if reads[f], which compacts their reservoirs as scoring a graph would;
    the graphs are saved and loaded before frame reload_at."""
    pose = CameraPose(rotation=_rotation(draw(quaternions)),
                      translation=np.array(draw(st.tuples(unit, unit, unit))))
    anchors = draw(st.lists(st.tuples(
        st.integers(0, 1), st.integers(1, 23), st.integers(1, 17), st.integers(2, 16), st.integers(2, 16),
        st.sampled_from([2.0, 2.5, 3.0]),
    ), min_size=1, max_size=4))
    n_frames = draw(st.integers(1, 5))
    caps = [draw(st.sampled_from([1, 3, 3, 8, 64])) for _ in range(n_frames)]
    frames, maps = [], {}
    for f in range(n_frames):
        ref = f"d{f}"
        maps[ref] = _rec_map(draw(st.integers(0, 2 ** 16)), draw(st.sampled_from([0.0, 0.2, 1.0])),
                             draw(st.sampled_from([0.0, math.nan])))
        dets = []
        for _ in range(draw(st.integers(0, 6))):
            cid, cx, cy, w, h, z = draw(st.sampled_from(anchors))
            dets.append(Detection(
                class_id=cid, score=draw(st.sampled_from([0.6, 0.8, 0.9, 1.0])),
                cx=cx + draw(st.sampled_from([0.0, 0.0, 0.5, -1.0])), cy=float(cy), w=float(w), h=float(h),
                centroid_depth=draw(st.sampled_from([z, z, None])),
                depth_ref=draw(st.sampled_from([ref, ref, None, "missing"])),
            ))
        relations = []
        for _ in range(draw(st.integers(0, 3)) if len(dets) >= 2 else 0):
            s, o = draw(st.integers(0, len(dets) - 1)), draw(st.integers(0, len(dets) - 1))
            relations.append(Relation2D(s, o, draw(st.integers(0, 1)), draw(st.floats(0.1, 1.0))))
        frames.append(FrameRecord(f, _REC_CAM, pose, dets, relations))
    reads = [draw(st.booleans()) for _ in range(n_frames)]
    return frames, maps, caps, reads, draw(st.integers(1, n_frames))


def _record_both_ways(frames, maps, caps, reads, reload_at, seed=7):
    """Fuse the frames with eval points two ways, each from its own generator
    seeded alike: process_frame, which records them after the decisions; and
    the reference integrate on the lifted nodes with eval points drawn in the
    lift (reference_fusion.record_in_the_lift), whose reservoirs merge at
    every decision. Checks the events agree frame by frame and the graphs,
    keys and generators at the end, and returns the graphs and the
    process_frame events."""
    def provider(ref):
        if ref not in maps:
            raise FileNotFoundError(ref)
        return maps[ref]

    graphs = [GlobalSSG(), GlobalSSG()]
    rngs = [np.random.default_rng(seed) for _ in graphs]
    vocab = ClassVocabulary(("c0", "c1", "c2", "c3", "c4"), ("p0", "p1"))
    events = []
    for f, frame in enumerate(frames):
        if reads[f]:
            for g in graphs:
                for node in g.nodes.values():
                    node.eval_points
        if f == reload_at:
            with tempfile.TemporaryDirectory() as tmp:
                for k, g in enumerate(graphs):
                    save_graph(f"{tmp}/g{k}.json", g, vocab)
                graphs = [load_graph(f"{tmp}/g{k}.json")[0] for k in range(len(graphs))]
        cfg = FusionConfig(eval_point_cap=caps[f])
        res = process_frame(frame, graphs[0], cfg, rng=rngs[0], depth_provider=provider, record_eval_points=True)
        assert not res.skipped
        local = build_local_graph(frame, frame.camera, frame.pose, cfg, depth_provider=provider)
        eager = reference_fusion.record_in_the_lift(local, cfg, rngs[1], provider)
        _, ev_ref = reference_fusion.integrate(eager, graphs[1], cfg)
        assert [e[:2] for e in ev_ref] == [e[:2] for e in res.merge_events]
        events.append(res.merge_events)
    for g in graphs:
        g.validate(eval_point_cap=max(caps))
    assert json.dumps(export_graph(graphs[0], vocab)) == json.dumps(export_graph(graphs[1], vocab))
    for nid, node in graphs[0].nodes.items():
        assert node.eval_keys.tobytes() == graphs[1].nodes[nid].eval_keys.tobytes()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    return graphs, events


@SETTINGS
@given(recorded_streams())
def test_recording_after_the_decisions_matches_recording_in_the_lift(stream):
    # process_frame records eval points after integrate has placed the nodes,
    # and back-projects only pixels above their reservoir's floor; the graph,
    # eval keys included, and the generator's state must be those of
    # recording in build_local_graph and merging at every decision
    _record_both_ways(*stream)


def _merge_order_stream():
    """(frames, maps, caps, reads): one stream that holds each case the
    hypothesis streams may miss. Queued peers; a root that absorbs a peer and
    then merges into the node another root created in the same frame; full
    reservoirs whose floors drop pixels; a cap that grows; reads between
    frames; and nodes of one-pixel windows, whose reservoirs a wrong floor
    would thin out."""
    pose = CameraPose(rotation=np.eye(3), translation=np.zeros(3))

    def det(cid, score, cx, w, h, z, cy=9.0):
        return Detection(class_id=cid, score=score, cx=cx, cy=cy, w=w, h=h, centroid_depth=z, depth_ref="d")

    frames = []
    for f in range(8):
        dets = [det(0, 0.9, 7.0, 10.0, 13.0, 3.0), det(0, 1.0, 13.0, 14.0, 11.0, 2.0),
                det(0, 1.0, 11.0, 3.0, 6.0, 3.0),
                det(1, 0.9, 18.0 + 0.5 * (f % 2), 8.0, 8.0, 2.5, cy=4.0), det(1, 0.8, 18.0, 8.0, 8.0, 2.5, cy=4.0),
                det(2, 0.9, 4.0, 2.0, 2.0, 2.0, cy=14.0), det(3, 0.9, 9.0, 2.0, 2.0, 2.0, cy=15.0),
                det(4, 0.9, 14.0, 2.0, 2.0, 2.0, cy=16.0)]
        frames.append(FrameRecord(f, _REC_CAM, pose, dets, [Relation2D(3, 1, 0, 0.9), Relation2D(0, 4, 1, 0.5)]))
    caps = [2, 2, 2, 12, 12, 12, 12, 12]
    reads = [False, False, True, False, False, False, True, True]
    return frames, {"d": _rec_map(3, 0.2, math.nan)}, caps, reads


def test_recording_after_the_decisions_on_every_merge_order():
    # the graph of _merge_order_stream, also loaded and fused on, must be the
    # both ways, from each of a few seeds: a floor taken too early, or
    # kept across the cap's change, drops a one-pixel node's point for about
    # every other seed
    stream = _merge_order_stream()
    for seed in range(1, 4):
        _record_both_ways(*stream, reload_at=2, seed=seed)
    graphs, events = _record_both_ways(*stream, reload_at=2, seed=0)
    first = events[0]
    assert any(e.kept_id < 0 for e in first)  # queued peers
    # frame 0: the root that absorbed local node 0 merged into global node 0, created that frame
    assert (first[1].kept_id, first[1].absorbed_id) == (0, -3) and first[0].absorbed_id == -1
    # windows larger than the cap; reservoirs full at the end, but for the one-pixel nodes'
    held = [(n.class_id, len(n.eval_points), n.eval_seen) for n in graphs[0].nodes.values()]
    assert max(seen for _, _, seen in held) > 8 * 12
    assert sorted(k for c, k, _ in held if c < 2) == [12, 12]
    assert all(2 < k < 8 for c, k, _ in held if c >= 2) and len(held) == 5
    # floors were in force: process_frame back-projected fewer points
    counted = []
    original = fusion._frame_eval_points

    def counting(*args):
        points, keys, seen = original(*args)
        counted.append(sum(len(p) for p in points))
        return points, keys, seen

    fusion._frame_eval_points = counting
    try:
        _record_both_ways(*stream, reload_at=2, seed=0)
    finally:
        fusion._frame_eval_points = original
    # per frame: process_frame's pass, then the reference's eager one
    assert len(counted) == 2 * len(stream[0])
    assert sum(counted[0::2]) < sum(counted[1::2])


@st.composite
def lift_batches(draw):
    """(camera, pose, boxes, depths): boxes anywhere within 5000 px, centred
    on the principal point in either axis, or about 1e6 focal lengths off it
    in x, where the Jacobian's Gram matrix, of condition 1 + u^2 + v^2 for
    u = (cx - c_x) / f_x when fx = fy, straddles COND_MAX; extents and depths
    that are refused, and extents near 1e150 whose rows stay finite."""
    fx = draw(st.floats(50.0, 1000.0))
    cam = CameraIntrinsics(
        fx=fx, fy=draw(st.one_of(st.just(fx), st.floats(50.0, 1000.0))),
        cx=draw(st.floats(0.0, 640.0)), cy=draw(st.floats(0.0, 480.0)), width=640, height=480,
    )
    rotation = np.eye(3) if draw(st.booleans()) else _rotation(draw(quaternions))
    pose = CameraPose(rotation=rotation, translation=np.array(draw(st.tuples(unit, unit, unit))) * 10.0)
    n = draw(st.integers(0, 12))
    extent = st.one_of(st.floats(0.5, 500.0), st.floats(1e150, 1e154),
                       st.sampled_from([0.0, -1.0, 1e-3, 1e155, 1e160, math.inf, math.nan]))
    depth = st.one_of(st.floats(0.01, 50.0), st.sampled_from([0.0, 5e-5, 1e-4, 1e-3, math.inf, math.nan]))
    far = st.floats(5e5, 1.5e6).map(lambda u: cam.cx + u * cam.fx) | st.floats(5e5, 1.5e6).map(
        lambda u: cam.cx - u * cam.fx)
    px = st.one_of(st.floats(-5000.0, 5000.0), st.just(cam.cx), far)
    py = st.one_of(st.floats(-5000.0, 5000.0), st.just(cam.cy))
    boxes = [(draw(px), draw(py), draw(extent), draw(extent)) for _ in range(n)]
    z = [draw(depth) for _ in range(n)]
    return cam, pose, np.array(boxes, dtype=np.float64).reshape(n, 4), np.array(z, dtype=np.float64)


def _assert_lift_matches_reference(boxes, z, cam, pose) -> None:
    """lift_detections and lift_detection against the per-detection reference:
    the same errors, and rows equal bit for bit (tobytes tells -0.0 from 0.0,
    as the graph's JSON does)."""
    means, covs, errors = lift_detections(boxes, z, cam, pose)
    assert len(errors) == len(z)
    for k, ((cx, cy, w, h), zk) in enumerate(zip(boxes.tolist(), z.tolist())):
        box = BoundingBox2D(center=np.array([cx, cy]), width=w, height=h, score=1.0, class_id=0)
        try:
            g = reference_fusion.lift_detection(box, zk, cam, pose)
        except (InvalidDepthError, InvalidDetectionError, SingularJacobianError) as exc:
            assert type(errors[k]) is type(exc) and str(errors[k]) == str(exc)
            with pytest.raises(type(exc)) as one:  # the one-row lift raises the row's error
                lift_detection(box, zk, cam, pose)
            assert type(one.value) is type(exc) and str(one.value) == str(exc)
            continue
        assert errors[k] is None
        one = lift_detection(box, zk, cam, pose)
        for mean, cov in ((means[k], covs[k]), (one.mean, one.cov)):
            assert mean.tobytes() == g.mean.tobytes()
            assert cov.tobytes() == g.cov.tobytes()


@SETTINGS
@given(lift_batches())
def test_batched_lift_matches_per_detection_lift(batch):
    cam, pose, boxes, z = batch
    _assert_lift_matches_reference(boxes, z, cam, pose)


def test_lift_keeps_finite_rows_whose_sum_overflows():
    # each covariance holds three variances of about 8.3e306, so the rows are
    # finite and the sum over all of them is not
    cam = CameraIntrinsics(fx=50.0, fy=50.0, cx=320.0, cy=240.0, width=640, height=480)
    pose = CameraPose(rotation=np.eye(3), translation=np.zeros(3))
    boxes = np.array([[320.0, 240.0, 1e154, 1e154]] * 8)
    z = np.full(8, 50.0)
    means, covs, errors = lift_detections(boxes, z, cam, pose)
    assert errors == [None] * 8 and np.isfinite(covs).all()
    with np.errstate(over="ignore"):
        assert covs.sum() == math.inf
    _assert_lift_matches_reference(boxes, z, cam, pose)


# -- the one-pass frame reader against the per-field walk ----------------------

# sentinel strings replaced by JSON number literals in the line's text
_LITERALS = {"__NaN__": "NaN", "__Infinity__": "Infinity", "__-Infinity__": "-Infinity", "__1e999__": "1e999"}
_ODD_VALUES = [None, True, False, 0, -1, 2, 0.0, -0.0, 1.0000000001, -1e-300, 1e308, -1e308, 10 ** 400,
               -(10 ** 400), ID_LIMIT - 1, ID_LIMIT, "s", [], {}, [1, 2], *_LITERALS]
numbers = st.one_of(st.floats(-1e4, 1e4), st.integers(-10_000, 10_000))
positive = st.one_of(st.floats(1e-3, 1e4), st.integers(1, 10_000))


@st.composite
def frame_objects(draw):
    """A valid frame object, with ints where the grammar allows floats."""
    n = draw(st.integers(0, 4))
    dets = []
    for _ in range(n):
        det = {"class_id": draw(st.integers(0, 30)),
               "score": draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))),
               "bbox": {"cx": draw(numbers), "cy": draw(numbers), "w": draw(positive), "h": draw(positive)}}
        if draw(st.booleans()):
            det["centroid_depth"] = draw(st.one_of(st.none(), numbers))
        if draw(st.booleans()):
            det["depth_ref"] = draw(st.one_of(st.none(), st.text(max_size=5)))
        dets.append(det)
    rels = [
        {"subject": draw(st.integers(0, n - 1)), "object": draw(st.integers(0, n - 1)),
         "predicate": draw(st.integers(0, 5)), "score": draw(st.floats(0.0, 1.0))}
        for _ in range(draw(st.integers(0, 3) if n else st.just(0)))
    ]
    rotation = _rotation(draw(quaternions)).reshape(9).tolist()
    if draw(st.booleans()):
        rotation = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    return {
        "frame_id": draw(st.integers(0, 10 ** 6)),
        "camera": {"fx": draw(positive), "fy": draw(positive), "cx": draw(numbers), "cy": draw(numbers),
                   "width": draw(st.integers(1, 4000)), "height": draw(st.integers(1, 4000))},
        "pose": {"rotation": rotation, "translation": [draw(numbers) for _ in range(3)]},
        "detections": dets,
        "relations": rels,
    }


def _slots(obj, out):
    """Every (container, key) of a decoded JSON value, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        out.append((obj, key))
        _slots(value, out)
    return out


_MUTATIONS = ["leaf", "leaf", "bool", "nonfinite", "node", "drop", "extra", "whole",
              "two_big", "score", "zero_w", "endpoint"]


@st.composite
def mutated_lines(draw):
    """(line, mutations): a valid frame line after up to three mutations, each
    aimed at one kind of slot: a number or string, an object or list, a key."""
    obj = draw(frame_objects())
    mutations = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(_MUTATIONS))
        slots = _slots(obj, [])
        leaves = [(c, k) for c, k in slots if not isinstance(c[k], (dict, list))]
        nodes = [(c, k) for c, k in slots if isinstance(c[k], (dict, list))]
        dicts = ([obj] if isinstance(obj, dict) else []) + [c[k] for c, k in nodes if isinstance(c[k], dict)]
        dets = obj["detections"] if isinstance(obj, dict) and isinstance(obj.get("detections"), list) else []
        bboxes = [d["bbox"] for d in dets if isinstance(d, dict) and isinstance(d.get("bbox"), dict)]
        if kind in ("leaf", "bool", "nonfinite") and leaves:
            container, key = draw(st.sampled_from(leaves))
            values = {"leaf": _ODD_VALUES, "bool": [True, False], "nonfinite": list(_LITERALS)}[kind]
            container[key] = draw(st.sampled_from(values))
        elif kind == "node" and nodes:
            container, key = draw(st.sampled_from(nodes))
            container[key] = draw(st.sampled_from(_ODD_VALUES))
        elif kind == "drop" and dicts:
            d = draw(st.sampled_from(dicts))
            if d:
                del d[draw(st.sampled_from(sorted(d)))]
        elif kind == "extra" and dicts:
            draw(st.sampled_from(dicts))[draw(st.sampled_from(["extra", "depth_ref", "bbox", "score", "w"]))] = 1.0
        elif kind == "whole":
            obj = draw(st.sampled_from([None, 3, "frame", [obj]]))
        elif kind == "two_big":  # finite numbers whose sum overflows
            if bboxes:
                bbox = draw(st.sampled_from(bboxes))
                bbox["cx"] = bbox["cy"] = 1e308
            elif isinstance(obj, dict) and isinstance(obj.get("pose"), dict):
                obj["pose"]["translation"] = [1e308, 1e308, 0.0]
        elif kind == "score" and dets:
            det = draw(st.sampled_from(dets))
            if isinstance(det, dict):
                det["score"] = 1.0000000001
        elif kind == "zero_w" and bboxes:
            draw(st.sampled_from(bboxes))["w"] = 0
        elif kind == "endpoint" and isinstance(obj, dict) and obj.get("relations"):
            rel = draw(st.sampled_from(obj["relations"]))
            if isinstance(rel, dict):
                rel[draw(st.sampled_from(["subject", "object"]))] = len(dets)
        else:
            continue
        mutations.append(kind)
    line = json.dumps(obj)
    for sentinel, literal in _LITERALS.items():
        line = line.replace(json.dumps(sentinel), literal)
    return line, mutations


def _record(frame) -> tuple:
    """A FrameRecord's every field, with types (repr tells 1 from 1.0)."""
    return (repr(frame.frame_id), repr(frame.camera), frame.pose.rotation.dtype, frame.pose.rotation.tobytes(),
            frame.pose.translation.tobytes(), repr(frame.detections), repr(frame.relations))


def _read_outcome(read, obj):
    """A reader's record, or the message of the ValueError it raises."""
    try:
        return _record(read(obj))
    except ValueError as exc:
        return str(exc)


def _assert_reader_agrees(line: str, valid: bool) -> None:
    """The one pass gives the walk's record, or raises the walk's error."""
    obj = json.loads(line)
    ours = _read_outcome(_read_frame, obj)
    assert ours == _read_outcome(reference_fusion.walk_frame, obj)
    if valid:
        assert isinstance(ours, tuple)  # a valid frame is read


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(SETTINGS, max_examples=600)
@given(mutated_lines())
def test_one_pass_reader_accepts_what_the_walk_accepts(case):
    line, mutations = case
    _assert_reader_agrees(line, valid=not mutations)


# a valid frame with ints where floats are allowed, both optional keys and two relations
_VALID_FRAME = {
    "frame_id": 3,
    "camera": {"fx": 500.0, "fy": 500, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
    "pose": {"rotation": [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0, 1], "translation": [0.5, -2.0, 3]},
    "detections": [
        {"class_id": 2, "score": 0.9, "bbox": {"cx": 100.0, "cy": 120.0, "w": 40.0, "h": 30},
         "centroid_depth": 2.5, "depth_ref": "d/0.frdp"},
        {"class_id": 0, "score": 1, "bbox": {"cx": 300.5, "cy": 200.0, "w": 64.0, "h": 64.0}},
        {"class_id": 1, "score": 0.8, "bbox": {"cx": 10.0, "cy": 20.0, "w": 8.0, "h": 6.0}},
    ],
    "relations": [{"subject": 0, "object": 1, "predicate": 1, "score": 0.7},
                  {"subject": 1, "object": 0, "predicate": 0, "score": 0}],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_pass_reader_on_every_single_mutation():
    """Each slot of a valid frame given each odd value, each key dropped, an
    extra key in each object, and two numbers past 64 bits."""
    base = _VALID_FRAME
    _assert_reader_agrees(json.dumps(base), valid=True)
    n_slots = len(_slots(base, []))
    for k in range(n_slots):
        for value in _ODD_VALUES:
            obj = json.loads(json.dumps(base))
            container, key = _slots(obj, [])[k]
            container[key] = value
            line = json.dumps(obj)
            for sentinel, literal in _LITERALS.items():
                line = line.replace(json.dumps(sentinel), literal)
            _assert_reader_agrees(line, valid=False)
    objects = [base] + [c[k] for c, k in _slots(base, []) if isinstance(c[k], dict)]
    for i in range(len(objects)):
        for key in list(objects[i]) + ["extra"]:
            obj = json.loads(json.dumps(base))
            target = ([obj] + [c[k] for c, k in _slots(obj, []) if isinstance(c[k], dict)])[i]
            if key in target:
                del target[key]
            else:
                target[key] = 1.0
            _assert_reader_agrees(json.dumps(obj), valid=False)
    # an int frame_id past 64 bits: orjson makes it a float, which the reader
    # refuses, and json an int, which it reads
    big_id = json.dumps(dict(base, frame_id=2 ** 70))
    _assert_reader_agrees(big_id, valid=True)
    assert _read_frame(json.loads(big_id)).frame_id == 2 ** 70
    with pytest.raises(ValueError, match="frame_id must be an integer"):
        _read_frame(orjson.loads(big_id))
    # 2**64 written as an int in a float field reads as the nearest float
    big_cx = json.dumps(base).replace('"cx": 100.0', '"cx": 18446744073709551616')
    _assert_reader_agrees(big_cx, valid=True)
    assert _read_frame(json.loads(big_cx)).detections[0].cx == 2.0 ** 64


def test_one_pass_reader_words_the_first_of_two_bad_fields():
    """Each pair of leaves of a valid frame given a bool, which every field
    refuses: the reader checks in the walk's order."""
    leaves = [k for k, (c, key) in enumerate(_slots(_VALID_FRAME, [])) if not isinstance(c[key], (dict, list))]
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            obj = json.loads(json.dumps(_VALID_FRAME))
            slots = _slots(obj, [])
            for k in (a, b):
                container, key = slots[k]
                container[key] = True
            _assert_reader_agrees(json.dumps(obj), valid=False)


# -- the scalar pose check against the numpy one ---------------------------------


def _verdict(check, pose, tol):
    try:
        check(pose, tol)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def near_tolerance_poses(draw):
    """(pose, tol): a random rotation, perturbed to land near tol, reflected, or
    given a non-finite entry."""
    tol = draw(st.sampled_from([1e-6, 1e-9]))
    rotation = Rotation.random(random_state=draw(st.integers(0, 2 ** 32 - 1))).as_matrix()
    translation = np.array(draw(st.tuples(unit, unit, unit))) * 10.0
    kind = draw(st.sampled_from(["exact", "scale", "perturb", "perturb", "reflect", "nonfinite", "huge_t"]))
    if kind == "scale":  # R'R - I = (2s + s^2) I and det - 1 = 3s + ...: either side of tol
        rotation = rotation * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * tol * draw(
            st.sampled_from([0.1, 0.3, 0.332, 0.334, 0.49, 0.51, 0.9, 1.1, 3.0])))
    elif kind == "perturb":  # a random direction scaled so that max |R'R - I| is near tol
        e = np.array(draw(st.lists(unit, min_size=9, max_size=9))).reshape(3, 3)
        first_order = np.abs(rotation.T @ e + e.T @ rotation).max()
        if first_order > 1e-3:
            rotation = rotation + e * (tol / first_order) * draw(
                st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0]))
    elif kind == "reflect":  # det -1
        rotation = rotation @ np.diag(draw(st.sampled_from([[-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])))
    elif kind == "nonfinite":
        where = draw(st.sampled_from(["rotation", "translation"]))
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if where == "rotation":
            rotation = rotation.copy()
            rotation.flat[draw(st.integers(0, 8))] = bad
        else:
            translation[draw(st.integers(0, 2))] = bad
    elif kind == "huge_t":  # finite, but the entries' sum overflows
        translation = np.array([1e308, 1e308, 0.0])
    return CameraPose(rotation=rotation, translation=translation), tol


@settings(SETTINGS, max_examples=600)
@given(near_tolerance_poses())
def test_scalar_pose_check_matches_numpy_check(case):
    pose, tol = case
    ours = _verdict(CameraPose.validate, pose, tol)
    ref = _verdict(reference_fusion.validate_pose, pose, tol)
    if ours == ref:
        return
    # verdicts may differ only where the numpy check's figures lie within 1e-12 of tol
    r = pose.rotation
    assert np.all(np.isfinite(r))
    err = np.abs(r.T @ r - np.eye(3)).max()
    det_err = abs(np.linalg.det(r) - 1.0)
    assert min(abs(err - tol), abs(det_err - tol)) <= 1e-12, (ours, ref)
    assert ours is None or ref is None  # an error the two both raise is worded alike


# -- from lift to integrate: float rows against hand-built nodes -----------------


@st.composite
def detection_streams(draw):
    """(config, frames): frames built in code from a few poses and objects
    seen again and again, so that their lifts merge, plus detections that are
    dropped for their score, their depth or their lift."""
    cfg = FusionConfig(hellinger_threshold=draw(st.sampled_from([0.5, 0.85])))
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    poses = [CameraPose(rotation=_rotation(draw(quaternions)),
                        translation=np.array(draw(st.tuples(unit, unit, unit))) * 5.0)
             for _ in range(draw(st.integers(1, 2)))]
    objects = [(draw(st.integers(0, 2)), draw(st.floats(0.0, 640.0)), draw(st.floats(0.0, 480.0)),
                draw(st.floats(5.0, 200.0)), draw(st.floats(5.0, 200.0)), draw(st.floats(0.5, 20.0)))
               for _ in range(draw(st.integers(1, 4)))]
    frames = []
    for fid in range(draw(st.integers(1, 5))):
        dets = []
        for _ in range(draw(st.integers(0, 6))):
            cid, cx, cy, w, h, z = draw(st.sampled_from(objects))
            jitter = draw(st.sampled_from([0.0, 0.0, 0.5, 3.0]))
            z = draw(st.sampled_from([z, z, z, None, 0.0, math.nan, math.inf]))
            w = draw(st.sampled_from([w, w, w, 0.0]))  # a zero extent fails the lift
            dets.append(Detection(class_id=cid, score=draw(st.sampled_from([0.5, 0.8, 1.0])),
                                  cx=cx + jitter, cy=cy - jitter, w=w, h=h, centroid_depth=z))
        rels = [Relation2D(subject=draw(st.integers(0, len(dets) - 1)), object=draw(st.integers(0, len(dets) - 1)),
                           predicate=draw(st.integers(0, 2)), score=draw(st.floats(0.1, 1.0)))
                for _ in range(draw(st.integers(0, 3) if dets else st.just(0)))]
        frames.append(FrameRecord(frame_id=fid, camera=cam, pose=draw(st.sampled_from(poses)),
                                  detections=dets, relations=rels))
    return cfg, frames


@SETTINGS
@given(detection_streams())
def test_lifted_rows_integrate_as_hand_built_nodes(stream):
    cfg, frames = stream
    g_rows, g_nodes = GlobalSSG(), GlobalSSG()
    for frame in frames:
        local = build_local_graph(frame, frame.camera, frame.pose, cfg)
        lifted = []  # the detections build_local_graph keeps, lifted one by one
        for det in frame.detections:
            z = det.centroid_depth
            if det.score < cfg.confidence_threshold or z is None or not math.isfinite(z) or z < cfg.min_depth:
                continue
            box = BoundingBox2D(center=np.array([det.cx, det.cy]), width=det.w, height=det.h,
                                score=det.score, class_id=det.class_id)
            try:
                lifted.append((det, reference_fusion.lift_detection(box, z, frame.camera, frame.pose)))
            except (InvalidDepthError, InvalidDetectionError, SingularJacobianError):
                continue
        hand = reference_fusion.local_ssg(
            frame_id=frame.frame_id,
            nodes=[ObjectNode(id=i, class_id=det.class_id, gaussian=g, weight=1, score_sum=det.score)
                   for i, (det, g) in enumerate(lifted)],
            edges=[RelationEdge(e.subject_id, e.object_id, {p: list(v) for p, v in e.votes.items()})
                   for e in local.edges],
        )
        _, ev_rows = integrate(local, g_rows, cfg)
        _, ev_nodes = integrate(hand, g_nodes, cfg)
        assert ev_rows == ev_nodes
        # read after integrate: the lift's rows are left as they were
        assert local.class_ids == [det.class_id for det, _ in lifted]
        assert local.score_sums == [det.score for det, _ in lifted]
        assert np.array(local.row_means).tobytes() == np.array([g.mean for _, g in lifted]).tobytes()
        assert np.array(local.row_covs).tobytes() == np.array([g.cov.reshape(9) for _, g in lifted]).tobytes()
    g_rows.validate()
    vocab = ClassVocabulary(("c0", "c1", "c2"), ("p0", "p1", "p2"))
    assert json.dumps(export_graph(g_rows, vocab)) == json.dumps(export_graph(g_nodes, vocab))


# -- the stream parser against its json-only reference --------------------------


def _reference_parse(path, on_error=None):
    """parse_frame_stream with json decoding every line: the stream grammar."""
    last_id = None
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                frame = reference_fusion.walk_frame(json.loads(line.decode("utf-8")))
            except (ValueError, RecursionError) as exc:
                err = FrameParseError(line_no, str(exc))
                if on_error is None:
                    raise err from exc
                on_error(err)
                continue
            if last_id is not None and frame.frame_id <= last_id:
                raise StreamOrderError(f"line {line_no}: frame_id {frame.frame_id} not greater than {last_id}")
            last_id = frame.frame_id
            yield frame


def _outcome(parse, path, skip: bool) -> list:
    """Every record and error a parser gives for a file, in order."""
    events = []
    on_error = (lambda err: events.append(("error", err.line_no, str(err)))) if skip else None
    try:
        for frame in parse(path, on_error=on_error):
            events.append(("frame", _record(frame)))
    except FrameParseError as exc:
        events.append(("raised", exc.line_no, str(exc)))
    except StreamOrderError as exc:
        events.append(("order", str(exc)))
    return events


def _assert_parsers_agree(path, data: bytes) -> None:
    path.write_bytes(data)
    for skip in (True, False):
        assert _outcome(parse_frame_stream, path, skip) == _outcome(_reference_parse, path, skip)


# number and string literals that one decoder may read otherwise than the
# other: past 64 bits, past the float range, non-finite, lone surrogates
_RAW_TOKENS = [
    "9223372036854775807", "9223372036854775808", "18446744073709551615", "18446744073709551616",
    "-9223372036854775808", "-9223372036854775809", "1" + "0" * 399, "-" + "7" * 400, "1" * 19 + ".5",
    "123456789012345678901234567890", "1e400", "-1e400", "1e-400", "4.9e-324", "2.4703282292062328e-324",
    "1.7976931348623157e308", "1.7976931348623159e308", "NaN", "Infinity", "-Infinity", "-0", "-0.0", "1E2",
    '"\\ud800"', '"\\udc00x"', '"\\ud83d\\ude00"', '"\\u0000"', '"\\u00e9"', '"é"',
    "[" * 3000 + "]" * 3000,
]
_SENTINEL = "\x00raw{}\x00"


def _line_with_tokens(obj, slots: list, tokens: list) -> bytes:
    """obj as a JSON line with each given slot's value written as a raw token."""
    for i, (container, key) in enumerate(slots):
        container[key] = _SENTINEL.format(i)
    text = json.dumps(obj)
    for i, token in enumerate(tokens):
        text = text.replace(json.dumps(_SENTINEL.format(i)), token)
    return text.encode("utf-8")


_SYNTHETIC_LINES = [json.dumps(frame_to_obj(f), separators=(",", ":")).encode() for f in orbit_frames(6, 4)]
_INTERESTING_BYTES = b'{}[]",:0123456789.-+eE\\u \t\r\n\x00\x7f\x80\xbf\xc0\xed\xef\xff'


@st.composite
def raw_streams(draw):
    """A stream of a few lines, each a valid frame (synthetic or drawn), one
    with raw tokens in some slots, one with a byte replaced, dropped or
    inserted, or one with a BOM, a duplicate key, deep nesting, bytes that
    are not UTF-8; LF or CRLF endings, blank lines, frame ids in order or not."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            line = draw(st.sampled_from(_SYNTHETIC_LINES))
        else:
            line = json.dumps(draw(frame_objects())).encode()
        kind = draw(st.sampled_from(["valid", "tokens", "tokens", "byte", "byte", "bom", "duplicate",
                                     "nested", "not_utf8", "frame_id"]))
        if kind == "tokens":
            obj = json.loads(line)
            slots = _slots(obj, [])
            picked = draw(st.lists(st.sampled_from(range(len(slots))), min_size=1, max_size=3, unique=True))
            tokens = [draw(st.sampled_from(_RAW_TOKENS)) for _ in picked]
            line = _line_with_tokens(obj, [slots[k] for k in picked], tokens)
        elif kind == "byte":
            at = draw(st.integers(0, len(line)))
            byte = bytes([draw(st.one_of(st.sampled_from(_INTERESTING_BYTES), st.integers(0, 255)))])
            op = draw(st.sampled_from(["replace", "drop", "insert"]))
            if op == "insert" or at == len(line):
                line = line[:at] + byte + line[at:]
            else:
                line = line[:at] + (byte if op == "replace" else b"") + line[at + 1:]
        elif kind == "bom":
            line = b"\xef\xbb\xbf" + line
        elif kind == "duplicate":  # the later value wins in both decoders
            key = draw(st.sampled_from([b'"frame_id": 1', b'"relations": []', b'"frame_id": 0.5', b'"x": 1']))
            line = b"{" + key + b", " + line[1:]
        elif kind == "nested":
            obj = json.loads(line)
            depth = draw(st.sampled_from([10, 500, 999, 1024, 1025, 3000]))
            line = _line_with_tokens(obj, [draw(st.sampled_from(_slots(obj, [])))], ["[" * depth + "]" * depth])
        elif kind == "not_utf8":
            bad = draw(st.sampled_from([b"\xff", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe9", b"\xf4\x90\x80\x80"]))
            at = draw(st.integers(1, len(line) - 1))
            line = line[:at] + bad + line[at:]
        elif kind == "frame_id":  # out of order, equal, or past 64 bits
            obj = json.loads(line)
            obj["frame_id"] = "__id__"
            token = draw(st.sampled_from(["0", "5", "18446744073709551616", "2" * 40, "7.0"]))
            line = json.dumps(obj).replace('"__id__"', token).encode()
        lines.append(line)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([b"", b"  ", b"\t"])))
    ending = draw(st.sampled_from([b"\n", b"\r\n"]))
    data = ending.join(lines)
    return data + ending if draw(st.booleans()) else data


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    return tmp_path_factory.mktemp("streams") / "frames.jsonl"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(SETTINGS, max_examples=500)
@given(data=raw_streams())
def test_stream_parser_matches_json_reference(stream_file, data):
    _assert_parsers_agree(stream_file, data)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stream_parser_on_every_raw_token(stream_file):
    """Each raw token in each slot of a valid frame, and each slot of a
    synthetic frame given a number past 64 bits, as its own stream."""
    base = json.loads(_SYNTHETIC_LINES[1])
    base["relations"] = [{"subject": 0, "object": 1, "predicate": 3, "score": 0.5}]
    base["detections"][0]["depth_ref"] = "d/1.frdp"
    for k in range(len(_slots(base, []))):
        for token in _RAW_TOKENS:
            obj = json.loads(json.dumps(base))
            line = _line_with_tokens(obj, [_slots(obj, [])[k]], [token])
            _assert_parsers_agree(stream_file, line + b"\n")
