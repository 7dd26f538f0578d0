"""Synthetic harness: generation, relation rules, rendering, moment oracle."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scenefuse.errors import ConfigError, GenerationError
from scenefuse.evaluation import GroundTruthInstance, GroundTruthScene, load_ground_truth
from scenefuse.geometry import CameraIntrinsics, CameraPose, Gaussian3D
from scenefuse.streams import DepthCache, parse_frame_stream, write_frame_stream
from scenefuse.synthetic import (
    ABOVE,
    MIN_VISIBLE_FRACTION,
    NEAR,
    ON,
    UNDER,
    NoiseModel,
    SceneSpec,
    SyntheticScene,
    _apply_noise,
    _ideal_detections,
    _relation_for_pair,
    _render_depth_map,
    generate_scene,
    load_scene_spec,
    orbit_frames,
    render_frames,
    scene_vocab,
    spec_from_obj,
    synthesize_dataset,
)

from reference_fusion import mixture_moment_oracle


def _hand_scene(centers, extents, classes, spec=None, pose=None):
    """Scene with hand-placed boxes and a single identity-like camera pose."""
    spec = spec or SceneSpec(n_objects=len(centers), n_classes=max(classes) + 1 if classes else 1)
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    pose = pose or CameraPose(rotation=np.eye(3), translation=np.zeros(3))
    instances = [
        GroundTruthInstance(instance_id=i, class_id=classes[i], points=np.asarray(centers[i])[None, :])
        for i in range(len(centers))
    ]
    vocab = scene_vocab(spec)
    return SyntheticScene(
        spec=spec,
        centers=np.asarray(centers, dtype=float).reshape(-1, 3),
        extents=np.asarray(extents, dtype=float).reshape(-1, 3),
        classes=np.asarray(classes, dtype=np.int64),
        gt=GroundTruthScene(instances=instances, triplets=[], vocab=vocab),
        trajectory=[pose],
        camera=cam,
        vocab=vocab,
    )


# ---------------------------------------------------------------------------
# relation rules
# ---------------------------------------------------------------------------


def _rel(ci, ei, cj, ej, tol=0.02, near=1.5):
    return _relation_for_pair(np.array(ci, float), np.array(ei, float),
                              np.array(cj, float), np.array(ej, float), tol, near)


def test_rule_on_for_stacked_contact():
    # X (top, bottom at z=0.5) rests on Y (top at z=0.5)
    assert _rel((0, 0, 0.75), (0.5, 0.5, 0.5), (0, 0, 0.25), (1, 1, 0.5)) == ON


def test_rule_under_is_the_dual_of_on():
    assert _rel((0, 0, 0.25), (1, 1, 0.5), (0, 0, 0.75), (0.5, 0.5, 0.5)) == UNDER


def test_rule_above_requires_a_gap():
    assert _rel((0, 0, 1.3), (0.5, 0.5, 0.5), (0, 0, 0.25), (1, 1, 0.5)) == ABOVE
    # its dual is under as well (separated)
    assert _rel((0, 0, 0.25), (1, 1, 0.5), (0, 0, 1.3), (0.5, 0.5, 0.5)) == UNDER


def test_rule_near_without_footprint_overlap():
    assert _rel((0, 0, 0.25), (0.5, 0.5, 0.5), (1.0, 0, 0.25), (0.5, 0.5, 0.5)) == NEAR


def test_rule_none_when_far_apart():
    assert _rel((0, 0, 0.25), (0.5, 0.5, 0.5), (3.0, 0, 0.25), (0.5, 0.5, 0.5)) is None


def test_rule_contact_tolerance_boundary():
    # gap inside tol counts as contact, outside as above
    assert _rel((0, 0, 0.765), (0.5, 0.5, 0.5), (0, 0, 0.25), (1, 1, 0.5), tol=0.02) == ON
    assert _rel((0, 0, 0.775), (0.5, 0.5, 0.5), (0, 0, 0.25), (1, 1, 0.5), tol=0.02) == ABOVE


def test_generated_stack_emits_on_triplet():
    # hunt a seed that actually stacked something, then check the rule output
    for seed in range(20):
        spec = SceneSpec(seed=seed, n_objects=10, n_classes=5, stack_prob=0.8, n_frames=3)
        scene = generate_scene(spec)
        ons = [t for t in scene.gt.triplets if t[2] == ON]
        if ons:
            s, o, _ = ons[0]
            bottom_s = scene.centers[s][2] - scene.extents[s][2] / 2
            top_o = scene.centers[o][2] + scene.extents[o][2] / 2
            assert abs(bottom_s - top_o) <= spec.contact_tol
            assert (o, s, UNDER) in scene.gt.triplets
            return
    pytest.fail("no stacked pair produced in 20 seeds")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_same_seed_bit_identical_scene():
    spec = SceneSpec(seed=42, n_objects=14, n_classes=4)
    a, b = generate_scene(spec), generate_scene(spec)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.extents, b.extents)
    assert np.array_equal(a.classes, b.classes)
    assert a.gt.triplets == b.gt.triplets
    for ia, ib in zip(a.gt.instances, b.gt.instances):
        assert np.array_equal(ia.points, ib.points)


def test_zero_objects_gives_empty_scene():
    scene = generate_scene(SceneSpec(seed=0, n_objects=0))
    assert len(scene.centers) == 0
    assert scene.gt.instances == [] and scene.gt.triplets == []
    frames, _ = render_frames(scene)
    assert all(not f.detections and not f.relations for f in frames)


def test_boxes_inside_room_and_disjoint():
    spec = SceneSpec(seed=5, n_objects=20, n_classes=6)
    scene = generate_scene(spec)
    sx, sy, sz = spec.room_size
    lo = scene.centers - scene.extents / 2
    hi = scene.centers + scene.extents / 2
    assert lo[:, 0].min() >= -sx / 2 - 1e-9 and hi[:, 0].max() <= sx / 2 + 1e-9
    assert lo[:, 1].min() >= -sy / 2 - 1e-9 and hi[:, 1].max() <= sy / 2 + 1e-9
    assert lo[:, 2].min() >= -1e-9 and hi[:, 2].max() <= sz + 1e-9
    n = len(scene.centers)
    for i in range(n):
        for j in range(i + 1, n):
            pen = np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j])
            assert pen.min() <= 1e-9  # separated or touching in some axis


def test_same_class_clearance_enforced():
    spec = SceneSpec(seed=3, n_objects=18, n_classes=3)
    scene = generate_scene(spec)
    clearance = 0.8 * spec.near_threshold
    n = len(scene.centers)
    for i in range(n):
        for j in range(i + 1, n):
            if scene.classes[i] == scene.classes[j]:
                assert np.linalg.norm(scene.centers[i] - scene.centers[j]) >= clearance


def test_gt_points_lie_on_box_surfaces():
    spec = SceneSpec(seed=1, n_objects=5, n_classes=3, points_per_instance=64)
    scene = generate_scene(spec)
    for inst in scene.gt.instances:
        c = scene.centers[inst.instance_id]
        e = scene.extents[inst.instance_id]
        rel = np.abs(inst.points - c) / (e / 2)
        assert rel.max(axis=1) == pytest.approx(np.ones(len(inst.points)))
        assert (rel <= 1 + 1e-12).all()


def test_infeasible_placement_raises():
    spec = SceneSpec(seed=0, n_objects=40, n_classes=2,
                     room_size=(2.0, 2.0, 2.0), object_extent_range=(0.9, 0.95))
    with pytest.raises(GenerationError):
        generate_scene(spec)


def test_trajectory_poses_valid_and_counted():
    spec = SceneSpec(seed=9, n_objects=4, n_frames=50)
    scene = generate_scene(spec)
    assert len(scene.trajectory) == 50
    for pose in scene.trajectory:
        pose.validate(tol=1e-9)
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


def test_spec_from_obj_round_trip_and_noise():
    obj = {"seed": 7, "n_objects": 9, "n_classes": 3, "room_size": [6, 6, 2.5],
           "noise": {"miss_rate": 0.1, "depth_sigma_m": 0.05}}
    spec = spec_from_obj(obj)
    assert spec.seed == 7 and spec.n_objects == 9
    assert spec.room_size == (6.0, 6.0, 2.5)
    assert spec.noise.miss_rate == 0.1 and spec.noise.bbox_jitter_px == 0.0


def test_spec_unknown_key_rejected():
    with pytest.raises(ConfigError):
        spec_from_obj({"seed": 1, "n_object": 5})
    with pytest.raises(ConfigError):
        spec_from_obj({"noise": {"miss": 0.1}})


def test_spec_out_of_range_rejected():
    with pytest.raises(ConfigError):
        spec_from_obj({"noise": {"miss_rate": 1.5}})
    with pytest.raises(ConfigError):
        spec_from_obj({"n_classes": 0})
    with pytest.raises(ConfigError):
        spec_from_obj({"object_extent_range": [0.5, 0.3]})


def test_load_scene_spec_bad_json(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text("not json")
    with pytest.raises(ConfigError):
        load_scene_spec(p)
    with pytest.raises(ConfigError):
        load_scene_spec(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_unit_cube_bbox_is_corner_hull():
    # 1 m cube centered 2 m down the optical axis, f=500: the hull is set by
    # the near-face corners at depth 1.5, so width = 500 * 1 / 1.5 = 333.33 px
    scene = _hand_scene([(0.0, 0.0, 2.0)], [(1.0, 1.0, 1.0)], [0])
    dets, sources = _ideal_detections(scene, scene.trajectory[0])
    assert sources == [0]
    d = dets[0]
    assert d.w == pytest.approx(1000.0 / 3.0, abs=1e-9)
    assert d.h == pytest.approx(1000.0 / 3.0, abs=1e-9)
    assert d.cx == pytest.approx(320.0)
    assert d.cy == pytest.approx(240.0)
    assert d.score == 1.0
    # centroid ray hits the cube's near face
    assert d.centroid_depth == pytest.approx(1.5, abs=1e-12)


def test_box_behind_camera_not_detected():
    scene = _hand_scene([(0.0, 0.0, -2.0)], [(1.0, 1.0, 1.0)], [0])
    dets, _ = _ideal_detections(scene, scene.trajectory[0])
    assert dets == []


def test_box_straddling_near_plane_not_detected():
    scene = _hand_scene([(0.0, 0.0, 0.3)], [(1.0, 1.0, 1.0)], [0])
    dets, _ = _ideal_detections(scene, scene.trajectory[0])
    assert dets == []


def test_mostly_clipped_box_not_detected():
    # center projects near the left edge; more than 30% of the hull is cut off
    scene = _hand_scene([(-1.28, 0.0, 2.0)], [(1.0, 1.0, 1.0)], [0])
    dets, _ = _ideal_detections(scene, scene.trajectory[0])
    assert dets == []
    # nudged inward, it is detected with score 1.0
    scene2 = _hand_scene([(-0.6, 0.0, 2.0)], [(1.0, 1.0, 1.0)], [0])
    dets2, _ = _ideal_detections(scene2, scene2.trajectory[0])
    assert len(dets2) == 1 and dets2[0].score == 1.0


def test_offset_box_depth_is_nearest_surface():
    # box off-axis: the center ray still hits its near face at z = 3.0
    scene = _hand_scene([(1.0, 0.0, 3.5)], [(1.0, 1.0, 1.0)], [0])
    dets, _ = _ideal_detections(scene, scene.trajectory[0])
    assert len(dets) == 1
    assert dets[0].centroid_depth == pytest.approx(3.0, rel=1e-6)


def test_render_deterministic_bytes(tmp_path):
    spec = SceneSpec(seed=13, n_objects=10, n_classes=4, n_frames=24)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_frame_stream(render_frames(generate_scene(spec))[0], pa)
    write_frame_stream(render_frames(generate_scene(spec))[0], pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_noise_all_zero_is_identity():
    spec = SceneSpec(seed=4, n_objects=6, n_classes=3, n_frames=8)
    scene = generate_scene(spec)
    dets, sources = _ideal_detections(scene, scene.trajectory[0])
    out, kept = _apply_noise(dets, sources, scene, np.random.default_rng(0))
    assert kept == sources
    assert [(d.cx, d.cy, d.w, d.h, d.centroid_depth, d.class_id, d.score) for d in out] == \
           [(d.cx, d.cy, d.w, d.h, d.centroid_depth, d.class_id, d.score) for d in dets]


def test_explicit_zero_noise_matches_default_bytes(tmp_path):
    base = SceneSpec(seed=21, n_objects=8, n_classes=3, n_frames=12)
    explicit = SceneSpec(seed=21, n_objects=8, n_classes=3, n_frames=12,
                         noise=NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0))
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_frame_stream(render_frames(generate_scene(base))[0], pa)
    write_frame_stream(render_frames(generate_scene(explicit))[0], pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_noise_changes_stream_but_stays_valid(tmp_path):
    spec = SceneSpec(seed=6, n_objects=10, n_classes=4, n_frames=20,
                     noise=NoiseModel(bbox_jitter_px=2.0, depth_sigma_m=0.1,
                                      false_positive_rate=0.1, miss_rate=0.15,
                                      class_flip_rate=0.1))
    frames, _ = render_frames(generate_scene(spec))
    clean, _ = render_frames(generate_scene(SceneSpec(seed=6, n_objects=10, n_classes=4, n_frames=20)))
    noisy_coords = [(d.cx, d.cy, d.centroid_depth) for f in frames for d in f.detections]
    clean_coords = [(d.cx, d.cy, d.centroid_depth) for f in clean for d in f.detections]
    assert noisy_coords != clean_coords
    p = tmp_path / "noisy.jsonl"
    write_frame_stream(frames, p)
    back = list(parse_frame_stream(p))  # every record still passes strict validation
    assert len(back) == 20
    # relations never reference false positives, whose class may exceed the rules' reach
    for f in frames:
        for r in f.relations:
            assert 0 <= r.subject < len(f.detections)
            assert 0 <= r.object < len(f.detections)


def test_zero_noise_closure_lossless_and_covering(tmp_path):
    spec = SceneSpec(seed=11, n_objects=12, n_classes=4, n_frames=60)
    scene = generate_scene(spec)
    frames, _ = render_frames(scene)
    p = tmp_path / "s.jsonl"
    write_frame_stream(frames, p)
    back = list(parse_frame_stream(p))
    assert len(back) == 60
    for orig, rt in zip(frames, back):
        assert len(orig.detections) == len(rt.detections)
        for a, b in zip(orig.detections, rt.detections):
            assert (a.cx, a.cy, a.w, a.h, a.centroid_depth) == (b.cx, b.cy, b.w, b.h, b.centroid_depth)
    seen = set()
    for pose in scene.trajectory:
        _, sources = _ideal_detections(scene, pose)
        seen.update(sources)
    assert seen == set(range(12))  # every object detected in >= 1 frame


def test_depth_map_values_are_surface_depths():
    scene = _hand_scene([(0.0, 0.0, 5.0)], [(2.0, 2.0, 2.0)], [0])
    cam = CameraIntrinsics(fx=10.0, fy=10.0, cx=10.0, cy=10.0, width=21, height=21)
    scene.camera = cam
    dm = _render_depth_map(scene, scene.trajectory[0])
    assert dm.values[10, 10] == pytest.approx(4.0)  # front face of the box
    assert dm.values[0, 0] == 0.0  # background is invalid
    assert dm.values.dtype == np.float32


def test_render_frames_depth_maps_are_the_per_frame_renders_in_one_block():
    scene = generate_scene(SceneSpec(seed=3, n_objects=6, n_classes=3, n_frames=5,
                                     image_width=32, image_height=24, focal=25.0))
    frames, maps = render_frames(scene, with_depth_maps=True)
    assert list(maps) == [f"depth/{fid:06d}.frdp" for fid in range(5)]
    for pose, dm in zip(scene.trajectory, maps.values()):
        alone = _render_depth_map(scene, pose)
        assert (dm.width, dm.height) == (32, 24)
        assert dm.values.dtype == np.float32 and dm.values.shape == (24, 32)
        assert dm.values.tobytes() == alone.values.tobytes()
    block = {id(dm.values.base) for dm in maps.values()}
    assert len(block) == 1  # views of one mapping, released with the last map
    scene.trajectory = []
    assert render_frames(scene, with_depth_maps=True) == ([], {})


def test_synthesize_dataset_writes_everything(tmp_path):
    spec = SceneSpec(seed=3, n_objects=6, n_classes=3, n_frames=8,
                     image_width=80, image_height=60, focal=60.0)
    fpath, gpath = tmp_path / "frames.jsonl", tmp_path / "gt.json"
    scene = synthesize_dataset(spec, fpath, gpath, depth_dir=tmp_path / "depth")
    gt = load_ground_truth(gpath)
    assert len(gt.instances) == 6
    assert gt.vocab == scene.vocab
    frames = list(parse_frame_stream(fpath))
    assert len(frames) == 8
    cache = DepthCache(tmp_path)
    refs = {d.depth_ref for f in frames for d in f.detections}
    assert refs and None not in refs
    for ref in refs:
        dm = cache(ref)
        assert dm.width == 80 and dm.height == 60
    assert len(os.listdir(tmp_path / "depth")) == 8


def test_synthesize_dataset_without_depth(tmp_path):
    spec = SceneSpec(seed=2, n_objects=4, n_classes=2, n_frames=5)
    synthesize_dataset(spec, tmp_path / "f.jsonl", tmp_path / "g.json")
    frames = list(parse_frame_stream(tmp_path / "f.jsonl"))
    assert all(d.depth_ref is None for f in frames for d in f.detections)
    assert all(d.centroid_depth is not None for f in frames for d in f.detections)


# ---------------------------------------------------------------------------
# moment oracle
# ---------------------------------------------------------------------------


def test_oracle_equal_weight_mixture():
    a = Gaussian3D(mean=np.zeros(3), cov=np.eye(3))
    b = Gaussian3D(mean=np.array([2.0, 0.0, 0.0]), cov=np.eye(3))
    mean, cov = mixture_moment_oracle(a, 1.0, b, 1.0, 400_000, rng=np.random.default_rng(8))
    assert mean == pytest.approx([1.0, 0.0, 0.0], abs=0.02)
    assert np.diag(cov) == pytest.approx([2.0, 1.0, 1.0], rel=0.03)


def test_oracle_three_to_one_mixture():
    a = Gaussian3D(mean=np.zeros(3), cov=np.eye(3))
    b = Gaussian3D(mean=np.array([4.0, 0.0, 0.0]), cov=np.eye(3))
    mean, cov = mixture_moment_oracle(a, 3.0, b, 1.0, 400_000, rng=np.random.default_rng(9))
    assert mean == pytest.approx([1.0, 0.0, 0.0], abs=0.02)
    assert np.diag(cov) == pytest.approx([4.0, 1.0, 1.0], rel=0.03)


def test_oracle_identical_components():
    g = Gaussian3D(mean=np.array([1.0, -2.0, 0.5]), cov=np.diag([0.5, 1.0, 2.0]))
    mean, cov = mixture_moment_oracle(g, 1.0, g, 1.0, 200_000, rng=np.random.default_rng(10))
    assert mean == pytest.approx(g.mean, abs=0.02)
    assert np.diag(cov) == pytest.approx(np.diag(g.cov), rel=0.05)


def test_oracle_rejects_bad_arguments():
    g = Gaussian3D(mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(ValueError):
        mixture_moment_oracle(g, 1.0, g, 0.0, 200_000)
    with pytest.raises(ValueError):
        mixture_moment_oracle(g, -1.0, g, 1.0, 200_000)
    with pytest.raises(ValueError):
        mixture_moment_oracle(g, 1.0, g, 1.0, 99_999)


def test_benchmark_orbit_inputs_stay_the_gates(tmp_path, monkeypatch):
    # perfbench/selftest.py imports the gate's module with only src/ and the
    # repo root on sys.path, and compares the benchmark's orbit with it; both
    # must keep working outside pytest, and one lap must be the same bytes
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "from tests.test_acceptance import _benchmark_frames; print(len(_benchmark_frames(2)))")
    done = subprocess.run([sys.executable, "-B", "-I", "-c", code, str(root / "src"), str(root)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    write_frame_stream(workloads.orbit_frames(n_frames=360), tmp_path / "benchmark.jsonl")
    write_frame_stream(orbit_frames(360), tmp_path / "synthetic.jsonl")
    assert (tmp_path / "benchmark.jsonl").read_bytes() == (tmp_path / "synthetic.jsonl").read_bytes()


def test_benchmark_tracer_still_finds_the_engine(tmp_path):
    # perfbench/tracer.py wraps engine names by attribute (fusion.lift_detection,
    # fusion.best_match, GlobalSSG.set_gaussian, ...) and reads best_match's
    # candidate ids as its positional args 6 and 10; perfbench/run.py records
    # _accel.HAVE_NUMBA. A rename in the engine must fail here, not in a bench run.
    # A second run records eval points from depth maps on disk, through the
    # DepthCache and streams.read_depth_map that a room_depth replay reads.
    root = Path(__file__).resolve().parent.parent
    code = (
        "import json, sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer\n"
        "tracer = Tracer(0.85); tracer.install()\n"
        "from scenefuse import _accel, fusion, graph, streams, synthetic\n"
        "def calls():\n"
        "    return {n: s['calls'] for n, s in tracer.summary()['spans'].items()}\n"
        "state, cfg = graph.GlobalSSG(), fusion.FusionConfig()\n"
        "for frame in synthetic.orbit_frames(5):\n"
        "    tracer.open_frame(time.perf_counter())\n"
        "    fusion.process_frame(frame, state, cfg)\n"
        "    tracer.close_frame(frame.frame_id, time.perf_counter())\n"
        "summary = tracer.summary()\n"
        "orbit = calls()\n"
        "spec = synthetic.SceneSpec(seed=5, n_objects=6, n_classes=3, n_frames=4, image_width=160,\n"
        "                           image_height=120, focal=125.0)\n"
        "synthetic.synthesize_dataset(spec, 'room.jsonl', 'gt.json', depth_dir='depth')\n"
        "state, depth = graph.GlobalSSG(), streams.DepthCache('.')\n"
        "lifted = 0\n"
        "for frame in streams.parse_frame_stream('room.jsonl'):\n"
        "    tracer.open_frame(time.perf_counter())\n"
        "    lifted += fusion.process_frame(frame, state, cfg, depth_provider=depth, record_eval_points=True).lifted\n"
        "    tracer.close_frame(frame.frame_id, time.perf_counter())\n"
        "room = {n: c - orbit[n] for n, c in calls().items()}\n"
        "print(json.dumps({'calls': orbit, 'room': room, 'lifted': lifted,\n"
        "                  'eval_points': sum(len(n.eval_points) for n in state.nodes.values()),\n"
        "                  'candidates': summary['candidates'], 'matches': summary['matches'],\n"
        "                  'have_numba': _accel.HAVE_NUMBA}))\n"
    )
    done = subprocess.run([sys.executable, "-B", "-I", "-c", code, str(root / "src"), str(root / "perfbench")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    calls = out["calls"]
    assert calls["frame"] == calls["fusion.process_frame"] == calls["fusion.integrate"] == 5
    assert calls["accel.best_match"] > 0 and calls["graph.GlobalSSG.add_node"] > 0
    # a layer the tracer stops seeing reads 0 in a bench run; it fails here instead
    assert calls["accel.merge_moments_into"] > 0 and calls["fusion.build_local_graph"] == 5
    assert out["candidates"] > 0 and out["matches"] > 0
    assert out["have_numba"] is False
    room = out["room"]
    assert room["frame"] == room["fusion.process_frame"] == room["fusion.integrate"] == 4
    assert room["streams.read_depth_map"] == room["fusion.build_local_graph"] == 4
    assert out["lifted"] > 4 and out["eval_points"] > out["lifted"]
