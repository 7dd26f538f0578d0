"""Input generators for the benchmark workloads.

Each workload is a pure function of its seed and is written to a work
directory as exactly what `scenefuse run` consumes: a JSON Lines frame
stream, depth maps next to it (room_depth only) and a run config. The
ground truth used for scoring stays in the benchmark process.

Why these three workloads:

- orbit: the acceptance-gate stream (180-object floor grid, 360-frame orbit,
  18 inline-depth detections per frame). The graph saturates near 166 nodes,
  so the cost is parse, lift and merging into existing nodes. It bypasses
  depth I/O, eval-point reservoirs and edges.
- warehouse: a nadir camera flies a lawnmower path over a floor grid of
  2400 objects. About 1.4 new nodes per frame, so the graph keeps growing and
  candidate sets widen; it shows whether per-frame cost stays flat.
- room_depth: four synthetic rooms (`synthetic.generate_scene` and
  `render_frames`, as `scenefuse synth` makes them) with depth maps,
  relations and the README demo noise, visited one after another and fused
  with eval-point recording. It exercises depth reads and residency,
  eval-region back-projection, reservoir merging, edges and queued-peer
  merges, and it carries the recall quality guards. Four rooms instead of
  one keep the recall figures from swinging with a single room.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from scenefuse.evaluation import GroundTruthInstance, GroundTruthScene
from scenefuse.geometry import CameraIntrinsics, CameraPose
from scenefuse.graph import ClassVocabulary
from scenefuse.streams import (
    DepthMap,
    Detection,
    FrameRecord,
    write_depth_map,
    write_frame_stream,
)
from scenefuse import synthetic

WORKLOADS = ("orbit", "warehouse", "room_depth")

GRID_CAMERA = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
GRID_CLASSES = 6
DETS_PER_FRAME = 18
UP = np.array([0.0, 0.0, 1.0])

ORBIT_FRAMES = 360
ORBIT_RADIUS = 11.5

WAREHOUSE_COLS, WAREHOUSE_ROWS = 60, 40
WAREHOUSE_FRAMES = 600
WAREHOUSE_HEIGHT = 6.0  # camera height above the floor, m
WAREHOUSE_STEP = 0.45  # camera travel per frame, m
WAREHOUSE_LANE = 5.0  # lane spacing of the lawnmower path, m
# objects farther than this from the camera's ground point cannot be in view
# (the image half-diagonal at the floor is 0.8 * height)
WAREHOUSE_CULL = 1.2 * WAREHOUSE_HEIGHT

ROOMS = 4
ROOM_FRAMES = 120
ROOM_SPACING = 60.0  # m between room centres along x; far beyond any view
# README demo scene and noise at a quarter of its 640x480 resolution; the
# pixel jitter is scaled with the image so the angular noise stays the same
ROOM_IMAGE = (160, 120, 125.0)
ROOM_NOISE = synthetic.NoiseModel(
    bbox_jitter_px=2.5 * 160 / 640,
    depth_sigma_m=0.12,
    false_positive_rate=0.05,
    miss_rate=0.1,
    class_flip_rate=0.02,
)


@dataclasses.dataclass
class Workload:
    """What the benchmark wrote for one (workload, seed)."""

    name: str
    stream: Path
    config: Path
    vocab: ClassVocabulary
    gt: GroundTruthScene
    frames: int
    # ground truth holds one point per object at its centre; predicted nodes
    # are scored by their fused mean (no eval points are recorded)
    score_by_mean: bool


# ---------------------------------------------------------------------------
# floor grids seen by a pinhole camera (orbit, warehouse)
# ---------------------------------------------------------------------------


def _look_at_origin(eye: np.ndarray) -> CameraPose:
    f = -eye / np.linalg.norm(eye)
    r = np.cross(f, UP)
    r = r / np.linalg.norm(r)
    return CameraPose(rotation=np.column_stack([r, np.cross(f, r), f]), translation=eye)


def _grid_frame(fid: int, objects, candidates, pose: CameraPose, seen: set[int]) -> FrameRecord:
    """Noise-free detections of the candidate objects nearest the image
    centre; adds the indices of the detected objects to `seen`."""
    cam = GRID_CAMERA
    rt = pose.rotation.T
    visible = []
    for k in candidates:
        center, cls, ext = objects[k]
        c = rt @ (center - pose.translation)
        if c[2] <= 1.0:
            continue
        px = cam.fx * c[0] / c[2] + cam.cx
        py = cam.fy * c[1] / c[2] + cam.cy
        if not (0 <= px < cam.width and 0 <= py < cam.height):
            continue
        offset = (px - cam.cx) ** 2 + (py - cam.cy) ** 2
        visible.append((offset, px, py, cam.fx * ext[0] / c[2], cam.fy * ext[2] / c[2], float(c[2]), cls, k))
    visible.sort(key=lambda t: t[0])
    dets = []
    for _, px, py, w, h, z, cls, k in visible[:DETS_PER_FRAME]:
        dets.append(Detection(class_id=cls, score=1.0, cx=px, cy=py, w=w, h=h, centroid_depth=z))
        seen.add(int(k))
    return FrameRecord(frame_id=fid, camera=cam, pose=pose, detections=dets, relations=[])


def orbit_objects(seed: int = 77) -> list:
    """The gate's jittered 15 x 12 floor grid: (centre, class, extents)."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(180):
        center = np.array(
            [
                (i % 15 - 7.0) * 1.3 + rng.uniform(-0.25, 0.25),
                (i // 15 - 5.5) * 1.3 + rng.uniform(-0.25, 0.25),
                rng.uniform(0.3, 1.8),
            ]
        )
        objects.append((center, i % GRID_CLASSES, rng.uniform(0.4, 0.8, 3)))
    return objects


def orbit_frames(seed: int = 77, n_frames: int = ORBIT_FRAMES, seen: set[int] | None = None) -> list[FrameRecord]:
    """Orbit at 11.5 m around the grid, one degree per frame.

    At seed 77 this is the acceptance gate's stream, byte for byte.
    """
    objects = orbit_objects(seed)
    everything = range(len(objects))
    seen = set() if seen is None else seen
    frames = []
    for fid in range(n_frames):
        angle = 2.0 * math.pi * fid / 360.0
        pose = _look_at_origin(
            np.array([ORBIT_RADIUS * math.cos(angle), ORBIT_RADIUS * math.sin(angle), 2.0])
        )
        frames.append(_grid_frame(fid, objects, everything, pose, seen))
    return frames


def warehouse_objects(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    objects = []
    for i in range(WAREHOUSE_COLS * WAREHOUSE_ROWS):
        center = np.array(
            [
                (i % WAREHOUSE_COLS) * 1.3 + rng.uniform(-0.25, 0.25),
                (i // WAREHOUSE_COLS) * 1.3 + rng.uniform(-0.25, 0.25),
                rng.uniform(0.3, 1.8),
            ]
        )
        objects.append((center, int(rng.integers(GRID_CLASSES)), rng.uniform(0.4, 0.8, 3)))
    return objects


# camera looking straight down; image right is world +y, image down world +x
_NADIR = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def warehouse_frames(seed: int, seen: set[int], n_frames: int = WAREHOUSE_FRAMES) -> list[FrameRecord]:
    """Lawnmower path: lanes along x, stepping over in y at each lane end."""
    objects = warehouse_objects(seed)
    xy = np.array([c[:2] for c, _, _ in objects])
    lane_len = (WAREHOUSE_COLS - 1) * 1.3
    frames = []
    for fid in range(n_frames):
        dist = fid * WAREHOUSE_STEP
        lane = int(dist // lane_len)
        along = dist - lane * lane_len
        x = along if lane % 2 == 0 else lane_len - along
        y = 2.0 + lane * WAREHOUSE_LANE
        pose = CameraPose(rotation=_NADIR, translation=np.array([x, y, WAREHOUSE_HEIGHT]))
        near = np.nonzero(np.hypot(xy[:, 0] - x, xy[:, 1] - y) < WAREHOUSE_CULL)[0]
        frames.append(_grid_frame(fid, objects, near, pose, seen))
    return frames


def _centre_truth(objects, seen: set[int], vocab: ClassVocabulary) -> GroundTruthScene:
    """One point per detected object at its centre; objects the camera
    never reported are not expected in the graph."""
    return GroundTruthScene(
        instances=[
            GroundTruthInstance(instance_id=k, class_id=objects[k][1], points=objects[k][0].reshape(1, 3))
            for k in sorted(seen)
        ],
        triplets=[],
        vocab=vocab,
    )


# ---------------------------------------------------------------------------
# synthetic rooms with depth maps (room_depth)
# ---------------------------------------------------------------------------


def render_depth_map(scene: synthetic.SyntheticScene, pose: CameraPose) -> DepthMap:
    """`synthetic._render_depth_map`, bit for bit, tested only inside each
    box's projected footprint instead of over the whole image."""
    cam = scene.camera
    us, vs = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    dirs_cam = np.stack(
        [(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones_like(us, dtype=float)], axis=-1
    )
    dirs_world = dirs_cam @ pose.rotation.T
    origin = pose.translation
    zbuf = np.full((cam.height, cam.width), np.inf)
    signs = np.array([[sx, sy, sz] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)])
    for i in range(len(scene.centers)):
        lo = scene.centers[i] - scene.extents[i] / 2
        hi = scene.centers[i] + scene.extents[i] / 2
        corners = (scene.centers[i] + signs * scene.extents[i] - origin) @ pose.rotation
        if np.all(corners[:, 2] <= 0.0):
            continue
        u0, u1, v0, v1 = 0, cam.width, 0, cam.height
        if np.all(corners[:, 2] > 1e-6):
            # a box wholly in front projects inside its corners' hull; the
            # two-pixel margin covers rays that graze the hull's edge
            u = cam.fx * corners[:, 0] / corners[:, 2] + cam.cx
            v = cam.fy * corners[:, 1] / corners[:, 2] + cam.cy
            u0 = max(math.floor(u.min()) - 2, 0)
            u1 = min(math.ceil(u.max()) + 3, cam.width)
            v0 = max(math.floor(v.min()) - 2, 0)
            v1 = min(math.ceil(v.max()) + 3, cam.height)
            if u1 <= u0 or v1 <= v0:
                continue
        d = dirs_world[v0:v1, u0:u1]
        z = zbuf[v0:v1, u0:u1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origin) / d
            t2 = (hi - origin) / d
        tmin = np.minimum(t1, t2).max(axis=-1)
        tmax = np.maximum(t1, t2).min(axis=-1)
        hit = (tmax >= tmin) & (tmin > 0) & np.isfinite(tmin)
        zbuf[v0:v1, u0:u1] = np.where(hit & (tmin < z), tmin, z)
    values = np.where(np.isfinite(zbuf), zbuf, 0.0).astype(np.float32)
    return DepthMap(width=cam.width, height=cam.height, values=values)


def room_scene(room: int) -> synthetic.SyntheticScene:
    """Room `room`'s fixed layout: the README demo scene with scene seed
    room + 1, rendered at ROOM_IMAGE with the README demo noise."""
    width, height, focal = ROOM_IMAGE
    spec = synthetic.SceneSpec(
        seed=room + 1,
        n_objects=20,
        n_classes=5,
        n_frames=ROOM_FRAMES,
        room_size=(8.0, 8.0, 3.0),
        image_width=width,
        image_height=height,
        focal=focal,
        noise=ROOM_NOISE,
    )
    return synthetic.generate_scene(spec)


def _write_rooms(seed: int, work: Path) -> tuple[list[FrameRecord], GroundTruthScene, ClassVocabulary]:
    """Render the rooms, write their depth maps, and lay them out side by
    side along x.

    The layouts are fixed; the seed draws the detector noise (the rendering
    noise stream is seeded from the scene spec's seed). So every seed does
    about the same work, and recall moves with the noise alone rather than
    with how crowded a random layout happens to be.
    """
    frames: list[FrameRecord] = []
    instances: list[GroundTruthInstance] = []
    triplets: list[tuple[int, int, int]] = []
    original = synthetic._render_depth_map
    synthetic._render_depth_map = render_depth_map
    try:
        for room in range(ROOMS):
            scene = room_scene(room)
            noisy = dataclasses.replace(scene, spec=dataclasses.replace(scene.spec, seed=seed * 1000 + room))
            (work / f"depth{room}").mkdir()
            rendered, depth_maps = synthetic.render_frames(
                noisy, with_depth_maps=True, depth_ref_pattern=f"depth{room}/{{:06d}}.frdp"
            )
            for ref, depth_map in depth_maps.items():
                write_depth_map(work / ref, depth_map)
            offset = np.array([room * ROOM_SPACING, 0.0, 0.0])
            for frame in rendered:
                pose = CameraPose(rotation=frame.pose.rotation, translation=frame.pose.translation + offset)
                frames.append(dataclasses.replace(frame, frame_id=len(frames), pose=pose))
            base = len(instances)
            instances += [
                GroundTruthInstance(base + inst.instance_id, inst.class_id, inst.points + offset)
                for inst in scene.gt.instances
            ]
            triplets += [(base + s, base + o, p) for s, o, p in scene.gt.triplets]
    finally:
        synthetic._render_depth_map = original
    truth = GroundTruthScene(instances=instances, triplets=triplets, vocab=scene.vocab)
    truth.validate()
    return frames, truth, scene.vocab


def _generic_vocab() -> ClassVocabulary:
    return ClassVocabulary(tuple(f"class_{i}" for i in range(GRID_CLASSES)), ())


def generate(name: str, seed: int, work: Path) -> Workload:
    """Write the stream and run config of one workload into `work`."""
    work.mkdir(parents=True, exist_ok=True)
    config: dict = {"seed": 0}
    seen: set[int] = set()
    if name == "orbit":
        frames = orbit_frames(seed, seen=seen)
        vocab = _generic_vocab()
        gt = _centre_truth(orbit_objects(seed), seen, vocab)
    elif name == "warehouse":
        frames = warehouse_frames(seed, seen)
        vocab = _generic_vocab()
        gt = _centre_truth(warehouse_objects(seed), seen, vocab)
    elif name == "room_depth":
        frames, gt, vocab = _write_rooms(seed, work)
        config["record_eval_points"] = True
    else:
        raise ValueError(f"unknown workload {name!r}")
    config["vocab"] = {"objects": list(vocab.object_classes), "predicates": list(vocab.predicates)}
    stream = work / "frames.jsonl"
    write_frame_stream(frames, stream)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return Workload(
        name=name,
        stream=stream,
        config=config_path,
        vocab=vocab,
        gt=gt,
        frames=len(frames),
        score_by_mean=name != "room_depth",
    )
