"""Deterministic synthetic scenes: boxes in a room, rule-based relations,
and pinhole rendering into the exact frame-stream formats.

World frame is z-up with the floor at z = 0; the room spans
[-X/2, X/2] x [-Y/2, Y/2] x [0, Z]. Objects are axis-aligned boxes placed on
the floor or stacked on earlier boxes (never interpenetrating). Ground-truth
points are sampled on box surfaces with per-face area weighting.

Relation rules, evaluated per ordered pair (X, Y) with footprint overlap:
  on     X's bottom rests on Y's top (within contact tolerance)
  above  X's bottom is strictly above Y's top by more than the tolerance
  under  Y's bottom is at or above X's top (touching or separated)
  near   centers closer than the near threshold (any geometry)
The first applicable rule in that order wins; at most one triplet per
ordered pair. The same rule function produces both the scene ground truth
and the per-frame relations for co-visible pairs, so a zero-noise render is
self-consistent end to end.

Rendering projects each box's 8 corners through the pinhole camera, takes
the axis-aligned hull clipped to the image as the detection bbox (score 1.0
before noise), and reads the centroid depth as the nearest box-surface
intersection along the ray through the clipped bbox center. There is no
occlusion culling: a box behind another is still reported with its own
surface depth.

The camera follows an inward spiral: it starts far enough out to frame the
whole room, then descends in azimuth turns while closing in and rising, so
consecutive views differ by small pose deltas (same-object observations stay
mergeable view to view) and late turns provide close-up passes. Relation
scores decay with camera distance to the pair midpoint, mimicking a detector
that is most confident about relations it sees up close.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, GenerationError
from .evaluation import GroundTruthInstance, GroundTruthScene
from .geometry import CameraIntrinsics, CameraPose
from .graph import ClassVocabulary
from .streams import Detection, DepthMap, FrameRecord, Relation2D

OBJECT_NAMES = ("box", "crate", "barrel", "cone", "lamp", "chair", "table", "plant", "shelf", "bin")
PREDICATE_NAMES = ("on", "above", "under", "near", "none")
ON, ABOVE, UNDER, NEAR = 0, 1, 2, 3

Z_NEAR = 0.05
REL_SCORE_DECAY = 0.15  # 1/m; how fast relation confidence falls with camera distance
MIN_VISIBLE_FRACTION = 0.7  # hull area fraction inside the image for a box to count as visible


@dataclass(frozen=True)
class NoiseModel:
    """Detection corruption applied at render time; all-zero means identity."""

    bbox_jitter_px: float = 0.0
    depth_sigma_m: float = 0.0
    false_positive_rate: float = 0.0
    miss_rate: float = 0.0
    class_flip_rate: float = 0.0

    def validate(self) -> None:
        if self.bbox_jitter_px < 0 or self.depth_sigma_m < 0:
            raise ValueError("noise sigmas must be >= 0")
        for name in ("false_positive_rate", "miss_rate", "class_flip_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")

    def is_zero(self) -> bool:
        return (
            self.bbox_jitter_px == 0.0
            and self.depth_sigma_m == 0.0
            and self.false_positive_rate == 0.0
            and self.miss_rate == 0.0
            and self.class_flip_rate == 0.0
        )


@dataclass(frozen=True)
class SceneSpec:
    seed: int = 0
    n_objects: int = 12
    n_classes: int = 4
    room_size: tuple[float, float, float] = (8.0, 8.0, 3.0)
    object_extent_range: tuple[float, float] = (0.3, 1.2)
    points_per_instance: int = 512
    contact_tol: float = 0.02
    near_threshold: float = 1.5
    stack_prob: float = 0.35
    n_frames: int = 120
    image_width: int = 640
    image_height: int = 480
    focal: float = 500.0
    noise: NoiseModel = field(default_factory=NoiseModel)

    def validate(self) -> None:
        if self.n_objects < 0:
            raise ValueError("n_objects must be >= 0")
        if not (1 <= self.n_classes <= len(OBJECT_NAMES)):
            raise ValueError(f"n_classes must lie in [1, {len(OBJECT_NAMES)}]")
        if any(s <= 0 for s in self.room_size):
            raise ValueError("room_size must be positive")
        lo, hi = self.object_extent_range
        if not (0 < lo <= hi):
            raise ValueError("object_extent_range must satisfy 0 < lo <= hi")
        if hi >= min(self.room_size):
            raise ValueError("objects must fit inside the room")
        if self.points_per_instance < 1:
            raise ValueError("points_per_instance must be >= 1")
        if self.contact_tol <= 0 or self.near_threshold <= 0:
            raise ValueError("tolerances must be positive")
        if not (0.0 <= self.stack_prob <= 1.0):
            raise ValueError("stack_prob must lie in [0, 1]")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.image_width < 8 or self.image_height < 8 or self.focal <= 0:
            raise ValueError("camera settings invalid")
        self.noise.validate()


_NOISE_KEYS = {"bbox_jitter_px", "depth_sigma_m", "false_positive_rate", "miss_rate", "class_flip_rate"}
_SPEC_KEYS = {
    "seed", "n_objects", "n_classes", "room_size", "object_extent_range",
    "points_per_instance", "contact_tol", "near_threshold", "stack_prob",
    "n_frames", "image_width", "image_height", "focal", "noise",
}


def spec_from_obj(obj: dict) -> SceneSpec:
    if not isinstance(obj, dict):
        raise ConfigError("scene spec must be a JSON object")
    unknown = set(obj) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown scene spec key(s): {sorted(unknown)}")
    kwargs = dict(obj)
    if "noise" in kwargs:
        nz = kwargs.pop("noise")
        if not isinstance(nz, dict) or set(nz) - _NOISE_KEYS:
            raise ConfigError(f"noise must be an object with keys from {sorted(_NOISE_KEYS)}")
        kwargs["noise"] = NoiseModel(**{k: float(v) for k, v in nz.items()})
    for key in ("room_size", "object_extent_range"):
        if key in kwargs:
            kwargs[key] = tuple(float(v) for v in kwargs[key])
    try:
        spec = SceneSpec(**kwargs)
        spec.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scene spec: {exc}") from exc
    return spec


def load_scene_spec(path) -> SceneSpec:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read scene spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scene spec {path} is not valid JSON: {exc}") from exc
    return spec_from_obj(obj)


def scene_vocab(spec: SceneSpec) -> ClassVocabulary:
    return ClassVocabulary(
        object_classes=OBJECT_NAMES[: spec.n_classes], predicates=PREDICATE_NAMES
    )


@dataclass
class SyntheticScene:
    spec: SceneSpec
    centers: np.ndarray  # (n, 3)
    extents: np.ndarray  # (n, 3) full extents
    classes: np.ndarray  # (n,)
    gt: GroundTruthScene
    trajectory: list[CameraPose]
    camera: CameraIntrinsics
    vocab: ClassVocabulary


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _boxes_intersect(c0, e0, c1, e1) -> bool:
    lo0, hi0 = c0 - e0 / 2, c0 + e0 / 2
    lo1, hi1 = c1 - e1 / 2, c1 + e1 / 2
    pen = np.minimum(hi0, hi1) - np.maximum(lo0, lo1)
    return bool(np.all(pen > 1e-9))


def _relation_for_pair(ci, ei, cj, ej, contact_tol: float, near_threshold: float) -> int | None:
    """Predicate id for the ordered pair (i, j), or None."""
    lo_i, hi_i = ci - ei / 2, ci + ei / 2
    lo_j, hi_j = cj - ej / 2, cj + ej / 2
    overlap_xy = (
        min(hi_i[0], hi_j[0]) > max(lo_i[0], lo_j[0])
        and min(hi_i[1], hi_j[1]) > max(lo_i[1], lo_j[1])
    )
    if overlap_xy:
        if abs(lo_i[2] - hi_j[2]) <= contact_tol:
            return ON
        if lo_i[2] - hi_j[2] > contact_tol:
            return ABOVE
        if lo_j[2] - hi_i[2] >= -contact_tol:
            return UNDER
    if float(np.linalg.norm(ci - cj)) < near_threshold:
        return NEAR
    return None


def _surface_points(center, extent, n: int, rng: np.random.Generator) -> np.ndarray:
    ex, ey, ez = extent
    areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    pts = np.empty((n, 3))
    for k in range(n):
        f = face[k]
        axis = f // 2
        side = 0.5 if f % 2 == 0 else -0.5
        others = [a for a in range(3) if a != axis]
        p = np.empty(3)
        p[axis] = side * extent[axis]
        p[others[0]] = u[k] * extent[others[0]]
        p[others[1]] = v[k] * extent[others[1]]
        pts[k] = p
    return pts + center


def _look_at(eye: np.ndarray, target: np.ndarray) -> CameraPose:
    """Camera-to-world pose: x right, y down, z toward the target."""
    f = target - eye
    norm = np.linalg.norm(f)
    if norm < 1e-9:
        raise GenerationError("camera eye and target coincide")
    f = f / norm
    up = np.array([0.0, 0.0, 1.0])
    r = np.cross(f, up)
    r_norm = np.linalg.norm(r)
    if r_norm < 1e-6:  # looking straight up/down; pick a stable side
        up = np.array([0.0, 1.0, 0.0])
        r = np.cross(f, up)
        r_norm = np.linalg.norm(r)
    r = r / r_norm
    d = np.cross(f, r)
    return CameraPose(rotation=np.column_stack([r, d, f]), translation=eye.astype(float))


def _build_trajectory(spec: SceneSpec, cam: CameraIntrinsics) -> list[CameraPose]:
    """Inward spiral: 3 azimuth turns closing from a whole-room framing
    distance to a raised close-up pass, always looking at the room center.

    Consecutive poses differ by small deltas, so observations of one object
    made from neighboring frames stay close enough to fuse, which chains
    around the spiral and keeps far-apart viewpoints connected through
    intermediates.
    """
    sx, sy, sz = spec.room_size
    target = np.array([0.0, 0.0, 0.3 * sz])
    half_diag = 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)
    half_angle = min(
        math.atan((cam.width / 2) / cam.fx), math.atan((cam.height / 2) / cam.fy)
    )
    r_far = half_diag / math.tan(half_angle) * 1.15
    turns = 3.0
    n = spec.n_frames
    poses: list[CameraPose] = []
    for k in range(n):
        s = k / (n - 1) if n > 1 else 0.0
        az = 2.0 * math.pi * turns * s
        # radius shrinks to 20% (inside the room for typical sizes) so every
        # region, walls and interior alike, gets a closest approach; height
        # rises then eases so elevation changes stay gradual
        r = r_far * (1.0 - 0.8 * s)
        h = 0.5 * sz + (s * s) * (1.0 - 0.55 * s) * 1.2 * max(sx, sy)
        eye = np.array([r * math.cos(az), r * math.sin(az), h])
        poses.append(_look_at(eye, target))
    return poses


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    """Deterministic scene synthesis; a pure function of the spec.

    Raises GenerationError when an object cannot be placed without
    interpenetration after bounded retries.
    """
    spec.validate()
    rng = np.random.default_rng([spec.seed, 0])
    sx, sy, sz = spec.room_size
    lo_e, hi_e = spec.object_extent_range
    # two objects of one class closer than this are not separable by the
    # fusion gate, so the generator never produces that configuration
    clearance = 0.8 * spec.near_threshold
    centers: list[np.ndarray] = []
    extents: list[np.ndarray] = []
    class_list: list[int] = []
    for i in range(spec.n_objects):
        placed = False
        for _ in range(500):
            cid = int(rng.integers(spec.n_classes))
            e = rng.uniform(lo_e, hi_e, size=3)
            if centers and rng.random() < spec.stack_prob:
                base = int(rng.integers(len(centers)))
                bc, be = centers[base], extents[base]
                e[0] = min(e[0], 0.8 * be[0])
                e[1] = min(e[1], 0.8 * be[1])
                cx = bc[0] + rng.uniform(-0.5, 0.5) * (be[0] - e[0])
                cy = bc[1] + rng.uniform(-0.5, 0.5) * (be[1] - e[1])
                cz = bc[2] + be[2] / 2 + e[2] / 2
            else:
                cx = rng.uniform(-sx / 2 + e[0] / 2, sx / 2 - e[0] / 2)
                cy = rng.uniform(-sy / 2 + e[1] / 2, sy / 2 - e[1] / 2)
                cz = e[2] / 2
            c = np.array([cx, cy, cz])
            if cz + e[2] / 2 > sz:
                continue
            if any(_boxes_intersect(c, e, centers[k], extents[k]) for k in range(len(centers))):
                continue
            if any(
                class_list[k] == cid
                and float(np.linalg.norm(c - centers[k])) < clearance
                for k in range(len(centers))
            ):
                continue
            centers.append(c)
            extents.append(e)
            class_list.append(cid)
            placed = True
            break
        if not placed:
            raise GenerationError(f"could not place object {i} after 500 attempts")
    centers_a = np.array(centers).reshape(-1, 3)
    extents_a = np.array(extents).reshape(-1, 3)
    classes = np.array(class_list, dtype=np.int64).reshape(-1)

    instances = [
        GroundTruthInstance(
            instance_id=i,
            class_id=int(classes[i]),
            points=_surface_points(centers_a[i], extents_a[i], spec.points_per_instance, rng),
        )
        for i in range(spec.n_objects)
    ]
    triplets: list[tuple[int, int, int]] = []
    for i in range(spec.n_objects):
        for j in range(spec.n_objects):
            if i == j:
                continue
            pid = _relation_for_pair(
                centers_a[i], extents_a[i], centers_a[j], extents_a[j],
                spec.contact_tol, spec.near_threshold,
            )
            if pid is not None:
                triplets.append((i, j, pid))
    vocab = scene_vocab(spec)
    cam = CameraIntrinsics(
        fx=spec.focal, fy=spec.focal,
        cx=(spec.image_width - 1) / 2.0, cy=(spec.image_height - 1) / 2.0,
        width=spec.image_width, height=spec.image_height,
    )
    gt = GroundTruthScene(instances=instances, triplets=triplets, vocab=vocab)
    gt.validate()
    return SyntheticScene(
        spec=spec, centers=centers_a, extents=extents_a, classes=classes,
        gt=gt, trajectory=_build_trajectory(spec, cam), camera=cam, vocab=vocab,
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _corners(center: np.ndarray, extent: np.ndarray) -> np.ndarray:
    signs = np.array(
        [[sx, sy, sz] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)]
    )
    return center + signs * extent


def _ray_box_depth(origin, direction, lo, hi) -> float | None:
    """Slab test; the returned parameter equals camera-frame depth because the
    direction's camera z component is 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origin) / direction
        t2 = (hi - origin) / direction
    tmin = float(np.max(np.minimum(t1, t2)))
    tmax = float(np.min(np.maximum(t1, t2)))
    if math.isnan(tmin) or math.isnan(tmax):
        return None
    if tmax < tmin or tmax <= 0:
        return None
    return tmin if tmin > 0 else None


def _render_depth_map(scene: SyntheticScene, pose: CameraPose) -> DepthMap:
    cam = scene.camera
    us, vs = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    dirs_cam = np.stack(
        [(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones_like(us, dtype=float)], axis=-1
    )
    dirs_world = dirs_cam @ pose.rotation.T
    origin = pose.translation
    zbuf = np.full((cam.height, cam.width), np.inf)
    for i in range(len(scene.centers)):
        lo = scene.centers[i] - scene.extents[i] / 2
        hi = scene.centers[i] + scene.extents[i] / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origin) / dirs_world
            t2 = (hi - origin) / dirs_world
        tmin = np.minimum(t1, t2).max(axis=-1)
        tmax = np.maximum(t1, t2).min(axis=-1)
        hit = (tmax >= tmin) & (tmin > 0) & np.isfinite(tmin)
        zbuf = np.where(hit & (tmin < zbuf), tmin, zbuf)
    values = np.where(np.isfinite(zbuf), zbuf, 0.0).astype(np.float32)
    return DepthMap(width=cam.width, height=cam.height, values=values)


def _ideal_detections(scene: SyntheticScene, pose: CameraPose) -> tuple[list[Detection], list[int]]:
    """Noise-free detections (score 1.0) plus the box index behind each one.

    A box counts as visible only when no corner is behind the near plane and
    at least MIN_VISIBLE_FRACTION of its projected hull lies inside the
    image; badly cut-off boxes yield no detection rather than a distorted
    bbox.
    """
    cam = scene.camera
    rot_wc = pose.rotation.T
    t_wc = -rot_wc @ pose.translation
    dets: list[Detection] = []
    sources: list[int] = []
    for i in range(len(scene.centers)):
        corners = _corners(scene.centers[i], scene.extents[i])
        cam_pts = corners @ rot_wc.T + t_wc
        if np.any(cam_pts[:, 2] <= Z_NEAR):
            continue
        u = cam.fx * cam_pts[:, 0] / cam_pts[:, 2] + cam.cx
        v = cam.fy * cam_pts[:, 1] / cam_pts[:, 2] + cam.cy
        u0, u1 = max(float(u.min()), 0.0), min(float(u.max()), cam.width - 1.0)
        v0, v1 = max(float(v.min()), 0.0), min(float(v.max()), cam.height - 1.0)
        if u1 - u0 < 0.5 or v1 - v0 < 0.5:
            continue
        full_area = (float(u.max()) - float(u.min())) * (float(v.max()) - float(v.min()))
        visible = (u1 - u0) * (v1 - v0) / full_area if full_area > 0 else 0.0
        if visible < MIN_VISIBLE_FRACTION:
            continue
        bcx, bcy = (u0 + u1) / 2.0, (v0 + v1) / 2.0
        dir_cam = np.array([(bcx - cam.cx) / cam.fx, (bcy - cam.cy) / cam.fy, 1.0])
        dir_world = pose.rotation @ dir_cam
        lo = scene.centers[i] - scene.extents[i] / 2
        hi = scene.centers[i] + scene.extents[i] / 2
        depth = _ray_box_depth(pose.translation, dir_world, lo, hi)
        if depth is None:
            depth = float((rot_wc @ (scene.centers[i] - pose.translation))[2])
        dets.append(
            Detection(
                class_id=int(scene.classes[i]), score=1.0,
                cx=bcx, cy=bcy, w=u1 - u0, h=v1 - v0,
                centroid_depth=depth,
            )
        )
        sources.append(i)
    return dets, sources


def _relations_among(
    scene: SyntheticScene, sources: list[int], eye: np.ndarray
) -> list[Relation2D]:
    """Rule relations among co-visible boxes, scored by camera proximity to
    the pair midpoint so close-up views rank their local relations highest."""
    spec = scene.spec
    rels: list[Relation2D] = []
    for a, i in enumerate(sources):
        for b, j in enumerate(sources):
            if a == b:
                continue
            pid = _relation_for_pair(
                scene.centers[i], scene.extents[i], scene.centers[j], scene.extents[j],
                spec.contact_tol, spec.near_threshold,
            )
            if pid is not None:
                mid = (scene.centers[i] + scene.centers[j]) / 2.0
                d = float(np.linalg.norm(mid - eye))
                score = max(0.05, min(1.0, 1.0 / (1.0 + REL_SCORE_DECAY * d)))
                rels.append(Relation2D(subject=a, object=b, predicate=pid, score=score))
    return rels


def _apply_noise(
    dets: list[Detection],
    sources: list[int],
    scene: SyntheticScene,
    rng: np.random.Generator,
) -> tuple[list[Detection], list[int]]:
    nz = scene.spec.noise
    cam = scene.camera
    out: list[Detection] = []
    kept_sources: list[int] = []
    for det, src in zip(dets, sources):
        if nz.miss_rate > 0 and rng.random() < nz.miss_rate:
            continue
        cid = det.class_id
        if nz.class_flip_rate > 0 and rng.random() < nz.class_flip_rate and scene.spec.n_classes > 1:
            cid = int((cid + rng.integers(1, scene.spec.n_classes)) % scene.spec.n_classes)
        cx, cy, w, h = det.cx, det.cy, det.w, det.h
        if nz.bbox_jitter_px > 0:
            cx += rng.normal(0.0, nz.bbox_jitter_px)
            cy += rng.normal(0.0, nz.bbox_jitter_px)
            w = max(w + rng.normal(0.0, nz.bbox_jitter_px), 1.0)
            h = max(h + rng.normal(0.0, nz.bbox_jitter_px), 1.0)
        depth = det.centroid_depth
        if nz.depth_sigma_m > 0:
            depth = max(depth + rng.normal(0.0, nz.depth_sigma_m), Z_NEAR)
        out.append(Detection(class_id=cid, score=det.score, cx=cx, cy=cy, w=w, h=h,
                             centroid_depth=depth, depth_ref=det.depth_ref))
        kept_sources.append(src)
    if nz.false_positive_rate > 0:
        diag = float(np.linalg.norm(scene.spec.room_size))
        n_fp = int(rng.binomial(max(len(dets), 1), nz.false_positive_rate))
        for _ in range(n_fp):
            w = float(rng.uniform(20.0, 80.0))
            h = float(rng.uniform(20.0, 80.0))
            out.append(
                Detection(
                    class_id=int(rng.integers(0, scene.spec.n_classes)),
                    score=float(rng.uniform(0.75, 1.0)),
                    cx=float(rng.uniform(0, cam.width - 1)),
                    cy=float(rng.uniform(0, cam.height - 1)),
                    w=w, h=h,
                    centroid_depth=float(rng.uniform(1.0, max(diag, 2.0))),
                )
            )
            kept_sources.append(-1)
    return out, kept_sources


def _depth_block(n: int, height: int, width: int) -> np.ndarray:
    """One float32 array of n height x width depth maps, in an anonymous
    memory mapping of its own.

    Allocated one by one, a trajectory's maps would lie on the heap among the
    frame records made alongside them, which outlive them, so the heap could
    not give their space back once the caller drops the maps; the mapping
    goes back to the system when the last map that views it is dropped.
    """
    buf = mmap.mmap(-1, n * height * width * 4, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=np.float32).reshape(n, height, width)


def render_frames(
    scene: SyntheticScene, *, with_depth_maps: bool = False, depth_ref_pattern: str = "depth/{:06d}.frdp"
) -> tuple[list[FrameRecord], dict[str, DepthMap]]:
    """Render the trajectory into frame records (and optional depth maps).

    Deterministic for a fixed scene: the noise stream is seeded from the
    scene spec. Depth maps, when requested, are keyed by the depth_ref each
    frame's detections carry; inline centroid depths are always present.
    """
    rng = np.random.default_rng([scene.spec.seed, 1])
    frames: list[FrameRecord] = []
    depth_maps: dict[str, DepthMap] = {}
    if with_depth_maps and scene.trajectory:
        depth_block = _depth_block(len(scene.trajectory), scene.camera.height, scene.camera.width)
    zero_noise = scene.spec.noise.is_zero()
    for fid, pose in enumerate(scene.trajectory):
        dets, sources = _ideal_detections(scene, pose)
        if with_depth_maps:
            ref = depth_ref_pattern.format(fid)
            rendered = _render_depth_map(scene, pose)
            depth_block[fid] = rendered.values
            depth_maps[ref] = DepthMap(width=rendered.width, height=rendered.height, values=depth_block[fid])
            dets = [replace(d, depth_ref=ref) for d in dets]
        if not zero_noise:
            dets, sources = _apply_noise(dets, sources, scene, rng)
        true_idx = [k for k, s in enumerate(sources) if s >= 0]
        rels_local = _relations_among(scene, [sources[k] for k in true_idx], pose.translation)
        rels = [
            Relation2D(subject=true_idx[r.subject], object=true_idx[r.object],
                       predicate=r.predicate, score=r.score)
            for r in rels_local
        ]
        frames.append(FrameRecord(frame_id=fid, camera=scene.camera, pose=pose,
                                  detections=dets, relations=rels))
    return frames, depth_maps


def orbit_frames(n_frames: int = 3600, dets_per_frame: int = 18) -> list[FrameRecord]:
    """The throughput stream: a camera orbits a jittered 15 x 12 floor grid of
    180 boxes at 11.5 m, one degree per frame, and reports the dets_per_frame
    boxes nearest the image centre as noise-free detections with centroid
    depths and no relations. The grid is fixed (seed 77)."""
    rng = np.random.default_rng(77)
    objects = [
        (np.array([(i % 15 - 7.0) * 1.3 + rng.uniform(-0.25, 0.25),
                   (i // 15 - 5.5) * 1.3 + rng.uniform(-0.25, 0.25),
                   rng.uniform(0.3, 1.8)]), i % 6, rng.uniform(0.4, 0.8, 3))
        for i in range(180)
    ]
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    origin = np.full(3, -0.0)  # -0.0, so that origin - eye is -eye, signs of zeros included
    frames = []
    for fid in range(n_frames):
        angle = 2.0 * math.pi * fid / 360.0
        pose = _look_at(np.array([11.5 * math.cos(angle), 11.5 * math.sin(angle), 2.0]), origin)
        rt = pose.rotation.T
        visible = []
        for center, cls, ext in objects:
            c = rt @ (center - pose.translation)
            if c[2] <= 1.0:
                continue
            px = cam.fx * c[0] / c[2] + cam.cx
            py = cam.fy * c[1] / c[2] + cam.cy
            if not (0 <= px < cam.width and 0 <= py < cam.height):
                continue
            offset = (px - cam.cx) ** 2 + (py - cam.cy) ** 2
            visible.append((offset, px, py, cam.fx * ext[0] / c[2], cam.fy * ext[2] / c[2], float(c[2]), cls))
        visible.sort(key=lambda t: t[0])
        dets = [Detection(class_id=cls, score=1.0, cx=px, cy=py, w=w, h=h, centroid_depth=z)
                for _, px, py, w, h, z, cls in visible[:dets_per_frame]]
        frames.append(FrameRecord(frame_id=fid, camera=cam, pose=pose, detections=dets, relations=[]))
    return frames


# ---------------------------------------------------------------------------
# dataset writer
# ---------------------------------------------------------------------------


def synthesize_dataset(
    spec: SceneSpec,
    frames_path,
    gt_path,
    *,
    depth_dir=None,
) -> SyntheticScene:
    """Generate, render, and write a complete dataset to disk.

    Writes the frame stream to frames_path and the ground truth (with vocab)
    to gt_path. When depth_dir is given, per-frame depth maps are written
    under it and detections carry matching depth_ref values (relative to
    depth_dir's parent, so a DepthCache rooted next to the stream resolves
    them).
    """
    import os

    from .evaluation import save_ground_truth
    from .streams import write_depth_map, write_frame_stream

    scene = generate_scene(spec)
    with_depth = depth_dir is not None
    if with_depth:
        base = os.path.basename(os.path.normpath(depth_dir))
        pattern = base + "/{:06d}.frdp"
    else:
        pattern = "depth/{:06d}.frdp"
    frames, depth_maps = render_frames(
        scene, with_depth_maps=with_depth, depth_ref_pattern=pattern
    )
    if with_depth:
        os.makedirs(depth_dir, exist_ok=True)
        parent = os.path.dirname(os.path.normpath(depth_dir)) or "."
        for ref, dmap in depth_maps.items():
            write_depth_map(os.path.join(parent, ref), dmap)
    write_frame_stream(frames, frames_path)
    save_ground_truth(gt_path, scene.gt)
    return scene
