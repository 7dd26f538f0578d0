"""Bit-exact file formats: JSON Lines frame streams, raw depth maps, run config.

Frame stream grammar (one JSON object per line, UTF-8, lines ending in LF or
CRLF):

    {"frame_id": int,
     "camera": {"fx","fy","cx","cy": float, "width","height": int},
     "pose": {"rotation": [9 floats, row-major, camera-to-world],
              "translation": [3 floats, meters]},
     "detections": [{"class_id": int in [0, ID_LIMIT), "score": float in [0,1],
                     "bbox": {"cx","cy","w","h": float pixels},
                     "centroid_depth": float meters (optional),
                     "depth_ref": str path (optional)}],
     "relations": [{"subject","object": detection indices,
                    "predicate": int in [0, ID_LIMIT), "score": float in [0,1]}]}

A line is what Python's json module decodes (orjson decodes it first, and
json decides whatever orjson or the frame reader refuses; see
parse_frame_stream). One reader, _read_frame, checks a decoded frame
object and words the error of the first field that is wrong. Unknown keys
anywhere in a frame object are parse errors. frame_id must be strictly
increasing across the stream. Detection local indices are positional
(dense, 0-based). Inline centroid_depth takes precedence over depth_ref.

Raw depth format: magic `FRDP`, version byte 0x01, width and height as u32
little-endian, then width*height float32 little-endian values, row-major,
meters. Non-positive or non-finite values mean "no reading" and are skipped
by sampling.
"""

from __future__ import annotations

import json
import logging
import math
import os
import stat
import struct
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    ConfigError,
    FrameParseError,
    MissingDepthError,
    StreamFormatError,
    StreamOrderError,
)
from .fusion import FusionConfig
from .geometry import CameraIntrinsics, CameraPose

logger = logging.getLogger(__name__)

_DEPTH_MAGIC = b"FRDP"
_DEPTH_VERSION = 1
_DEPTH_HEADER = struct.Struct("<4sBII")

# Class and predicate ids must lie below this. A run without a vocabulary
# names every id up to the largest one seen, so an unbounded id would size
# the graph document, and the memory that builds it, from one input line.
ID_LIMIT = 2 ** 16


@dataclass
class Detection:
    """One 2D detection as carried on the wire; bbox center in pixels."""

    class_id: int
    score: float
    cx: float
    cy: float
    w: float
    h: float
    centroid_depth: float | None = None
    depth_ref: str | None = None


@dataclass
class Relation2D:
    subject: int
    object: int
    predicate: int
    score: float


@dataclass
class FrameRecord:
    frame_id: int
    camera: CameraIntrinsics
    pose: CameraPose
    detections: list[Detection]
    relations: list[Relation2D]


@dataclass
class DepthMap:
    """Row-major depth raster in meters; values[v, u] indexes row v, column u."""

    width: int
    height: int
    values: np.ndarray


# ---------------------------------------------------------------------------
# frame stream parsing
# ---------------------------------------------------------------------------


# the key set of each level of a frame object
_FRAME_KEYS = frozenset({"frame_id", "camera", "pose", "detections", "relations"})
_CAMERA_KEYS = frozenset({"fx", "fy", "cx", "cy", "width", "height"})
_POSE_KEYS = frozenset({"rotation", "translation"})
_DETECTION_KEYS = frozenset({"class_id", "score", "bbox", "centroid_depth", "depth_ref"})
_DETECTION_REQUIRED = frozenset({"class_id", "score", "bbox"})
_BBOX_KEYS = frozenset({"cx", "cy", "w", "h"})
_RELATION_KEYS = frozenset({"subject", "object", "predicate", "score"})


def _require_keys(obj, allowed: frozenset[str], required: frozenset[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"missing key(s) {sorted(missing)} in {where}")


def _as_float(v, where: str, lo: float | None = None, hi: float | None = None) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{where} must be a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        raise ValueError(f"{where} is an integer too large for a float") from None
    if not math.isfinite(f):
        raise ValueError(f"{where} must be finite, got {f}")
    if lo is not None and f < lo:
        raise ValueError(f"{where} below {lo}: {f}")
    if hi is not None and f > hi:
        raise ValueError(f"{where} above {hi}: {f}")
    return f


def _as_int(v, where: str, lo: int | None = None, hi: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{where} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ValueError(f"{where} below {lo}: {v}")
    if hi is not None and v > hi:
        raise ValueError(f"{where} above {hi}: {v}")
    return v


def _read_frame(obj) -> FrameRecord:
    """The FrameRecord of one decoded frame line; ValueError at the first
    field that is wrong, with the field's path in its message.

    Fields are checked in the grammar's order: the frame's keys, frame_id,
    the camera, the pose, then per detection its keys, its bbox's keys,
    centroid_depth, depth_ref, class_id, score, cx, cy, w, h and the
    extents' signs, and per relation its keys, subject, object, the
    endpoints' range, predicate and score. Each check is a fast test: key
    sets compared whole, numbers by exact type (so bool is refused, and no
    comparison meets a value of the wrong type), ranges and finiteness by
    chained comparisons, value by value. Where a test fails, the wording
    helpers (_require_keys, _as_float, _as_int) check the field again: they
    raise with its path, or they take it, as they take an int in a float
    field (read as its float).
    """
    inf = math.inf
    if type(obj) is not dict or obj.keys() != _FRAME_KEYS:
        if not isinstance(obj, dict):
            raise ValueError("frame line must be a JSON object")
        _require_keys(obj, _FRAME_KEYS, _FRAME_KEYS, "frame")
    frame_id = obj["frame_id"]
    if not (type(frame_id) is int and frame_id >= 0):
        _as_int(frame_id, "frame_id", lo=0)

    cam = obj["camera"]
    if type(cam) is not dict or cam.keys() != _CAMERA_KEYS:
        _require_keys(cam, _CAMERA_KEYS, _CAMERA_KEYS, "camera")
    fx, fy, cx, cy, width, height = cam["fx"], cam["fy"], cam["cx"], cam["cy"], cam["width"], cam["height"]
    if not (type(fx) is float and -inf < fx < inf and type(fy) is float and -inf < fy < inf
            and type(cx) is float and -inf < cx < inf and type(cy) is float and -inf < cy < inf
            and type(width) is int and width >= 1 and type(height) is int and height >= 1):
        fx, fy = _as_float(fx, "camera.fx"), _as_float(fy, "camera.fy")
        cx, cy = _as_float(cx, "camera.cx"), _as_float(cy, "camera.cy")
        _as_int(width, "camera.width", lo=1)
        _as_int(height, "camera.height", lo=1)
    camera = CameraIntrinsics(fx, fy, cx, cy, width, height)
    camera.validate()  # positive focal lengths

    pose_obj = obj["pose"]
    if type(pose_obj) is not dict or pose_obj.keys() != _POSE_KEYS:
        _require_keys(pose_obj, _POSE_KEYS, _POSE_KEYS, "pose")
    rot, tr = pose_obj["rotation"], pose_obj["translation"]
    if not (isinstance(rot, list) and len(rot) == 9):
        raise ValueError("pose.rotation must be a list of 9 row-major floats")
    if not (isinstance(tr, list) and len(tr) == 3):
        raise ValueError("pose.translation must be a list of 3 floats")
    for v in rot:
        if not (type(v) is float and -inf < v < inf):
            rot = [_as_float(v, "pose.rotation") for v in rot]
            break
    for v in tr:
        if not (type(v) is float and -inf < v < inf):
            tr = [_as_float(v, "pose.translation") for v in tr]
            break
    pose = CameraPose(rotation=np.array(rot).reshape(3, 3), translation=np.array(tr))
    pose.validate(tol=1e-6)

    dets, rels = obj["detections"], obj["relations"]
    if not isinstance(dets, list):
        raise ValueError("detections must be a list")
    detections = []  # its length is the index of the detection being read
    for d in dets:
        try:
            if type(d) is not dict or not d.keys() <= _DETECTION_KEYS:
                raise KeyError
            bbox, class_id, score = d["bbox"], d["class_id"], d["score"]
        except KeyError:  # not an object, or a key unknown or missing
            _require_keys(d, _DETECTION_KEYS, _DETECTION_REQUIRED, f"detections[{len(detections)}]")
        if type(bbox) is not dict or bbox.keys() != _BBOX_KEYS:
            _require_keys(bbox, _BBOX_KEYS, _BBOX_KEYS, f"detections[{len(detections)}].bbox")
        depth, ref = d.get("centroid_depth"), d.get("depth_ref")
        if depth is not None and not (type(depth) is float and -inf < depth < inf):
            depth = _as_float(depth, f"detections[{len(detections)}].centroid_depth")
        if ref is not None and type(ref) is not str:
            raise ValueError(f"detections[{len(detections)}].depth_ref must be a string path")
        if not (type(class_id) is int and 0 <= class_id < ID_LIMIT):
            _as_int(class_id, f"detections[{len(detections)}].class_id", lo=0, hi=ID_LIMIT - 1)
        cx, cy, w, h = bbox["cx"], bbox["cy"], bbox["w"], bbox["h"]
        if not (type(score) is float and 0.0 <= score <= 1.0 and type(cx) is float and -inf < cx < inf
                and type(cy) is float and -inf < cy < inf and type(w) is float and 0.0 < w < inf
                and type(h) is float and 0.0 < h < inf):
            where = f"detections[{len(detections)}]"
            score = _as_float(score, f"{where}.score", lo=0.0, hi=1.0)
            cx, cy = _as_float(cx, f"{where}.bbox.cx"), _as_float(cy, f"{where}.bbox.cy")
            w, h = _as_float(w, f"{where}.bbox.w"), _as_float(h, f"{where}.bbox.h")
            if w <= 0 or h <= 0:
                raise ValueError(f"{where}.bbox extents must be positive")
        detections.append(Detection(class_id, score, cx, cy, w, h, depth, ref))

    if not isinstance(rels, list):
        raise ValueError("relations must be a list")
    n_det = len(detections)
    relations = []  # its length is the index of the relation being read
    for r in rels:
        if type(r) is not dict or r.keys() != _RELATION_KEYS:
            _require_keys(r, _RELATION_KEYS, _RELATION_KEYS, f"relations[{len(relations)}]")
        subject, object_, predicate, score = r["subject"], r["object"], r["predicate"], r["score"]
        if not (type(subject) is int and 0 <= subject < n_det and type(object_) is int and 0 <= object_ < n_det
                and type(predicate) is int and 0 <= predicate < ID_LIMIT
                and type(score) is float and 0.0 <= score <= 1.0):
            where = f"relations[{len(relations)}]"
            _as_int(subject, f"{where}.subject", lo=0)
            _as_int(object_, f"{where}.object", lo=0)
            if subject >= n_det or object_ >= n_det:
                raise ValueError(f"{where} endpoint out of range (frame has {n_det} detections)")
            _as_int(predicate, f"{where}.predicate", lo=0, hi=ID_LIMIT - 1)
            score = _as_float(score, f"{where}.score", lo=0.0, hi=1.0)
        relations.append(Relation2D(subject, object_, predicate, score))
    return FrameRecord(frame_id, camera, pose, detections, relations)


def parse_frame_stream(
    path, on_error: Callable[[FrameParseError], None] | None = None
) -> Iterator[FrameRecord]:
    """Yield FrameRecords from a JSON Lines file.

    A malformed line, one that is not UTF-8 included, raises FrameParseError
    carrying its 1-based line number; pass `on_error` to record the error and
    keep consuming subsequent lines instead. Non-monotone frame_id always
    raises StreamOrderError — that is stream corruption, not a line-local
    problem.
    """
    # Imported here, not with the module: a process that imports streams but
    # parses no stream need not load it.
    import orjson

    fast_loads = orjson.loads
    last_id = None
    # Bytes, decoded line by line: a line that is not UTF-8 raises
    # UnicodeDecodeError (a ValueError) here, where it costs only that line.
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            # orjson accepts a subset of what json accepts and, where both
            # accept, returns an equal object, but for an integer beyond 64
            # bits: that comes back as the nearest float, which is what the
            # reader makes of json's int in a float field and which it
            # refuses by type in an int field. So json decides every line
            # that orjson refuses (orjson.JSONDecodeError is a ValueError) or
            # whose orjson object the reader refuses, and the reader words
            # the error from json's object. RecursionError: a value nested
            # too deep to decode, or to repr in an error's message.
            try:
                frame = _read_frame(fast_loads(line))
            except (ValueError, RecursionError):
                try:
                    frame = _read_frame(json.loads(line.decode("utf-8")))
                except (ValueError, RecursionError) as exc:
                    err = FrameParseError(line_no, str(exc))
                    if on_error is None:
                        raise err from exc
                    on_error(err)
                    continue
            if last_id is not None and frame.frame_id <= last_id:
                raise StreamOrderError(
                    f"line {line_no}: frame_id {frame.frame_id} not greater than {last_id}"
                )
            last_id = frame.frame_id
            yield frame


def frame_to_obj(frame: FrameRecord) -> dict:
    """Canonical document form of one frame (field order fixed)."""
    dets = []
    for d in frame.detections:
        rec = {
            "class_id": d.class_id,
            "score": float(d.score),
            "bbox": {"cx": float(d.cx), "cy": float(d.cy), "w": float(d.w), "h": float(d.h)},
        }
        if d.centroid_depth is not None:
            rec["centroid_depth"] = float(d.centroid_depth)
        if d.depth_ref is not None:
            rec["depth_ref"] = d.depth_ref
        dets.append(rec)
    return {
        "frame_id": frame.frame_id,
        "camera": {
            "fx": float(frame.camera.fx), "fy": float(frame.camera.fy),
            "cx": float(frame.camera.cx), "cy": float(frame.camera.cy),
            "width": int(frame.camera.width), "height": int(frame.camera.height),
        },
        "pose": {
            "rotation": [float(v) for v in frame.pose.rotation.reshape(9)],
            "translation": [float(v) for v in frame.pose.translation],
        },
        "detections": dets,
        "relations": [
            {"subject": r.subject, "object": r.object, "predicate": r.predicate, "score": float(r.score)}
            for r in frame.relations
        ],
    }


def write_frame_stream(frames: Iterable[FrameRecord], path) -> int:
    """Write frames in the canonical (round-trip byte-exact) JSONL form."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for frame in frames:
            f.write(json.dumps(frame_to_obj(frame), separators=(",", ":")))
            f.write("\n")
            n += 1
    return n


# ---------------------------------------------------------------------------
# depth maps
# ---------------------------------------------------------------------------


def write_depth_map(path, depth: DepthMap | np.ndarray) -> None:
    values = depth.values if isinstance(depth, DepthMap) else np.asarray(depth)
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(_DEPTH_HEADER.pack(_DEPTH_MAGIC, _DEPTH_VERSION, w, h))
        f.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_depth_map(path) -> DepthMap:
    """Read a raw depth map from a str or os.PathLike path. The payload is
    read from the file straight into the (read-only) array: no bytes object
    is sliced or copied, and the array is aligned, which a view at the
    13-byte header's offset would not be (an unaligned array takes numpy's
    slower path on every fancy index). The file is read by descriptor, with
    no buffered file object, and opened without blocking, so that a path
    naming a FIFO with no writer raises StreamFormatError instead of
    waiting: anything but a regular file is refused before it is read."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise StreamFormatError(f"{path}: not a regular file")
        header = os.pread(fd, _DEPTH_HEADER.size, 0)
        if len(header) < _DEPTH_HEADER.size:
            raise StreamFormatError(f"{path}: truncated depth header")
        magic, version, w, h = _DEPTH_HEADER.unpack(header)
        if magic != _DEPTH_MAGIC:
            raise StreamFormatError(f"{path}: bad magic {magic!r}")
        if version != _DEPTH_VERSION:
            raise StreamFormatError(f"{path}: unsupported version {version}")
        size = st.st_size - _DEPTH_HEADER.size
        expected = 4 * w * h
        if size != expected:
            raise StreamFormatError(f"{path}: payload is {size} bytes, header implies {expected}")
        values = np.empty((h, w), dtype="<f4")
        got = os.preadv(fd, [values], _DEPTH_HEADER.size)
    finally:
        os.close(fd)
    if got != expected:
        raise StreamFormatError(f"{path}: payload is {got} bytes, header implies {expected}")
    values.flags.writeable = False
    return DepthMap(width=w, height=h, values=values)


def sample_centroid_depth(detection: Detection, depth: DepthMap) -> float:
    """Depth at the rounded bbox center, median-of-5x5 fallback.

    Centroid rounding is nearest integer with ties to even. An invalid
    centroid reading falls back to the median of valid values in the 5x5
    window around it; a fully invalid window raises MissingDepthError.
    """
    u, v = round(detection.cx), round(detection.cy)
    if not (0 <= u < depth.width and 0 <= v < depth.height):
        raise MissingDepthError(f"bbox center ({u},{v}) outside {depth.width}x{depth.height}")
    val = float(depth.values[v, u])
    if math.isfinite(val) and val > 0.0:
        return val
    window = depth.values[max(0, v - 2): v + 3, max(0, u - 2): u + 3]
    flat = window[np.isfinite(window) & (window > 0.0)]
    if flat.size == 0:
        raise MissingDepthError(f"no valid depth in 5x5 window at ({u},{v})")
    return float(np.median(flat))


class DepthCache:
    """Per-run loader that resolves depth_ref paths relative to the stream file.

    Only the most recently read map is kept. Depth refs are per frame, so a
    frame's detections share one read, and memory stays bounded however long
    the stream is.
    """

    def __init__(self, root: Path | str | None):
        self.root = os.fspath(root) if root is not None else None
        self._ref: str | None = None
        self._map: DepthMap | None = None

    def __call__(self, ref: str) -> DepthMap:
        if ref != self._ref:
            self._ref = self._map = None  # let the old map go before the new one is read
            path = ref
            if self.root is not None and not os.path.isabs(ref):
                path = os.path.join(self.root, ref)
            self._map = read_depth_map(path)
            self._ref = ref
        return self._map


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Full run configuration: fusion knobs plus IO paths and toggles."""

    fusion: FusionConfig = field(default_factory=FusionConfig)
    seed: int = 0
    record_eval_points: bool = False
    bench: bool = False
    input: str | None = None
    output: str | None = None
    export_dot: str | None = None
    vocab_objects: list[str] | None = None
    vocab_predicates: list[str] | None = None


_FUSION_KEYS = {f.name for f in dataclass_fields(FusionConfig)}
_RUN_KEYS = {
    "seed", "record_eval_points", "bench", "input", "output", "export_dot", "vocab",
}


def run_config_from_obj(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(obj) - _FUSION_KEYS - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    try:
        fusion = FusionConfig(**{k: obj[k] for k in _FUSION_KEYS if k in obj})
        fusion.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fusion settings: {exc}") from exc
    cfg = RunConfig(fusion=fusion)
    if "seed" in obj:
        if isinstance(obj["seed"], bool) or not isinstance(obj["seed"], int):
            raise ConfigError("seed must be an integer")
        cfg.seed = obj["seed"]
    for key in ("record_eval_points", "bench"):
        if key in obj:
            if not isinstance(obj[key], bool):
                raise ConfigError(f"{key} must be a boolean")
            setattr(cfg, key, obj[key])
    for key in ("input", "output", "export_dot"):
        if key in obj:
            if obj[key] is not None and not isinstance(obj[key], str):
                raise ConfigError(f"{key} must be a string path")
            setattr(cfg, key, obj[key])
    if "vocab" in obj:
        v = obj["vocab"]
        if (
            not isinstance(v, dict)
            or set(v) != {"objects", "predicates"}
            or not all(isinstance(x, str) for x in v["objects"])
            or not all(isinstance(x, str) for x in v["predicates"])
        ):
            raise ConfigError('vocab must be {"objects": [names], "predicates": [names]}')
        cfg.vocab_objects = list(v["objects"])
        cfg.vocab_predicates = list(v["predicates"])
    return cfg


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return run_config_from_obj(obj)
