"""Frame-stream JSONL parsing, raw depth maps, centroid sampling, run config."""

import json
import math
import os
import signal
import struct
import weakref

import numpy as np
import pytest

from scenefuse import streams
from scenefuse.errors import (
    ConfigError,
    FrameParseError,
    MissingDepthError,
    StreamFormatError,
    StreamOrderError,
)
from scenefuse.fusion import FusionConfig, process_frame
from scenefuse.geometry import CameraIntrinsics, CameraPose
from scenefuse.graph import GlobalSSG
from scenefuse.streams import (
    ID_LIMIT,
    DepthCache,
    DepthMap,
    Detection,
    FrameRecord,
    RunConfig,
    frame_to_obj,
    load_run_config,
    parse_frame_stream,
    read_depth_map,
    run_config_from_obj,
    sample_centroid_depth,
    write_depth_map,
    write_frame_stream,
)


def _frame_obj(frame_id=0, **over):
    obj = {
        "frame_id": frame_id,
        "camera": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
        "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0.0, 0.0, 0.0]},
        "detections": [
            {"class_id": 2, "score": 0.9, "bbox": {"cx": 100.0, "cy": 120.0, "w": 40.0, "h": 30.0},
             "centroid_depth": 2.5},
            {"class_id": 0, "score": 0.8, "bbox": {"cx": 300.5, "cy": 200.0, "w": 64.0, "h": 64.0},
             "depth_ref": "d/000.frdp"},
        ],
        "relations": [{"subject": 0, "object": 1, "predicate": 1, "score": 0.7}],
    }
    obj.update(over)
    return obj


def _write(tmp_path, lines, name="stream.jsonl"):
    p = tmp_path / name
    p.write_text("".join(json.dumps(o, separators=(",", ":")) + "\n" for o in lines), encoding="utf-8")
    return p


# -- parsing -----------------------------------------------------------------


def test_parse_single_valid_line(tmp_path):
    p = _write(tmp_path, [_frame_obj()])
    (frame,) = list(parse_frame_stream(p))
    assert frame.frame_id == 0
    assert frame.camera.fx == 500.0 and frame.camera.width == 640
    np.testing.assert_array_equal(frame.pose.rotation, np.eye(3))
    assert len(frame.detections) == 2
    d0, d1 = frame.detections
    assert (d0.class_id, d0.score, d0.cx, d0.cy, d0.w, d0.h) == (2, 0.9, 100.0, 120.0, 40.0, 30.0)
    assert d0.centroid_depth == 2.5 and d0.depth_ref is None
    assert d1.centroid_depth is None and d1.depth_ref == "d/000.frdp"
    (rel,) = frame.relations
    assert (rel.subject, rel.object, rel.predicate, rel.score) == (0, 1, 1, 0.7)


def test_parse_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    assert list(parse_frame_stream(p)) == []


def test_parse_skips_blank_lines(tmp_path):
    p = tmp_path / "s.jsonl"
    p.write_text(
        json.dumps(_frame_obj(0)) + "\n\n   \n" + json.dumps(_frame_obj(1)) + "\n",
        encoding="utf-8",
    )
    assert [f.frame_id for f in parse_frame_stream(p)] == [0, 1]


def test_unknown_keys_rejected_at_every_level(tmp_path):
    bad = [
        _frame_obj(extra=1),
        _frame_obj(camera={"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                           "width": 640, "height": 480, "skew": 0.0}),
    ]
    det_bad = _frame_obj()
    det_bad["detections"][0]["mask"] = []
    rel_bad = _frame_obj()
    rel_bad["relations"][0]["weight"] = 1
    bad += [det_bad, rel_bad]
    for obj in bad:
        p = _write(tmp_path, [obj])
        with pytest.raises(FrameParseError):
            list(parse_frame_stream(p))
    # a level that is not an object is one bad line, not a crash
    bbox_keys = _frame_obj(1)
    bbox_keys["detections"][0]["bbox"] = ["cx", "cy", "w", "h"]
    _assert_line_rejected(tmp_path, _frame_obj(1, camera=[1, 2]), "camera must be a JSON object")
    _assert_line_rejected(tmp_path, bbox_keys, "detections[0].bbox must be a JSON object")


def _assert_line_rejected(tmp_path, obj, message):
    """obj on line 2 between two good frames costs that line alone, through on_error."""
    p = _write(tmp_path, [_frame_obj(0), obj, _frame_obj(2)], name="one_bad.jsonl")
    errors = []
    frames = list(parse_frame_stream(p, on_error=errors.append))
    assert [f.frame_id for f in frames] == [0, 2]
    (err,) = errors
    assert err.line_no == 2
    assert str(err) == f"line 2: {message}"


def test_parse_error_carries_line_number_and_recovers(tmp_path):
    # relation endpoint out of range on line 2; lines 1 and 3 still served
    bad = _frame_obj(1)
    bad["relations"][0]["object"] = 5
    p = _write(tmp_path, [_frame_obj(0), bad, _frame_obj(2)])
    errors = []
    frames = list(parse_frame_stream(p, on_error=errors.append))
    assert [f.frame_id for f in frames] == [0, 2]
    (err,) = errors
    assert err.line_no == 2
    assert "out of range" in str(err)


def test_parse_error_raises_without_handler(tmp_path):
    bad = _frame_obj(0)
    bad["detections"][0]["score"] = 1.5
    p = _write(tmp_path, [bad])
    with pytest.raises(FrameParseError) as ei:
        list(parse_frame_stream(p))
    assert ei.value.line_no == 1


def test_invalid_json_line_reports_line(tmp_path):
    p = tmp_path / "s.jsonl"
    # line 3 nests too deeply for the decoder and line 4 is not UTF-8: one bad line each
    p.write_bytes((json.dumps(_frame_obj(0)) + "\n{oops\n" + "[" * 100000 + "]" * 100000 + "\n").encode()
                  + b"\xff\xfe\n" + (json.dumps(_frame_obj(4)) + "\n").encode())
    errors = []
    frames = list(parse_frame_stream(p, on_error=errors.append))
    assert [f.frame_id for f in frames] == [0, 4]
    assert [e.line_no for e in errors] == [2, 3, 4]
    assert "can't decode byte 0xff" in str(errors[2])
    p.write_bytes(b"\n\xff\xfe\n")
    with pytest.raises(FrameParseError) as ei:
        list(parse_frame_stream(p))
    assert ei.value.line_no == 2


def test_crlf_stream_keeps_line_numbers(tmp_path):
    lines = [json.dumps(_frame_obj(0)), "", "   ", "{oops", json.dumps(_frame_obj(4))]
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode())
    lf = tmp_path / "lf.jsonl"
    lf.write_bytes("".join(line + "\n" for line in lines).encode())
    seen = {}
    for p in (crlf, lf):
        errors = []
        frames = [frame_to_obj(f) for f in parse_frame_stream(p, on_error=errors.append)]
        seen[p.name] = (frames, [(e.line_no, str(e)) for e in errors])
    frames, errors = seen["crlf.jsonl"]
    assert [f["frame_id"] for f in frames] == [0, 4]
    assert [line_no for line_no, _ in errors] == [4]
    assert seen["lf.jsonl"] == seen["crlf.jsonl"]


def test_non_monotone_frame_id_always_raises(tmp_path):
    p = _write(tmp_path, [_frame_obj(5), _frame_obj(5)])
    with pytest.raises(StreamOrderError):
        list(parse_frame_stream(p, on_error=lambda e: None))
    p2 = _write(tmp_path, [_frame_obj(5), _frame_obj(3)], name="s2.jsonl")
    with pytest.raises(StreamOrderError):
        list(parse_frame_stream(p2))


def test_rejects_bad_geometry_fields(tmp_path):
    nonpos = _frame_obj()
    nonpos["detections"][0]["bbox"]["w"] = 0.0
    notrot = _frame_obj(pose={"rotation": [2, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]})
    badscore = _frame_obj()
    badscore["relations"][0]["score"] = -0.1
    boolscore = _frame_obj()
    boolscore["detections"][0]["score"] = True
    for obj in (nonpos, notrot, badscore, boolscore):
        p = _write(tmp_path, [obj])
        with pytest.raises(FrameParseError):
            list(parse_frame_stream(p))
    # null or a number where the grammar has an object, and integers beyond the
    # float range, used to escape on_error as TypeError and OverflowError
    cases = []
    for value in (None, 7):
        det = _frame_obj(1)
        det["detections"][1] = value
        bbox = _frame_obj(1)
        bbox["detections"][0]["bbox"] = value
        rel = _frame_obj(1)
        rel["relations"][0] = value
        cases += [
            (det, "detections[1] must be a JSON object"),
            (bbox, "detections[0].bbox must be a JSON object"),
            (rel, "relations[0] must be a JSON object"),
            (_frame_obj(1, pose=value), "pose must be a JSON object"),
        ]
    huge_w = _frame_obj(1)
    huge_w["detections"][0]["bbox"]["w"] = 10 ** 400
    huge_rot = _frame_obj(1, pose={"rotation": [10 ** 400, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]})
    cases += [
        (huge_w, "detections[0].bbox.w is an integer too large for a float"),
        (huge_rot, "pose.rotation is an integer too large for a float"),
    ]
    # ids at or above ID_LIMIT: without a vocabulary, the graph document would
    # name every id up to the largest one
    big_class = _frame_obj(1)
    big_class["detections"][1]["class_id"] = 200_000
    big_pred = _frame_obj(1)
    big_pred["relations"][0]["predicate"] = ID_LIMIT
    cases += [
        (big_class, f"detections[1].class_id above {ID_LIMIT - 1}: 200000"),
        (big_pred, f"relations[0].predicate above {ID_LIMIT - 1}: {ID_LIMIT}"),
    ]
    for obj, message in cases:
        _assert_line_rejected(tmp_path, obj, message)


def test_huge_integer_width_is_accepted(tmp_path):
    # an int is finite however large; the camera check must not overflow on it
    obj = _frame_obj(camera={"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                             "width": 10 ** 400, "height": 480})
    (frame,) = parse_frame_stream(_write(tmp_path, [obj]))
    assert frame.camera.width == 10 ** 400


def test_roundtrip_byte_equality(tmp_path):
    objs = [_frame_obj(0), _frame_obj(3), _frame_obj(7)]
    objs[1]["detections"][0]["bbox"]["cx"] = 123.456789012345
    objs[2]["pose"] = {
        "rotation": [0, -1, 0, 1, 0, 0, 0, 0, 1],
        "translation": [0.1, -2.25, 3.0],
    }
    p = _write(tmp_path, objs)
    frames = list(parse_frame_stream(p))
    p2 = tmp_path / "rt.jsonl"
    assert write_frame_stream(frames, p2) == 3
    # canonical writer emits the exact same bytes the canonical input had
    canonical = "".join(json.dumps(frame_to_obj(f), separators=(",", ":")) + "\n" for f in frames)
    assert p2.read_text(encoding="utf-8") == canonical
    frames2 = list(parse_frame_stream(p2))
    p3 = tmp_path / "rt2.jsonl"
    write_frame_stream(frames2, p3)
    assert p2.read_bytes() == p3.read_bytes()


# -- depth maps --------------------------------------------------------------


def test_depth_roundtrip_2x2_ones(tmp_path):
    p = tmp_path / "d.frdp"
    write_depth_map(p, np.ones((2, 2), dtype=np.float32))
    dm = read_depth_map(p)
    assert (dm.width, dm.height) == (2, 2)
    np.testing.assert_array_equal(dm.values, np.ones((2, 2), dtype=np.float32))


def test_depth_header_layout_and_row_major_order(tmp_path):
    # 3 wide, 2 tall; values[v, u]
    vals = np.arange(6, dtype=np.float32).reshape(2, 3)
    p = tmp_path / "d.frdp"
    write_depth_map(p, vals)
    raw = p.read_bytes()
    magic, version, w, h = struct.unpack_from("<4sBII", raw)
    assert (magic, version, w, h) == (b"FRDP", 1, 3, 2)
    assert struct.unpack_from("<6f", raw, 13) == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    dm = read_depth_map(p)
    assert dm.values[1, 2] == 5.0


def test_depth_size_mismatch_rejected(tmp_path):
    p = tmp_path / "d.frdp"
    # header says 4x4 but only 12 values follow
    p.write_bytes(struct.pack("<4sBII", b"FRDP", 1, 4, 4) + struct.pack("<12f", *range(12)))
    with pytest.raises(StreamFormatError):
        read_depth_map(p)


def test_depth_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "d.frdp"
    # header says 2x2 but five values follow
    p.write_bytes(struct.pack("<4sBII", b"FRDP", 1, 2, 2) + struct.pack("<5f", *range(5)))
    with pytest.raises(StreamFormatError, match="payload is 20 bytes, header implies 16"):
        read_depth_map(p)


def test_depth_bad_magic_version_truncation(tmp_path):
    p = tmp_path / "d.frdp"
    p.write_bytes(struct.pack("<4sBII", b"XXXX", 1, 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(StreamFormatError):
        read_depth_map(p)
    p.write_bytes(struct.pack("<4sBII", b"FRDP", 2, 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(StreamFormatError):
        read_depth_map(p)
    p.write_bytes(b"FRD")
    with pytest.raises(StreamFormatError):
        read_depth_map(p)


class _PathLike:
    """An os.PathLike that is not a pathlib.Path."""

    def __init__(self, path):
        self._path = str(path)

    def __fspath__(self):
        return self._path

    def __str__(self):
        return self._path


def test_depth_reads_from_str_and_pathlike_with_the_same_messages(tmp_path):
    p = tmp_path / "d.frdp"
    write_depth_map(p, np.arange(6, dtype=np.float32).reshape(2, 3))
    for path in (p, str(p), _PathLike(p)):
        dm = read_depth_map(path)
        assert (dm.width, dm.height) == (3, 2) and dm.values[1, 2] == 5.0 and not dm.values.flags.writeable
    for raw, problem in (
        (b"FRDP\x01", "truncated depth header"),
        (struct.pack("<4sBII", b"XXXX", 1, 1, 1) + struct.pack("<f", 1.0), "bad magic b'XXXX'"),
        (struct.pack("<4sBII", b"FRDP", 1, 2, 2) + struct.pack("<3f", 1.0, 2.0, 3.0),
         "payload is 12 bytes, header implies 16"),
    ):
        p.write_bytes(raw)
        for path in (p, str(p), _PathLike(p)):
            with pytest.raises(StreamFormatError) as info:
                read_depth_map(path)
            assert str(info.value) == f"{p}: {problem}"
    with pytest.raises(FileNotFoundError):
        read_depth_map(str(tmp_path / "absent.frdp"))


@pytest.fixture
def alarm():
    """Fail a test that blocks for 5 s instead of hanging the suite."""

    def on_alarm(signum, frame):
        raise TimeoutError("blocked for 5 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_depth_read_refuses_what_is_not_a_regular_file(tmp_path, alarm):
    fifo = tmp_path / "d.frdp"
    os.mkfifo(fifo)  # no writer: a blocking open would wait for one
    for path in (fifo, str(fifo), tmp_path):
        with pytest.raises(StreamFormatError) as info:
            read_depth_map(path)
        assert str(info.value) == f"{path}: not a regular file"
    # a frame whose refs name the FIFO finishes: the detection with no inline
    # depth is dropped, and the one with inline depth has its mean as its point
    frame = FrameRecord(
        frame_id=0,
        camera=CameraIntrinsics(fx=10.0, fy=10.0, cx=10.0, cy=10.0, width=20, height=20),
        pose=CameraPose(rotation=np.eye(3), translation=np.zeros(3)),
        detections=[Detection(class_id=0, score=0.9, cx=10.0, cy=10.0, w=4.0, h=4.0, depth_ref="d.frdp"),
                    Detection(class_id=1, score=0.9, cx=5.0, cy=5.0, w=4.0, h=4.0, centroid_depth=2.0,
                              depth_ref="d.frdp")],
        relations=[],
    )
    graph = GlobalSSG()
    result = process_frame(frame, graph, FusionConfig(), rng=np.random.default_rng(0),
                           depth_provider=DepthCache(tmp_path), record_eval_points=True)
    assert (result.lifted, result.dropped) == (1, 1)
    (node,) = graph.nodes.values()
    assert node.eval_seen == 1
    assert node.eval_points.tobytes() == node.gaussian.mean.reshape(1, 3).tobytes()


def test_depth_negative_value_preserved(tmp_path):
    p = tmp_path / "d.frdp"
    write_depth_map(p, np.array([[-1.0]], dtype=np.float32))
    dm = read_depth_map(p)
    assert dm.values[0, 0] == -1.0
    det = Detection(class_id=0, score=0.9, cx=0.0, cy=0.0, w=2.0, h=2.0)
    with pytest.raises(MissingDepthError):
        sample_centroid_depth(det, dm)


# -- centroid sampling -------------------------------------------------------


def _dm(values):
    a = np.asarray(values, dtype=np.float32)
    return DepthMap(width=a.shape[1], height=a.shape[0], values=a)


def test_sample_direct_hit():
    dm = _dm(np.full((10, 10), 2.5))
    det = Detection(class_id=0, score=0.9, cx=4.2, cy=6.7, w=3.0, h=3.0)
    assert sample_centroid_depth(det, dm) == 2.5


def test_sample_median_fallback():
    vals = np.zeros((10, 10), dtype=np.float32)
    # centroid pixel invalid; 5x5 window holds valid {2.0, 3.0, 4.0}, median 3.0
    vals[4, 3] = 2.0
    vals[5, 5] = 3.0
    vals[6, 7] = 4.0
    dm = _dm(vals)
    det = Detection(class_id=0, score=0.9, cx=5.0, cy=5.0, w=4.0, h=4.0)
    assert sample_centroid_depth(det, dm) == 3.0


def test_sample_fully_invalid_window():
    vals = np.zeros((10, 10), dtype=np.float32)
    vals[9, 9] = 5.0  # valid but outside the 5x5 window around (2,2)
    det = Detection(class_id=0, score=0.9, cx=2.0, cy=2.0, w=2.0, h=2.0)
    with pytest.raises(MissingDepthError):
        sample_centroid_depth(det, _dm(vals))


def test_sample_center_outside_image():
    dm = _dm(np.ones((4, 4)))
    det = Detection(class_id=0, score=0.9, cx=3.6, cy=1.0, w=2.0, h=2.0)
    with pytest.raises(MissingDepthError):
        sample_centroid_depth(det, dm)  # rounds to u=4, off the 4-wide map


def test_sample_rounds_ties_to_even():
    vals = np.arange(36, dtype=np.float32).reshape(6, 6) + 1.0
    dm = _dm(vals)
    det = Detection(class_id=0, score=0.9, cx=2.5, cy=3.5, w=2.0, h=2.0)
    # 2.5 -> 2, 3.5 -> 4, value = vals[4, 2]
    assert sample_centroid_depth(det, dm) == vals[4, 2]


def test_nan_center_falls_back_to_window():
    vals = np.full((10, 10), 7.0, dtype=np.float32)
    vals[5, 5] = np.nan
    det = Detection(class_id=0, score=0.9, cx=5.0, cy=5.0, w=2.0, h=2.0)
    assert sample_centroid_depth(det, _dm(vals)) == 7.0


def test_depth_cache_resolves_and_caches(tmp_path):
    sub = tmp_path / "depth"
    sub.mkdir()
    write_depth_map(sub / "a.frdp", np.ones((2, 2), dtype=np.float32))
    cache = DepthCache(tmp_path)
    d1 = cache("depth/a.frdp")
    d2 = cache("depth/a.frdp")
    assert d1 is d2
    assert d1.values[0, 0] == 1.0


def test_depth_cache_roots(tmp_path, monkeypatch):
    sub = tmp_path / "depth"
    sub.mkdir()
    write_depth_map(sub / "a.frdp", np.full((2, 2), 3.0, dtype=np.float32))
    # a str root and a Path root resolve a relative ref alike
    for root in (tmp_path, str(tmp_path), _PathLike(tmp_path)):
        assert DepthCache(root)("depth/a.frdp").values[0, 0] == 3.0
    # no root: a relative ref is read from the working directory
    monkeypatch.chdir(tmp_path)
    assert DepthCache(None)("depth/a.frdp").values[0, 0] == 3.0
    # an absolute ref ignores the root
    other = tmp_path / "elsewhere"
    other.mkdir()
    for root in (other, str(other), None):
        assert DepthCache(root)(str(sub / "a.frdp")).values[0, 0] == 3.0
    with pytest.raises(FileNotFoundError):
        DepthCache(other)("depth/a.frdp")


def test_depth_cache_keeps_one_map(tmp_path, monkeypatch):
    # a long stream with a new depth map per frame must not pile maps up
    reads = []
    maps = []  # weak references to every map read
    real_read = streams.read_depth_map

    def counting_read(path):
        dm = real_read(path)
        reads.append(path)
        maps.append(weakref.ref(dm))
        return dm

    monkeypatch.setattr(streams, "read_depth_map", counting_read)
    n = 250
    for i in range(n):
        write_depth_map(tmp_path / f"{i}.frdp", np.full((2, 2), float(i + 1), dtype=np.float32))
    cache = DepthCache(tmp_path)
    for i in range(n):
        for _ in range(3):  # the frame's detections share its map
            assert cache(f"{i}.frdp").values[0, 0] == i + 1
        assert sum(ref() is not None for ref in maps) == 1
    assert len(reads) == n


# -- run config --------------------------------------------------------------


def test_config_defaults():
    cfg = run_config_from_obj({})
    assert cfg.fusion.hellinger_threshold == 0.85
    assert cfg.fusion.confidence_threshold == 0.7
    assert cfg.fusion.top_k_relations == 10
    assert cfg.seed == 0 and cfg.bench is False and cfg.record_eval_points is False


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        run_config_from_obj({"hellinger_thresh": 0.8})


def test_config_fusion_fields_and_ranges():
    cfg = run_config_from_obj({"hellinger_threshold": 0.6, "eval_point_cap": 64})
    assert cfg.fusion.hellinger_threshold == 0.6
    assert cfg.fusion.eval_point_cap == 64
    for bad in ({"hellinger_threshold": 1.0}, {"confidence_threshold": -0.2},
                {"jacobian_mode": "camera-frame"}, {"eval_point_cap": 0}, {"min_depth": 0.0}):
        with pytest.raises(ConfigError):
            run_config_from_obj(bad)


@pytest.mark.parametrize("key, value, message", [
    # each passed validation and then crashed the run: a slice bound, np.partition
    ("top_k_relations", 2.5, "top_k_relations must be an integer"),
    ("eval_point_cap", 2.5, "eval_point_cap must be an integer"),
    ("min_depth", math.inf, "min_depth must be positive and finite"),
    # a bool is neither a count nor a number, though Python reads it as 0 or 1
    ("hellinger_threshold", True, "hellinger_threshold must be a number"),
    ("confidence_threshold", False, "confidence_threshold must be a number"),
    ("top_k_relations", True, "top_k_relations must be an integer"),
    ("min_depth", True, "min_depth must be a number"),
    ("eval_point_cap", True, "eval_point_cap must be an integer"),
])
def test_config_refuses_settings_the_run_cannot_use(key, value, message):
    with pytest.raises(ConfigError, match=f"bad fusion settings: {message}"):
        run_config_from_obj({key: value})


def test_config_flags_and_paths():
    cfg = run_config_from_obj(
        {"seed": 9, "bench": True, "record_eval_points": True,
         "input": "in.jsonl", "output": "out.json", "export_dot": "g.dot",
         "vocab": {"objects": ["chair"], "predicates": ["on"]}}
    )
    assert cfg.seed == 9 and cfg.bench and cfg.record_eval_points
    assert cfg.input == "in.jsonl" and cfg.output == "out.json" and cfg.export_dot == "g.dot"
    assert cfg.vocab_objects == ["chair"] and cfg.vocab_predicates == ["on"]
    with pytest.raises(ConfigError):
        run_config_from_obj({"seed": True})
    with pytest.raises(ConfigError):
        run_config_from_obj({"vocab": {"objects": ["a"]}})


def test_load_run_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"hellinger_threshold": 0.9}', encoding="utf-8")
    assert load_run_config(p).fusion.hellinger_threshold == 0.9
    p.write_text("[1,2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(p)
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.json")
