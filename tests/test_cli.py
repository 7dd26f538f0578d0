"""End-to-end tests of the command-line interface.

Commands are exercised through cli.main(argv) so exit codes come back as
return values; stdout is checked through capsys where the printed layout is
part of the contract.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scenefuse.cli import main
from scenefuse.evaluation import load_ground_truth
from scenefuse.geometry import CameraIntrinsics, CameraPose, Gaussian3D
from scenefuse.graph import ClassVocabulary, GlobalSSG, load_graph, save_graph
from scenefuse.streams import Detection, FrameRecord, parse_frame_stream, write_frame_stream
from scenefuse.synthetic import load_scene_spec, scene_vocab

SPEC_OBJ = {
    "seed": 3,
    "n_objects": 6,
    "n_classes": 3,
    "n_frames": 40,
    "room_size": [6, 6, 3],
}

NOISY_SPEC_OBJ = {
    "seed": 4,
    "n_objects": 15,
    "n_classes": 5,
    "n_frames": 100,
    "room_size": [6.9, 6.9, 3],
    "noise": {
        "bbox_jitter_px": 2.5,
        "depth_sigma_m": 0.12,
        "false_positive_rate": 0.05,
        "miss_rate": 0.1,
        "class_flip_rate": 0.02,
    },
}


def _write_spec(tmp_path, obj=SPEC_OBJ):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _write_config(tmp_path, spec_path, **extra):
    vocab = scene_vocab(load_scene_spec(spec_path))
    cfg = {
        "vocab": {
            "objects": list(vocab.object_classes),
            "predicates": list(vocab.predicates),
        },
        "record_eval_points": True,
    }
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _synth(tmp_path, spec_path):
    frames = str(tmp_path / "frames.jsonl")
    gt = str(tmp_path / "gt.json")
    assert main(["synth", "--spec", spec_path, "--out-frames", frames, "--out-gt", gt]) == 0
    return frames, gt


def _headline_numbers(report_path):
    doc = json.loads(Path(report_path).read_text())
    return (
        doc["relationship_recall"],
        doc["object_recall"],
        doc["object_mrecall"],
        doc["predicate_recall"],
        doc["predicate_mrecall"],
    )


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_parseable_dataset(tmp_path):
    spec = _write_spec(tmp_path)
    frames_path, gt_path = _synth(tmp_path, spec)
    frames = list(parse_frame_stream(frames_path))
    assert len(frames) == 40
    gt = load_ground_truth(gt_path)
    assert len(gt.instances) == 6
    assert gt.vocab is not None


def test_synth_infeasible_spec_exit_5(tmp_path):
    spec = _write_spec(
        tmp_path,
        {
            "seed": 1,
            "n_objects": 40,
            "n_classes": 2,
            "room_size": [2, 2, 2],
            "object_extent_range": [0.9, 0.95],
        },
    )
    rc = main(["synth", "--spec", spec, "--out-frames", str(tmp_path / "f.jsonl"),
               "--out-gt", str(tmp_path / "g.json")])
    assert rc == 5


def test_synth_bad_spec_file_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_objects": ')
    rc = main(["synth", "--spec", str(bad), "--out-frames", str(tmp_path / "f.jsonl"),
               "--out-gt", str(tmp_path / "g.json")])
    assert rc == 3


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_empty_stream_writes_empty_graph(tmp_path):
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    out = tmp_path / "graph.json"
    assert main(["run", "--input", str(stream), "--output", str(out)]) == 0
    g, _ = load_graph(out)
    assert len(g.nodes) == 0
    assert len(g.edges) == 0


def test_run_missing_input_exit_2(tmp_path):
    rc = main(["run", "--input", str(tmp_path / "absent.jsonl"),
               "--output", str(tmp_path / "g.json")])
    assert rc == 2


def test_run_corrupt_stream_exit_2(tmp_path):
    stream = tmp_path / "corrupt.jsonl"
    stream.write_text("this is not json\n")
    rc = main(["run", "--input", str(stream), "--output", str(tmp_path / "g.json")])
    assert rc == 2
    # a null detection is a malformed line too, not a crash
    frame = {
        "frame_id": 0,
        "camera": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
        "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]},
        "detections": [None],
        "relations": [],
    }
    stream.write_text(json.dumps(frame) + "\n")
    rc = main(["run", "--input", str(stream), "--output", str(tmp_path / "g.json")])
    assert rc == 2
    # so is a line that is not UTF-8
    stream.write_bytes(b'{"a":1}\n\xff\xfe\n')
    rc = main(["run", "--input", str(stream), "--output", str(tmp_path / "g.json")])
    assert rc == 2
    # and a class id beyond the id limit, which would otherwise size the vocabulary
    frame["detections"] = [{"class_id": 200_000, "score": 0.9, "centroid_depth": 2.0,
                            "bbox": {"cx": 320.0, "cy": 240.0, "w": 40.0, "h": 40.0}}]
    stream.write_text(json.dumps(frame) + "\n")
    rc = main(["run", "--input", str(stream), "--output", str(tmp_path / "g.json")])
    assert rc == 2
    assert not (tmp_path / "g.json").exists()


def test_run_drops_a_detection_whose_lift_overflows(tmp_path):
    # a finite box extent of 1e160 px squares to inf in the lift: that
    # detection is dropped, not fused as a node with a NaN covariance
    frame = {
        "frame_id": 0,
        "camera": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
        "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]},
        "detections": [{"class_id": 0, "score": 0.9, "centroid_depth": 2.0,
                        "bbox": {"cx": 320.0, "cy": 240.0, "w": 1e160, "h": 40.0}}],
        "relations": [],
    }
    stream = tmp_path / "huge_box.jsonl"
    stream.write_text(json.dumps(frame) + "\n")
    out = tmp_path / "g.json"
    assert main(["run", "--input", str(stream), "--output", str(out)]) == 0
    g, _ = load_graph(out)
    assert len(g.nodes) == 0
    g.validate()


def test_run_with_a_vocabulary_narrower_than_the_stream_exit_3(tmp_path, capsys):
    # the graph was written, and then --export-dot died with an IndexError
    frame = {
        "frame_id": 0,
        "camera": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
        "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]},
        "detections": [
            {"class_id": 1, "score": 0.9, "centroid_depth": 2.0, "bbox": {"cx": 200.0, "cy": 240.0, "w": 40.0, "h": 40.0}},
            {"class_id": 3, "score": 0.9, "centroid_depth": 2.0, "bbox": {"cx": 400.0, "cy": 240.0, "w": 40.0, "h": 40.0}},
        ],
        "relations": [{"subject": 0, "object": 1, "predicate": 2, "score": 0.8}],
    }
    stream = tmp_path / "frames.jsonl"
    stream.write_text(json.dumps(frame) + "\n")
    out, dot = tmp_path / "g.json", tmp_path / "g.dot"
    for objects, predicates, problem in (
        (["a", "b"], ["on", "near", "under"], "class id 3 is outside the config's vocabulary of 2 names"),
        (["a", "b", "c", "d"], ["on", "near"], "predicate id 2 is outside the config's vocabulary of 2 names"),
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vocab": {"objects": objects, "predicates": predicates}}))
        rc = main(["run", "--input", str(stream), "--config", str(cfg), "--output", str(out),
                   "--export-dot", str(dot)])
        assert rc == 3
        assert problem in capsys.readouterr().err
        assert not out.exists() and not dot.exists()


# Runs in a fresh interpreter: fuses a stream through the CLI, checks that
# neither scipy nor the evaluation and synthetic modules were imported, then
# scores the graph, which may import them.
COLD_START_SCRIPT = """
import sys
OFF_PATH = ("scenefuse.evaluation", "scenefuse.synthetic")
def off_path_loaded():
    return [m for m in OFF_PATH if m in sys.modules]
import scenefuse
assert not off_path_loaded(), off_path_loaded()
assert set(scenefuse.__all__) <= set(dir(scenefuse)) and not off_path_loaded()
from scenefuse.cli import main
assert not off_path_loaded(), off_path_loaded()
assert "orjson" not in sys.modules  # the first parse loads it, not an import
frames, gt_path, cfg, out = sys.argv[1:]
assert main(["run", "--input", frames, "--config", cfg, "--output", out]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
assert not off_path_loaded(), off_path_loaded()
from scenefuse.evaluation import load_ground_truth, match_objects
from scenefuse.graph import load_graph
pred, _ = load_graph(out)
match = match_objects(pred, load_ground_truth(gt_path))
assert len(match.assignment) == len(pred.nodes) == 6, match.assignment
"""


def test_fusion_path_does_not_import_scipy(tmp_path):
    spec = _write_spec(tmp_path)
    frames, gt = _synth(tmp_path, spec)
    cfg = _write_config(tmp_path, spec)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT, frames, gt, cfg, str(tmp_path / "graph.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_run_missing_config_exit_3(tmp_path):
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    rc = main(["run", "--input", str(stream), "--config", str(tmp_path / "absent.json"),
               "--output", str(tmp_path / "g.json")])
    assert rc == 3


def test_run_unknown_config_key_exit_3(tmp_path):
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_knob": 1}')
    rc = main(["run", "--input", str(stream), "--config", str(cfg),
               "--output", str(tmp_path / "g.json")])
    assert rc == 3


def test_run_without_output_exit_3(tmp_path):
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    assert main(["run", "--input", str(stream)]) == 3


def test_run_writes_graph_and_dot(tmp_path):
    spec = _write_spec(tmp_path)
    frames, _ = _synth(tmp_path, spec)
    cfg = _write_config(tmp_path, spec)
    out = tmp_path / "graph.json"
    dot = tmp_path / "graph.dot"
    rc = main(["run", "--input", frames, "--config", cfg, "--output", str(out),
               "--export-dot", str(dot)])
    assert rc == 0
    g, vocab = load_graph(out)
    assert len(g.nodes) == 6
    assert "box" in vocab.object_classes
    text = dot.read_text()
    assert text.startswith("digraph")


def test_run_bench_report(tmp_path, capsys, monkeypatch):
    from scenefuse import cli

    accumulators = []

    class Recorded(cli._StageStats):
        def __init__(self):
            super().__init__()
            accumulators.append(self)

    monkeypatch.setattr(cli, "_StageStats", Recorded)
    spec = _write_spec(tmp_path)
    frames, _ = _synth(tmp_path, spec)
    out = tmp_path / "graph.json"
    rc = main(["run", "--input", frames, "--output", str(out), "--bench"])
    assert rc == 0
    # one fixed-size accumulator per stage: more frames add counts, not entries
    assert len(accumulators) == 3 and all(acc.count == 40 for acc in accumulators)
    state = [(len(acc.bins), sorted(vars(acc))) for acc in accumulators]
    rng = np.random.default_rng(3)
    times = rng.lognormal(-7.0, 1.0, size=20000)
    for t in times.tolist():
        accumulators[0].add(t)
    assert [(len(acc.bins), sorted(vars(acc))) for acc in accumulators] == state
    assert all(isinstance(v, (int, float)) for acc in accumulators for k, v in vars(acc).items() if k != "bins")
    extra = Recorded()
    for t in times.tolist():
        extra.add(t)
    stats = extra.report()
    assert stats["mean_ms"] == pytest.approx(times.mean() * 1e3, rel=1e-12)
    for q in (50, 99):
        assert stats[f"p{q}_ms"] == pytest.approx(np.percentile(times, q) * 1e3, rel=0.012)
    # numpy's linear interpolation between ranks, and the open-ended bins read as the extremes
    for few in ([2e-3, 4e-3], [1e-9, 2e-3, 3e-3], [1e-3, 2e-3, 5e3]):
        short = Recorded()
        for t in few:
            short.add(t)
        for q in (0, 50, 99, 100):
            assert short.percentile(q) == pytest.approx(np.percentile(few, q), rel=0.012)
    bench = json.loads((tmp_path / "graph.bench.json").read_text())
    assert bench["frames"] == 40
    assert bench["fps"] > 0
    for stage in ("parse", "lift", "merge"):
        stats = bench["stages"][stage]
        assert set(stats) == {"mean_ms", "p50_ms", "p99_ms"}
        assert stats["mean_ms"] >= 0.0
        assert stats["p50_ms"] <= stats["p99_ms"]
    text = capsys.readouterr().out
    assert "fps" in text
    assert "merge" in text


def test_run_deterministic_output_bytes(tmp_path):
    spec = _write_spec(tmp_path)
    frames, _ = _synth(tmp_path, spec)
    cfg = _write_config(tmp_path, spec)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", "--input", frames, "--config", cfg, "--output", str(out_a)]) == 0
    assert main(["run", "--input", frames, "--config", cfg, "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def _duplicate_heavy_stream(path, n_frames):
    """Same three detections in every frame, fixed pose; nodes must not grow."""
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    pose = CameraPose(rotation=np.eye(3), translation=np.zeros(3))
    dets = [
        Detection(class_id=0, score=1.0, cx=320.0, cy=240.0, w=100.0, h=100.0, centroid_depth=2.0),
        Detection(class_id=1, score=1.0, cx=200.0, cy=200.0, w=80.0, h=60.0, centroid_depth=3.0),
        Detection(class_id=2, score=1.0, cx=420.0, cy=300.0, w=50.0, h=90.0, centroid_depth=1.5),
    ]
    frames = [
        FrameRecord(frame_id=i, camera=cam, pose=pose, detections=list(dets), relations=[])
        for i in range(n_frames)
    ]
    write_frame_stream(frames, path)


def test_run_node_count_bounded_on_duplicate_heavy_stream(tmp_path):
    stream = tmp_path / "dup.jsonl"
    _duplicate_heavy_stream(stream, 400)
    out = tmp_path / "graph.json"
    assert main(["run", "--input", str(stream), "--output", str(out)]) == 0
    g, _ = load_graph(out)
    assert len(g.nodes) == 3
    # all 400 observations landed somewhere: weight is conserved, not nodes
    assert sum(n.weight for n in g.nodes.values()) == pytest.approx(400 * 3)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_closure_all_recalls_one(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    frames, gt = _synth(tmp_path, spec)
    cfg = _write_config(tmp_path, spec)
    out = tmp_path / "graph.json"
    assert main(["run", "--input", frames, "--config", cfg, "--output", str(out)]) == 0
    report = tmp_path / "report.json"
    rc = main(["eval", "--pred", str(out), "--gt", gt, "--report", str(report)])
    assert rc == 0
    assert _headline_numbers(report) == (1.0, 1.0, 1.0, 1.0, 1.0)
    text = capsys.readouterr().out
    assert "Rel.R" in text and "Obj.mR" in text and "Pred.mR" in text


def test_eval_empty_prediction_all_recalls_zero(tmp_path):
    spec = _write_spec(tmp_path)
    _, gt = _synth(tmp_path, spec)
    vocab = scene_vocab(load_scene_spec(spec))
    pred = tmp_path / "empty_graph.json"
    save_graph(pred, GlobalSSG(), vocab)
    report = tmp_path / "report.json"
    rc = main(["eval", "--pred", str(pred), "--gt", gt, "--report", str(report)])
    assert rc == 0
    assert _headline_numbers(report) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_eval_vocab_mismatch_exit_4(tmp_path):
    spec = _write_spec(tmp_path)
    _, gt = _synth(tmp_path, spec)
    pred = tmp_path / "other.json"
    save_graph(pred, GlobalSSG(), ClassVocabulary(("mug",), ("on",)))
    rc = main(["eval", "--pred", str(pred), "--gt", gt, "--report", str(tmp_path / "r.json")])
    assert rc == 4


def test_eval_refuses_a_graph_with_non_finite_entries_exit_2(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    _, gt = _synth(tmp_path, spec)
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=Gaussian3D(mean=np.array([np.nan, 0.0, 0.0]), cov=np.eye(3)))
    pred = tmp_path / "nan_graph.json"
    save_graph(pred, g, scene_vocab(load_scene_spec(spec)))
    assert "NaN" in pred.read_text()
    rc = main(["eval", "--pred", str(pred), "--gt", gt, "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "node 0: mean is not finite" in capsys.readouterr().err
    # a weight below 1 would make the next merge into the node divide by zero
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=Gaussian3D(mean=np.zeros(3), cov=np.eye(3)), weight=-1)
    save_graph(pred, g, scene_vocab(load_scene_spec(spec)))
    rc = main(["eval", "--pred", str(pred), "--gt", gt, "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "node 0: weight -1 is below 1" in capsys.readouterr().err


def test_eval_headline_row_has_five_numbers(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    frames, gt = _synth(tmp_path, spec)
    cfg = _write_config(tmp_path, spec)
    out = tmp_path / "graph.json"
    main(["run", "--input", frames, "--config", cfg, "--output", str(out)])
    main(["eval", "--pred", str(out), "--gt", gt, "--report", str(tmp_path / "r.json")])
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    header_idx = next(i for i, l in enumerate(lines) if "Rel.R" in l)
    row = lines[header_idx + 1].split()
    assert len(row) == 5
    assert all(0.0 <= float(tok) <= 1.0 for tok in row)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_threshold_single_row(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    rc = main(["sweep", "--thresholds", "0.85", "--spec", spec])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert "delta" in lines[0]
    assert len(lines) == 2
    assert lines[1].split()[0] == "0.850"


def test_sweep_requires_spec_or_input_and_gt(tmp_path):
    assert main(["sweep", "--thresholds", "0.85"]) == 3


def test_sweep_bad_threshold_exit_3(tmp_path):
    spec = _write_spec(tmp_path)
    assert main(["sweep", "--thresholds", "0.85,boom", "--spec", spec]) == 3
    assert main(["sweep", "--thresholds", "1.7", "--spec", spec]) == 3


def test_sweep_object_recall_non_increasing(tmp_path, capsys):
    spec = _write_spec(tmp_path, NOISY_SPEC_OBJ)
    report = tmp_path / "sweep.json"
    rc = main(["sweep", "--thresholds", "0.6,0.85,0.9", "--spec", spec,
               "--report", str(report)])
    assert rc == 0
    rows = json.loads(report.read_text())
    assert [r["hellinger_threshold"] for r in rows] == [0.6, 0.85, 0.9]
    obj = [r["object_recall"] for r in rows]
    assert obj[0] >= obj[1] >= obj[2]
    # at this noise level the trend is strict, not a wall of ties
    assert obj[0] > obj[2]


def test_sweep_deterministic_stdout(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    assert main(["sweep", "--thresholds", "0.6,0.9", "--spec", spec]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "--thresholds", "0.6,0.9", "--spec", spec]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sweep_on_existing_dataset(tmp_path):
    spec = _write_spec(tmp_path)
    frames, gt = _synth(tmp_path, spec)
    report = tmp_path / "sweep.json"
    rc = main(["sweep", "--thresholds", "0.85", "--input", frames, "--gt", gt,
               "--report", str(report)])
    assert rc == 0
    rows = json.loads(report.read_text())
    assert len(rows) == 1
    assert rows[0]["object_recall"] == 1.0
