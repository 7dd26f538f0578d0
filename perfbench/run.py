"""scenefuse benchmark: replay generated streams through the fusion engine.

    python3 perfbench/run.py --workload orbit --seed 77 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one row each

For one workload and seed the benchmark writes the inputs (untimed, see
workloads.py), runs `scenefuse run` once on them through `scenefuse.cli.main`
as the reference output, and then replays the stream again and again, each
time in a fresh single-threaded process (replay.py), until --seconds of
replay have been measured. The engine is a single in-order writer, so the
replay is a closed loop with one frame in flight; headroom against a 30 or
60 Hz camera shows as fps and frame_ms_p99 against the frame period.

On a shared 2-vCPU cloud VM the CPU speed swings by 15-30% over minutes,
which no affordable run length averages out. Each replay therefore interleaves slices of fixed
reference work with its frames (replay.Calibration), and every time below is
scaled to the reference CPU speed by the measured slowdown: fps is
multiplied by the replay's mean slowdown, set-up time is divided by it, and
for frame_ms_p50 each frame's latency is divided by the slowdown of the
slices around that frame. frame_ms_p99 is left uncorrected: the slowest
frames are mostly those that met slow spells too short for the slices to
see, and over five orbit runs the corrected p99 spread 16% (IQR/median)
against 2% uncorrected. The uncorrected figures are in the details.

--trace 0 reports the end-to-end metrics:
  fps               frames per second of wall time over parse, lift and merge
                    (median over replays)
  frame_ms_p50/p99  latency of one frame: the CPU time of its parse plus its
                    process_frame (see replay.py for why CPU time), over all
                    frames of all replays; when a run has fewer than
                    1000 frames, p99 is replaced by the highest percentile
                    with ten samples above it (the details say which)
  setup_s           from before `import scenefuse` until the first frame is
                    parsed (median over replays)
  peak_rss_mb       peak resident set of a replay process (median)
  frames_ok_ratio   frames neither skipped nor raising, over frames replayed
  object_recall, relationship_recall
                    `match_objects` and `compute_recalls` on the graph.
                    room_depth scores recorded eval points against surface
                    points; orbit and warehouse score each node's mean
                    against the centre of every object the camera reported,
                    and have no relations, so relationship_recall is 1 there.
--trace 1 alternates untraced replays with traced ones (tracer.py) and
reports the per-layer metrics instead.

Every replay is checked: GlobalSSG.validate() passes, node weights sum to
the detections lifted, no frame is skipped or raises, the graph bytes equal
the reference output's, and orbit ends with at most 200 nodes. A replay that
fails a check counts all its frames as failed and makes `correct` false.

The last line of output is one JSON object with `correct`, `attempted`
(frames replayed), `failed` and `metrics`. Details go to stderr and to
.perfbench_work/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_REPLAYS = 3
DEADLINE_S = 140.0  # start no replay after this, so that a run ends well within 180 s
LIMIT_S = 170.0  # a child still running at this point is killed and the run fails
ORBIT_MAX_NODES = 200

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
)

END_TO_END = {
    "fps": "frames/s",
    "frame_ms_p50": "ms",
    "frame_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "frames_ok_ratio": "ratio",
    "object_recall": "ratio",
    "relationship_recall": "ratio",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child(argv: list[str], limit: float) -> str:
    """Run a fresh Python process, killed at perf_counter() == limit, and
    return what it printed."""
    timeout = max(limit - time.perf_counter(), 1.0)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def reference_run(wl, out: Path, limit: float) -> str:
    """`scenefuse run` on the same stream and config; returns the graph's SHA-256."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from scenefuse.cli import main; "
        "sys.exit(main(['run', '--input', sys.argv[2], '--config', sys.argv[3], '--output', sys.argv[4]]))"
    )
    child(["-c", code, str(SRC), str(wl.stream), str(wl.config), str(out)], limit)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def replay(wl, out: Path, spans: Path | None, limit: float) -> dict:
    argv = [str(HERE / "replay.py"), "--src", str(SRC), "--stream", str(wl.stream),
            "--config", str(wl.config), "--output", str(out)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    return json.loads(child(argv, limit).splitlines()[-1])


def score(wl, graph_path: Path) -> dict:
    """Recalls of the reference graph, and the time `scenefuse eval` spends."""
    from scenefuse.evaluation import compute_recalls, match_objects
    from scenefuse.graph import load_graph

    pred, _ = load_graph(graph_path)
    if wl.score_by_mean:
        for node in pred.nodes.values():
            node.eval_points = node.gaussian.mean.reshape(1, 3)
            node.eval_seen = 1
    t0 = time.perf_counter()
    match = match_objects(pred, wl.gt)
    t1 = time.perf_counter()
    report = compute_recalls(match, pred, wl.gt, wl.vocab)
    t2 = time.perf_counter()
    return {
        "object_recall": report.object_recall,
        "relationship_recall": report.relationship_recall,
        "match_objects_ms": (t1 - t0) * 1e3,
        "compute_recalls_ms": (t2 - t1) * 1e3,
        "gt_instances": report.n_gt_instances,
        "gt_triplets": report.n_gt_triplets,
    }


def percentile_with_ten_above(values: list[float], want: float = 99.0) -> tuple[float, float]:
    """The `want` percentile, or the highest one with ten samples above it."""
    import numpy as np

    q = min(want, 100.0 * (1.0 - 10.0 / len(values)))
    return float(np.percentile(values, q)), q


def fps(replays: list[dict]) -> float:
    """Median frames per second over replays, at the reference CPU speed."""
    return statistics.median(r["frames"] / r["wall_s"] * r["slowdown"] for r in replays)


def end_to_end(replays: list[dict], scores: dict, attempted: int, failed: int) -> tuple[dict, dict]:
    raw = [ms for r in replays for ms in r["latency_ms"]]
    corrected = [ms / f for r in replays for ms, f in zip(r["latency_ms"], r["frame_slowdown"])]
    p99, q = percentile_with_ten_above(raw)
    values = {
        "fps": fps(replays),
        "frame_ms_p50": statistics.median(corrected),
        "frame_ms_p99": p99,
        "setup_s": statistics.median(r["setup_s"] / r["slowdown"] for r in replays),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in replays),
        "frames_ok_ratio": 1.0 - failed / attempted,
        "object_recall": scores["object_recall"],
        "relationship_recall": scores["relationship_recall"],
    }
    details = {
        "latency_samples": len(raw),
        "frame_ms_p99_percentile": q,
        "uncorrected": {
            "fps": statistics.median(r["frames"] / r["wall_s"] for r in replays),
            "frame_ms_p50": statistics.median(raw),
            "setup_s": statistics.median(r["setup_s"] for r in replays),
        },
        "slowdown": statistics.median(r["slowdown"] for r in replays),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, details


def per_layer(plain: list[dict], traced: list[dict], scores: dict) -> dict:
    frames = sum(r["frames"] for r in traced)
    spans: dict[str, dict] = {}
    for r in traced:
        for name, s in r["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]

    def count(key: str) -> int:
        return sum(r["trace"][key] for r in traced)

    def per_frame(name: str) -> float:
        return spans[name]["calls"] / frames

    def us_per_call(name: str) -> float:
        calls = spans[name]["calls"]
        return spans[name]["total_s"] / calls * 1e6 if calls else 0.0

    def us_per_frame(name: str, key: str = "total_s") -> float:
        return spans[name][key] / frames * 1e6

    scans = spans["accel.best_match"]["calls"]
    last = traced[-1]
    m = {
        "streams.parse.us_per_frame": (us_per_frame("streams.parse"), "us/frame"),
        "streams.read_depth_map.calls_per_frame": (per_frame("streams.read_depth_map"), "calls/frame"),
        "streams.read_depth_map.us_per_call": (us_per_call("streams.read_depth_map"), "us/call"),
        "streams.read_depth_map.mb_read": (count("depth_bytes") / len(traced) / 1e6, "MB"),
        "streams.depth_maps_live_peak": (max(r["trace"]["maps_live_peak"] for r in traced), "count"),
        "geometry.lift_detection.calls_per_frame": (per_frame("geometry.lift_detection"), "calls/frame"),
        "geometry.lift_detection.us_per_call": (us_per_call("geometry.lift_detection"), "us/call"),
        "fusion.build_local_graph.us_per_frame": (us_per_frame("fusion.build_local_graph"), "us/frame"),
        "fusion.build_local_graph.self_us_per_frame": (
            us_per_frame("fusion.build_local_graph", "self_s"), "us/frame"),
        "fusion.integrate.us_per_frame": (us_per_frame("fusion.integrate"), "us/frame"),
        "fusion.integrate.self_us_per_frame": (us_per_frame("fusion.integrate", "self_s"), "us/frame"),
        "fusion.dropped_per_frame": (count("dropped") / frames, "dets/frame"),
        "fusion.merges_global_per_frame": (count("merges_global") / frames, "merges/frame"),
        "fusion.merges_queued_per_frame": (count("merges_queued") / frames, "merges/frame"),
        "accel.best_match.calls_per_frame": (per_frame("accel.best_match"), "calls/frame"),
        "accel.best_match.us_per_call": (us_per_call("accel.best_match"), "us/call"),
        "accel.best_match.candidates_per_call": (count("candidates") / scans if scans else 0.0, "ids/call"),
        "accel.best_match.merge_ratio": (count("matches") / scans if scans else 0.0, "ratio"),
        "accel.merge_moments_into.calls_per_frame": (per_frame("accel.merge_moments_into"), "calls/frame"),
        "accel.merge_moments_into.us_per_call": (us_per_call("accel.merge_moments_into"), "us/call"),
        "graph.merge_point_reservoirs.calls_per_frame": (
            per_frame("graph.merge_point_reservoirs"), "calls/frame"),
        "graph.merge_point_reservoirs.us_per_call": (us_per_call("graph.merge_point_reservoirs"), "us/call"),
        "graph.GlobalSSG.add_node.calls_per_frame": (per_frame("graph.GlobalSSG.add_node"), "calls/frame"),
        "graph.GlobalSSG.add_node.us_per_call": (us_per_call("graph.GlobalSSG.add_node"), "us/call"),
        "graph.GlobalSSG.set_gaussian.us_per_call": (us_per_call("graph.GlobalSSG.set_gaussian"), "us/call"),
        "graph.GlobalSSG.accumulate_edge.calls_per_frame": (
            per_frame("graph.GlobalSSG.accumulate_edge"), "calls/frame"),
        "graph.nodes_end": (last["nodes"], "count"),
        "graph.edges_end": (last["edges"], "count"),
        "graph.eval_points_mb_end": (last["eval_points_mb"], "MB"),
        "evaluation.match_objects.ms": (scores["match_objects_ms"], "ms"),
        "evaluation.compute_recalls.ms": (scores["compute_recalls_ms"], "ms"),
        "trace.overhead_ratio": (fps(traced) / fps(plain), "ratio"),
        "trace.uncovered_ratio": (count("uncovered_s") / spans["frame"]["total_s"], "ratio"),
    }
    return {k: {"value": float(v), "unit": unit} for k, (v, unit) in m.items()}


def environment() -> dict:
    import numpy
    import scipy

    from scenefuse import _accel

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": bool(_accel.HAVE_NUMBA),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    started = time.perf_counter()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t = time.perf_counter()
        wl = workloads.generate(name, seed, work)
        generate_s = time.perf_counter() - t
        reference = work / "reference.json"
        reference_sha = reference_run(wl, reference, started + LIMIT_S)
        scores = score(wl, reference)

        plain: list[dict] = []
        traced: list[dict] = []
        spans_path = WORK / "results" / f"spans-{name}-{seed}.jsonl"
        while True:
            measured = sum(r["wall_s"] for r in plain + traced)
            enough = measured >= seconds and len(plain) + len(traced) >= MIN_REPLAYS
            if trace:
                enough = enough and min(len(plain), len(traced)) >= 2
            if enough or (time.perf_counter() - started > DEADLINE_S and plain and (traced or not trace)):
                break
            use_trace = trace and len(traced) < len(plain)
            out = work / f"replay{len(plain) + len(traced)}.json"
            r = replay(wl, out, spans_path if use_trace else None, started + LIMIT_S)
            out.unlink()
            (traced if use_trace else plain).append(r)

        replays = plain + traced
        problems = []
        failed = 0
        for i, r in enumerate(replays):
            failures = list(r["problems"])
            if Path(r["package"]).resolve().parent != (SRC / "scenefuse").resolve():
                failures.append(f"imported scenefuse from {r['package']}")
            if r["sha256"] != reference_sha:
                failures.append("graph bytes differ from `scenefuse run` output")
            if name == "orbit" and r["nodes"] > ORBIT_MAX_NODES:
                failures.append(f"{r['nodes']} live nodes > {ORBIT_MAX_NODES}")
            if failures:
                failed += r["frames"]
                problems += [f"replay {i}: {msg}" for msg in failures]
        attempted = sum(r["frames"] for r in replays)
        if trace:
            metrics, details = per_layer(plain, traced, scores), {}
        else:
            metrics, details = end_to_end(replays, scores, attempted, failed)
        details.update(
            workload=name, seed=seed, trace=int(trace), replays=len(replays),
            frames_per_replay=wl.frames, generate_s=generate_s, scores=scores,
            graph_nodes=replays[-1]["nodes"], graph_edges=replays[-1]["edges"],
            per_replay=[{k: r[k] for k in ("setup_s", "wall_s", "slowdown", "frames", "peak_rss_mb")} for r in replays],
            problems=problems, total_s=time.perf_counter() - started,
        )
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "details": details,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="orbit, warehouse, room_depth or all")
    ap.add_argument("--seed", type=int, default=77, help="any integer; taken modulo 2**32")
    ap.add_argument("--seconds", type=float, default=16.0, help="replay time to measure per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "scenefuse" / "__init__.py").is_file():
        log(f"error: no scenefuse package under {SRC}")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path.insert(0, str(SRC))
    import workloads

    args.seed %= 2**32  # numpy seeds must be non-negative
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        log(f"error: unknown workload {args.workload!r}")
        return 2
    env = environment()
    log("environment " + json.dumps(env))
    if env["have_numba"]:
        log("warning: numba is installed; these figures are not the pure-numpy path")
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        res["details"]["environment"] = env
        path = WORK / "results" / f"{name}-{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
        for msg in res["details"]["problems"]:
            log(f"{name}: check failed: {msg}")
        results[name] = res

    if args.workload != "all":
        res = results[args.workload]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    keys = list(next(iter(results.values()))["metrics"])
    units = {k: next(iter(results.values()))["metrics"][k]["unit"] for k in keys}
    header = ["workload"] + [f"{k} [{units[k]}]" for k in keys] + ["correct"]
    rows = [[name] + [f"{res['metrics'][k]['value']:.6g}" for k in keys] + [str(res["correct"])]
            for name, res in results.items()]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0 if all(res["correct"] for res in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
