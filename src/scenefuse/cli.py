"""Command-line entry points: run, eval, synth, sweep.

Exit codes, shared by every subcommand:

  0  success
  1  any other pipeline failure
  2  unreadable or corrupt input/output file (I/O and stream-format errors)
  3  configuration problem (bad config file, bad spec file, bad flag value)
  4  evaluation contract violation (e.g. vocabulary mismatch)
  5  scene generation failure

``run`` streams a JSON Lines detection file through the fusion engine a
frame at a time, on one thread, and writes the final graph as JSON. It loads
neither the evaluation nor the synthetic module: the subcommands that use
them import them when they start.
``--bench`` times the parse, lift, and merge stages of every frame and writes
mean/median/p99 per stage plus end-to-end FPS next to the output graph; it
keeps a running sum and a fixed-size histogram per stage, not the times, so
its state does not grow with the stream.

``eval`` matches a saved graph against a ground-truth scene and prints the
five headline recall numbers; ``synth`` materializes a synthetic dataset
from a scene spec; ``sweep`` re-runs the pipeline at several merge
thresholds and prints one recall row per threshold.

The environment variable SCENEFUSE_LOG sets the log level (DEBUG, INFO,
WARNING, ERROR); the default is WARNING.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    EvaluationError,
    GenerationError,
    SceneFuseError,
    StreamFormatError,
)
from .fusion import FusionConfig, process_frame
from .graph import ClassVocabulary, GlobalSSG, load_graph, save_graph, to_dot
from .streams import DepthCache, RunConfig, load_run_config, parse_frame_stream

log = logging.getLogger(__name__)


def _configure_logging() -> None:
    name = os.environ.get("SCENEFUSE_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _timed_frames(path):
    """Yield (parse_seconds, frame) so bench can cost the parse stage
    separately from lift and merge."""
    it = parse_frame_stream(path)
    while True:
        t0 = time.perf_counter()
        try:
            frame = next(it)
        except StopIteration:
            return
        yield time.perf_counter() - t0, frame


# ---------------------------------------------------------------------------
# vocabulary plumbing
# ---------------------------------------------------------------------------


def _vocab_for_run(cfg: RunConfig, g: GlobalSSG) -> ClassVocabulary:
    """Config-supplied vocabulary, or generic names wide enough for the graph.

    ConfigError if the config's vocabulary does not name every class id of
    the graph's nodes and every predicate id of its votes: the graph file
    would hold ids that load_graph refuses, and to_dot could not name them.
    """
    if cfg.vocab_objects is not None and cfg.vocab_predicates is not None:
        vocab = ClassVocabulary(tuple(cfg.vocab_objects), tuple(cfg.vocab_predicates))
        class_ids = (g.nodes[nid].class_id for nid in sorted(g.nodes))
        predicate_ids = (p for key in sorted(g.edges) for p in sorted(g.edges[key].votes))
        for kind, ids, names in (("class", class_ids, vocab.object_classes),
                                 ("predicate", predicate_ids, vocab.predicates)):
            for i in ids:
                if i >= len(names):
                    raise ConfigError(f"{kind} id {i} is outside the config's vocabulary of {len(names)} names")
        return vocab
    n_cls = 1 + max((n.class_id for n in g.nodes.values()), default=-1)
    n_pred = 0
    for edge in g.edges.values():
        if edge.votes:
            n_pred = max(n_pred, 1 + max(edge.votes))
    return ClassVocabulary(
        tuple(f"class_{i}" for i in range(n_cls)),
        tuple(f"predicate_{i}" for i in range(n_pred)),
    )


# ---------------------------------------------------------------------------
# bench accounting
# ---------------------------------------------------------------------------


class _StageStats:
    """Mean, p50 and p99 of one stage's per-frame seconds, in fixed space.

    The mean comes from a running sum. The percentiles come from counts in
    log-spaced bins, PER_DECADE to a decade from LOW seconds up, with one bin
    below LOW and one above the top. A percentile interpolates linearly
    between the samples of the two ranks around it, as numpy's default
    method does, and reads each sample as the geometric centre of its bin,
    clamped to the smallest and largest times seen: within half a bin, about
    1.2%, for times from LOW to the top. A sample in the bin below LOW reads
    as the smallest time, one in the bin above the top as the largest.
    """

    LOW = 1e-8
    PER_DECADE = 100
    SIZE = 11 * PER_DECADE + 2  # LOW to 1000 s, and the two open-ended bins

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.smallest = math.inf
        self.largest = -math.inf
        self.bins = [0] * self.SIZE

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.smallest = min(self.smallest, seconds)
        self.largest = max(self.largest, seconds)
        k = 0
        if seconds >= self.LOW:
            k = min(int(math.log10(seconds / self.LOW) * self.PER_DECADE) + 1, self.SIZE - 1)
        self.bins[k] += 1

    def _sample(self, rank: int) -> float:
        """The sample of 0-based rank `rank`, read from its bin."""
        below = 0
        for k, n in enumerate(self.bins):
            below += n
            if below > rank:
                break
        if k == 0:
            return self.smallest
        if k == self.SIZE - 1:
            return self.largest
        value = self.LOW * 10.0 ** ((k - 0.5) / self.PER_DECADE)
        return min(max(value, self.smallest), self.largest)

    def percentile(self, q: float) -> float:
        position = (self.count - 1) * q / 100.0
        rank = int(position)
        value = self._sample(rank)
        if position > rank:
            value += (position - rank) * (self._sample(rank + 1) - value)
        return value

    def report(self) -> dict:
        if not self.count:
            return {"mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
        return {
            "mean_ms": self.total / self.count * 1e3,
            "p50_ms": self.percentile(50) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
        }


def _bench_report(stages: dict[str, _StageStats], n_frames, wall_seconds, skipped) -> dict:
    return {
        "frames": n_frames,
        "skipped_frames": skipped,
        "wall_seconds": wall_seconds,
        "fps": (n_frames / wall_seconds) if wall_seconds > 0 else 0.0,
        "stages": {name: stats.report() for name, stats in stages.items()},
    }


def _print_bench(report: dict, out) -> None:
    print(f"frames      {report['frames']}", file=out)
    print(f"wall        {report['wall_seconds']:.3f} s", file=out)
    print(f"fps         {report['fps']:.1f}", file=out)
    print("stage          mean_ms    p50_ms    p99_ms", file=out)
    for name in ("parse", "lift", "merge"):
        s = report["stages"][name]
        print(
            f"{name:<12} {s['mean_ms']:9.4f} {s['p50_ms']:9.4f} {s['p99_ms']:9.4f}",
            file=out,
        )


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _execute_run(cfg: RunConfig) -> tuple[GlobalSSG, ClassVocabulary, dict | None]:
    """Shared engine loop for `run` and `sweep`; returns (graph, vocab, bench)."""
    if cfg.input is None:
        raise ConfigError("no input stream given (flag --input or config key)")
    state = GlobalSSG()
    rng = np.random.default_rng(cfg.seed)
    depth = DepthCache(Path(cfg.input).resolve().parent)

    parse, lift, merge = _StageStats(), _StageStats(), _StageStats()
    n_frames = 0
    skipped = 0
    t_start = time.perf_counter()
    for parse_dt, frame in _timed_frames(cfg.input):
        res = process_frame(
            frame,
            state,
            cfg.fusion,
            rng=rng,
            depth_provider=depth,
            record_eval_points=cfg.record_eval_points,
        )
        n_frames += 1
        if res.skipped:
            skipped += 1
        if cfg.bench:
            parse.add(parse_dt)
            lift.add(res.lift_seconds)
            merge.add(res.merge_seconds)
    wall = time.perf_counter() - t_start

    bench = None
    if cfg.bench:
        bench = _bench_report({"parse": parse, "lift": lift, "merge": merge}, n_frames, wall, skipped)
    vocab = _vocab_for_run(cfg, state)
    return state, vocab, bench


def cmd_run(args) -> int:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.input is not None:
        cfg.input = args.input
    if args.output is not None:
        cfg.output = args.output
    if args.export_dot is not None:
        cfg.export_dot = args.export_dot
    if args.record_eval_points:
        cfg.record_eval_points = True
    if args.bench:
        cfg.bench = True
    if cfg.output is None:
        raise ConfigError("no output path given (flag --output or config key)")

    state, vocab, bench = _execute_run(cfg)
    save_graph(cfg.output, state, vocab)
    if cfg.export_dot:
        Path(cfg.export_dot).write_text(to_dot(state, vocab), encoding="utf-8")
    if bench is not None:
        bench_path = Path(cfg.output).with_suffix(".bench.json")
        with open(bench_path, "w", encoding="utf-8") as f:
            json.dump(bench, f, indent=2)
            f.write("\n")
        _print_bench(bench, sys.stdout)
        print(f"bench report  {bench_path}")
    print(f"graph written {cfg.output} ({len(state.nodes)} nodes, {len(state.edges)} edges)")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_HEADLINE_HEADER = f"{'Rel.R':>8} {'Obj.R':>8} {'Obj.mR':>8} {'Pred.R':>8} {'Pred.mR':>8}"


def _headline_row(report) -> str:
    return (
        f"{report.relationship_recall:8.4f} {report.object_recall:8.4f} "
        f"{report.object_mrecall:8.4f} {report.predicate_recall:8.4f} "
        f"{report.predicate_mrecall:8.4f}"
    )


def cmd_eval(args) -> int:
    from .evaluation import compute_recalls, load_ground_truth, match_objects, report_to_obj

    pred, vocab = load_graph(args.pred)
    gt = load_ground_truth(args.gt)
    match = match_objects(pred, gt)
    report = compute_recalls(match, pred, gt, vocab)
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(report_to_obj(report), f, indent=2)
        f.write("\n")
    print(_HEADLINE_HEADER)
    print(_headline_row(report))
    print(f"report written {args.report}")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    from .synthetic import load_scene_spec, synthesize_dataset

    spec = load_scene_spec(args.spec)
    scene = synthesize_dataset(
        spec, args.out_frames, args.out_gt, depth_dir=args.depth_dir
    )
    print(
        f"scene: {len(scene.centers)} objects, {len(scene.gt.triplets)} triplets, "
        f"{len(scene.trajectory)} frames"
    )
    print(f"frames written {args.out_frames}")
    print(f"gt written     {args.out_gt}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_thresholds(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError("threshold list is empty")
    return values


def cmd_sweep(args) -> int:
    from .evaluation import compute_recalls, load_ground_truth, match_objects, report_to_obj
    from .synthetic import load_scene_spec, synthesize_dataset

    thresholds = _parse_thresholds(args.thresholds)
    base = load_run_config(args.config) if args.config else RunConfig()
    base.record_eval_points = True

    with tempfile.TemporaryDirectory(prefix="scenefuse-sweep-") as tmp:
        if args.spec is not None:
            spec = load_scene_spec(args.spec)
            frames_path = str(Path(tmp) / "frames.jsonl")
            gt_path = str(Path(tmp) / "gt.json")
            synthesize_dataset(spec, frames_path, gt_path)
        else:
            if args.input is None or args.gt is None:
                raise ConfigError("sweep needs either --spec or both --input and --gt")
            frames_path, gt_path = args.input, args.gt

        gt = load_ground_truth(gt_path)
        rows = []
        for delta in thresholds:
            cfg = dataclasses.replace(base)
            try:
                cfg.fusion = dataclasses.replace(base.fusion, hellinger_threshold=delta)
                cfg.fusion.validate()
            except ValueError as exc:
                raise ConfigError(f"bad threshold {delta}: {exc}") from exc
            cfg.input = frames_path
            cfg.bench = False
            state, vocab, _ = _execute_run(cfg)
            if gt.vocab is not None:
                vocab = gt.vocab
            match = match_objects(state, gt)
            report = compute_recalls(match, state, gt, vocab)
            rows.append((delta, report))

    print(f"{'delta':>8} {_HEADLINE_HEADER}")
    for delta, report in rows:
        print(f"{delta:8.3f} {_headline_row(report)}")
    if args.report:
        doc = [
            {"hellinger_threshold": delta, **report_to_obj(report)}
            for delta, report in rows
        ]
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"report written {args.report}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenefuse",
        description="Stream 2D scene-graph detections into a global 3D Gaussian scene graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="fuse a detection stream into a graph")
    p_run.add_argument("--input", help="JSON Lines detection stream")
    p_run.add_argument("--config", help="run configuration JSON")
    p_run.add_argument("--output", help="output graph JSON")
    p_run.add_argument("--export-dot", dest="export_dot", help="also write a DOT rendering")
    p_run.add_argument(
        "--record-eval-points",
        dest="record_eval_points",
        action="store_true",
        help="keep a reservoir of lifted centers per node for evaluation",
    )
    p_run.add_argument("--bench", action="store_true", help="collect per-stage latency stats")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a graph against ground truth")
    p_eval.add_argument("--pred", required=True, help="predicted graph JSON")
    p_eval.add_argument("--gt", required=True, help="ground-truth scene JSON")
    p_eval.add_argument("--report", required=True, help="output recall report JSON")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True, help="scene spec JSON")
    p_synth.add_argument("--out-frames", dest="out_frames", required=True, help="output frame stream")
    p_synth.add_argument("--out-gt", dest="out_gt", required=True, help="output ground-truth scene")
    p_synth.add_argument(
        "--depth-dir",
        dest="depth_dir",
        help="also write per-frame depth maps into this directory (relative to the stream)",
    )
    p_synth.set_defaults(func=cmd_synth)

    p_sweep = sub.add_parser("sweep", help="recall table across merge thresholds")
    p_sweep.add_argument(
        "--thresholds", required=True, help="comma-separated merge thresholds, e.g. 0.6,0.85,0.9"
    )
    p_sweep.add_argument("--spec", help="scene spec JSON; dataset is synthesized on the fly")
    p_sweep.add_argument("--input", help="existing frame stream (with --gt)")
    p_sweep.add_argument("--gt", help="ground truth for --input")
    p_sweep.add_argument("--config", help="base run configuration JSON")
    p_sweep.add_argument("--report", help="also write the table as JSON")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (StreamFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SceneFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
