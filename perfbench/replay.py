"""One replay of a workload stream, in the fresh process it was started in.

    python3 perfbench/replay.py --src SRC --stream S --config C --output G [--spans F]

Replays the stream the way `scenefuse run` does on its serial path: parse
one frame, `process_frame` it, repeat, then `save_graph`. Closed loop, one
frame in flight, as fast as the engine accepts frames. The replay's wall
time gives fps; a frame's latency is the CPU time of its parse plus its
process_frame (time.thread_time), because on a shared VM the wall time of
single frames mostly shows when the host stopped running the process: on a
2-vCPU cloud VM, wall time exceeded CPU time by a median 4 ms in the slowest
1% of orbit frames. Without --spans it
also times set-up: from before `import scenefuse` until the first frame is
parsed and ready to fuse. With --spans the layer entry points are traced
(see tracer.py) and the spans are written to F at the end.

Between frames, outside every frame's timing, the replay runs a short slice
of fixed reference work about every 0.1 s (see Calibration). Its speed, as a
multiple of the reference speed, is reported with the timings so that the
benchmark can correct them for the host's CPU-speed swings.

Prints one JSON object: timings, the graph's SHA-256 and the output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


CAL_ROUNDS = 200  # rounds per slice, about 5 ms
CAL_PERIOD_S = 0.1
# seconds per round on the machine the bounds were set on (a 2-vCPU Xeon
# VM at 2.0 GHz, Python 3.11, numpy 2.4, in its usual, slower state)
CAL_REF_S_PER_ROUND = 25e-6


class Calibration:
    """Fixed reference work: small-array numpy arithmetic driven by a Python
    loop, the instruction mix of the engine's pure-numpy hot path, written
    here so that no change to scenefuse can alter it. Interleaving it with
    the frames measures the CPU speed the frames actually ran at."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.covs = rng.normal(size=(64, 3, 3))
        self.means = rng.normal(size=(64, 3))
        self.slices: list[tuple[int, float]] = []  # (frames done before it, seconds)

    def run_slice(self, frames_done: int) -> float:
        np, a, m = self.np, self.covs, self.means
        acc = 0.0
        t = time.perf_counter()
        for k in range(CAL_ROUNDS):
            s = 0.5 * (a + a[k % 64])
            d = m - m[k % 64]
            det = s[:, 0, 0] * (s[:, 1, 1] * s[:, 2, 2] - s[:, 1, 2] * s[:, 2, 1])
            acc += float(np.sqrt(np.abs(det)).sum()) + sum(float(x) for x in d[:4, 0])
        self.slices.append((frames_done, time.perf_counter() - t))
        return acc

    @property
    def seconds(self) -> float:
        return sum(s for _, s in self.slices)

    def slowdown(self) -> float:
        """Seconds per round over the reference; above 1 on a slower CPU."""
        return self.seconds / (len(self.slices) * CAL_ROUNDS) / CAL_REF_S_PER_ROUND

    def frame_slowdowns(self, frames: int) -> list[float]:
        """Slowdown of each frame: the mean of the slices just before and
        just after it, so that a slow spell of a fraction of a second is
        charged to the frames that ran in it."""
        per_slice = [s / CAL_ROUNDS / CAL_REF_S_PER_ROUND for _, s in self.slices]
        out = []
        k = 0  # first slice run after frame i
        for i in range(frames):
            while k < len(self.slices) and self.slices[k][0] <= i:
                k += 1
            around = per_slice[max(k - 1, 0):k + 1]
            out.append(sum(around) / len(around))
        return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, help="directory holding the scenefuse package")
    ap.add_argument("--stream", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--spans", help="trace the layers and write the spans here")
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    t_setup = time.perf_counter()
    import numpy as np

    import scenefuse
    from scenefuse import fusion, graph, streams

    cfg = streams.load_run_config(args.config)
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(cfg.fusion.hellinger_threshold)
        tracer.install()
    state = graph.GlobalSSG()
    rng = np.random.default_rng(cfg.seed)
    depth = streams.DepthCache(Path(args.stream).resolve().parent)
    next_frame = streams.parse_frame_stream(args.stream).__next__
    pending = None
    first_parse_s = 0.0
    first_parse_cpu_s = 0.0
    if tracer is None:
        t, c = time.perf_counter(), time.thread_time()
        pending = next_frame()
        first_parse_s = time.perf_counter() - t
        first_parse_cpu_s = time.thread_time() - c
    setup_s = time.perf_counter() - t_setup

    calibration = Calibration(np)
    process = fusion.process_frame
    fcfg, record = cfg.fusion, cfg.record_eval_points
    clock, cpu_clock = time.perf_counter, time.thread_time
    latency_s: list[float] = []
    results = []
    lifted = skipped = raised = 0
    t_start = next_slice = clock()
    while True:
        c0 = cpu_clock()
        t0 = clock()
        if tracer is not None:
            tracer.open_frame(t0)
        if pending is None:
            try:
                frame = next_frame()
            except StopIteration:
                if tracer is not None:
                    tracer.drop_frame()
                break
        else:
            frame, pending = pending, None
            t0 -= first_parse_s
            c0 -= first_parse_cpu_s
        t1 = clock()
        try:
            res = process(frame, state, fcfg, rng=rng, depth_provider=depth, record_eval_points=record)
        except Exception as exc:  # a raising frame is counted and the replay goes on
            print(f"frame {frame.frame_id} raised {exc!r}", file=sys.stderr)
            raised += 1
            res = None
        t2 = clock()
        latency_s.append(cpu_clock() - c0)
        if res is not None:
            lifted += res.lifted
            skipped += res.skipped
        if tracer is not None:
            tracer.add_span("streams.parse", t0, t1)
            tracer.close_frame(frame.frame_id, t2)
            results.append(res)
        if t2 >= next_slice:
            calibration.run_slice(len(latency_s))
            next_slice = clock() + CAL_PERIOD_S
    wall_s = clock() - t_start + first_parse_s - calibration.seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    vocab = graph.ClassVocabulary(tuple(cfg.vocab_objects), tuple(cfg.vocab_predicates))
    graph.save_graph(args.output, state, vocab)
    problems = []
    try:
        state.validate(eval_point_cap=fcfg.eval_point_cap)
    except AssertionError as exc:
        problems.append(f"GlobalSSG.validate failed: {exc}")
    if state.total_weight() != lifted:
        problems.append(f"node weights sum to {state.total_weight()}, frames lifted {lifted}")
    if skipped or raised:
        problems.append(f"{skipped} frames skipped, {raised} raised")

    out = {
        "package": scenefuse.__file__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "slowdown": calibration.slowdown(),
        "frames": len(latency_s),
        "failed_frames": skipped + raised,
        "latency_ms": [round(s * 1e3, 6) for s in latency_s],
        "frame_slowdown": [round(f, 6) for f in calibration.frame_slowdowns(len(latency_s))],
        "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(Path(args.output).read_bytes()).hexdigest(),
        "nodes": len(state.nodes),
        "edges": len(state.edges),
        "eval_points_mb": sum(
            n.eval_points.nbytes for n in state.nodes.values() if n.eval_points is not None
        ) / 1e6,
        "problems": problems,
    }
    if tracer is not None:
        tracer.write(args.spans)
        out["trace"] = tracer.summary()
        done = [r for r in results if r is not None]
        out["trace"]["dropped"] = sum(r.dropped for r in done)
        out["trace"]["merges_global"] = sum(1 for r in done for e in r.merge_events if e.kept_id >= 0)
        out["trace"]["merges_queued"] = sum(1 for r in done for e in r.merge_events if e.kept_id < 0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
