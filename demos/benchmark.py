"""Throughput check: orbit a 180-object lot and time every stage.

    python3 demos/benchmark.py [n_frames]

Builds the orbit stream of `synthetic.orbit_frames` (18 noise-free
detections/frame from a jittered floor grid), runs it through the engine twice (a short first pass keeps
first-call costs such as imports and caches out of the timed pass), and
prints per-stage latency plus end-to-end throughput.
"""

import sys
import time

import numpy as np

from scenefuse import FusionConfig, GlobalSSG, process_frame
from scenefuse.synthetic import orbit_frames


def run(frames):
    graph = GlobalSSG()
    cfg = FusionConfig()
    lift_ms, merge_ms = [], []
    t0 = time.perf_counter()
    for frame in frames:
        res = process_frame(frame, graph, cfg)
        lift_ms.append(res.lift_seconds * 1e3)
        merge_ms.append(res.merge_seconds * 1e3)
    wall = time.perf_counter() - t0
    return graph, wall, np.asarray(lift_ms), np.asarray(merge_ms)


n_frames = int(sys.argv[1]) if len(sys.argv) > 1 else 1800
print(f"building {n_frames}-frame stream ...")
frames = orbit_frames(n_frames)

run(frames[:20])  # first-call costs stay out of the timed pass
graph, wall, lift_ms, merge_ms = run(frames)

print(f"fused {n_frames} frames into {len(graph.nodes)} nodes in {wall:.2f}s "
      f"({n_frames / wall:.0f} fps; a 60 fps camera needs 60)")
print()
print(f"per-frame latency (ms){'mean':>10} {'p50':>8} {'p99':>8}")
for name, arr in (("lift", lift_ms), ("merge", merge_ms)):
    print(f"{name:>21} {arr.mean():9.3f} {np.percentile(arr, 50):8.3f} {np.percentile(arr, 99):8.3f}")
