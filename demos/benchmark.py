"""Throughput check: orbit a 180-object lot and time every stage.

    python3 demos/benchmark.py [n_frames]

Builds a noise-free stream (18 detections/frame from a jittered floor
grid), runs it through the engine twice (a short first pass keeps
first-call costs such as imports and caches out of the timed pass), and
prints per-stage latency plus end-to-end throughput.
"""

import math
import sys
import time

import numpy as np

from scenefuse import (
    CameraIntrinsics,
    CameraPose,
    Detection,
    FrameRecord,
    FusionConfig,
    GlobalSSG,
    process_frame,
)

UP = np.array([0.0, 0.0, 1.0])


def look_at_origin(eye):
    f = -eye / np.linalg.norm(eye)
    r = np.cross(f, UP)
    r = r / np.linalg.norm(r)
    return CameraPose(rotation=np.column_stack([r, np.cross(f, r), f]), translation=eye)


def build_stream(n_frames, dets_per_frame=18):
    rng = np.random.default_rng(77)
    objects = []
    for i in range(180):
        center = np.array([
            (i % 15 - 7.0) * 1.3 + rng.uniform(-0.25, 0.25),
            (i // 15 - 5.5) * 1.3 + rng.uniform(-0.25, 0.25),
            rng.uniform(0.3, 1.8),
        ])
        objects.append((center, i % 6, rng.uniform(0.4, 0.8, 3)))
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    frames = []
    for fid in range(n_frames):
        angle = 2.0 * math.pi * fid / 360.0
        pose = look_at_origin(np.array([11.5 * math.cos(angle), 11.5 * math.sin(angle), 2.0]))
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
            visible.append(((px - cam.cx) ** 2 + (py - cam.cy) ** 2, px, py,
                            cam.fx * ext[0] / c[2], cam.fy * ext[2] / c[2], float(c[2]), cls))
        visible.sort(key=lambda t: t[0])
        dets = [Detection(class_id=cls, score=1.0, cx=px, cy=py, w=w, h=h, centroid_depth=z)
                for _, px, py, w, h, z, cls in visible[:dets_per_frame]]
        frames.append(FrameRecord(frame_id=fid, camera=cam, pose=pose, detections=dets, relations=[]))
    return frames


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
frames = build_stream(n_frames)

run(frames[:20])  # first-call costs stay out of the timed pass
graph, wall, lift_ms, merge_ms = run(frames)

print(f"fused {n_frames} frames into {len(graph.nodes)} nodes in {wall:.2f}s "
      f"({n_frames / wall:.0f} fps; a 60 fps camera needs 60)")
print()
print(f"per-frame latency (ms){'mean':>10} {'p50':>8} {'p99':>8}")
for name, arr in (("lift", lift_ms), ("merge", merge_ms)):
    print(f"{name:>21} {arr.mean():9.3f} {np.percentile(arr, 50):8.3f} {np.percentile(arr, 99):8.3f}")
