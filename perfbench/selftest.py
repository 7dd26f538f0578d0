"""Self-test of the benchmark's input generators.

    python3 perfbench/selftest.py

Checks that the orbit workload at its default seed is, byte for byte, the
stream the acceptance gate builds (`tests/test_acceptance._benchmark_frames`),
so the benchmark measures the gate's traffic and not a look-alike; and that
the culled depth renderer used for room_depth writes exactly the maps
`synthetic._render_depth_map` writes.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from scenefuse import synthetic  # noqa: E402
from scenefuse.streams import write_frame_stream  # noqa: E402

import workloads  # noqa: E402


def orbit_matches_gate() -> bool:
    from tests.test_acceptance import _benchmark_frames

    gate = _benchmark_frames()
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "orbit.jsonl", Path(tmp) / "gate.jsonl"
        write_frame_stream(workloads.orbit_frames(n_frames=len(gate)), ours)
        write_frame_stream(gate, theirs)
        return ours.read_bytes() == theirs.read_bytes()


def renderer_matches_synthetic() -> bool:
    for room in range(workloads.ROOMS):
        scene = workloads.room_scene(room)
        for pose in scene.trajectory[::7]:
            ours = workloads.render_depth_map(scene, pose).values
            theirs = synthetic._render_depth_map(scene, pose).values
            if ours.tobytes() != theirs.tobytes():
                return False
    return True


def main() -> int:
    ok = True
    for name, check in (("orbit stream equals the gate's", orbit_matches_gate),
                        ("culled depth maps equal synthetic's", renderer_matches_synthetic)):
        passed = check()
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
