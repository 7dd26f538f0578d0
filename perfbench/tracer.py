"""Span tracing around the calls into each scenefuse layer.

The tracer replaces the module-level names that callers look up (for
example `scenefuse.fusion.best_match`, which `integrate` calls, and
`scenefuse.streams.read_depth_map`, which `DepthCache` calls) with wrappers
that record one span per call: name, start, end, parent span and trace id.
The trace id is the frame_id of the frame being replayed. Spans stay in
memory and are written out when the replay ends; the per-layer figures are
computed from them afterwards, so the traced path adds only a clock read
and a list append per call.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict

SPAN_NAMES = (
    "frame",
    "streams.parse",
    "streams.read_depth_map",
    "fusion.process_frame",
    "fusion.build_local_graph",
    "fusion.integrate",
    "geometry.lift_detection",
    "accel.best_match",
    "accel.merge_moments_into",
    "graph.merge_point_reservoirs",
    "graph.GlobalSSG.add_node",
    "graph.GlobalSSG.set_gaussian",
    "graph.GlobalSSG.accumulate_edge",
)

# the layers a frame's time is split into; the rest of the frame's time
# (the replay loop and process_frame's own checks) is reported as uncovered
_FRAME_LAYERS = ("streams.parse", "fusion.build_local_graph", "fusion.integrate")

_NAME, _START, _END, _PARENT, _TRACE = range(5)


class Tracer:
    def __init__(self, merge_threshold: float):
        self.spans: list[list] = []  # [name, start, end, parent index, trace id]
        self._stack: list[int] = []
        self._threshold = merge_threshold
        self.candidates = 0
        self.matches = 0
        self.depth_bytes = 0
        self.maps_live = 0
        self.maps_live_peak = 0

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][_END] = clock()
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the layer entry points in the loaded scenefuse modules."""
        from scenefuse import fusion, graph, streams

        w = self._wrap
        fusion.process_frame = w("fusion.process_frame", fusion.process_frame)
        fusion.build_local_graph = w("fusion.build_local_graph", fusion.build_local_graph)
        fusion.integrate = w("fusion.integrate", fusion.integrate)
        fusion.lift_detection = w("geometry.lift_detection", fusion.lift_detection)
        fusion.best_match = w("accel.best_match", fusion.best_match, self._after_match)
        fusion.merge_moments_into = w("accel.merge_moments_into", fusion.merge_moments_into)
        fusion.merge_point_reservoirs = w("graph.merge_point_reservoirs", fusion.merge_point_reservoirs)
        streams.read_depth_map = w("streams.read_depth_map", streams.read_depth_map, self._after_read)
        ssg = graph.GlobalSSG
        ssg.add_node = w("graph.GlobalSSG.add_node", ssg.add_node)
        ssg.set_gaussian = w("graph.GlobalSSG.set_gaussian", ssg.set_gaussian)
        ssg.accumulate_edge = w("graph.GlobalSSG.accumulate_edge", ssg.accumulate_edge)

    def _after_match(self, args, out) -> None:
        # args: query (3), queue set (4), global set (4), det_min
        self.candidates += len(args[6]) + len(args[10])
        if min(out[1], out[3]) < self._threshold:
            self.matches += 1

    def _after_read(self, args, depth_map) -> None:
        self.depth_bytes += depth_map.values.nbytes
        self.maps_live += 1
        self.maps_live_peak = max(self.maps_live_peak, self.maps_live)
        weakref.finalize(depth_map, self._map_freed)

    def _map_freed(self) -> None:
        self.maps_live -= 1

    def open_frame(self, start: float) -> None:
        self._stack.append(len(self.spans))
        self.spans.append(["frame", start, 0.0, -1, -1])

    def add_span(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self._stack[-1], -1])

    def close_frame(self, frame_id: int, end: float) -> None:
        root = self._stack.pop()
        self.spans[root][_END] = end
        for span in self.spans[root:]:
            span[_TRACE] = frame_id

    def drop_frame(self) -> None:
        """Forget an opened frame that never got parsed (end of stream)."""
        del self.spans[self._stack.pop():]

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, trace) in enumerate(self.spans):
                rec = {"id": i, "trace": trace, "name": name, "parent": parent,
                       "start_us": round(start * 1e6, 3), "end_us": round(end * 1e6, 3)}
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, plus the counters."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        self_s = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_s[span[_NAME]] += (span[_END] - span[_START]) - child.get(i, 0.0)
        return {
            "spans": {n: {"calls": calls[n], "total_s": total[n], "self_s": self_s[n]} for n in SPAN_NAMES},
            "uncovered_s": total["frame"] - sum(total[n] for n in _FRAME_LAYERS),
            "candidates": self.candidates,
            "matches": self.matches,
            "depth_bytes": self.depth_bytes,
            "maps_live_peak": self.maps_live_peak,
        }
