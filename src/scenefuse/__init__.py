"""scenefuse: streaming fusion of 2D scene-graph detections into a 3D Gaussian scene graph.

The package lifts per-frame 2D object detections (boxes, scores, pairwise
relations) with depth and camera poses into world-frame 3D Gaussians, and
fuses them across frames into a single global semantic scene graph whose
nodes are class-labeled Gaussians and whose directed edges carry predicate
vote tallies. It ships the matching evaluation protocol, a deterministic
synthetic-scene harness, and a CLI (`scenefuse run|eval|synth|sweep`).

The names of `evaluation` (ground truth, matching, recalls) and `synthetic`
(scene generation) load on first use: no frame of a stream calls them, yet
every process that fuses a stream would otherwise compile and run both
modules before its first frame. Each such name resolves, on first access, to
the object its submodule defines and is then kept in this module, so `from
scenefuse import match_objects`, `from scenefuse import *` and
`dir(scenefuse)` behave as if the names had been imported here.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

from . import errors
from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    CameraPose,
    Gaussian3D,
    lift_detection,
    lift_detections,
)
from .graph import (
    ClassVocabulary,
    GlobalSSG,
    LocalSSG,
    ObjectNode,
    RelationEdge,
    export_graph,
    import_graph,
    load_graph,
    resolve_predicate,
    save_graph,
    to_dot,
)
from .fusion import (
    FrameResult,
    FusionConfig,
    MergeEvent,
    bhattacharyya,
    build_local_graph,
    hellinger,
    integrate,
    process_frame,
    record_points,
)
from .streams import (
    DepthCache,
    Detection,
    DepthMap,
    FrameRecord,
    Relation2D,
    RunConfig,
    load_run_config,
    parse_frame_stream,
    read_depth_map,
    sample_centroid_depth,
    write_depth_map,
    write_frame_stream,
)
# name -> the submodule that defines it, imported on the name's first use
_LAZY = {
    **dict.fromkeys(
        (
            "GroundTruthInstance",
            "GroundTruthScene",
            "MatchResult",
            "NodeDiagnostics",
            "RecallReport",
            "collect_eval_points",
            "compute_recalls",
            "format_report",
            "load_ground_truth",
            "match_objects",
            "report_to_obj",
            "save_ground_truth",
        ),
        "evaluation",
    ),
    **dict.fromkeys(
        (
            "NoiseModel",
            "SceneSpec",
            "SyntheticScene",
            "generate_scene",
            "load_scene_spec",
            "render_frames",
            "scene_vocab",
            "spec_from_obj",
            "synthesize_dataset",
        ),
        "synthetic",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "errors",
    "BoundingBox2D",
    "CameraIntrinsics",
    "CameraPose",
    "Gaussian3D",
    "lift_detection",
    "lift_detections",
    "ClassVocabulary",
    "GlobalSSG",
    "LocalSSG",
    "ObjectNode",
    "RelationEdge",
    "export_graph",
    "import_graph",
    "load_graph",
    "resolve_predicate",
    "save_graph",
    "to_dot",
    "FrameResult",
    "FusionConfig",
    "MergeEvent",
    "bhattacharyya",
    "build_local_graph",
    "hellinger",
    "integrate",
    "process_frame",
    "record_points",
    "DepthCache",
    "Detection",
    "DepthMap",
    "FrameRecord",
    "Relation2D",
    "RunConfig",
    "load_run_config",
    "parse_frame_stream",
    "read_depth_map",
    "sample_centroid_depth",
    "write_depth_map",
    "write_frame_stream",
    "GroundTruthInstance",
    "GroundTruthScene",
    "MatchResult",
    "NodeDiagnostics",
    "RecallReport",
    "collect_eval_points",
    "compute_recalls",
    "format_report",
    "load_ground_truth",
    "match_objects",
    "report_to_obj",
    "save_ground_truth",
    "NoiseModel",
    "SceneSpec",
    "SyntheticScene",
    "generate_scene",
    "load_scene_spec",
    "render_frames",
    "scene_vocab",
    "spec_from_obj",
    "synthesize_dataset",
]
