"""scenefuse: streaming fusion of 2D scene-graph detections into a 3D Gaussian scene graph.

The package lifts per-frame 2D object detections (boxes, scores, pairwise
relations) with depth and camera poses into world-frame 3D Gaussians, and
fuses them across frames into a single global semantic scene graph whose
nodes are class-labeled Gaussians and whose directed edges carry predicate
vote tallies. It ships the matching evaluation protocol, a deterministic
synthetic-scene harness, and a CLI (`scenefuse run|eval|synth|sweep`).
"""

from __future__ import annotations

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
from .evaluation import (
    GroundTruthInstance,
    GroundTruthScene,
    MatchResult,
    NodeDiagnostics,
    RecallReport,
    collect_eval_points,
    compute_recalls,
    format_report,
    load_ground_truth,
    match_objects,
    report_to_obj,
    save_ground_truth,
)
from .synthetic import (
    NoiseModel,
    SceneSpec,
    SyntheticScene,
    generate_scene,
    load_scene_spec,
    render_frames,
    scene_vocab,
    spec_from_obj,
    synthesize_dataset,
)

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
