"""Object matching against ground truth and the recall metrics.

Matching associates every recorded evaluation point of a predicted node with
its nearest ground-truth point within a radius, tallies per-instance overlap,
and declares the node a candidate for its top instance only when that
instance holds a strict majority of the node's points and the runner-up
stays clearly behind. Candidates are then assigned greedily (largest overlap
first) under a one-to-one constraint.

Recall definitions, all uncapped (no top-k on predictions):
  object recall        matched GT instances with the correct class / all GT instances
  predicate recall     over GT triplets whose endpoints are both matched (any
                       class): fraction whose predicted edge resolves to the
                       GT predicate
  relationship recall  over all GT triplets: endpoints matched with correct
                       classes AND resolved predicate correct
A predicate named "none" in the vocabulary is excluded from the triplet
metrics entirely. Per-class variants average within one class; mRecall is
the unweighted mean over classes that have at least one member in the
respective denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, StreamFormatError
from .graph import ClassVocabulary, GlobalSSG, ObjectNode, resolve_predicate

MATCH_RADIUS = 0.1
MAJORITY_MIN = 0.5
RUNNER_UP_MAX = 0.75


@dataclass
class GroundTruthInstance:
    instance_id: int
    class_id: int
    points: np.ndarray  # (k, 3) meters, k >= 1


@dataclass
class GroundTruthScene:
    instances: list[GroundTruthInstance]
    triplets: list[tuple[int, int, int]]  # (subject_instance, object_instance, predicate_id)
    vocab: ClassVocabulary | None = None

    def validate(self) -> None:
        ids = [inst.instance_id for inst in self.instances]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate instance ids")
        for inst in self.instances:
            pts = np.asarray(inst.points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
                raise ValueError(f"instance {inst.instance_id} needs a (k,3) point array with k >= 1")
        known = set(ids)
        for s, o, p in self.triplets:
            if s not in known or o not in known:
                raise ValueError(f"triplet ({s},{o},{p}) references unknown instance")
            if p < 0:
                raise ValueError(f"triplet ({s},{o},{p}) has negative predicate id")


def save_ground_truth(path, scene: GroundTruthScene) -> None:
    doc: dict = {
        "instances": [
            {
                "id": inst.instance_id,
                "class_id": inst.class_id,
                "points": [[float(c) for c in p] for p in inst.points],
            }
            for inst in scene.instances
        ],
        "triplets": [[s, o, p] for s, o, p in scene.triplets],
    }
    if scene.vocab is not None:
        doc["vocab"] = {
            "objects": list(scene.vocab.object_classes),
            "predicates": list(scene.vocab.predicates),
        }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


def load_ground_truth(path) -> GroundTruthScene:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        instances = [
            GroundTruthInstance(
                instance_id=int(rec["id"]),
                class_id=int(rec["class_id"]),
                points=np.array(rec["points"], dtype=float).reshape(-1, 3),
            )
            for rec in doc["instances"]
        ]
        triplets = [(int(s), int(o), int(p)) for s, o, p in doc["triplets"]]
        vocab = None
        if "vocab" in doc:
            vocab = ClassVocabulary(
                object_classes=tuple(doc["vocab"]["objects"]),
                predicates=tuple(doc["vocab"]["predicates"]),
            )
        scene = GroundTruthScene(instances=instances, triplets=triplets, vocab=vocab)
        scene.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise StreamFormatError(f"{path}: malformed ground truth: {exc}") from exc
    return scene


def collect_eval_points(node: ObjectNode) -> np.ndarray:
    """The node's recorded evaluation points as an (k, 3) array (k may be 0)."""
    if node.eval_points is None or len(node.eval_points) == 0:
        return np.empty((0, 3))
    return np.asarray(node.eval_points, dtype=float)


@dataclass
class NodeDiagnostics:
    majority_fraction: float
    second_over_first_ratio: float
    top_instance: int | None
    top_count: int
    n_points: int


@dataclass
class MatchResult:
    assignment: dict[int, int]  # node id -> instance id, injective
    diagnostics: dict[int, NodeDiagnostics] = field(default_factory=dict)


def match_objects(
    pred: GlobalSSG,
    gt: GroundTruthScene,
    *,
    radius: float = MATCH_RADIUS,
    majority_min: float = MAJORITY_MIN,
    runner_up_max: float = RUNNER_UP_MAX,
    count_unassociated: bool = True,
) -> MatchResult:
    """One-to-one matching of predicted nodes to ground-truth instances.

    Each node point is associated with the globally nearest GT point if that
    lies within `radius` (inclusive); farther points stay unassociated. A
    node is a candidate for its top-overlap instance iff
    top / denominator > majority_min and second_top / top < runner_up_max,
    where the denominator counts unassociated points too unless
    `count_unassociated` is False. Candidates are assigned greedily by
    descending top count, ties by smaller node id; a candidate whose instance
    was already taken stays unmatched.
    """
    result = MatchResult(assignment={})
    if not gt.instances:
        for nid, node in pred.nodes.items():
            pts = collect_eval_points(node)
            result.diagnostics[nid] = NodeDiagnostics(0.0, 0.0, None, 0, len(pts))
        return result
    gt_points = np.concatenate([np.asarray(inst.points, dtype=float) for inst in gt.instances])
    owner = np.concatenate(
        [np.full(len(inst.points), k, dtype=np.int64) for k, inst in enumerate(gt.instances)]
    )
    # Imported here so that fusing a stream (`scenefuse run`) never loads scipy.
    from scipy.spatial import cKDTree

    tree = cKDTree(gt_points)
    n_inst = len(gt.instances)
    candidates: list[tuple[int, int, int]] = []  # (-top_count, node_id, instance_index)
    for nid in sorted(pred.nodes):
        pts = collect_eval_points(pred.nodes[nid])
        if len(pts) == 0:
            result.diagnostics[nid] = NodeDiagnostics(0.0, 0.0, None, 0, 0)
            continue
        dist, idx = tree.query(pts, k=1)
        associated = dist <= radius
        counts = np.bincount(owner[idx[associated]], minlength=n_inst)
        top_inst = int(np.argmax(counts))
        top = int(counts[top_inst])
        counts[top_inst] = -1
        second = int(counts.max()) if n_inst > 1 else 0
        denom = len(pts) if count_unassociated else int(associated.sum())
        majority = top / denom if denom > 0 else 0.0
        ratio = second / top if top > 0 else 0.0
        result.diagnostics[nid] = NodeDiagnostics(
            majority_fraction=majority,
            second_over_first_ratio=ratio,
            top_instance=gt.instances[top_inst].instance_id if top > 0 else None,
            top_count=top,
            n_points=len(pts),
        )
        if majority > majority_min and ratio < runner_up_max:
            candidates.append((-top, nid, top_inst))
    taken: set[int] = set()
    for neg_top, nid, inst_idx in sorted(candidates):
        if inst_idx in taken:
            continue
        taken.add(inst_idx)
        result.assignment[nid] = gt.instances[inst_idx].instance_id
    return result


@dataclass
class RecallReport:
    object_recall: float
    predicate_recall: float
    relationship_recall: float
    per_class_object_recall: dict[int, float]
    per_class_predicate_recall: dict[int, float]
    object_mrecall: float
    predicate_mrecall: float
    n_gt_instances: int
    n_gt_triplets: int
    n_matched: int
    single_point_mode: bool


def _safe_ratio(num: int, den: int) -> float:
    return num / den if den > 0 else 1.0


def compute_recalls(
    match: MatchResult,
    pred: GlobalSSG,
    gt: GroundTruthScene,
    vocab: ClassVocabulary,
) -> RecallReport:
    """Recall metrics for one scene; see the module docstring for definitions.

    A metric whose ground-truth set is empty is vacuously 1.0 and its
    per-class map stays empty. The predicate metrics, whose denominator is
    the endpoint-matched subset, fall to 0.0 when ground-truth triplets exist
    but none have both endpoints matched: nothing was measured, so nothing
    was recalled. Raises EvaluationError when the ground truth carries a
    vocabulary that disagrees with `vocab`.
    """
    if gt.vocab is not None and gt.vocab != vocab:
        raise EvaluationError("prediction and ground truth vocabularies differ")
    for inst in gt.instances:
        if not (0 <= inst.class_id < len(vocab.object_classes)):
            raise EvaluationError(f"instance {inst.instance_id} class {inst.class_id} outside vocabulary")
    for s, o, p in gt.triplets:
        if not (0 <= p < len(vocab.predicates)):
            raise EvaluationError(f"triplet predicate {p} outside vocabulary")

    none_pid = vocab.predicates.index("none") if "none" in vocab.predicates else None
    inst_class = {inst.instance_id: inst.class_id for inst in gt.instances}
    node_of: dict[int, int] = {iid: nid for nid, iid in match.assignment.items()}

    # object recall: matched and class-correct
    correct_ids = {
        iid for iid, nid in node_of.items() if pred.nodes[nid].class_id == inst_class[iid]
    }
    object_recall = _safe_ratio(len(correct_ids), len(gt.instances))
    per_class_obj: dict[int, float] = {}
    by_class: dict[int, list[int]] = {}
    for inst in gt.instances:
        by_class.setdefault(inst.class_id, []).append(inst.instance_id)
    for cid, members in sorted(by_class.items()):
        per_class_obj[cid] = sum(1 for iid in members if iid in correct_ids) / len(members)
    object_mrecall = (
        sum(per_class_obj.values()) / len(per_class_obj) if per_class_obj else 1.0
    )

    triplets = [(s, o, p) for s, o, p in gt.triplets if p != none_pid]

    def _resolved(s_iid: int, o_iid: int) -> int | None:
        edge = pred.edges.get((node_of[s_iid], node_of[o_iid]))
        return resolve_predicate(edge) if edge is not None else None

    # predicate recall: over endpoint-matched triplets, class-agnostic
    endpoint_matched = [(s, o, p) for s, o, p in triplets if s in node_of and o in node_of]
    pred_correct = sum(1 for s, o, p in endpoint_matched if _resolved(s, o) == p)
    if not triplets:
        predicate_recall = 1.0
    elif not endpoint_matched:
        predicate_recall = 0.0
    else:
        predicate_recall = pred_correct / len(endpoint_matched)
    per_class_pred: dict[int, float] = {}
    by_pred: dict[int, list[tuple[int, int, int]]] = {}
    for s, o, p in endpoint_matched:
        by_pred.setdefault(p, []).append((s, o, p))
    for pid, members in sorted(by_pred.items()):
        per_class_pred[pid] = sum(1 for s, o, p in members if _resolved(s, o) == p) / len(members)
    if per_class_pred:
        predicate_mrecall = sum(per_class_pred.values()) / len(per_class_pred)
    else:
        predicate_mrecall = 1.0 if not triplets else 0.0

    # relationship recall: full triplet correctness over all GT triplets
    rel_correct = 0
    for s, o, p in triplets:
        if s not in node_of or o not in node_of:
            continue
        if pred.nodes[node_of[s]].class_id != inst_class[s]:
            continue
        if pred.nodes[node_of[o]].class_id != inst_class[o]:
            continue
        if _resolved(s, o) == p:
            rel_correct += 1
    relationship_recall = _safe_ratio(rel_correct, len(triplets))

    single_point = all(
        d.n_points <= 1 for d in match.diagnostics.values()
    ) if match.diagnostics else False

    return RecallReport(
        object_recall=object_recall,
        predicate_recall=predicate_recall,
        relationship_recall=relationship_recall,
        per_class_object_recall=per_class_obj,
        per_class_predicate_recall=per_class_pred,
        object_mrecall=object_mrecall,
        predicate_mrecall=predicate_mrecall,
        n_gt_instances=len(gt.instances),
        n_gt_triplets=len(triplets),
        n_matched=len(match.assignment),
        single_point_mode=single_point,
    )


def report_to_obj(report: RecallReport) -> dict:
    return {
        "object_recall": report.object_recall,
        "predicate_recall": report.predicate_recall,
        "relationship_recall": report.relationship_recall,
        "object_mrecall": report.object_mrecall,
        "predicate_mrecall": report.predicate_mrecall,
        "per_class_object_recall": {str(k): v for k, v in sorted(report.per_class_object_recall.items())},
        "per_class_predicate_recall": {str(k): v for k, v in sorted(report.per_class_predicate_recall.items())},
        "n_gt_instances": report.n_gt_instances,
        "n_gt_triplets": report.n_gt_triplets,
        "n_matched": report.n_matched,
        "single_point_mode": report.single_point_mode,
    }


def format_report(report: RecallReport, vocab: ClassVocabulary | None = None) -> str:
    """Human-readable summary table."""
    lines = [
        f"matched predicted nodes      {report.n_matched}",
        f"ground-truth instances       {report.n_gt_instances}",
        f"ground-truth triplets        {report.n_gt_triplets}",
        f"object recall                {report.object_recall:.4f}",
        f"object mRecall               {report.object_mrecall:.4f}",
        f"predicate recall             {report.predicate_recall:.4f}",
        f"predicate mRecall            {report.predicate_mrecall:.4f}",
        f"relationship recall          {report.relationship_recall:.4f}",
    ]
    if report.single_point_mode:
        lines.append("note: single-point evaluation (inline depths only)")
    if vocab is not None and report.per_class_object_recall:
        lines.append("per-class object recall:")
        for cid, r in sorted(report.per_class_object_recall.items()):
            lines.append(f"  {vocab.object_name(cid):<20} {r:.4f}")
    if vocab is not None and report.per_class_predicate_recall:
        lines.append("per-class predicate recall:")
        for pid, r in sorted(report.per_class_predicate_recall.items()):
            lines.append(f"  {vocab.predicate_name(pid):<20} {r:.4f}")
    return "\n".join(lines) + "\n"
