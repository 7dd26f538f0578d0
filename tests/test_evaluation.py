"""Matching protocol and recall metrics."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from scenefuse.errors import EvaluationError, StreamFormatError
from scenefuse.evaluation import (
    GroundTruthInstance,
    GroundTruthScene,
    collect_eval_points,
    compute_recalls,
    format_report,
    load_ground_truth,
    match_objects,
    report_to_obj,
    save_ground_truth,
)
from scenefuse.geometry import Gaussian3D
from scenefuse.graph import ClassVocabulary, GlobalSSG


def _vocab():
    return ClassVocabulary(object_classes=("chair", "table", "lamp"),
                           predicates=("on", "near", "under", "none"))


def _pred_node(g, cid, points, weight=1):
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    mean = pts.mean(axis=0) if len(pts) else np.zeros(3)
    return g.add_node(class_id=cid, gaussian=Gaussian3D(mean=mean, cov=np.eye(3) * 0.01),
                      weight=weight, eval_points=pts if len(pts) else None, eval_seen=len(pts))


def _inst(iid, cid, center, n=5, spread=0.02, seed=0):
    rng = np.random.default_rng(seed + iid)
    return GroundTruthInstance(instance_id=iid, class_id=cid,
                               points=np.asarray(center, dtype=float) + rng.normal(scale=spread, size=(n, 3)))


# -- ground truth io ---------------------------------------------------------


def test_ground_truth_roundtrip(tmp_path):
    scene = GroundTruthScene(
        instances=[_inst(0, 0, [0, 0, 0]), _inst(1, 1, [2, 0, 0])],
        triplets=[(0, 1, 1)],
        vocab=_vocab(),
    )
    p = tmp_path / "gt.json"
    save_ground_truth(p, scene)
    loaded = load_ground_truth(p)
    assert len(loaded.instances) == 2
    np.testing.assert_array_equal(loaded.instances[0].points, scene.instances[0].points)
    assert loaded.triplets == [(0, 1, 1)]
    assert loaded.vocab == _vocab()


def test_ground_truth_validation(tmp_path):
    with pytest.raises(ValueError):
        GroundTruthScene(
            instances=[_inst(0, 0, [0, 0, 0]), _inst(0, 1, [1, 0, 0])], triplets=[]
        ).validate()
    with pytest.raises(ValueError):
        GroundTruthScene(instances=[_inst(0, 0, [0, 0, 0])], triplets=[(0, 9, 0)]).validate()
    p = tmp_path / "bad.json"
    p.write_text('{"instances": []}', encoding="utf-8")
    with pytest.raises(StreamFormatError):
        load_ground_truth(p)
    p.write_text("not json", encoding="utf-8")
    with pytest.raises(StreamFormatError):
        load_ground_truth(p)


def test_collect_eval_points_empty_for_bare_node():
    g = GlobalSSG()
    node = _pred_node(g, 0, [])
    assert collect_eval_points(node).shape == (0, 3)


# -- matching ----------------------------------------------------------------


def test_match_majority_three_to_one():
    # 3 points on instance A, 1 on instance B: 75% > 50%, ratio 1/3 < 75%
    gt = GroundTruthScene(
        instances=[
            GroundTruthInstance(0, 0, np.zeros((1, 3))),
            GroundTruthInstance(1, 0, np.array([[5.0, 0.0, 0.0]])),
        ],
        triplets=[],
    )
    g = GlobalSSG()
    node = _pred_node(g, 0, [[0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01], [5.0, 0.01, 0]])
    m = match_objects(g, gt)
    assert m.assignment == {node.id: 0}
    d = m.diagnostics[node.id]
    assert d.majority_fraction == pytest.approx(0.75)
    assert d.second_over_first_ratio == pytest.approx(1 / 3)


def test_match_even_split_rejected():
    gt = GroundTruthScene(
        instances=[
            GroundTruthInstance(0, 0, np.zeros((1, 3))),
            GroundTruthInstance(1, 0, np.array([[5.0, 0.0, 0.0]])),
        ],
        triplets=[],
    )
    g = GlobalSSG()
    node = _pred_node(g, 0, [[0.01, 0, 0], [0, 0.01, 0], [5.0, 0.01, 0], [5.0, 0, 0.01]])
    m = match_objects(g, gt)
    assert m.assignment == {}
    assert m.diagnostics[node.id].second_over_first_ratio == pytest.approx(1.0)


def test_match_all_points_out_of_radius():
    gt = GroundTruthScene(instances=[GroundTruthInstance(0, 0, np.zeros((1, 3)))], triplets=[])
    g = GlobalSSG()
    node = _pred_node(g, 0, [[0.5, 0, 0], [0, 0.5, 0]])
    m = match_objects(g, gt)
    assert m.assignment == {}
    assert m.diagnostics[node.id].majority_fraction == 0.0


def test_match_radius_is_inclusive():
    gt = GroundTruthScene(instances=[GroundTruthInstance(0, 0, np.zeros((1, 3)))], triplets=[])
    g = GlobalSSG()
    node = _pred_node(g, 0, [[0.1, 0.0, 0.0]])
    assert match_objects(g, gt).assignment == {node.id: 0}


def test_match_unassociated_points_dilute_majority():
    # 2 of 4 points hit instance 0, 2 land nowhere: 50% is not > 50%
    gt = GroundTruthScene(instances=[GroundTruthInstance(0, 0, np.zeros((1, 3)))], triplets=[])
    g = GlobalSSG()
    node = _pred_node(g, 0, [[0.01, 0, 0], [0, 0.01, 0], [9, 9, 9], [8, 8, 8]])
    m = match_objects(g, gt)
    assert m.assignment == {}
    # with the unassociated points excluded instead, the same node matches
    m2 = match_objects(g, gt, count_unassociated=False)
    assert m2.assignment == {node.id: 0}


def test_match_node_without_points_unmatched():
    gt = GroundTruthScene(instances=[GroundTruthInstance(0, 0, np.zeros((1, 3)))], triplets=[])
    g = GlobalSSG()
    node = _pred_node(g, 0, [])
    m = match_objects(g, gt)
    assert m.assignment == {} and m.diagnostics[node.id].n_points == 0


def test_match_one_to_one_greedy_by_count():
    # both nodes prefer instance 0; the one with more points wins, the other
    # stays unmatched even though instance 1 exists
    gt = GroundTruthScene(
        instances=[
            GroundTruthInstance(0, 0, np.zeros((1, 3))),
            GroundTruthInstance(1, 0, np.array([[5.0, 0.0, 0.0]])),
        ],
        triplets=[],
    )
    g = GlobalSSG()
    small = _pred_node(g, 0, [[0.01, 0, 0], [0, 0.01, 0]])
    big = _pred_node(g, 0, [[0.02, 0, 0], [0, 0.02, 0], [0, 0, 0.02]])
    m = match_objects(g, gt)
    assert m.assignment == {big.id: 0}
    assert small.id not in m.assignment


def test_match_empty_prediction_and_empty_gt():
    gt = GroundTruthScene(instances=[GroundTruthInstance(0, 0, np.zeros((1, 3)))], triplets=[])
    assert match_objects(GlobalSSG(), gt).assignment == {}
    g = GlobalSSG()
    _pred_node(g, 0, [[0, 0, 0]])
    m = match_objects(g, GroundTruthScene(instances=[], triplets=[]))
    assert m.assignment == {}


def _match_reference(pred, gt, radius=0.1, majority_min=0.5, runner_up_max=0.75):
    """Brute-force reference: full distance matrix, dict tallies, same rules."""
    if not gt.instances:
        return {}
    gt_pts = np.concatenate([np.asarray(i.points, float) for i in gt.instances])
    owner = []
    for k, inst in enumerate(gt.instances):
        owner += [k] * len(inst.points)
    cands = []
    for nid in sorted(pred.nodes):
        node = pred.nodes[nid]
        pts = node.eval_points
        if pts is None or len(pts) == 0:
            continue
        d = cdist(np.asarray(pts, float), gt_pts)
        counts = {}
        for row in d:
            j = int(row.argmin())
            if row[j] <= radius:
                counts[owner[j]] = counts.get(owner[j], 0) + 1
        if not counts:
            continue
        top = max(counts.values())
        top_idx = min(k for k, c in counts.items() if c == top)
        second = max((c for k, c in counts.items() if k != top_idx), default=0)
        if top / len(pts) > majority_min and second / top < runner_up_max:
            cands.append((-top, nid, top_idx))
    taken, assignment = set(), {}
    for neg_top, nid, k in sorted(cands):
        if k in taken:
            continue
        taken.add(k)
        assignment[nid] = gt.instances[k].instance_id
    return assignment


def _random_scene(rng, n_inst=None, with_pred=True):
    n = int(rng.integers(1, 10)) if n_inst is None else n_inst
    centers = rng.uniform(-3, 3, size=(n, 3))
    instances = [
        GroundTruthInstance(instance_id=100 + i, class_id=int(rng.integers(0, 3)),
                            points=centers[i] + rng.normal(scale=0.03, size=(int(rng.integers(1, 20)), 3)))
        for i in range(n)
    ]
    gt = GroundTruthScene(instances=instances, triplets=[])
    if not with_pred:
        return gt, None
    g = GlobalSSG()
    for i in range(n):
        if rng.random() < 0.8:
            k = int(rng.integers(1, 20))
            noise = rng.normal(scale=0.05, size=(k, 3))
            _pred_node(g, instances[i].class_id, centers[i] + noise)
    for _ in range(int(rng.integers(0, 3))):  # clutter nodes far away
        _pred_node(g, int(rng.integers(0, 3)), rng.uniform(8, 12, size=(int(rng.integers(1, 8)), 3)))
    return gt, g


def test_match_agrees_with_brute_force_reference():
    rng = np.random.default_rng(17)
    for _ in range(50):
        gt, g = _random_scene(rng)
        fast = match_objects(g, gt).assignment
        slow = _match_reference(g, gt)
        assert fast == slow


def test_match_injective_on_random_scenes():
    rng = np.random.default_rng(5)
    for _ in range(30):
        gt, g = _random_scene(rng)
        m = match_objects(g, gt)
        values = list(m.assignment.values())
        assert len(values) == len(set(values))


# -- recalls -----------------------------------------------------------------


def _matched_scene():
    """Two instances (chair, table) cleanly matched, plus their triplet."""
    gt = GroundTruthScene(
        instances=[
            GroundTruthInstance(0, 0, np.zeros((4, 3)) + [0, 0, 0.01] * np.arange(4)[:, None]),
            GroundTruthInstance(1, 1, np.array([[3.0, 0, 0], [3.0, 0, 0.01], [3.0, 0.01, 0]])),
        ],
        triplets=[(0, 1, 0)],
    )
    g = GlobalSSG()
    n0 = _pred_node(g, 0, [[0, 0, 0.005], [0.005, 0, 0], [0, 0.005, 0]])
    n1 = _pred_node(g, 1, [[3.0, 0.005, 0], [3.0, 0, 0.005]])
    return gt, g, n0, n1


def test_object_recall_perfect():
    gt, g, *_ = _matched_scene()
    gt.triplets = []
    m = match_objects(g, gt)
    rep = compute_recalls(m, g, gt, _vocab())
    assert rep.object_recall == 1.0
    assert rep.object_mrecall == 1.0
    assert rep.n_matched == 2


def test_relationship_recall_counts_resolved_predicates():
    gt, g, n0, n1 = _matched_scene()
    gt.triplets = [(0, 1, 0), (1, 0, 2)]
    g.accumulate_edge(n0.id, n1.id, {0: [2, 1.6]})        # correct
    g.accumulate_edge(n1.id, n0.id, {1: [3, 2.0], 2: [1, 0.9]})  # resolves to 1, GT says 2
    m = match_objects(g, gt)
    rep = compute_recalls(m, g, gt, _vocab())
    assert rep.relationship_recall == 0.5
    assert rep.predicate_recall == 0.5


def test_object_recall_per_class_averaging():
    # chairs: 2 of 2 matched, tables: 0 of 1 -> recall 2/3, mRecall 0.5
    gt = GroundTruthScene(
        instances=[
            GroundTruthInstance(0, 0, np.zeros((2, 3))),
            GroundTruthInstance(1, 0, np.full((2, 3), 3.0)),
            GroundTruthInstance(2, 1, np.array([[6.0, 0, 0], [6.0, 0, 0.01]])),
        ],
        triplets=[],
    )
    g = GlobalSSG()
    _pred_node(g, 0, [[0.01, 0, 0], [0, 0.01, 0]])
    _pred_node(g, 0, [[3.01, 3, 3], [3, 3.01, 3]])
    m = match_objects(g, gt)
    rep = compute_recalls(m, g, gt, _vocab())
    assert rep.object_recall == pytest.approx(2 / 3)
    assert rep.per_class_object_recall == {0: 1.0, 1: 0.0}
    assert rep.object_mrecall == pytest.approx(0.5)


def test_wrong_class_match_not_counted_for_objects_but_ok_for_predicates():
    gt, g, n0, n1 = _matched_scene()
    g.nodes[n0.id].class_id = 2  # lamp instead of chair
    g.accumulate_edge(n0.id, n1.id, {0: [1, 0.9]})
    m = match_objects(g, gt)
    rep = compute_recalls(m, g, gt, _vocab())
    # chair instance matched by a lamp node: object recall drops
    assert rep.object_recall == 0.5
    # predicate recall ignores classes: endpoints matched, predicate correct
    assert rep.predicate_recall == 1.0
    # relationship recall requires correct classes
    assert rep.relationship_recall == 0.0


def test_none_predicate_excluded():
    gt, g, n0, n1 = _matched_scene()
    none_pid = _vocab().predicates.index("none")
    gt.triplets = [(0, 1, 0), (0, 1, none_pid)]
    g.accumulate_edge(n0.id, n1.id, {0: [1, 0.9]})
    m = match_objects(g, gt)
    rep = compute_recalls(m, g, gt, _vocab())
    assert rep.n_gt_triplets == 1
    assert rep.relationship_recall == 1.0


def test_missing_edge_counts_as_incorrect():
    gt, g, *_ = _matched_scene()
    m = match_objects(g, gt)
    rep = compute_recalls(m, g, gt, _vocab())
    assert rep.relationship_recall == 0.0
    assert rep.predicate_recall == 0.0


def test_no_endpoint_matched_triplet_zeroes_predicate_recall():
    gt, g, n0, n1 = _matched_scene()
    # instance 1's predicted node loses its points: endpoint unmatched, so
    # triplets exist but none were measurable; that recalls nothing
    g.nodes[n1.id].eval_points = None
    g.nodes[n1.id].eval_seen = 0
    m = match_objects(g, gt)
    rep = compute_recalls(m, g, gt, _vocab())
    assert rep.predicate_recall == 0.0
    assert rep.predicate_mrecall == 0.0
    assert rep.relationship_recall == 0.0


def test_empty_prediction_all_recalls_zero():
    gt, _, *_ = _matched_scene()
    empty = GlobalSSG()
    m = match_objects(empty, gt)
    rep = compute_recalls(m, empty, gt, _vocab())
    assert rep.object_recall == 0.0
    assert rep.predicate_recall == 0.0
    assert rep.relationship_recall == 0.0
    assert rep.object_mrecall == 0.0
    assert rep.predicate_mrecall == 0.0


def test_vocab_mismatch_rejected():
    gt, g, *_ = _matched_scene()
    gt.vocab = ClassVocabulary(object_classes=("sofa",), predicates=("on",))
    m = match_objects(g, gt)
    with pytest.raises(EvaluationError):
        compute_recalls(m, g, gt, _vocab())


def test_class_id_outside_vocab_rejected():
    gt, g, *_ = _matched_scene()
    gt.instances[0].class_id = 99
    m = match_objects(g, gt)
    with pytest.raises(EvaluationError):
        compute_recalls(m, g, gt, _vocab())


def test_relationship_never_exceeds_predicate_recall():
    rng = np.random.default_rng(23)
    for _ in range(20):
        gt, g = _random_scene(rng)
        nids = list(g.nodes)
        for _ in range(int(rng.integers(0, 6))):
            if len(gt.instances) >= 2:
                a, b = rng.choice(len(gt.instances), size=2, replace=False)
                gt.triplets.append((gt.instances[a].instance_id, gt.instances[b].instance_id,
                                    int(rng.integers(0, 3))))
        for _ in range(int(rng.integers(0, 6))):
            if len(nids) >= 2:
                s, o = rng.choice(nids, size=2, replace=False)
                g.accumulate_edge(int(s), int(o), {int(rng.integers(0, 3)): [1, 0.8]})
        m = match_objects(g, gt)
        rep = compute_recalls(m, g, gt, _vocab())
        assert rep.relationship_recall <= rep.predicate_recall + 1e-12
        for v in (rep.object_recall, rep.predicate_recall, rep.relationship_recall,
                  rep.object_mrecall, rep.predicate_mrecall):
            assert 0.0 <= v <= 1.0


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(31)
    for _ in range(10):
        gt, g = _random_scene(rng)
        if len(gt.instances) >= 2:
            gt.triplets = [(gt.instances[0].instance_id, gt.instances[1].instance_id, 1)]
        nids = list(g.nodes)
        if len(nids) >= 2:
            g.accumulate_edge(nids[0], nids[1], {1: [1, 0.9]})
        rep1 = compute_recalls(match_objects(g, gt), g, gt, _vocab())

        # relabel nodes with shuffled ids, keeping all content
        perm = rng.permutation(len(nids))
        new_ids = {nid: 1000 + int(perm[k]) for k, nid in enumerate(nids)}
        g2 = GlobalSSG()
        for nid in nids:
            n = g.nodes[nid]
            g2.add_node(class_id=n.class_id, gaussian=n.gaussian, weight=n.weight,
                        score_sum=n.score_sum, eval_points=n.eval_points,
                        eval_seen=n.eval_seen, node_id=new_ids[nid])
        for (s, o), e in g.edges.items():
            g2.accumulate_edge(new_ids[s], new_ids[o], e.votes)
        # relabel instances too
        inst_map = {inst.instance_id: 500 + k for k, inst in enumerate(reversed(gt.instances))}
        gt2 = GroundTruthScene(
            instances=[GroundTruthInstance(inst_map[i.instance_id], i.class_id, i.points)
                       for i in gt.instances],
            triplets=[(inst_map[s], inst_map[o], p) for s, o, p in gt.triplets],
        )
        rep2 = compute_recalls(match_objects(g2, gt2), g2, gt2, _vocab())
        assert rep1.object_recall == pytest.approx(rep2.object_recall)
        assert rep1.predicate_recall == pytest.approx(rep2.predicate_recall)
        assert rep1.relationship_recall == pytest.approx(rep2.relationship_recall)
        assert rep1.object_mrecall == pytest.approx(rep2.object_mrecall)


def test_single_point_mode_flagged():
    gt = GroundTruthScene(instances=[GroundTruthInstance(0, 0, np.zeros((1, 3)))], triplets=[])
    g = GlobalSSG()
    _pred_node(g, 0, [[0.01, 0, 0]])
    rep = compute_recalls(match_objects(g, gt), g, gt, _vocab())
    assert rep.single_point_mode
    assert rep.object_recall == 1.0


def test_report_serialization_and_formatting():
    gt, g, n0, n1 = _matched_scene()
    g.accumulate_edge(n0.id, n1.id, {0: [1, 0.9]})
    rep = compute_recalls(match_objects(g, gt), g, gt, _vocab())
    obj = report_to_obj(rep)
    assert obj["object_recall"] == 1.0
    assert obj["per_class_object_recall"] == {"0": 1.0, "1": 1.0}
    text = format_report(rep, _vocab())
    assert "object recall" in text and "1.0000" in text
    assert "chair" in text and "on" in text
