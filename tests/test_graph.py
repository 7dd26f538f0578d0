"""Graph model: nodes, predicate voting, global graph invariants, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scenefuse.errors import InvalidEdgeError, MergeContractError, StreamFormatError
from scenefuse.geometry import Gaussian3D
from scenefuse.graph import (
    ENTRY_KEY_SEED,
    ClassVocabulary,
    GlobalSSG,
    RelationEdge,
    det9,
    export_graph,
    import_graph,
    load_graph,
    log_det9,
    merge_point_reservoirs,
    resolve_predicate,
    save_graph,
    to_dot,
)

import reference_fusion


def _gauss(mean, var=1.0):
    return Gaussian3D(mean=np.asarray(mean, dtype=float), cov=np.eye(3) * var)


def _vocab():
    return ClassVocabulary(object_classes=("chair", "table", "lamp"), predicates=("on", "near", "under"))


def _populated_graph():
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]), weight=2, score_sum=1.7)
    g.add_node(class_id=1, gaussian=_gauss([1, 0, 0], 2.0), weight=1, score_sum=0.9)
    g.add_node(
        class_id=0,
        gaussian=_gauss([0, 2, 0]),
        weight=3,
        score_sum=2.4,
        eval_points=np.array([[0.0, 2.0, 0.0], [0.1, 2.0, 0.0]]),
        eval_seen=5,
    )
    g.accumulate_edge(0, 1, {0: [2, 1.6], 1: [1, 0.4]})
    g.accumulate_edge(2, 0, {1: [1, 0.8]})
    return g


# -- determinants ------------------------------------------------------------


def test_det3x3_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.normal(size=(3, 3))
        assert det9(a.reshape(9).tolist()) == pytest.approx(np.linalg.det(a), rel=1e-10)


def test_log_det_degenerate_is_minus_inf():
    assert log_det9([0.0] * 9) == -math.inf
    assert log_det9((-np.eye(3)).reshape(9).tolist()) == -math.inf
    # just below the determinant floor
    assert log_det9((np.eye(3) * 1e-11).reshape(9).tolist()) == -math.inf
    assert log_det9(np.eye(3).reshape(9).tolist()) == 0.0


# -- vocabulary --------------------------------------------------------------


def test_vocab_lookup_and_uniqueness():
    v = _vocab()
    assert v.object_name(1) == "table"
    assert v.predicate_name(2) == "under"
    with pytest.raises(ValueError):
        ClassVocabulary(object_classes=("a", "a"), predicates=())
    with pytest.raises(ValueError):
        ClassVocabulary(object_classes=(), predicates=("p", "p"))


# -- predicate resolution ----------------------------------------------------


def test_resolve_strict_majority():
    e = RelationEdge(0, 1, {0: [3, 2.1], 1: [1, 0.9]})
    assert resolve_predicate(e) == 0


def test_resolve_count_tie_breaks_on_score():
    # equal counts, id 1 has the larger score sum
    e = RelationEdge(0, 1, {0: [2, 1.2], 1: [2, 1.5]})
    assert resolve_predicate(e) == 1


def test_resolve_full_tie_prefers_smaller_id():
    e = RelationEdge(0, 1, {7: [1, 0.5], 2: [1, 0.5]})
    assert resolve_predicate(e) == 2


def test_resolve_empty_votes_rejected():
    with pytest.raises(InvalidEdgeError):
        resolve_predicate(RelationEdge(0, 1, {}))


def test_resolve_deterministic_across_insert_order():
    a = RelationEdge(0, 1, {})
    b = RelationEdge(0, 1, {})
    a.add_vote(3, 1, 0.5)
    a.add_vote(1, 1, 0.5)
    b.add_vote(1, 1, 0.5)
    b.add_vote(3, 1, 0.5)
    assert resolve_predicate(a) == resolve_predicate(b) == 1


def test_add_vote_accumulates():
    e = RelationEdge(0, 1, {})
    e.add_vote(2, 1, 0.6)
    e.add_vote(2, 1, 0.3)
    assert e.votes == {2: [2, pytest.approx(0.9)]}


# -- global graph mutation ---------------------------------------------------


def test_add_node_assigns_dense_ids_and_class_index():
    g = _populated_graph()
    assert sorted(g.nodes) == [0, 1, 2]
    assert g.next_id == 3
    everywhere = (-math.inf, math.inf)
    assert sorted(g.x_range(0, *everywhere)) == [0, 2]
    assert g.x_range(1, *everywhere) == [1]
    assert g.x_range(2, *everywhere) == []


def test_add_node_rejects_duplicate_id():
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]), node_id=4)
    with pytest.raises(ValueError):
        g.add_node(class_id=0, gaussian=_gauss([1, 0, 0]), node_id=4)
    # explicit ids advance the counter past themselves
    n = g.add_node(class_id=0, gaussian=_gauss([1, 0, 0]))
    assert n.id == 5


def test_set_gaussian_updates_rows():
    g = _populated_graph()
    new = _gauss([9, 9, 9], 3.0)
    g.set_gaussian(1, new)
    assert g.row_means[1] == [9.0, 9.0, 9.0]
    assert g.row_covs[1] == new.cov.reshape(9).tolist()
    assert g.row_logdets[1] == pytest.approx(math.log(27.0))
    assert g.row_traces[1] == 9.0
    # the rows are the node's only store: its Gaussian is rebuilt from them
    assert g.nodes[1].gaussian.mean.tobytes() == new.mean.tobytes()
    assert g.nodes[1].gaussian.cov.tobytes() == new.cov.tobytes()
    # the graph derives a row's log-det and trace from its covariance
    cov = [2.0, 0.5, 0.0, 0.5, 2.0, 0.0, 0.0, 0.0, 1.5]
    g.set_row(1, [1.0, 2.0, 3.0], cov)
    np.testing.assert_array_equal(g.nodes[1].gaussian.mean, [1.0, 2.0, 3.0])
    assert g.nodes[1].gaussian.cov.reshape(9).tolist() == cov
    assert g.row_logdets[1] == log_det9(cov)
    assert g.row_traces[1] == 5.5
    g.validate()


def test_rows_follow_many_nodes_and_explicit_ids():
    g = GlobalSSG()
    rng = np.random.default_rng(11)
    added = {}
    for i in range(200):
        node = g.add_node(class_id=i % 3, gaussian=_gauss(rng.normal(size=3), 1.0 + rng.random()))
        added[node.id] = node.gaussian
    node = g.add_node(class_id=1, gaussian=_gauss([4, 5, 6]), node_id=300)  # leaves a gap of ids
    added[300] = node.gaussian
    g.validate()
    for nid, gaussian in added.items():
        assert g.row_means[nid] == gaussian.mean.tolist()
        assert g.row_covs[nid] == gaussian.cov.reshape(9).tolist()
        np.testing.assert_array_equal(g.nodes[nid].gaussian.mean, gaussian.mean)


def test_accumulate_edge_rejects_self_loop_and_dangling():
    g = _populated_graph()
    with pytest.raises(InvalidEdgeError):
        g.accumulate_edge(1, 1, {0: [1, 0.5]})
    with pytest.raises(InvalidEdgeError):
        g.accumulate_edge(0, 99, {0: [1, 0.5]})


def test_accumulate_edge_merges_votes():
    g = _populated_graph()
    g.accumulate_edge(0, 1, {0: [1, 0.5], 2: [1, 0.2]})
    assert g.edges[(0, 1)].votes == {0: [3, pytest.approx(2.1)], 1: [1, 0.4], 2: [1, 0.2]}


def test_total_weight():
    assert _populated_graph().total_weight() == 6


def test_validate_detects_row_corruption():
    def corrupt_logdet(g):
        g.row_logdets[1] += 1e-9

    def corrupt_x_order(g):
        g.row_means[0] = [5.0, 0.0, 0.0]  # class 0: node 2 (x = 0) now sorts first

    def lower_trace_bound(g):
        g._trace_bound[0] = 2.9  # both class-0 covariances have trace 3

    def drop_from_x_order(g):
        xs, ids = g._x_order[1]
        del xs[0], ids[0]

    def change_class(g):
        g.nodes[1].class_id = 0  # still in class 1's x order

    def list_twice(g):
        g._x_order[1] = ([0.0, 0.0], [1, 1])

    for corrupt, message in (
        (corrupt_logdet, "log-determinant out of sync"),
        (corrupt_x_order, "x order broken"),
        (lower_trace_bound, "trace bound"),
        (drop_from_x_order, "x order out of sync with nodes"),
        (change_class, "x order class mismatch"),
        (list_twice, "x order out of sync with nodes"),
    ):
        g = _populated_graph()
        g.validate()
        corrupt(g)
        with pytest.raises(AssertionError, match=message):
            g.validate()


def test_validate_detects_eval_key_corruption():
    def key_out_of_range(g):
        g.nodes[2].eval_keys[1] = 1.5

    def key_is_nan(g):
        g.nodes[2].eval_keys[0] = math.nan

    def key_missing(g):
        g.nodes[2].eval_keys = g.nodes[2].eval_keys[:1]

    def keys_without_points(g):
        g.nodes[0].eval_keys = np.array([0.5])

    def points_without_keys(g):
        g.nodes[2].eval_keys = None

    for corrupt, message in (
        (key_out_of_range, r"eval key outside \[0, 1\]"),
        (key_is_nan, r"eval key outside \[0, 1\]"),
        (key_missing, "eval keys do not match eval points"),
        (keys_without_points, "eval keys do not match eval points"),
        (points_without_keys, "eval points without keys"),
    ):
        g = _populated_graph()
        g.nodes[2].eval_keys = np.array([0.25, 0.75])
        g.validate(eval_point_cap=2)
        corrupt(g)
        with pytest.raises(AssertionError, match=message):
            g.validate(eval_point_cap=2)


def test_validate_detects_injected_self_loop():
    g = _populated_graph()
    g.edges[(1, 1)] = RelationEdge(1, 1, {0: [1, 0.5]})
    with pytest.raises(AssertionError):
        g.validate()


def test_validate_checks_eval_point_cap():
    g = _populated_graph()
    g.validate(eval_point_cap=2)
    with pytest.raises(AssertionError):
        g.validate(eval_point_cap=1)


# -- point reservoirs --------------------------------------------------------


def test_reservoir_merge_under_cap_concatenates():
    rng = np.random.default_rng(0)
    a = np.arange(9.0).reshape(3, 3)
    b = np.arange(6.0).reshape(2, 3) + 100
    ka, kb = rng.random(3), rng.random(2)
    merged, keys, seen = merge_point_reservoirs(a, ka, 3, b, kb, 2, 10)
    np.testing.assert_array_equal(merged, np.vstack([a, b]))
    np.testing.assert_array_equal(keys, np.concatenate([ka, kb]))
    assert seen == 5


def test_reservoir_merge_handles_empty_sides():
    b = np.ones((2, 3))
    kb = np.array([0.3, 0.6])
    merged, keys, seen = merge_point_reservoirs(None, None, 0, b, kb, 7, 4)
    np.testing.assert_array_equal(merged, b)
    np.testing.assert_array_equal(keys, kb)
    assert seen == 7
    merged, keys, seen = merge_point_reservoirs(b, kb, 7, np.empty((0, 3)), None, 2, 4)
    np.testing.assert_array_equal(merged, b)
    np.testing.assert_array_equal(keys, kb)
    assert seen == 9
    merged, keys, seen = merge_point_reservoirs(None, None, 0, None, None, 0, 4)
    assert merged is None and keys is None and seen == 0


def test_reservoir_merge_caps_overflow_with_subset():
    rng = np.random.default_rng(5)
    a = np.arange(30.0).reshape(10, 3)
    b = np.arange(30.0).reshape(10, 3) + 1000
    ka, kb = rng.random(10), rng.random(10)
    merged, keys, seen = merge_point_reservoirs(a, ka, 50, b, kb, 10, 12)
    assert merged.shape == (12, 3)
    assert seen == 60
    union = {tuple(p) for p in np.vstack([a, b])}
    assert all(tuple(p) in union for p in merged)
    np.testing.assert_array_equal(np.sort(keys), np.sort(np.concatenate([ka, kb]))[-12:])


def test_reservoir_merge_with_keys_is_deterministic():
    # the merge is a function of its inputs, which it leaves as they were
    a = np.arange(30.0).reshape(10, 3)
    b = a + 50
    keys = np.random.default_rng(1).random(20)
    before = keys.copy()
    m1, k1, _ = merge_point_reservoirs(a, keys[:10], 10, b, keys[10:], 10, 8)
    m2, k2, _ = merge_point_reservoirs(a, keys[:10], 10, b, keys[10:], 10, 8)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(k1, k2)
    k1[:] = 2.0
    np.testing.assert_array_equal(keys, before)


def test_reservoir_merge_keeps_earlier_points_on_equal_keys():
    a = np.arange(12.0).reshape(4, 3)
    merged, keys, _ = merge_point_reservoirs(
        a[:2], np.array([0.5, 0.9]), 2, a[2:], np.array([0.5, 0.5]), 2, 2)
    np.testing.assert_array_equal(merged, a[:2])
    np.testing.assert_array_equal(keys, [0.5, 0.9])


def _leaf(rng, first_id: int, offered: int, cap: int):
    """A reservoir of `offered` original points (ids in column 0), as a lift makes one."""
    pts = np.zeros((offered, 3))
    pts[:, 0] = np.arange(first_id, first_id + offered)
    keys = rng.random(offered)
    keep = np.sort(np.argsort(-keys)[:cap])
    return pts[keep], keys[keep], offered


def _fold(rng, leaves, cap):
    """Merge the reservoirs pairwise in a random tree."""
    pool = list(leaves)
    while len(pool) > 1:
        i, j = sorted(rng.choice(len(pool), size=2, replace=False).tolist())
        a, b = pool[i], pool.pop(j)
        pool[i] = merge_point_reservoirs(a[0], a[1], a[2], b[0], b[1], b[2], cap)
    return pool[0]


def test_reservoir_merge_trees_sample_every_point_uniformly():
    rng = np.random.default_rng(2006)
    cap, sizes, trials = 6, [1, 3, 8, 2, 12, 5, 1, 9], 3000
    total = sum(sizes)
    firsts = np.cumsum([0] + sizes[:-1]).tolist()
    counts = np.zeros(total)
    for _ in range(trials):
        leaves = [_leaf(rng, f, n, cap) for f, n in zip(firsts, sizes)]
        points, keys, seen = _fold(rng, leaves, cap)
        assert seen == total and len(points) == cap and keys.shape == (cap,)
        counts[points[:, 0].astype(int)] += 1
    p = cap / total
    sigma = math.sqrt(trials * p * (1.0 - p))
    assert np.all(np.abs(counts - trials * p) <= 4.0 * sigma), counts / trials


def test_reservoir_merge_is_associative_with_keys():
    rng = np.random.default_rng(9)
    for cap in (1, 3, 7):
        for _ in range(50):
            a, b, c = (_leaf(rng, 100 * i, int(rng.integers(1, 12)), cap) for i in range(3))
            ab = merge_point_reservoirs(*a, *b, cap)
            left = merge_point_reservoirs(*ab, *c, cap)
            bc = merge_point_reservoirs(*b, *c, cap)
            right = merge_point_reservoirs(*a, *bc, cap)
            assert left[0].tobytes() == right[0].tobytes()
            assert left[1].tobytes() == right[1].tobytes()
            assert left[2] == right[2]


def test_reservoir_merge_keyless_side_weighs_by_seen():
    # one point kept of a side that enters a graph without keys, whose 3 points
    # stand for 4 originals each, and a keyed side of 6 points seen once: with
    # cap 1, the entry keys (A-ES) keep each point with probability
    # proportional to its weight; every node id seeds its own keys
    rng = np.random.default_rng(17)
    a = np.zeros((3, 3))
    a[:, 0] = [0, 1, 2]
    b = np.zeros((6, 3))
    b[:, 0] = np.arange(3, 9)
    trials = 20000
    counts = np.zeros(9)
    g = GlobalSSG()
    for _ in range(trials):
        node = g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]), eval_points=a, eval_seen=12)
        points, keys, seen = merge_point_reservoirs(a, node.eval_keys, 12, b, rng.random(6), 6, 1)
        assert seen == 18 and keys.shape == (1,)
        counts[int(points[0, 0])] += 1
    p = np.array([4.0] * 3 + [1.0] * 6) / 18.0
    sigma = np.sqrt(trials * p * (1.0 - p))
    assert np.all(np.abs(counts - trials * p) <= 4.0 * sigma), counts / trials


def _successive_inclusion(w: np.ndarray, cap: int) -> np.ndarray:
    """Exact inclusion probabilities of `cap` successive draws without
    replacement, each in proportion to the weights left."""
    incl = np.zeros(len(w))

    def walk(taken: tuple, prob: float) -> None:
        if len(taken) == cap:
            incl[list(taken)] += prob
            return
        left = w.sum() - w[list(taken)].sum()
        for i in range(len(w)):
            if i not in taken:
                walk(taken + (i,), prob * w[i] / left)

    walk((), 1.0)
    return incl


def test_reservoir_merge_keyless_sides_match_successive_sampling():
    # with a larger cap, the entry keys (A-ES) that add_node gives two keyless
    # sides select as successive weighted draws without replacement do, in
    # proportion to seen/len
    a = np.zeros((4, 3))
    a[:, 0] = np.arange(4)
    b = np.zeros((5, 3))
    b[:, 0] = np.arange(4, 9)
    trials, cap = 20000, 4
    counts = np.zeros(9)
    g = GlobalSSG()
    for _ in range(trials):
        node_a = g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]), eval_points=a, eval_seen=10)
        node_b = g.add_node(class_id=0, gaussian=_gauss([1, 0, 0]), eval_points=b, eval_seen=5)
        points, _, _ = merge_point_reservoirs(a, node_a.eval_keys, 10, b, node_b.eval_keys, 5, cap)
        counts[points[:, 0].astype(int)] += 1
    p = _successive_inclusion(np.array([10 / 4] * 4 + [5 / 5] * 5), cap)
    assert p.sum() == pytest.approx(cap)
    sigma = np.sqrt(trials * p * (1.0 - p))
    assert np.all(np.abs(counts - trials * p) <= 4.0 * sigma), (counts / trials, p)


# -- serialization -----------------------------------------------------------


def test_moved_nodes_keep_the_x_order_among_equal_x():
    # many nodes share each x, so a moved node is found by bisecting its old x
    # and stepping over the others at that x
    g = GlobalSSG()
    rng = np.random.default_rng(3)
    shared = [0.0, 1.0, 2.0]
    for i in range(45):
        g.add_node(class_id=0, gaussian=_gauss([shared[i % 3], float(i), 0.0]))
    cov = np.eye(3).reshape(9).tolist()
    for step in range(200):
        nid = int(rng.integers(45))
        x = float(rng.choice(shared + [0.5, 1.5]))  # to a shared x, or a new one
        g.set_row(nid, [x, float(step), 0.0], list(cov))
        g.validate()
        assert sorted(g.x_range(0, x, x)) == [i for i in sorted(g.nodes) if g.row_means[i][0] == x]


def _same_array(lazy, eager):
    if lazy is None or eager is None:
        assert lazy is None and eager is None
    else:
        assert lazy.dtype == eager.dtype and lazy.shape == eager.shape
        assert lazy.tobytes() == eager.tobytes()


@st.composite
def _reservoir_scripts(draw):
    """A cap, a node's starting reservoir and a sequence of merges and reads.

    Keys often take one of five values, so that ties fall at the cut; each
    point's coordinates are unique, so that any change of order shows. A
    merge now and then passes another cap. A starting reservoir may come
    without keys, which the node draws on entry; merged chunks have keys.
    """
    cap = draw(st.integers(1, 5))
    labels = iter(range(10 ** 6))

    def reservoir(kind, size):
        if kind == "none":
            return None, None
        points = np.array([[next(labels)] * 3 for _ in range(size)], dtype=np.float64).reshape(size, 3)
        if kind == "keyless":
            return points, None
        keys = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
                             min_size=size, max_size=size))
        return points, np.array(keys, dtype=np.float64)

    kind = draw(st.sampled_from(["none", "keyed", "keyless"]))
    points, keys = reservoir(kind, draw(st.integers(0, 2 * cap)))
    start = (points, keys, (0 if points is None else len(points)) + draw(st.integers(0, 3)))
    steps = []
    for _ in range(draw(st.integers(0, 25))):
        op = draw(st.sampled_from(["merge"] * 6 + ["points", "keys", "validate"]))
        if op == "merge":
            kind = draw(st.sampled_from(["none", "keyed", "keyed", "keyed"]))
            points, keys = reservoir(kind, draw(st.integers(0, 3 * cap)))
            seen = (0 if points is None else len(points)) + draw(st.integers(0, 3))
            steps.append((op, points, keys, seen, draw(st.sampled_from([cap] * 5 + [1, 3]))))
        else:
            steps.append((op,))
    return cap, start, steps


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_reservoir_scripts())
def test_lazy_reservoir_merges_equal_the_eager_chain(script):
    # a global node's merge_eval_points defers keyed chunks; whatever is read,
    # and at the end, it must hold what the chain of merge_point_reservoirs
    # calls would, bit for bit; and so must a node that is only handed the
    # points above its floor
    cap, (points, keys, seen), steps = script
    g = GlobalSSG()
    node = g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]), eval_points=points, eval_keys=keys, eval_seen=seen)
    floored = g.add_node(class_id=0, gaussian=_gauss([1, 0, 0]), eval_points=points, eval_keys=node.eval_keys,
                         eval_seen=seen)
    eager = (points, node.eval_keys, seen)
    for step in steps:
        if step[0] == "merge":
            _, points, keys, seen, merge_cap = step
            node.merge_eval_points(points, keys, seen, merge_cap)
            if points is None:
                floored.merge_eval_points(points, keys, seen, merge_cap)
            else:
                above = keys > floored.eval_floor(merge_cap)
                floored.merge_eval_points(points[above], keys[above], seen, merge_cap)
            if eager[0] is None and points is None:
                eager = (None, eager[1], eager[2] + seen)
            else:
                eager = merge_point_reservoirs(*eager, points, keys, seen, merge_cap)
            assert node.eval_seen == floored.eval_seen == eager[2]
        elif step[0] == "points":
            _same_array(node.eval_points, eager[0])
            _same_array(floored.eval_points, eager[0])
        elif step[0] == "keys":
            _same_array(node.eval_keys, eager[1])
            _same_array(floored.eval_keys, eager[1])
        else:
            pending = list(node._pending)
            g.validate()
            if eager[0] is None or len(eager[0]) <= cap:
                g.validate(eval_point_cap=cap)
            else:
                with pytest.raises(AssertionError, match="eval point cap exceeded"):
                    g.validate(eval_point_cap=cap)
            assert list(node._pending) == pending  # validate does not compact
    for n in (node, floored):
        _same_array(n.eval_points, eager[0])
        _same_array(n.eval_keys, eager[1])
        assert n.eval_seen == eager[2]
    g.validate()


def test_validate_checks_eval_seen_covers_the_points_held():
    g = GlobalSSG()
    node = g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]), eval_points=np.zeros((3, 3)), eval_seen=3)
    g.validate()
    node.eval_seen = 2
    with pytest.raises(AssertionError, match="node 0: holds 3 eval points but has seen 2"):
        g.validate()


def _full_node(cap, keys):
    """A graph with one node whose held reservoir was compacted from keys."""
    g = GlobalSSG()
    node = g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]))
    node.merge_eval_points(np.arange(3.0 * len(keys)).reshape(-1, 3), np.array(keys), len(keys), cap)
    node.merge_eval_points(np.full((1, 3), -1.0), np.array([0.0]), 1, cap)
    node._compact()
    return g, node


def test_eval_floor_is_the_smallest_key_of_a_full_held_reservoir():
    g, node = _full_node(3, [0.2, 0.9, 0.4, 0.6, 0.4])
    _same_array(node.eval_keys, np.array([0.9, 0.4, 0.6]))
    assert node.eval_floor(3) == 0.4 and node.eval_floor(4) == -math.inf
    g.validate(eval_point_cap=3)
    # a chunk whose keys are all at or below the floor changes only eval_seen
    points, keys, seen = node.eval_points.copy(), node.eval_keys.copy(), node.eval_seen
    node.merge_eval_points(np.full((4, 3), 7.0), np.array([0.4, 0.1, 0.4, 0.0]), 6, 3)
    _same_array(node.eval_points, points)
    _same_array(node.eval_keys, keys)
    assert node.eval_seen == seen + 6 and node.eval_floor(3) == 0.4
    # one key above it is kept, and raises the floor
    node.merge_eval_points(np.full((1, 3), 8.0), np.array([0.5]), 1, 3)
    _same_array(node.eval_keys, np.array([0.9, 0.6, 0.5]))
    assert node.eval_floor(3) == 0.5
    g.validate(eval_point_cap=3)
    # a held reservoir below the cap has no floor
    _, short = _full_node(8, [0.2, 0.9, 0.4])
    assert short.eval_floor(8) == -math.inf


def test_eval_point_setters_clear_the_floor():
    for setter in ("eval_points", "eval_keys"):
        g, node = _full_node(2, [0.3, 0.7, 0.5])
        assert node.eval_floor(2) == 0.5
        setattr(node, setter, getattr(node, setter)[:1])
        assert node.eval_floor(2) == -math.inf
        other = "eval_keys" if setter == "eval_points" else "eval_points"
        setattr(node, other, getattr(node, other)[:1])
        g.validate()


def test_a_merge_under_another_cap_voids_the_floor_until_it_compacts():
    g, node = _full_node(2, [0.3, 0.7, 0.5])
    assert node.eval_floor(2) == 0.5
    # under cap 4 the held points no longer fill the reservoir
    node.merge_eval_points(np.full((1, 3), 5.0), np.array([0.1]), 1, 4)
    assert node.eval_floor(4) == node.eval_floor(2) == -math.inf
    g.validate()
    node._compact()
    assert node.eval_floor(4) == -math.inf  # three points held under cap 4
    node.merge_eval_points(np.full((2, 3), 6.0), np.array([0.2, 0.05]), 2, 4)
    node._compact()
    _same_array(node.eval_keys, np.array([0.7, 0.5, 0.1, 0.2]))
    assert node.eval_floor(4) == 0.1 and node.eval_floor(2) == -math.inf
    g.validate(eval_point_cap=4)


def test_validate_checks_the_eval_floor():
    g, node = _full_node(2, [0.3, 0.7, 0.5])
    node._floor = 0.3  # not the smallest held key
    with pytest.raises(AssertionError, match="node 0: eval floor is not the smallest key of a full held reservoir"):
        g.validate()
    g, node = _full_node(4, [0.3, 0.7, 0.5])
    node._floor = 0.3  # three points held under cap 4
    with pytest.raises(AssertionError, match="eval floor"):
        g.validate()


def test_lazy_reservoir_holds_at_most_twice_the_cap_plus_a_chunk():
    # keyed chunks of 3 points under a cap of 4: they wait until the held and
    # pending points would exceed 8, then compact to the 4 largest keys
    cap = 4
    g = GlobalSSG()
    node = g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]))
    keys_rng = np.random.default_rng(1)
    held_and_pending = []
    for step in range(8):
        node.merge_eval_points(np.full((3, 3), float(step)), keys_rng.random(3), 3, cap)
        held = 0 if node._points is None else len(node._points)
        held_and_pending.append((held, node._pending_n))
        assert held + node._pending_n <= 2 * cap
        g.validate(eval_point_cap=cap)
    assert held_and_pending == [(0, 3), (0, 6), (4, 0), (4, 3), (4, 0), (4, 3), (4, 0), (4, 3)]
    assert node.eval_points.shape == (4, 3) and not node._pending and node.eval_seen == 24
    # a lone chunk is the node's reservoir whole, as in the eager merge, so
    # one above the cap fails validation before it is ever compacted
    g_lone = GlobalSSG()
    lone = g_lone.add_node(class_id=0, gaussian=_gauss([1, 0, 0]))
    lone.merge_eval_points(np.zeros((6, 3)), keys_rng.random(6), 6, cap)
    with pytest.raises(AssertionError, match="eval point cap exceeded"):
        g_lone.validate(eval_point_cap=cap)
    assert lone._pending_n == 6 and lone.eval_points.shape == (6, 3)
    # a node that breaks the bound is caught without compacting it
    node.merge_eval_points(np.zeros((3, 3)), keys_rng.random(3), 3, cap)
    node._pending_n += 2
    with pytest.raises(AssertionError, match="pending count out of sync"):
        g.validate()
    node._pending[0] = (np.zeros((5, 3)), keys_rng.random(5))
    with pytest.raises(AssertionError, match="pending points exceed twice the cap"):
        g.validate()


def test_lazy_reservoir_compacts_before_the_cap_changes():
    # chunks that wait under one cap are cut to it before a merge under
    # another, and the bound of twice the cap holds for the new cap
    keys_rng = np.random.default_rng(4)
    for caps in ((4, 4, 8), (4, 4, 2)):
        g = GlobalSSG()
        node = g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]))
        eager = (None, None, 0)
        for i, cap in enumerate(caps):
            points, keys = np.full((3, 3), float(i)), keys_rng.random(3)
            node.merge_eval_points(points, keys, 3, cap)
            eager = merge_point_reservoirs(*eager, points, keys, 3, cap)
            g.validate()
        _same_array(node.eval_points, eager[0])
        _same_array(node.eval_keys, eager[1])


def test_keyless_eval_points_refuse_a_merge_before_the_node_changes():
    # assigning points without keys stays legal (a scorer may set a node's
    # mean as its only point); merging into them, or merging a keyless
    # chunk, is a contract error that leaves the node as it was
    g = GlobalSSG()
    node = g.add_node(class_id=0, gaussian=_gauss([0, 0, 0]))
    node.eval_points = np.zeros((2, 3))
    node.eval_seen = 2
    with pytest.raises(MergeContractError, match="without keys"):
        node.merge_eval_points(np.ones((1, 3)), np.array([0.5]), 1, 8)
    _same_array(node.eval_points, np.zeros((2, 3)))
    assert node.eval_keys is None and node.eval_seen == 2
    keyed = g.add_node(class_id=0, gaussian=_gauss([1, 0, 0]), eval_points=np.zeros((1, 3)), eval_seen=1)
    before = keyed.eval_keys.copy()
    with pytest.raises(MergeContractError, match="without keys"):
        keyed.merge_eval_points(np.ones((1, 3)), None, 1, 8)
    _same_array(keyed.eval_keys, before)
    assert keyed.eval_seen == 1
    # an empty chunk needs no keys
    keyed.merge_eval_points(None, None, 1, 8)
    assert keyed.eval_seen == 2


def test_export_empty_graph():
    doc = export_graph(GlobalSSG(), _vocab())
    assert doc["nodes"] == []
    assert doc["edges"] == []
    assert doc["vocab"]["objects"] == ["chair", "table", "lamp"]


def test_export_single_node_shape():
    g = GlobalSSG()
    g.add_node(class_id=1, gaussian=Gaussian3D(mean=np.array([1.0, 2.0, 3.0]), cov=np.diag([1.0, 2.0, 3.0])))
    doc = export_graph(g, _vocab())
    (rec,) = doc["nodes"]
    assert rec["id"] == 0 and rec["class_id"] == 1 and rec["weight"] == 1
    assert rec["mean"] == [1.0, 2.0, 3.0]
    assert rec["cov"] == [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0]
    assert "eval_points" not in rec


def test_export_orders_and_resolves():
    g = _populated_graph()
    doc = export_graph(g, _vocab())
    assert [n["id"] for n in doc["nodes"]] == [0, 1, 2]
    assert [(e["subject"], e["object"]) for e in doc["edges"]] == [(0, 1), (2, 0)]
    assert doc["edges"][0]["predicate"] == 0
    assert list(doc["edges"][0]["votes"]) == ["0", "1"]
    assert doc["nodes"][2]["eval_points_seen"] == 5


def test_roundtrip_preserves_everything():
    g = _populated_graph()
    doc = export_graph(g, _vocab())
    g2, vocab2 = import_graph(doc)
    assert vocab2 == _vocab()
    assert sorted(g2.nodes) == sorted(g.nodes)
    for nid, n in g.nodes.items():
        m = g2.nodes[nid]
        assert (m.class_id, m.weight, m.score_sum) == (n.class_id, n.weight, n.score_sum)
        np.testing.assert_array_equal(m.gaussian.mean, n.gaussian.mean)
        np.testing.assert_array_equal(m.gaussian.cov, n.gaussian.cov)
        if n.eval_points is None:
            assert m.eval_points is None
        else:
            np.testing.assert_array_equal(m.eval_points, n.eval_points)
            assert m.eval_seen == n.eval_seen
    assert set(g2.edges) == set(g.edges)
    for key, e in g.edges.items():
        assert g2.edges[key].votes == e.votes
    # second export is byte-identical
    assert json.dumps(export_graph(g2, vocab2)) == json.dumps(doc)
    g2.validate()


def test_import_keys_eval_points_from_the_per_node_seed():
    # a document carries no keys; each node's points get the A-ES keys of the
    # generator seeded (ENTRY_KEY_SEED, id), whatever order the nodes come in
    g = GlobalSSG()
    for nid, k, seen in ((0, 2, 5), (3, 4, 4), (7, 1, 9), (9, 0, 0)):
        g.add_node(class_id=0, gaussian=_gauss([nid, 0, 0]), node_id=nid, eval_points=np.full((k, 3), float(nid)),
                   eval_seen=seen, eval_keys=np.full(k, 0.5))
    doc = export_graph(g, _vocab())
    forward, _ = import_graph(doc)
    doc["nodes"].reverse()
    backward, _ = import_graph(doc)
    for nid, node in g.nodes.items():
        k, seen = len(node.eval_points), node.eval_seen
        for loaded in (forward, backward):
            keys = loaded.nodes[nid].eval_keys
            if k == 0:
                assert keys is None
            else:
                expected = np.random.default_rng((ENTRY_KEY_SEED, nid)).random(k) ** (k / seen)
                assert keys.tobytes() == expected.tobytes()
            loaded.validate()
    # keys given with the points are kept
    assert all(np.all(n.eval_keys == 0.5) for n in g.nodes.values())


def test_roundtrip_random_graphs_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(10):
        g = GlobalSSG()
        n = int(rng.integers(1, 12))
        for _ in range(n):
            a = rng.normal(size=(3, 3))
            g.add_node(
                class_id=int(rng.integers(0, 3)),
                gaussian=Gaussian3D(mean=rng.normal(size=3), cov=a @ a.T + np.eye(3)),
                weight=int(rng.integers(1, 9)),
                score_sum=float(rng.random() * 5),
            )
        for _ in range(int(rng.integers(0, 2 * n))):
            s, o = rng.integers(0, n, size=2)
            if s == o:
                continue
            g.accumulate_edge(int(s), int(o), {int(rng.integers(0, 3)): [1, float(rng.random())]})
        path = tmp_path / f"g{trial}.json"
        save_graph(path, g, _vocab())
        g2, _ = load_graph(path)
        path2 = tmp_path / f"g{trial}b.json"
        save_graph(path2, g2, _vocab())
        assert path.read_bytes() == path2.read_bytes()


def test_save_graph_bytes_match_pure_python_encoder(tmp_path):
    odd = [-0.0, 1e-320, 1e308, 2.0, -7.0, 1e16, 0.1]
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=Gaussian3D(mean=np.array(odd[:3]), cov=np.diag(odd[3:6])),
               weight=4, score_sum=1e308)
    g.add_node(class_id=2, gaussian=_gauss([3.0, -0.0, 1e-320], 1e308), weight=2, score_sum=-0.0,
               eval_points=np.array([odd[:3], odd[3:6], odd[4:]]), eval_seen=9,
               eval_keys=np.array([0.5, 0.25, 0.125]))
    g.add_node(class_id=1, gaussian=_gauss([0.1, 0.2, 0.3]), score_sum=2.0,
               eval_points=np.empty((0, 3)), eval_seen=0, eval_keys=np.empty(0))
    # arrays that are not float64 still write floats
    g.add_node(class_id=1, gaussian=_gauss([1, 2, 3]), eval_points=np.array([[1, -2, 3]]), eval_seen=1)
    g.add_node(class_id=0, gaussian=_gauss([1, 2, 3]), eval_points=np.array([[0.1, 1e-40, -0.0]], np.float32),
               eval_seen=4)
    g.accumulate_edge(0, 1, {0: [2, 1e-320], 2: [2, 1e308]})
    g.accumulate_edge(1, 0, {1: [1, -0.0]})
    g.accumulate_edge(3, 4, {2: [5, 3.0]})
    vocab = ClassVocabulary(object_classes=("chair", "caf\u00e9", "lamp"), predicates=("on", "near", "\u4e0a"))
    doc = reference_fusion.export_graph(g, vocab)
    expected = "".join(json.JSONEncoder(separators=(",", ":")).iterencode(doc)) + "\n"
    path = tmp_path / "g.json"
    save_graph(path, g, vocab)
    assert path.read_bytes() == expected.encode("utf-8")
    g2, vocab2 = load_graph(path)
    path2 = tmp_path / "g2.json"
    save_graph(path2, g2, vocab2)
    assert path2.read_bytes() == path.read_bytes()


def test_import_rejects_malformed():
    with pytest.raises(StreamFormatError):
        import_graph({"nodes": []})
    with pytest.raises(StreamFormatError):
        import_graph({"nodes": [{"id": 0}], "edges": [], "vocab": {"objects": [], "predicates": []}})
    doc = export_graph(_populated_graph(), _vocab())
    doc["edges"][0]["votes"] = {"0": "notalist"}
    with pytest.raises(StreamFormatError):
        import_graph(doc)


def test_import_refuses_covariances_the_gate_cannot_score():
    # two nodes with covariance diag(-1, -1, 1000), 100 m apart, would score
    # B = -1250 and merge; a graph document that holds one is malformed
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=Gaussian3D(mean=np.zeros(3), cov=np.eye(3)))
    g.add_node(class_id=0, gaussian=Gaussian3D(mean=np.array([100.0, 0, 0]), cov=np.eye(3)))
    good = export_graph(g, _vocab())
    for cov, problem in (
        ([-1.0, 0, 0, 0, -1.0, 0, 0, 0, 1000.0], "not positive definite"),
        ([1.0, 2.0, 0, 2.0, 1.0, 0, 0, 0, -1.0], "not positive definite"),
        ([1.0, 1e-3, 0, 0, 1.0, 0, 0, 0, 1.0], "not symmetric"),
    ):
        doc = json.loads(json.dumps(good))
        doc["nodes"][1]["cov"] = cov
        with pytest.raises(StreamFormatError, match=f"node 1: covariance is {problem}"):
            import_graph(doc)
    # a degenerate covariance is taken; integrate never matches it
    for cov in ([0.0] * 9, [-1.0, 0, 0, 0, -1.0, 0, 0, 0, -1.0]):
        doc = json.loads(json.dumps(good))
        doc["nodes"][1]["cov"] = cov
        loaded, _ = import_graph(doc)
        assert loaded.row_logdets[1] == -math.inf


def test_import_refuses_non_finite_means_and_covariances():
    # a NaN mean scores NaN against every query of its class, and an infinite
    # variance reads as degenerate and sets its class's trace bound to inf
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=Gaussian3D(mean=np.zeros(3), cov=np.eye(3)))
    g.add_node(class_id=0, gaussian=Gaussian3D(mean=np.array([1.0, 0, 0]), cov=np.eye(3)))
    good = export_graph(g, _vocab())
    nan_entry = [1.0, math.nan, 0, math.nan, 1.0, 0, 0, 0, 1.0]
    for key, value, problem in (
        ("mean", [math.nan, 0.0, 0.0], "mean is not finite"),
        ("cov", [math.inf, 0, 0, 0, 1.0, 0, 0, 0, 1.0], "covariance is not finite"),
        ("cov", nan_entry, "covariance is not finite"),
    ):
        doc = json.loads(json.dumps(good))
        doc["nodes"][1][key] = value
        with pytest.raises(StreamFormatError, match=f"node 1: {problem}"):
            import_graph(doc)


@pytest.mark.parametrize("section, i, key, value, problem", [
    ("nodes", 0, "weight", 0, "node 0: weight 0 is below 1"),
    ("nodes", 0, "weight", -1, "node 0: weight -1 is below 1"),  # would divide by zero in the next merge
    ("edges", 0, "votes", {}, "edge 0->1: no votes, or a vote count below 1"),
    ("edges", 0, "votes", {"0": [0, 1.6]}, "edge 0->1: no votes, or a vote count below 1"),
    ("edges", 1, "object", 2, "self loop on node 2"),
    ("edges", 1, "object", 7, "dangling edge 2->7"),
    # nothing is coerced: each of these loaded as 2, 5, class 1 and NaN
    ("nodes", 0, "weight", 2.7, "node 0: weight 2.7 is not an integer"),
    ("nodes", 0, "weight", "5", "node 0: weight '5' is not an integer"),
    ("nodes", 0, "class_id", True, "node 0: class_id True is not an integer"),
    ("nodes", 0, "score_sum", "nan", "node 0: score_sum 'nan' is not a number"),
    ("nodes", 0, "score_sum", math.nan, "node 0: score_sum nan is not finite"),
    ("nodes", 1, "mean", [1, "0", 0], "node 1: mean '0' is not a number"),
    # ids lie inside the document's own vocabulary: to_dot raised IndexError
    # on the first and named the second after the last class
    ("nodes", 0, "class_id", 3, "node 0: class_id 3 is outside the vocabulary's 3 names"),
    ("nodes", 0, "class_id", -1, "node 0: class_id -1 is outside the vocabulary's 3 names"),
    ("edges", 0, "votes", {"3": [1, 0.5]}, "edge 0->1: predicate 3 is outside the vocabulary's 3 names"),
    ("edges", 0, "votes", {"0": [1.0, 0.5]}, "edge 0->1: vote count 1.0 is not an integer"),
    ("nodes", 1, "id", -1, "node id -1 is negative"),  # raised IndexError
    # node 2 holds two eval points: a count seen below that loaded and validated
    ("nodes", 2, "eval_points_seen", 1, "node 2: eval_points_seen 1 is below its 2 eval points"),
    ("nodes", 2, "eval_points_seen", 0, "node 2: eval_points_seen 0 is below its 2 eval points"),
    ("nodes", 2, "eval_points_seen", -3, "node 2: eval_points_seen -3 is below its 2 eval points"),
    ("nodes", 0, "eval_points_seen", -1, "node 0: eval_points_seen -1 is below its 0 eval points"),
])
def test_import_refuses_what_validate_rejects(section, i, key, value, problem):
    doc = export_graph(_populated_graph(), _vocab())
    doc[section][i][key] = value
    with pytest.raises(StreamFormatError, match=f"malformed graph document: {problem}"):
        import_graph(doc)


def test_validate_catches_non_finite_rows_built_by_hand():
    g = GlobalSSG()
    g.add_node(class_id=0, gaussian=Gaussian3D(mean=np.array([math.nan, 0, 0]), cov=np.eye(3)))
    with pytest.raises(AssertionError, match="node 0 row is not finite"):
        g.validate()
    g = GlobalSSG()
    g.add_node(class_id=3, gaussian=Gaussian3D(mean=np.zeros(3), cov=np.diag([math.inf, 1.0, 1.0])))
    assert g.trace_bound(3) == math.inf
    with pytest.raises(AssertionError, match="class 3 trace bound is not finite"):
        g.validate()


def test_load_graph_rejects_non_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json {", encoding="utf-8")
    with pytest.raises(StreamFormatError):
        load_graph(p)


# -- DOT export --------------------------------------------------------------


def test_dot_labels():
    g = _populated_graph()
    dot = to_dot(g, _vocab())
    assert 'n0 [label="chair#0 (w=2)"];' in dot
    assert 'n1 [label="table#1 (w=1)"];' in dot
    assert 'n2 [label="chair#2 (w=3)"];' in dot
    assert 'n0 -> n1 [label="on"];' in dot
    assert 'n2 -> n0 [label="near"];' in dot
    assert dot.startswith("digraph")
