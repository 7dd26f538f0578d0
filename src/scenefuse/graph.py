"""Scene-graph data model: Gaussian object nodes, predicate-vote edges, and
the per-frame local graph plus the accumulated global graph.

Both graphs store node state as columns of Python values, not as node
objects. The local graph, which the lift builds (fusion.build_local_graph),
is nothing but columns (class ids, score sums, and Gaussians as a 3-float
mean row and a 9-float covariance row). The global graph stores every
node's Gaussian once, as such rows keyed by node id (so they hold the live
nodes and nothing else, whatever the ids), and indexes each class's nodes by
mean x. The fusion engine merges a few nodes per detection, one at a time,
and at that size numpy's per-call cost outweighs the arithmetic: the engine
reads and writes the float rows and finds candidates through the per-class
view of the x index (GlobalSSG.x_order and x_var_bounds, read but never
written by the engine), with no numpy call per merge. A global node's `gaussian` is a Gaussian3D built from its rows each
time it is read; the rows are the only store of node Gaussians. The graph
derives each row's log-determinant itself, where it stores the row, and
`validate` checks them all. Eval points without keys get them where
they enter the graph (add_node); no merge draws a key.

Means and covariances are finite; covariances are symmetric, and positive
definite unless degenerate (log_det9 is -inf). The lift (which refuses a
row that is not finite) and the moment merge give such rows; what comes from
outside is checked where it enters (gaussian_problem, in import_graph).
"""

from __future__ import annotations

import bisect
import json
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidEdgeError, MergeContractError, StreamFormatError
from .geometry import Gaussian3D

if TYPE_CHECKING:  # pragma: no cover
    from .fusion import _EvalSources

logger = logging.getLogger(__name__)

# relative rounding allowed below 0 in a covariance's leading 2x2 minor (gaussian_problem)
_MINOR_SLACK = 4.0 * 2.0**-52

# Determinant floor below which a covariance is treated as degenerate.
DET_MIN = 1e-30

# seeds, with a node id, the entry keys of its eval points (_aes_keys)
ENTRY_KEY_SEED = 2006


def det9(c) -> float:
    """Determinant of a 3x3 matrix given as 9 row-major floats, by first-row
    cofactor expansion."""
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = c
    return c00 * (c11 * c22 - c12 * c21) - c01 * (c10 * c22 - c12 * c20) + c02 * (c10 * c21 - c11 * c20)


def log_det9(c) -> float:
    """log det9 of 9 row-major floats; -inf marks a degenerate covariance."""
    d = det9(c)
    if not (d > DET_MIN) or not math.isfinite(d):
        return -math.inf
    return math.log(d)


def gaussian_problem(mean, cov) -> str | None:
    """Why a 3-float mean and 9 row-major covariance floats are not a Gaussian
    the merge gate can score, or None if they are.

    Every entry must be finite: a NaN mean scores NaN against every query,
    a non-finite covariance reads as degenerate (log_det9 is -inf), and an
    infinite x variance widens its class's x-variance bound for good. A
    covariance must be exactly symmetric, and one whose determinant clears
    DET_MIN must be positive definite: c00 > 0 and m = c00 c11 - c01 c10 > 0
    as well (Sylvester's criterion). The gate's kernels read only the upper
    triangle, and its per-axis cull and log-det term assume positive
    definite rows; a pair of covariances that are not positive definite can
    score B < 0 and merge at any distance. m may fall below 0 by its own
    rounding, within _MINOR_SLACK of its two products: a rank-one covariance
    v v' has m = 0 exactly but can compute to -1e-16 with a determinant that
    rounds above DET_MIN, and is no more wrong than other near-singular ones.
    A covariance whose determinant does not clear DET_MIN is degenerate, not
    wrong: integrate inserts it unmatched.
    """
    if not all(map(math.isfinite, mean)):
        return "mean is not finite"
    if not all(map(math.isfinite, cov)):
        return "covariance is not finite"
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = cov
    if c01 != c10 or c02 != c20 or c12 != c21:
        return "covariance is not symmetric"
    if log_det9(cov) != -math.inf:
        diagonal, cross = c00 * c11, c01 * c10
        if c00 <= 0.0 or diagonal - cross < -_MINOR_SLACK * (diagonal + abs(cross)):
            return "covariance is not positive definite"
    return None


@dataclass(frozen=True)
class ClassVocabulary:
    """Ordered object-class and predicate names; ids are list positions."""

    object_classes: tuple[str, ...]
    predicates: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "object_classes", tuple(self.object_classes))
        object.__setattr__(self, "predicates", tuple(self.predicates))
        if len(set(self.object_classes)) != len(self.object_classes):
            raise ValueError("duplicate object class names")
        if len(set(self.predicates)) != len(self.predicates):
            raise ValueError("duplicate predicate names")

    def object_name(self, class_id: int) -> str:
        return self.object_classes[class_id]

    def predicate_name(self, predicate_id: int) -> str:
        return self.predicates[predicate_id]


@dataclass
class ObjectNode:
    """One fused object: class, world-frame Gaussian, detection-count weight.

    eval_points is an optional (k, 3) array of back-projected points kept for
    evaluation, reservoir-capped; eval_seen counts every point ever offered
    to the reservoir. eval_keys holds one sampling key in [0, 1] per row of
    eval_points (see merge_point_reservoirs). Points that enter a graph
    without keys get them there: GlobalSSG.add_node draws them.
    """

    id: int
    class_id: int
    gaussian: Gaussian3D
    weight: int = 1
    score_sum: float = 0.0
    eval_points: np.ndarray | None = None
    eval_seen: int = 0
    eval_keys: np.ndarray | None = None


@dataclass
class RelationEdge:
    """Directed subject -> object edge with per-predicate (count, score_sum)."""

    subject_id: int
    object_id: int
    votes: dict[int, list] = field(default_factory=dict)

    def add_vote(self, predicate_id: int, count: int, score_sum: float) -> None:
        tally = self.votes.get(predicate_id)
        if tally is None:
            self.votes[predicate_id] = [count, score_sum]
        else:
            tally[0] += count
            tally[1] += score_sum


@dataclass(eq=False)  # compared by identity: eval_sources holds arrays
class LocalSSG:
    """Per-frame lifted graph, as build_local_graph returns it; node ids are
    dense 0-based local indices.

    Every node is one detection, of weight 1. The columns are the store, one
    entry per node i: class_ids[i], score_sums[i] and its Gaussian as rows of
    Python floats, row_means[i] (3 floats) and row_covs[i] (9 floats,
    row-major). They are the lift's rows and are not checked: they are
    covariances by construction. integrate reads only the columns and leaves
    them as they are.

    eval_sources is what build_local_graph lifted the nodes from (None when
    it kept no detection). placement is set by integrate: (local node,
    global node) pairs in merge order. fusion.record_points, run after
    integrate, draws the nodes' eval points from eval_sources and merges
    them in placement order; a graph without eval_sources records nothing.
    """

    frame_id: int
    edges: list[RelationEdge]
    class_ids: list[int]
    score_sums: list[float]
    row_means: list[list[float]]
    row_covs: list[list[float]]
    eval_sources: _EvalSources | None = None
    placement: list[tuple[int, int]] | None = None


def resolve_predicate(edge: RelationEdge) -> int:
    """Majority-vote predicate: max count, ties by larger score sum, then
    smaller predicate id."""
    if not edge.votes:
        raise InvalidEdgeError(f"edge {edge.subject_id}->{edge.object_id} has no votes")
    best = max(edge.votes.items(), key=lambda kv: (kv[1][0], kv[1][1], -kv[0]))
    return best[0]


class _GlobalNode(ObjectNode):
    """A node of a GlobalSSG. Its Gaussian is its row in the graph's row
    dicts, and nowhere else; `gaussian` builds a new Gaussian3D from that row
    each time it is read. Write it through GlobalSSG.set_gaussian or store_row.
    The node holds the graph's row dicts, not the graph, so that a graph and
    its nodes form no reference cycle; the graph never replaces them.

    Its eval-point reservoir merges lazily (merge_eval_points): the held
    points and keys (_points, _keys) are followed by pending keyed chunks,
    which are compacted into the held reservoir, by one top_keys over their
    concatenation, when the held and pending points exceed twice the cap, or
    when eval_points or eval_keys is read or written. So a node holds at most
    2 * cap points plus one chunk. Every non-empty reservoir here has keys
    (GlobalSSG.add_node keys those that come without); whoever assigns
    eval_points must assign their eval_keys too before the node is merged
    into.

    When a compaction leaves exactly `cap` points held, their smallest key is
    the node's floor (eval_floor); otherwise the floor is -inf. The held
    points come before every point merged later, so a later point whose key
    is at or below the floor can never be kept (ties go to the earlier
    point): merging it changes nothing but eval_seen. The setters clear the
    floor, and a merge under another cap voids it.
    """

    def __init__(self, row_means: list, row_covs: list, node_id: int, class_id: int, weight: int,
                 score_sum: float, eval_points: np.ndarray | None, eval_seen: int,
                 eval_keys: np.ndarray | None):
        self.id = node_id
        self.class_id = class_id
        self.weight = weight
        self.score_sum = score_sum
        self._points = eval_points
        self._keys = eval_keys
        self.eval_seen = eval_seen
        self._row_means = row_means
        self._row_covs = row_covs

    @property
    def gaussian(self) -> Gaussian3D:
        return Gaussian3D(mean=np.array(self._row_means[self.id]), cov=np.array(self._row_covs[self.id]))

    # keyed, non-empty chunks (a tuple until the first, so that a node that
    # never defers a merge allocates no list), the points in them, the cap
    # they are compacted to, and the floor of the held reservoir under it
    _pending: list[tuple[np.ndarray, np.ndarray]] | tuple = ()
    _pending_n = 0
    _cap = 0
    _floor = -math.inf

    def eval_floor(self, cap: int) -> float:
        """The key at or below which no point merged under `cap` can be kept;
        -inf unless the held reservoir is full under that cap."""
        return self._floor if cap == self._cap else -math.inf

    @property
    def eval_points(self) -> np.ndarray | None:
        if self._pending:
            self._compact()
        return self._points

    @eval_points.setter
    def eval_points(self, points: np.ndarray | None) -> None:
        if self._pending:
            self._compact()
        self._points = points
        self._floor = -math.inf

    @property
    def eval_keys(self) -> np.ndarray | None:
        if self._pending:
            self._compact()
        return self._keys

    @eval_keys.setter
    def eval_keys(self, keys: np.ndarray | None) -> None:
        if self._pending:
            self._compact()
        self._keys = keys
        self._floor = -math.inf

    def merge_eval_points(self, points: np.ndarray | None, keys: np.ndarray | None, seen: int,
                          cap: int) -> None:
        """Merge a reservoir (points, keys, seen) into the node's, leaving what
        merge_point_reservoirs of the two would. A non-empty chunk must have
        keys; merges by key are associative, so it is only appended to the
        pending list. MergeContractError, before the node changes, when
        either non-empty reservoir has no keys.
        """
        held = self._points
        if points is None or len(points) == 0:
            if points is not None and (held is None or len(held) == 0):  # compaction skips an empty one
                self._points = points.copy()
                self._keys = None if keys is None else keys.copy()
        else:
            if keys is None or (held is not None and len(held) and self._keys is None):
                raise MergeContractError(f"node {self.id}: eval points without keys cannot be merged")
            if cap != self._cap:
                if self._pending:
                    self._compact()
                self._cap, self._floor = cap, -math.inf
            if self._pending:
                self._pending.append((points, keys))
            else:
                self._pending = [(points, keys)]
            self._pending_n += len(points)
            if self._pending_n + (0 if self._points is None else len(self._points)) > 2 * cap:
                self._compact()
        self.eval_seen += seen

    def _compact(self) -> None:
        """Fold the pending chunks into the held reservoir (there is at least one)."""
        pieces = self._pending
        held = self._points
        if held is not None and len(held):
            pieces.insert(0, (held, self._keys))
        points = np.concatenate([p for p, _ in pieces])
        keys = np.concatenate([k for _, k in pieces])
        if len(pieces) > 1 and len(keys) > self._cap:
            keep = top_keys(keys, self._cap)
            points, keys = points.take(keep, axis=0), keys.take(keep)
        self._points, self._keys = points, keys
        self._floor = keys.min() if len(keys) == self._cap else -math.inf
        self._pending = ()
        self._pending_n = 0


class GlobalSSG:
    """The accumulated scene graph; owned by a single fusion writer.

    nodes:       id -> ObjectNode
    edges:       (subject_id, object_id) -> RelationEdge
    next_id:     monotone id counter, never reused

    Node Gaussians are stored once, as Python floats in dicts keyed by node
    id, which hold exactly the live nodes' ids: row_means[i] (3 floats),
    row_covs[i] (9 floats, row-major) and row_logdets[i]. So the graph's
    memory follows its nodes, not the size of their ids. The fusion engine
    reads these rows and the per-class view directly and writes rows through
    store_row; a node's `gaussian` is built from its row when read. The
    per-class view is the only index of nodes by class: x_order[class_id] is
    (xs, ids), the class's node ids in order of mean x and their xs, and
    x_var_bounds[class_id] an upper bound on their x variances (covariance
    entry 0). Only the graph writes it.
    """

    def __init__(self):
        self.nodes: dict[int, ObjectNode] = {}
        self.edges: dict[tuple[int, int], RelationEdge] = {}
        self.next_id: int = 0
        self.row_means: dict[int, list[float]] = {}
        self.row_covs: dict[int, list[float]] = {}
        self.row_logdets: dict[int, float] = {}
        self.x_order: dict[int, tuple[list[float], list[int]]] = {}
        self.x_var_bounds: dict[int, float] = {}

    # -- mutation ----------------------------------------------------------

    def store_row(self, nid: int, class_id: int, mean: list[float], cov: list[float]) -> None:
        """Store node `nid`'s Gaussian as a 3-float mean and a 9-float
        row-major covariance, which the graph keeps (the caller must not
        modify them afterwards); the graph derives their log_det9 and keeps
        the class's x order and x-variance bound. The caller holds the
        node's class id. Precondition, not checked here, as add_node's: a
        mean and covariance that gaussian_problem accepts."""
        xs, ids = self.x_order[class_id]
        old = self.row_means.get(nid)
        x = mean[0]
        if old is None:
            k = bisect.bisect_right(xs, x)
            xs.insert(k, x)
            ids.insert(k, nid)
        elif old[0] != x:
            k = bisect.bisect_left(xs, old[0])
            while ids[k] != nid:  # step over the nodes at the same x
                k += 1
            if (k == 0 or xs[k - 1] <= x) and (k + 1 == len(xs) or x <= xs[k + 1]):
                xs[k] = x  # still in order where it stands
            else:
                del xs[k], ids[k]
                k = bisect.bisect_right(xs, x)
                xs.insert(k, x)
                ids.insert(k, nid)
        if cov[0] > self.x_var_bounds[class_id]:
            self.x_var_bounds[class_id] = cov[0]
        self.row_means[nid] = mean
        self.row_covs[nid] = cov
        self.row_logdets[nid] = log_det9(cov)

    def add_node(
        self,
        class_id: int,
        gaussian: Gaussian3D,
        weight: int = 1,
        score_sum: float = 0.0,
        eval_points: np.ndarray | None = None,
        eval_seen: int = 0,
        node_id: int | None = None,
        eval_keys: np.ndarray | None = None,
    ) -> ObjectNode:
        """Add a node and return it; the graph derives its row's log_det9.

        Precondition, not checked here: every mean and covariance entry is
        finite, and the covariance is symmetric, and positive definite unless
        it is degenerate (log_det9 is -inf); see gaussian_problem. The gate
        scores pairs wrongly otherwise, and validate fails. Rows of
        the lift and of the moment merge meet it by construction;
        import_graph checks what comes from outside.

        Eval points without keys get their A-ES keys here, where they enter
        the graph (_aes_keys, seeded by the node id, so that they do not
        depend on the order nodes are added in); no merge draws a key.

        ValueError, before the graph changes, for a node_id that is not a
        non-negative int (a bool is not one) or that is already present.
        """
        nid = self.next_id if node_id is None else node_id
        if type(nid) is not int or nid < 0:
            raise ValueError(f"node id {nid!r} is not a non-negative integer")
        if nid in self.nodes:
            raise ValueError(f"node id {nid} already present")
        eval_keys = _aes_keys(eval_points, eval_keys, eval_seen, nid)
        node = _GlobalNode(self.row_means, self.row_covs, nid, class_id, weight, score_sum,
                           eval_points, eval_seen, eval_keys)
        self.nodes[nid] = node
        if class_id not in self.x_order:
            self.x_order[class_id] = ([], [])
            self.x_var_bounds[class_id] = -math.inf
        self.store_row(nid, class_id, gaussian.mean.tolist(), gaussian.cov.reshape(9).tolist())
        self.next_id = max(self.next_id, nid + 1)
        return node

    def set_gaussian(self, node_id: int, gaussian: Gaussian3D) -> None:
        """Store a node's new Gaussian as its rows; precondition as add_node's."""
        self.store_row(node_id, self.nodes[node_id].class_id, gaussian.mean.tolist(),
                       gaussian.cov.reshape(9).tolist())

    def accumulate_edge(self, subject_id: int, object_id: int, votes: dict[int, list]) -> RelationEdge:
        if subject_id == object_id:
            raise InvalidEdgeError(f"self loop on node {subject_id}")
        if subject_id not in self.nodes or object_id not in self.nodes:
            raise InvalidEdgeError(f"dangling edge {subject_id}->{object_id}")
        edge = self.edges.get((subject_id, object_id))
        if edge is None:
            edge = RelationEdge(subject_id=subject_id, object_id=object_id)
            self.edges[(subject_id, object_id)] = edge
        for pid, (count, score) in votes.items():
            edge.add_vote(pid, count, score)
        return edge

    # -- queries / maintenance ----------------------------------------------

    def total_weight(self) -> int:
        return sum(n.weight for n in self.nodes.values())

    def validate(self, eval_point_cap: int | None = None) -> None:
        """Check every structural invariant; raises AssertionError on breakage."""
        for rows in (self.row_means, self.row_covs, self.row_logdets):
            assert rows.keys() == self.nodes.keys(), "rows out of sync with nodes"
        # every node sits in its own class's x order, once, and in no other
        indexed = sorted(i for _, ids in self.x_order.values() for i in ids)
        assert indexed == sorted(self.nodes), "x order out of sync with nodes"
        for cid, (xs, ids) in self.x_order.items():
            assert all(self.nodes[i].class_id == cid for i in ids), "x order class mismatch"
            assert xs == sorted(xs) and xs == [self.row_means[i][0] for i in ids], "x order broken"
            bound = self.x_var_bounds[cid]
            assert all(self.row_covs[i][0] <= bound for i in ids), "x-variance bound"
            assert not ids or math.isfinite(bound), f"class {cid} x-variance bound is not finite"
        for (s, o), edge in self.edges.items():
            assert (s, o) == (edge.subject_id, edge.object_id), "edge key mismatch"
            assert s != o, f"self loop on {s}"
            assert s in self.nodes and o in self.nodes, f"dangling edge {s}->{o}"
            assert edge.votes, f"empty votes on {s}->{o}"
            assert all(v[0] >= 1 for v in edge.votes.values()), "vote count < 1"
        for nid, node in self.nodes.items():
            assert node.id == nid
            assert node.weight >= 1
            assert nid < self.next_id
            mean, cov = self.row_means[nid], self.row_covs[nid]
            assert all(map(math.isfinite, mean + cov)), f"node {nid} row is not finite"
            problem = gaussian_problem(mean, cov)
            assert problem is None, f"node {nid}: {problem}"
            assert self.row_logdets[nid] == log_det9(cov), "log-determinant out of sync"
            # the held reservoir and the pending chunks, read without compacting them
            held, keys, pending = node._points, node._keys, node._pending
            size = 0 if held is None else len(held)
            pieces = pending if size == 0 and keys is None else [(held, keys), *pending]
            floor = node._floor
            assert floor == -math.inf or (size == node._cap and floor == keys.min()), \
                f"node {nid}: eval floor is not the smallest key of a full held reservoir"
            if pending:
                assert node._pending_n == sum(len(p) for p, _ in pending), "pending count out of sync"
                total = size + node._pending_n
                assert total <= 2 * node._cap, "pending points exceed twice the cap"
                # compaction keeps all of a lone chunk, and at most the cap of two or more pieces
                size = total if size == 0 and len(pending) == 1 else min(total, node._cap)
            if eval_point_cap is not None:
                assert size <= eval_point_cap, "eval point cap exceeded"
            assert node.eval_seen >= size, f"node {nid}: holds {size} eval points but has seen {node.eval_seen}"
            for points, k in pieces:
                assert k is not None, "eval points without keys"
                assert k.shape == (0 if points is None else len(points),), "eval keys do not match eval points"
                assert bool(np.all((k >= 0.0) & (k <= 1.0))), "eval key outside [0, 1]"


def merge_point_reservoirs(
    points_a: np.ndarray | None,
    keys_a: np.ndarray | None,
    seen_a: int,
    points_b: np.ndarray | None,
    keys_b: np.ndarray | None,
    seen_b: int,
    cap: int,
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Combine two capped point reservoirs into one of at most `cap` points.

    Returns the points, their keys and the count seen. A reservoir is a
    sample by keys: each original point gets a key drawn uniformly from
    [0, 1) when it is first offered, and a reservoir holds the points with
    the `cap` largest keys of all it has seen, each with its key. The merge
    keeps the `cap` largest keys of the two sides, in concatenation order
    (a's points first; equal keys at the cut go to the earlier point), which
    is exactly the reservoir the union of their originals would hold. So it
    draws nothing, is associative, and leaves a uniform sample without
    replacement of every point either side has seen (Efraimidis and
    Spirakis, "Weighted random sampling with a reservoir", IPL 2006).

    A side with points must have their keys; either side may be None or
    empty, and is then no more than a count; a None side leaves the other
    as it is, so the result is None only when both are. Points that come
    without keys get them where they enter a graph, in GlobalSSG.add_node
    (_aes_keys), never here.
    """
    if points_b is None:
        return (
            None if points_a is None else points_a.copy(),
            None if keys_a is None else keys_a.copy(),
            seen_a + seen_b,
        )
    if points_a is None or len(points_a) == 0:
        return points_b.copy(), None if keys_b is None else keys_b.copy(), seen_a + seen_b
    if len(points_b) == 0:
        return points_a.copy(), keys_a.copy(), seen_a + seen_b
    points = np.concatenate((points_a, points_b))
    keys = np.concatenate((keys_a, keys_b))
    if len(keys) > cap:
        keep = top_keys(keys, cap)
        points, keys = points.take(keep, axis=0), keys.take(keep)
    return points, keys, seen_a + seen_b


def top_keys(keys: np.ndarray, cap: int) -> np.ndarray:
    """Ascending indices of the `cap` largest of more than `cap` keys; of
    keys equal to the smallest one kept, the earlier ones are kept."""
    n = len(keys)
    cut = np.partition(keys, n - cap)[n - cap]
    keep = (keys >= cut).nonzero()[0]
    if len(keep) > cap:
        above = keys.take(keep) > cut
        tied = (~above).nonzero()[0]
        above[tied[: cap - (len(keep) - len(tied))]] = True
        keep = keep[above]
    return keep


def _aes_keys(points: np.ndarray | None, keys: np.ndarray | None, seen: int, node_id: int) -> np.ndarray | None:
    """The keys node `node_id`'s eval points enter a graph with (add_node):
    keys; or, for k points that come without them, A-ES keys u ** (k / seen')
    with seen' = max(seen, k) and u from default_rng((ENTRY_KEY_SEED, node_id))."""
    if keys is not None or points is None or len(points) == 0:
        return keys
    k = len(points)
    return np.random.default_rng((ENTRY_KEY_SEED, node_id)).random(k) ** (k / max(seen, k))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def export_graph(g: GlobalSSG, vocab: ClassVocabulary) -> dict:
    """Deterministic document form of the graph.

    Arrays are sorted by id; vote maps are keyed by stringified predicate id
    in ascending order; each edge also carries its resolved predicate.
    eval_points appear only when the run recorded them.
    """
    nodes = []
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        rec = {
            "id": n.id,
            "class_id": n.class_id,
            "weight": n.weight,
            "score_sum": n.score_sum,
            "mean": [float(v) for v in g.row_means[nid]],
            "cov": [float(v) for v in g.row_covs[nid]],
        }
        if n.eval_points is not None:
            # float64 first, so that an integer array still writes floats
            rec["eval_points"] = n.eval_points.astype(np.float64, copy=False).tolist()
            rec["eval_points_seen"] = n.eval_seen
        nodes.append(rec)
    edges = []
    for s, o in sorted(g.edges):
        e = g.edges[(s, o)]
        edges.append(
            {
                "subject": s,
                "object": o,
                "predicate": resolve_predicate(e),
                "votes": {str(pid): [e.votes[pid][0], e.votes[pid][1]] for pid in sorted(e.votes)},
            }
        )
    return {
        "nodes": nodes,
        "edges": edges,
        "vocab": {"objects": list(vocab.object_classes), "predicates": list(vocab.predicates)},
    }


def _integer(value, what: str) -> int:
    """A document's integer as it stands: json reads one as an int, and a bool is not one."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _real(value, what: str) -> float:
    """A document's number as a float: json reads one as an int or a float, and a bool is neither."""
    if type(value) not in (float, int):
        raise ValueError(f"{what} {value!r} is not a number")
    return float(value)


def _score(value, what: str) -> float:
    score = _real(value, what)
    if not math.isfinite(score):
        raise ValueError(f"{what} {score} is not finite")
    return score


def _reals(value, n: int, what: str) -> list[float]:
    if type(value) is not list or len(value) != n:
        raise ValueError(f"{what} is not a list of {n} numbers")
    return [_real(v, what) for v in value]


def _vocab_id(value, names: tuple[str, ...], what: str) -> int:
    i = _integer(value, what)
    if not 0 <= i < len(names):
        raise ValueError(f"{what} {i} is outside the vocabulary's {len(names)} names")
    return i


def import_graph(doc: dict) -> tuple[GlobalSSG, ClassVocabulary]:
    """The graph and vocabulary of a document written by export_graph.

    StreamFormatError for a malformed document: a value of the wrong JSON
    type (nothing is coerced, so a weight of 2.7 or "5", or a class_id of
    true, is refused rather than read as 2, 5 or 1), a non-finite score, a
    negative node id, a class or predicate id outside the document's own
    vocabulary, or anything GlobalSSG.validate would reject: a node Gaussian
    the merge gate cannot score (gaussian_problem: a mean or covariance
    entry that is not finite, or a covariance that is not one), a node
    weight below 1, an eval_points_seen below the node's number of eval
    points, an edge with no votes, a vote count below 1, a self-loop or a
    dangling edge.
    """
    try:
        objects, predicates = doc["vocab"]["objects"], doc["vocab"]["predicates"]
        for names in (objects, predicates):
            if type(names) is not list or not all(type(name) is str for name in names):
                raise ValueError("vocabulary is not two lists of names")
        vocab = ClassVocabulary(object_classes=tuple(objects), predicates=tuple(predicates))
        g = GlobalSSG()
        for rec in doc["nodes"]:
            nid = _integer(rec["id"], "node id")
            if nid < 0:
                raise ValueError(f"node id {nid} is negative")
            where = f"node {nid}"
            class_id = _vocab_id(rec["class_id"], vocab.object_classes, f"{where}: class_id")
            weight = _integer(rec["weight"], f"{where}: weight")
            score_sum = _score(rec["score_sum"], f"{where}: score_sum")
            mean = _reals(rec["mean"], 3, f"{where}: mean")
            cov = _reals(rec["cov"], 9, f"{where}: covariance")
            problem = gaussian_problem(mean, cov)
            if problem is None and weight < 1:
                problem = f"weight {weight} is below 1"
            if problem is not None:
                raise ValueError(f"{where}: {problem}")
            pts = rec.get("eval_points")
            if pts is not None:
                if type(pts) is not list or not all(
                    type(p) is list and len(p) == 3 and all(type(v) in (float, int) for v in p) for p in pts
                ):
                    raise ValueError(f"{where}: eval_points is not a list of 3-number points")
                pts = np.array(pts, dtype=np.float64).reshape(-1, 3)
            held = 0 if pts is None else len(pts)
            seen = _integer(rec.get("eval_points_seen", held), f"{where}: eval_points_seen")
            if seen < held:
                raise ValueError(f"{where}: eval_points_seen {seen} is below its {held} eval points")
            g.add_node(
                class_id=class_id,
                gaussian=Gaussian3D(mean=np.array(mean), cov=np.array(cov)),
                weight=weight,
                score_sum=score_sum,
                eval_points=pts,
                eval_seen=seen,
                node_id=nid,
            )
        for rec in doc["edges"]:
            where = f"edge {rec['subject']}->{rec['object']}"
            if type(rec["votes"]) is not dict:
                raise ValueError(f"{where}: votes is not an object")
            votes = {}
            for key, vote in rec["votes"].items():
                # the key as export_graph writes the id, so "01" or " 1" is refused
                pid = _vocab_id(int(key), vocab.predicates, f"{where}: predicate")
                if str(pid) != key:
                    raise ValueError(f"{where}: predicate key {key!r} is not an id as written")
                if type(vote) is not list or len(vote) != 2:
                    raise ValueError(f"{where}: vote {vote!r} is not a [count, score] pair")
                count = _integer(vote[0], f"{where}: vote count")
                votes[pid] = [count, _score(vote[1], f"{where}: vote score")]
            if not votes or min(c for c, _ in votes.values()) < 1:
                raise ValueError(f"{where}: no votes, or a vote count below 1")
            subject = _integer(rec["subject"], f"{where}: subject")
            g.accumulate_edge(subject, _integer(rec["object"], f"{where}: object"), votes)
    except (KeyError, TypeError, ValueError, OverflowError, InvalidEdgeError) as exc:
        raise StreamFormatError(f"malformed graph document: {exc}") from exc
    return g, vocab


def save_graph(path, g: GlobalSSG, vocab: ClassVocabulary) -> None:
    # json.dumps runs the C encoder; json.dump always runs the pure-Python one.
    # Both write the same bytes.
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(export_graph(g, vocab), separators=(",", ":")) + "\n")


def load_graph(path) -> tuple[GlobalSSG, ClassVocabulary]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"graph file is not valid JSON: {exc}") from exc
    return import_graph(doc)


def to_dot(g: GlobalSSG, vocab: ClassVocabulary) -> str:
    """Graphviz form: node label `<class>#<id> (w=<weight>)`, edge label =
    resolved predicate name."""
    lines = ["digraph scene {"]
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        label = f"{vocab.object_name(n.class_id)}#{n.id} (w={n.weight})"
        lines.append(f'  n{nid} [label="{label}"];')
    for s, o in sorted(g.edges):
        pred = vocab.predicate_name(resolve_predicate(g.edges[(s, o)]))
        lines.append(f'  n{s} -> n{o} [label="{pred}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
