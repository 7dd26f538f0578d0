"""Scalar kernels of the fusion hot path: Hellinger scoring and moment merging.

integrate culls candidate pairs with an exact bound before it scores them, so
each query scores only one or two candidates. At that size numpy's per-call
overhead dominates, and these kernels work on Python floats instead. Gaussians
are passed as a 3-float mean and a 9-float row-major covariance: the rows that
LocalSSG's columns and GlobalSSG's row dicts hold, read in place. best_match
scores both candidate sets of a query in its own two loops, and
merge_moments_into returns a new mean row and covariance row, which the
caller hands to the graph to keep, so a merge copies no row.

Precondition: every covariance row is exactly symmetric, as the graph keeps
them (graph.gaussian_problem). The kernels read only its upper triangle
(entries 0, 1, 2, 4, 5, 8), average 6 entries instead of 9 and compute each
off-diagonal product once; on a row that is not symmetric they give the
result for its upper triangle mirrored, not for the row.

The Hellinger distance comes from the Bhattacharyya distance in
log-determinant form:

    B = (1/8) d' S^-1 d + (1/2)(log det S - (log det A + log det B)/2)
    H = sqrt(1 - exp(-B))            with S = (A + B)/2

A pair whose averaged covariance has determinant below det_min, or one of
whose covariances is degenerate (log-determinant -inf), has B = +inf and is
unmergeable. The callers take log det A and log det B from graph.log_det9,
whose determinant is the same first-row cofactor expansion as det S here,
and every log and exp goes through math; so identical inputs give a
distance of exactly 0.0. `bhattacharyya` is the one implementation of the
formula: the engine's scorer and the public fusion.bhattacharyya and
fusion.hellinger all go through it, and a merge records the distance that
fusion.hellinger returns for the same pair.
"""

from __future__ import annotations

import math

# No kernel is jitted; the flag stays for callers that record it (perfbench).
HAVE_NUMBA = False

_log = math.log
_exp = math.exp
_sqrt = math.sqrt
_INF = math.inf


def bhattacharyya(mean_a, cov_a, logdet_a, mean_b, cov_b, logdet_b, det_min, bound=_INF):
    """Bhattacharyya distance B of two Gaussians given as a 3-float mean, a
    9-float row-major covariance and its log-determinant.

    +inf when det S <= det_min, or when a log-determinant is -inf (a
    degenerate covariance): the pair is unmergeable. Also +inf, before the
    log is taken, when the Mahalanobis term (1/8) d' S^-1 d alone exceeds
    `bound`: the log-det term is >= 0, so B does too (fusion._gate_bound).
    """
    q00, q01, q02, _, q11, q12, _, _, q22 = cov_a
    c00, c01, c02, _, c11, c12, _, _, c22 = cov_b
    s00 = 0.5 * (c00 + q00); s01 = 0.5 * (c01 + q01); s02 = 0.5 * (c02 + q02)
    s11 = 0.5 * (c11 + q11); s12 = 0.5 * (c12 + q12); s22 = 0.5 * (c22 + q22)
    k00 = s11 * s22 - s12 * s12
    k01 = s01 * s22 - s12 * s02
    k02 = s01 * s12 - s11 * s02
    det = s00 * k00 - s01 * k01 + s02 * k02
    if not (det > det_min):
        return _INF
    # adjugate entries for the symmetric solve d' S^-1 d = d' adj(S) d / det;
    # S is symmetric, so its first row is (k00, -k01, k02)
    a11 = s00 * s22 - s02 * s02
    a22 = s00 * s11 - s01 * s01
    a12 = -(s00 * s12 - s02 * s01)
    m0, m1, m2 = mean_a
    n0, n1, n2 = mean_b
    d0 = n0 - m0; d1 = n1 - m1; d2 = n2 - m2
    quad = (
        k00 * d0 * d0 + a11 * d1 * d1 + a22 * d2 * d2
        + 2.0 * (-k01 * d0 * d1 + k02 * d0 * d2 + a12 * d1 * d2)
    )
    b = 0.125 * quad / det
    if b > bound:
        return _INF
    return b + 0.5 * (_log(det) - 0.5 * (logdet_a + logdet_b))


def hellinger_of(b):
    """The Hellinger distance sqrt(1 - exp(-B)) of a Bhattacharyya distance B.

    0.0 for B <= 0, which only rounding or a covariance that is not positive
    definite gives (exp(-B) is then never taken, so it cannot overflow), and
    NaN for NaN.
    """
    if b > 0.0:
        return _sqrt(1.0 - _exp(-b))
    return 0.0 if b == b else b


def best_match(
    mean, cov, logdet,
    a_means, a_covs, a_logdets, a_ids,
    b_means, b_covs, b_logdets, b_ids,
    det_min, bound=_INF,
):
    """Closest candidate in each of two sets: (idx_a, dist_a, idx_b, dist_b).

    The query is a 3-float mean, a 9-float covariance and its log-determinant;
    each set is indexed by its ids (a_means[j] is a 3-float mean, a_covs[j] a
    9-float covariance, a_logdets[j] a float). The returned index is the
    position within the ids sequence; ties go to the earlier position. It is
    -1, with distance +inf, when the set is empty, entirely unmergeable, or
    has a candidate at NaN distance (scoring the set stops there). Candidates
    that bhattacharyya rejects against `bound` count as unmergeable, so a
    bound that no mergeable pair exceeds leaves every result below the merge
    threshold as it is. The two sets are scored in two plain loops, one
    bhattacharyya and one hellinger_of per candidate.
    """
    ia, da = -1, _INF
    for k, j in enumerate(a_ids):
        b = bhattacharyya(mean, cov, logdet, a_means[j], a_covs[j], a_logdets[j], det_min, bound)
        if b != _INF:  # else unmergeable, or beyond the bound
            h = hellinger_of(b)
            if h < da:
                ia, da = k, h
            elif h != h:
                ia, da = -1, _INF
                break
    ib, db = -1, _INF
    for k, j in enumerate(b_ids):
        b = bhattacharyya(mean, cov, logdet, b_means[j], b_covs[j], b_logdets[j], det_min, bound)
        if b != _INF:
            h = hellinger_of(b)
            if h < db:
                ib, db = k, h
            elif h != h:
                ib, db = -1, _INF
                break
    return ia, da, ib, db


def merge_moments_into(w_a, mean_a, cov_a, w_b, mean_b, cov_b):
    """Moment-matched merge of two weighted Gaussians: a new (mean, cov) pair
    of lists, a 3-float mean and a 9-float row-major covariance.

    The inputs are read, never written, and only their upper triangles
    (module precondition): each off-diagonal entry is computed once and
    written to both places, so the result is symmetric.
    """
    w = w_a + w_b
    k = w_a * w_b / (w * w)
    m0, m1, m2 = mean_a
    n0, n1, n2 = mean_b
    a00, a01, a02, _, a11, a12, _, _, a22 = cov_a
    b00, b01, b02, _, b11, b12, _, _, b22 = cov_b
    d0 = m0 - n0
    d1 = m1 - n1
    d2 = m2 - n2
    c01 = (w_a * a01 + w_b * b01) / w + k * (d0 * d1)
    c02 = (w_a * a02 + w_b * b02) / w + k * (d0 * d2)
    c12 = (w_a * a12 + w_b * b12) / w + k * (d1 * d2)
    return (
        [(w_a * m0 + w_b * n0) / w, (w_a * m1 + w_b * n1) / w, (w_a * m2 + w_b * n2) / w],
        [(w_a * a00 + w_b * b00) / w + k * (d0 * d0), c01, c02,
         c01, (w_a * a11 + w_b * b11) / w + k * (d1 * d1), c12,
         c02, c12, (w_a * a22 + w_b * b22) / w + k * (d2 * d2)],
    )
