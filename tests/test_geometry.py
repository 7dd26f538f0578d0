"""Unit tests for the detection-lifting geometry.

Expected values come from independent oracles: a homogeneous-coordinate
back-projection (full matrix route, no shared code with the package) and
step-by-step hand evaluation of the lift chain.

The package has one lift, geometry.lift_detections (lift_detection is one
row of it). The step-by-step helpers tested here live in
tests/reference_fusion.py, where they make up the oracle that lift is held
to bit for bit (tests/test_oracle.py); these tests pin that oracle to
closed-form values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import scenefuse
from scenefuse.errors import InvalidDepthError, InvalidDetectionError, SingularJacobianError
from scenefuse.geometry import BoundingBox2D, CameraIntrinsics, CameraPose, lift_detection

from reference_fusion import (
    ProjectionJacobian,
    backproject_covariance,
    backproject_mean,
    bbox_to_gaussian2d,
    jacobian_pseudoinverse,
    projection_jacobian,
)

# ---------------------------------------------------------------------------
# helpers / oracles
# ---------------------------------------------------------------------------


def _cam(fx=1.0, fy=None, cx=0.0, cy=0.0, width=640, height=480) -> CameraIntrinsics:
    return CameraIntrinsics(fx=fx, fy=fy if fy is not None else fx, cx=cx, cy=cy, width=width, height=height)


def _pose(R=None, t=(0.0, 0.0, 0.0)) -> CameraPose:
    return CameraPose(rotation=np.eye(3) if R is None else R, translation=np.asarray(t, dtype=float))


def _rot_x90() -> np.ndarray:
    # 90 degrees about the x axis: y -> z, z -> -y
    return np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def _backproject_oracle(p, z, cam: CameraIntrinsics, pose: CameraPose) -> np.ndarray:
    """Homogeneous-coordinate reference: inv(K) ray, scale, 4x4 transform."""
    K = np.array([[cam.fx, 0.0, cam.cx], [0.0, cam.fy, cam.cy], [0.0, 0.0, 1.0]])
    ray = np.linalg.inv(K) @ np.array([p[0], p[1], 1.0])
    pt_cam_h = np.append(ray * z, 1.0)
    T = np.eye(4)
    T[:3, :3] = pose.rotation
    T[:3, 3] = pose.translation
    return (T @ pt_cam_h)[:3]


def _random_pose(rng) -> CameraPose:
    # QR of a random matrix gives an orthonormal frame; fix the sign to det +1
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraPose(rotation=q, translation=rng.normal(size=3))


# ---------------------------------------------------------------------------
# bbox -> 2D Gaussian
# ---------------------------------------------------------------------------


def test_bbox_moments_hand_case():
    g = bbox_to_gaussian2d(BoundingBox2D(center=(10.0, 20.0), width=6.0, height=12.0, score=1.0, class_id=0))
    np.testing.assert_allclose(g.mean, [10.0, 20.0], atol=1e-12)
    np.testing.assert_allclose(g.cov, np.diag([3.0, 12.0]), atol=1e-12)


def test_bbox_moments_unit_box():
    g = bbox_to_gaussian2d(BoundingBox2D(center=(0.0, 0.0), width=1.0, height=1.0, score=1.0, class_id=0))
    np.testing.assert_allclose(g.cov, np.diag([1.0 / 12.0, 1.0 / 12.0]), atol=1e-15)


def test_bbox_zero_width_rejected():
    with pytest.raises(InvalidDetectionError):
        bbox_to_gaussian2d(BoundingBox2D(center=(0.0, 0.0), width=0.0, height=1.0, score=1.0, class_id=0))


# ---------------------------------------------------------------------------
# mean back-projection
# ---------------------------------------------------------------------------


def test_backproject_principal_ray():
    out = backproject_mean(np.array([0.0, 0.0]), 5.0, _cam(fx=1.0), _pose())
    np.testing.assert_allclose(out, [0.0, 0.0, 5.0], atol=1e-12)


def test_backproject_principal_ray_with_translation():
    cam = _cam(fx=500.0, cx=320.0, cy=240.0)
    out = backproject_mean(np.array([320.0, 240.0]), 2.0, cam, _pose(t=(1.0, 2.0, 3.0)))
    np.testing.assert_allclose(out, [1.0, 2.0, 5.0], atol=1e-12)


def test_backproject_off_axis_against_homogeneous_oracle():
    cam = _cam(fx=100.0)
    pose = _pose()
    out = backproject_mean(np.array([50.0, 0.0]), 4.0, cam, pose)
    np.testing.assert_allclose(out, [2.0, 0.0, 4.0], atol=1e-9)
    np.testing.assert_allclose(out, _backproject_oracle([50.0, 0.0], 4.0, cam, pose), atol=1e-12)


def test_backproject_random_against_homogeneous_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cam = _cam(fx=rng.uniform(50, 2000), fy=rng.uniform(50, 2000), cx=rng.uniform(-50, 400), cy=rng.uniform(-50, 400))
        pose = _random_pose(rng)
        p = rng.uniform(-100, 700, size=2)
        z = rng.uniform(0.05, 20.0)
        np.testing.assert_allclose(
            backproject_mean(p, z, cam, pose), _backproject_oracle(p, z, cam, pose), atol=1e-9
        )


def test_backproject_rejects_bad_depth():
    for z in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidDepthError):
            backproject_mean(np.array([0.0, 0.0]), z, _cam(), _pose())


# ---------------------------------------------------------------------------
# projection Jacobian and its pseudo-inverse
# ---------------------------------------------------------------------------


def test_jacobian_on_axis():
    J = projection_jacobian(np.array([0.0, 0.0, 2.0]), _cam(fx=1.0))
    np.testing.assert_allclose(J.matrix, [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]], atol=1e-12)


def test_jacobian_off_axis_substitution():
    J = projection_jacobian(np.array([1.0, 1.0, 1.0]), _cam(fx=1.0))
    np.testing.assert_allclose(J.matrix, [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], atol=1e-12)


def test_jacobian_rejects_tiny_depth():
    with pytest.raises(InvalidDepthError):
        projection_jacobian(np.array([0.0, 0.0, 1e-12]), _cam())


def test_pseudoinverse_diagonal_case():
    J = ProjectionJacobian(matrix=np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]), z=2.0)
    np.testing.assert_allclose(jacobian_pseudoinverse(J), [[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]], atol=1e-12)


def test_pseudoinverse_identity_property_off_axis():
    J = projection_jacobian(np.array([1.0, 1.0, 1.0]), _cam(fx=1.0))
    jp = jacobian_pseudoinverse(J)
    np.testing.assert_allclose(J.matrix @ jp, np.eye(2), atol=1e-9)


def test_pseudoinverse_rejects_zero_row():
    J = ProjectionJacobian(matrix=np.array([[1.0, 0.0, -0.5], [0.0, 0.0, 0.0]]), z=1.0)
    with pytest.raises(SingularJacobianError):
        jacobian_pseudoinverse(J)


def test_pseudoinverse_identity_over_random_inputs():
    # 1000 random valid (point, intrinsics) pairs; J @ J+ must be I2 < 1e-9
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        cam = _cam(fx=rng.uniform(50, 2000), fy=rng.uniform(50, 2000))
        z = rng.uniform(1e-3, 20.0)
        pt = np.array([rng.uniform(-2, 2) * z, rng.uniform(-2, 2) * z, z])
        J = projection_jacobian(pt, cam)
        dev = np.abs(J.matrix @ jacobian_pseudoinverse(J) - np.eye(2)).max()
        worst = max(worst, dev)
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# covariance back-projection
# ---------------------------------------------------------------------------


def test_covariance_on_axis_hand_case():
    # J+ = diag(2, 2) stacked on a zero row, so Sigma'' = diag(4/3, 4/3, 0)
    # and the injected depth variance is (4/3 + 4/3)/2 = 4/3.
    J = projection_jacobian(np.array([0.0, 0.0, 2.0]), _cam(fx=1.0))
    out = backproject_covariance(np.diag([1.0 / 3.0, 1.0 / 3.0]), J, _pose())
    np.testing.assert_allclose(out, np.diag([4.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0]), atol=1e-12)


def test_covariance_rotation_conjugation():
    # Conjugating diag(1,2,3) by a 90-degree x rotation permutes the y/z variances.
    R = _rot_x90()
    np.testing.assert_allclose(R @ np.diag([1.0, 2.0, 3.0]) @ R.T, np.diag([1.0, 3.0, 2.0]), atol=1e-12)
    # The same conjugation must connect a rotated pose to the identity pose.
    J = projection_jacobian(np.array([0.3, -0.2, 1.7]), _cam(fx=400.0, fy=380.0))
    cov2d = np.diag([5.0, 9.0])
    base = backproject_covariance(cov2d, J, _pose())
    rotated = backproject_covariance(cov2d, J, _pose(R=R))
    np.testing.assert_allclose(rotated, R @ base @ R.T, atol=1e-12)


def test_covariance_zero_is_fixed_point():
    J = projection_jacobian(np.array([0.5, 0.5, 2.0]), _cam(fx=100.0))
    out = backproject_covariance(np.zeros((2, 2)), J, _pose())
    np.testing.assert_allclose(out, np.zeros((3, 3)), atol=0.0)


def test_covariance_symmetric_psd_over_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = rng.normal(size=(2, 2))
        cov2d = a @ a.T
        cam = _cam(fx=rng.uniform(50, 1500), fy=rng.uniform(50, 1500))
        z = rng.uniform(0.01, 10.0)
        pt = np.array([rng.uniform(-1.5, 1.5) * z, rng.uniform(-1.5, 1.5) * z, z])
        out = backproject_covariance(cov2d, projection_jacobian(pt, cam), _random_pose(rng))
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out).min() >= -1e-12


def test_depth_variance_injection():
    # On axis Sigma'' has a zero (3,3) entry, so the rule is exact on the output.
    cam = _cam(fx=320.0)
    out = lift_detection(
        BoundingBox2D(center=(0.0, 0.0), width=48.0, height=36.0, score=1.0, class_id=0), 2.5, cam, _pose()
    ).cov
    assert out[2, 2] == 0.5 * (out[0, 0] + out[1, 1])
    # Off axis the rule applies to the injected delta on top of Sigma''.
    J = projection_jacobian(np.array([0.8, -0.5, 2.0]), cam)
    jp = jacobian_pseudoinverse(J)
    cov2d = np.diag([12.0, 7.0])
    s2 = jp @ cov2d @ jp.T
    out = backproject_covariance(cov2d, J, _pose())
    assert out[2, 2] == s2[2, 2] + 0.5 * (s2[0, 0] + s2[1, 1])


# ---------------------------------------------------------------------------
# full lift
# ---------------------------------------------------------------------------


def _lift_oracle(bbox: BoundingBox2D, z: float, cam: CameraIntrinsics, pose: CameraPose):
    """Step-by-step reference for the full chain, matrix route throughout."""
    C = np.diag([bbox.width**2 / 12.0, bbox.height**2 / 12.0])
    K = np.array([[cam.fx, 0.0, cam.cx], [0.0, cam.fy, cam.cy], [0.0, 0.0, 1.0]])
    pt = np.linalg.inv(K) @ np.array([bbox.center[0], bbox.center[1], 1.0]) * z
    x, y, _ = pt
    J = np.array([[cam.fx / z, 0.0, -cam.fx * x / z**2], [0.0, cam.fy / z, -cam.fy * y / z**2]])
    jp = np.linalg.pinv(J)
    s = jp @ C @ jp.T
    s = s + np.diag([0.0, 0.0, 0.5 * (s[0, 0] + s[1, 1])])
    return pose.rotation @ pt + pose.translation, pose.rotation @ s @ pose.rotation.T


def test_lift_centered_unit_bbox():
    bbox = BoundingBox2D(center=(0.0, 0.0), width=1.0, height=1.0, score=1.0, class_id=0)
    g = lift_detection(bbox, 2.0, _cam(fx=1.0), _pose())
    np.testing.assert_allclose(g.mean, [0.0, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(g.cov, np.diag([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]), atol=1e-12)


def test_lift_matches_oracle_off_axis():
    rng = np.random.default_rng(11)
    for _ in range(50):
        cam = _cam(fx=rng.uniform(100, 900), fy=rng.uniform(100, 900), cx=320.0, cy=240.0)
        pose = _random_pose(rng)
        bbox = BoundingBox2D(
            center=rng.uniform(0, 600, size=2), width=rng.uniform(2, 200), height=rng.uniform(2, 200),
            score=1.0, class_id=0,
        )
        z = rng.uniform(0.2, 12.0)
        g = lift_detection(bbox, z, cam, pose)
        mean_ref, cov_ref = _lift_oracle(bbox, z, cam, pose)
        np.testing.assert_allclose(g.mean, mean_ref, atol=1e-9)
        np.testing.assert_allclose(g.cov, cov_ref, atol=1e-9)


def test_lift_translation_equivariance():
    bbox = BoundingBox2D(center=(0.0, 0.0), width=1.0, height=1.0, score=1.0, class_id=0)
    a = lift_detection(bbox, 2.0, _cam(fx=1.0), _pose())
    b = lift_detection(bbox, 2.0, _cam(fx=1.0), _pose(t=(5.0, 5.0, 5.0)))
    np.testing.assert_allclose(b.mean, a.mean + np.array([5.0, 5.0, 5.0]), atol=1e-12)
    assert np.array_equal(a.cov, b.cov)


def test_lift_rotation_equivariance():
    rng = np.random.default_rng(23)
    bbox = BoundingBox2D(center=(350.0, 210.0), width=60.0, height=90.0, score=1.0, class_id=0)
    cam = _cam(fx=450.0, cx=320.0, cy=240.0)
    base = lift_detection(bbox, 3.0, cam, _pose())
    for _ in range(20):
        R0 = _random_pose(rng).rotation
        rotated = lift_detection(bbox, 3.0, cam, _pose(R=R0))
        np.testing.assert_allclose(rotated.mean, R0 @ base.mean, atol=1e-12)
        np.testing.assert_allclose(rotated.cov, R0 @ base.cov @ R0.T, atol=1e-12)


def test_lift_scaling_quadruples_covariance():
    cam = _cam(fx=500.0, cx=320.0, cy=240.0)
    small = BoundingBox2D(center=(400.0, 300.0), width=30.0, height=50.0, score=1.0, class_id=0)
    big = BoundingBox2D(center=(400.0, 300.0), width=60.0, height=100.0, score=1.0, class_id=0)
    a = lift_detection(small, 2.0, cam, _pose())
    b = lift_detection(big, 2.0, cam, _pose())
    assert np.array_equal(b.cov, 4.0 * a.cov)


def test_lift_rejects_zero_depth():
    bbox = BoundingBox2D(center=(0.0, 0.0), width=1.0, height=1.0, score=1.0, class_id=0)
    with pytest.raises(InvalidDepthError):
        lift_detection(bbox, 0.0, _cam(), _pose())


# ---------------------------------------------------------------------------
# validation utilities
# ---------------------------------------------------------------------------


def test_pose_validation_rejects_reflection():
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        CameraPose(rotation=refl, translation=np.zeros(3)).validate()
    _pose(R=_rot_x90()).validate()  # proper rotation passes


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        _cam(fx=-1.0).validate()
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=0, height=480).validate()
    _cam(fx=500.0).validate()


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

_STEP_BY_STEP_LIFT = (
    "Gaussian2D", "ProjectionJacobian", "symmetrize", "bbox_to_gaussian2d", "backproject_mean",
    "projection_jacobian", "jacobian_pseudoinverse", "backproject_covariance",
)
# the object-level merge and the numpy determinant wrappers: the engine merges
# rows (_accel.merge_moments_into) and takes log-dets of rows (graph.log_det9)
_MERGE_FORK = ("merge_gaussians", "merge_moments", "det3x3", "log_det3x3")


def test_public_names_resolve_and_the_step_by_step_lift_is_gone():
    assert len(set(scenefuse.__all__)) == len(scenefuse.__all__)
    for name in scenefuse.__all__:
        assert getattr(scenefuse, name) is not None, name
    modules = (scenefuse, scenefuse.geometry, scenefuse.fusion, scenefuse.graph)
    for name in _STEP_BY_STEP_LIFT + _MERGE_FORK:
        assert name not in scenefuse.__all__
        assert not any(hasattr(module, name) for module in modules), name
