"""Projective geometry: lifting 2D box detections into world-frame 3D Gaussians.

Coordinate conventions used throughout the package:

- Pixel coordinates are continuous, with the origin at the center of the
  top-left pixel; u grows to the right, v grows downward.
- The camera frame is right-handed with x right, y down, z forward along the
  optical axis. Depths are distances along +z, in meters.
- A pose maps camera-frame points into the world frame: X_w = R @ X_c + t.
  Rotation matrices are therefore camera-to-world.
- All covariances are symmetric positive semi-definite, float64.

There is one lift, lift_detections, over a frame's detections at once;
lift_detection is one row of it. It turns each detection into a 3D Gaussian
in four steps: the box becomes a 2D Gaussian whose per-axis variance is that
of a uniform distribution over the box; the box center is back-projected to
the centroid depth; the 2D covariance is pulled through the pseudo-inverse
of the projection Jacobian, and a synthetic depth variance (average of the
two lateral variances) fills the rank-deficient viewing direction; the
result is rotated into the world frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDepthError,
    InvalidDetectionError,
    SingularJacobianError,
)

# Minimum usable depth in meters; guards the 1/z^2 terms of the Jacobian.
Z_MIN = 1e-4
# Condition-number ceiling for J @ J.T before the pseudo-inverse is refused.
COND_MAX = 1e12

_IDENTITY3 = np.eye(3)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. Focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def validate(self) -> None:
        vals = (self.fx, self.fy, self.cx, self.cy, self.width, self.height)
        # an int is finite, and math.isfinite would overflow on one beyond the float range
        if not all(isinstance(v, int) or math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite intrinsics: {self}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")


@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world pose: X_w = rotation @ X_c + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))

    def validate(self, tol: float = 1e-9) -> None:
        """Raise ValueError unless the pose is finite and its rotation proper
        and orthonormal: max |R'R - I| <= tol and |det R - 1| <= tol.

        A scalar check on the 12 floats accepts a valid pose. A pose it does
        not accept goes to the numpy check (_validate_numpy), which decides
        and words the error; the two compute R'R and det R in different
        orders, so their verdicts can differ only within rounding of tol.
        """
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = self.rotation.reshape(9).tolist()
        t0, t1, t2 = self.translation.tolist()
        det = r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * (r10 * r21 - r11 * r20)
        # a non-finite entry makes one of these sums non-finite, and then a comparison fails
        if not (
            -tol <= r00 * r00 + r10 * r10 + r20 * r20 - 1.0 <= tol
            and -tol <= r01 * r01 + r11 * r11 + r21 * r21 - 1.0 <= tol
            and -tol <= r02 * r02 + r12 * r12 + r22 * r22 - 1.0 <= tol
            and -tol <= r00 * r01 + r10 * r11 + r20 * r21 <= tol
            and -tol <= r00 * r02 + r10 * r12 + r20 * r22 <= tol
            and -tol <= r01 * r02 + r11 * r12 + r21 * r22 <= tol
            and -tol <= det - 1.0 <= tol
            and math.isfinite(t0 + t1 + t2)
        ):
            self._validate_numpy(tol)

    def _validate_numpy(self, tol: float) -> None:
        """validate with numpy's R.T @ R and det: the check that words errors."""
        R = self.rotation
        if not np.all(np.isfinite(R)) or not np.all(np.isfinite(self.translation)):
            raise ValueError("non-finite pose")
        with np.errstate(over="ignore", invalid="ignore"):  # huge finite entries reject quietly
            err = np.abs(R.T @ R - _IDENTITY3).max()
            det = np.linalg.det(R)
        if err > tol:
            raise ValueError(f"rotation is not orthonormal (max |R'R - I| = {err:.3e})")
        if abs(det - 1.0) > tol:
            raise ValueError(f"rotation must be proper (det {det:.12f} != +1)")


@dataclass(frozen=True)
class BoundingBox2D:
    """Axis-aligned detection box: continuous center, extents, score, class."""

    center: np.ndarray
    width: float
    height: float
    score: float
    class_id: int

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64).reshape(2))


@dataclass(frozen=True)
class Gaussian3D:
    """World-frame object blob: mean in meters, 3x3 covariance in meters^2."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64).reshape(3))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=np.float64).reshape(3, 3))


def _check_depth(z: float) -> None:
    if not math.isfinite(z) or z < Z_MIN:
        raise InvalidDepthError(f"centroid depth {z} below minimum {Z_MIN}")


def _check_box(width: float, height: float) -> None:
    if not (width > 0 and height > 0) or not (math.isfinite(width) and math.isfinite(height)):
        raise InvalidDetectionError(f"box extents must be positive finite, got {width}x{height}")


def _check_gram(lo: float, hi: float) -> None:
    """lo, hi: eigenvalues of the Jacobian's Gram matrix J @ J.T."""
    if lo <= 0.0 or hi / lo > COND_MAX:
        raise SingularJacobianError(
            f"Gram matrix condition {math.inf if lo <= 0 else hi / lo:.3e} exceeds {COND_MAX:.0e}"
        )


def _check_lifted(mean: np.ndarray, cov: np.ndarray) -> None:
    """A lifted row must be finite: a box extent of about 1e154 px squares to inf."""
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise InvalidDetectionError("lifted Gaussian is not finite")


def lift_detection(
    bbox: BoundingBox2D,
    z: float,
    cam: CameraIntrinsics,
    pose: CameraPose,
) -> Gaussian3D:
    """Lift one detection plus centroid depth into a world-frame Gaussian3D:
    lift_detections of one row, raising that row's error."""
    means, covs, (error,) = lift_detections(
        [[bbox.center[0], bbox.center[1], bbox.width, bbox.height]], [z], cam, pose
    )
    if error is not None:
        raise error
    return Gaussian3D(mean=means[0], cov=covs[0])


def lift_detections(
    boxes: np.ndarray,
    z: np.ndarray,
    cam: CameraIntrinsics,
    pose: CameraPose,
) -> tuple[np.ndarray, np.ndarray, list[Exception | None]]:
    """Lift a stack of detections, each with its centroid depth, into
    world-frame Gaussians.

    boxes is (n, 4): pixel center cx, cy and extents w, h; z holds the n
    centroid depths. Returns the world-frame means (n, 3), the covariances
    (n, 3, 3) and, per row, None or the row's error: InvalidDepthError for a
    depth that is not finite or below Z_MIN, InvalidDetectionError for an
    extent that is not positive and finite or a lifted mean or covariance
    that is not finite, SingularJacobianError for a projection Jacobian whose
    Gram matrix is worse conditioned than COND_MAX. The values of a row with
    an error are unspecified.

    Each row takes four steps, elementwise over the stack:
    1. the box is a uniform density over its area, with covariance
       diag(w^2/12, h^2/12) in pixels;
    2. the box center is back-projected to (x, y, z) = z K^-1 (cx, cy, 1),
       and the projection is linearized there:
       J = [[fx/z, 0, -fx x/z^2], [0, fy/z, -fy y/z^2]];
    3. the pixel covariance is pulled back through the closed-form right
       pseudo-inverse J+ = J' (J J')^-1, to S = J+ C J+', and the depth
       variance S[2, 2] gains the mean of the two lateral ones;
    4. mean and covariance are rotated into the world, R p + t and R S R',
       and the covariance is symmetrized as (A + A') / 2.
    The matrix products are stacked np.matmul calls, which round exactly as
    `@` on each matrix does, so a row does not depend on the others.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    n = len(z)
    errors: list[Exception | None] = [None] * n
    for k, ((w, h), zk) in enumerate(zip(boxes[:, 2:].tolist(), z.tolist())):
        try:
            _check_depth(zk)
            _check_box(w, h)
        except (InvalidDepthError, InvalidDetectionError) as exc:
            errors[k] = exc
    px, py, bw, bh = boxes.T
    R = pose.rotation
    with np.errstate(all="ignore"):  # rows with an error may divide by zero
        x_cam = (px - cam.cx) / cam.fx * z
        y_cam = (py - cam.cy) / cam.fy * z
        inv_z = 1.0 / z
        inv_z2 = inv_z * inv_z
        J = np.zeros((n, 2, 3))
        J[:, 0, 0] = cam.fx * inv_z
        J[:, 0, 2] = -cam.fx * x_cam * inv_z2
        J[:, 1, 1] = cam.fy * inv_z
        J[:, 1, 2] = -cam.fy * y_cam * inv_z2
        m00, m01, m02 = J[:, 0, 0], J[:, 0, 1], J[:, 0, 2]
        m10, m11, m12 = J[:, 1, 0], J[:, 1, 1], J[:, 1, 2]
        # step 3: closed-form pseudo-inverse; an ill-conditioned Gram matrix J @ J.T is refused
        a = m00 * m00 + m01 * m01 + m02 * m02
        b = m00 * m10 + m01 * m11 + m02 * m12
        c = m10 * m10 + m11 * m11 + m12 * m12
        tr = a + c
        disc = np.sqrt(np.maximum((a - c) * (a - c) + 4.0 * b * b, 0.0))
        lo = 0.5 * (tr - disc)
        hi = 0.5 * (tr + disc)
        for k in np.flatnonzero((lo <= 0.0) | (hi / lo > COND_MAX)).tolist():
            if errors[k] is None:
                try:
                    _check_gram(float(lo[k]), float(hi[k]))
                except SingularJacobianError as exc:
                    errors[k] = exc
        det = a * c - b * b
        inv = np.empty((n, 2, 2))
        inv[:, 0, 0] = c
        inv[:, 0, 1] = -b
        inv[:, 1, 0] = -b
        inv[:, 1, 1] = a
        inv /= det[:, None, None]
        jp = np.matmul(J.transpose(0, 2, 1), inv)
        cov2d = np.zeros((n, 2, 2))
        cov2d[:, 0, 0] = bw * bw / 12.0
        cov2d[:, 1, 1] = bh * bh / 12.0
        # depth variance, then step 4: rotation and symmetrization
        s = np.matmul(np.matmul(jp, cov2d), jp.transpose(0, 2, 1))
        s[:, 2, 2] += 0.5 * (s[:, 0, 0] + s[:, 1, 1])
        out = np.matmul(np.matmul(R, s), R.T)
        covs = (out + out.transpose(0, 2, 1)) * 0.5
        cam_pts = np.stack([x_cam, y_cam, z], axis=1)
        means = np.matmul(R, cam_pts[:, :, None])[:, :, 0] + pose.translation
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        for k, error in enumerate(errors):
            if error is None:
                try:
                    _check_lifted(means[k], covs[k])
                except InvalidDetectionError as exc:
                    errors[k] = exc
    return means, covs, errors
