"""Height-to-3D reconstruction, its forward oracle, and the diameter baseline.

Pipeline for one ball (all heavy lifting happens in undistorted image
space): undistort the raw ball pixel, walk the predicted pixel height
along the local image vertical to the foot pixel, drop the foot ray onto
the ground plane to get the ground projection, then take the point of the
ball ray on the world vertical through that projection.

In an undistorted pinhole image every world-vertical line passes through
the vanishing point of the world Z axis, c = K R[:, 2]. Ball and foot lie
on the image of one world vertical, so the foot is the ball pixel moved h
px along the line through it and c, in closed form; the vertical at the
foot then gives the reported angle and the row's final status. For the
same reason the ball ray meets the world vertical through the ground
projection exactly, so the ball has the projection's x and y and its
height comes from one ray parameter.

Batch reconstruction runs in two steps. ``ball_rays`` does the part no
prediction changes: it gathers each row's camera and undistorts the raw
ball pixel. ``reconstruct_from_height_batch`` and
``reconstruct_from_diameter_batch`` then lift one set of predictions
from those rays, so scoring many predictions of the same balls (the
repeats of ``evaluate``, the levels of ``sweep``) undistorts each pixel
once.

The one-ball functions run the same kernels on length-one rows and raise
a failed row's typed error. The local vertical and the foot pixel have no
wrapper: ``_kernels.vertical_direction`` and ``_kernels.foot_pixel``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _kernels as _k
from ._record import Record, ValueRecord, record
from .camera import (
    CameraCalibration,
    ImagePoint,
    WorldPoint,
    column,
    one_row,
    raise_for_status,
)
from .errors import NonPositiveDiameter

BALL_DIAMETER_M = 0.24


@record
class Reconstruction(ValueRecord):
    """Result of lifting one ball pixel to world coordinates.

    ``ground_projection`` is the ball's x and y with z = 0 exactly.
    ``foot_pixel`` is in undistorted image coordinates. For the diameter
    baseline the foot pixel and vertical angle are diagnostics and may be
    None when the local geometry does not define them.
    """

    ball_3d: WorldPoint
    ground_projection: WorldPoint
    foot_pixel: ImagePoint | None
    vertical_angle: float | None

    def to_json_dict(self) -> dict:
        return {
            "ball_3d": [self.ball_3d.x, self.ball_3d.y, self.ball_3d.z],
            "ground_projection": [
                self.ground_projection.x,
                self.ground_projection.y,
                self.ground_projection.z,
            ],
            "foot_pixel": None
            if self.foot_pixel is None
            else [self.foot_pixel.x, self.foot_pixel.y],
            "vertical_angle": self.vertical_angle,
        }


def true_pixel_height(cal: CameraCalibration, ball_3d: WorldPoint) -> float:
    """Annotation-style pixel height of a 3D ball.

    Euclidean distance, in undistorted image space, between the ball and
    its vertical projection on the ground. This is the supervision target
    a height predictor learns and what the oracle predictor returns.
    """
    h, status = _k.true_pixel_height(column(cal), *one_row(ball_3d.x, ball_3d.y, ball_3d.z))
    raise_for_status(status[0], "ball or its ground projection is behind the camera")
    return float(h[0])


def reconstruct_from_height(
    cal: CameraCalibration, ball_px_raw: ImagePoint, h: float
) -> Reconstruction:
    """Reconstruct the 3D ball from a raw (distorted) pixel and a height.

    Negative heights are legal predictor outputs and propagate through.
    """
    rays = ball_rays([cal], [0], [[ball_px_raw.x, ball_px_raw.y]])
    batch = reconstruct_from_height_batch(rays, [h])
    raise_for_status(batch.status[0], "height reconstruction failed")
    return batch.row(0)


def reconstruct_from_diameter(
    cal: CameraCalibration,
    ball_px_raw: ImagePoint,
    diameter_px: float,
    ball_diameter_m: float = BALL_DIAMETER_M,
) -> Reconstruction:
    """Diameter baseline: depth from apparent size, point on the pixel ray.

    Depth along the optical axis is mean(fx, fy) * ball_diameter_m /
    diameter_px by similar triangles; the ball is placed on the
    back-projected ray at that camera-frame depth.
    """
    rays = ball_rays([cal], [0], [[ball_px_raw.x, ball_px_raw.y]])
    batch = reconstruct_from_diameter_batch(rays, [diameter_px], ball_diameter_m)
    raise_for_status(batch.status[0], "diameter reconstruction failed")
    return batch.row(0)


@record
class AffineTransform(Record):
    """2D affine map q -> matrix @ q + offset over image coordinates."""

    matrix: np.ndarray
    offset: np.ndarray

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.matrix.T + self.offset


def crop_transform(
    cal: CameraCalibration,
    ball_px_raw: ImagePoint,
    crop_size: float,
    scale: float = 1.0,
) -> AffineTransform:
    """Affine map from (undistorted) image coordinates to crop coordinates.

    Composition of: translation bringing the ball to the crop center,
    rotation aligning the local world vertical with crop +y, and uniform
    scaling. The (undistorted) ball pixel maps exactly to
    (crop_size / 2, crop_size / 2). The raw pixel is undistorted
    internally; with zero distortion the two coincide.
    """
    if not (crop_size > 0.0):
        raise ValueError(f"crop_size must be > 0, got {crop_size}")
    if not (scale > 0.0):
        raise ValueError(f"scale must be > 0, got {scale}")
    arr = column(cal)
    uu, vv, status = _k.undistort_pixel(arr, *one_row(ball_px_raw.x, ball_px_raw.y))
    raise_for_status(status[0], "undistortion failed for crop anchor")
    vx, vy, _, _, _, status = _k.vertical_direction(arr, uu, vv)
    raise_for_status(status[0], "vertical direction undefined at crop anchor")
    uu, vv, vx, vy = (float(a[0]) for a in (uu, vv, vx, vy))
    # Rotation sending the unit vertical (vx, vy) to (0, 1).
    rot = np.array([[vy, -vx], [vx, vy]], dtype=np.float64)
    matrix = scale * rot
    center = np.array([0.5 * crop_size, 0.5 * crop_size], dtype=np.float64)
    offset = center - matrix @ np.array([uu, vv], dtype=np.float64)
    return AffineTransform(matrix=matrix, offset=offset)


@record
class HeightBatch(Record):
    """Array-of-structs result of a batch reconstruction.

    Rows with ``status != 0`` carry NaN geometry; ``camera.STATUS_NAMES``
    maps codes to error names. The first two columns of ``ball_3d`` equal
    ``ground_projection``. For the diameter baseline ``foot_px`` and
    ``vertical_angle`` are NaN on rows where the local geometry does not
    define them.
    """

    ball_3d: np.ndarray  # (n, 3)
    ground_projection: np.ndarray  # (n, 2), z is 0 by construction
    foot_px: np.ndarray  # (n, 2)
    vertical_angle: np.ndarray  # (n,)
    status: np.ndarray  # (n,) int64

    @property
    def ok(self) -> np.ndarray:
        return self.status == _k.STATUS_OK

    def row(self, i: int) -> Reconstruction:
        """Row i as a Reconstruction; NaN foot pixel or angle become None."""
        foot = self.foot_px[i]
        angle = float(self.vertical_angle[i])
        return Reconstruction(
            ball_3d=WorldPoint(*(float(c) for c in self.ball_3d[i])),
            ground_projection=WorldPoint(*(float(c) for c in self.ground_projection[i]), 0.0),
            foot_pixel=None if np.isnan(foot).any() else ImagePoint(float(foot[0]), float(foot[1])),
            vertical_angle=None if np.isnan(angle) else angle,
        )


def pack_calibrations(cals: Sequence[CameraCalibration]) -> np.ndarray:
    """Stack calibrations into the (m, 24) array the batch functions accept."""
    return np.array([cal.as_array() for cal in cals]).reshape(-1, _k.CAL_LEN)


def calibration_columns(
    cals: Sequence[CameraCalibration] | np.ndarray, cal_index
) -> np.ndarray:
    """Kernel layout (24, n) whose column i is the camera cal_index[i] selects.

    ``cals`` is a calibration sequence or a pack_calibrations array.
    """
    packed = cals if isinstance(cals, np.ndarray) else pack_calibrations(cals)
    idx = np.asarray(cal_index, dtype=np.int64).reshape(-1)
    # One (24, n) gather; indexing rows first and transposing copies twice.
    return packed.T.take(idx, axis=1)


@record
class BallRays(Record):
    """The part of a batch reconstruction that no prediction changes.

    ``cal`` is the (24, n) kernel layout of each row's camera, ``u`` and
    ``v`` the undistorted ball pixels (which, with the camera, give the
    ball's ray) and ``status`` each row's status so far: non-finite pixel
    or failed undistortion. Build it once with ``ball_rays`` and pass it
    to ``reconstruct_from_height_batch`` or
    ``reconstruct_from_diameter_batch`` for each set of predictions.
    """

    cal: np.ndarray
    u: np.ndarray
    v: np.ndarray
    status: np.ndarray

    def __len__(self) -> int:
        return self.status.shape[0]


def ball_rays(
    cals: Sequence[CameraCalibration] | np.ndarray, cal_index, ball_px_raw
) -> BallRays:
    """Undistort n raw (distorted) ball pixels through their cameras.

    ``cals`` is a calibration sequence (or pre-packed (m, 24) array) and
    ``cal_index[i]`` selects the camera of sample i.
    """
    px = np.asarray(ball_px_raw, dtype=np.float64)
    if px.ndim != 2 or px.shape[1] != 2:
        raise ValueError("ball pixels must have shape (n, 2)")
    cal = calibration_columns(cals, cal_index)
    if cal.shape[1] != px.shape[0]:
        raise ValueError("cal_index must match the number of samples")
    u, v, status = _k.undistort_pixel(cal, px[:, 0], px[:, 1])
    # Every set of predictions reads these arrays; none may write them.
    for array in (cal, u, v, status):
        array.flags.writeable = False
    return BallRays(cal, u, v, status)


def _per_ray(rays: BallRays, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.shape[0] != len(rays):
        raise ValueError(f"need one prediction per ball ray: {values.shape[0]} for {len(rays)}")
    return values


def _batch(ball, ground, foot, angle, status) -> HeightBatch:
    failed = status != _k.STATUS_OK
    ball, ground, foot = np.column_stack(ball), np.column_stack(ground), np.column_stack(foot)
    for out in (ball, ground, foot, angle):
        out[failed] = np.nan
    return HeightBatch(ball, ground, foot, angle, status)


def reconstruct_from_height_batch(rays: BallRays, heights: np.ndarray) -> HeightBatch:
    """reconstruct_from_height over the n rows of ``rays``, as whole-array
    operations; ``heights[i]`` is row i's pixel height. Failures surface
    as nonzero statuses rather than exceptions.
    """
    h = _per_ray(rays, heights)
    bz, gx, gy, fu, fv, angle, status = _k.lift_height(rays.cal, rays.u, rays.v, h, rays.status)
    return _batch((gx, gy, bz), (gx, gy), (fu, fv), angle, status)


def reconstruct_from_diameter_batch(
    rays: BallRays,
    diameters_px: np.ndarray,
    ball_diameter_m: float = BALL_DIAMETER_M,
) -> HeightBatch:
    """reconstruct_from_diameter over the n rows of ``rays``, as
    whole-array operations; ``diameters_px[i]`` is row i's image diameter.
    """
    if not 0.0 < ball_diameter_m < math.inf:
        raise NonPositiveDiameter(f"ball diameter must be finite and > 0 m, got {ball_diameter_m}")
    d = _per_ray(rays, diameters_px)
    bx, by, bz, fu, fv, angle, status = _k.reconstruct_diameter(
        rays.cal, rays.u, rays.v, rays.status, d, float(ball_diameter_m)
    )
    return _batch((bx, by, bz), (bx, by), (fu, fv), angle, status)


def diameter_px_of(
    cal: CameraCalibration, ball_3d: WorldPoint, ball_diameter_m: float = BALL_DIAMETER_M
) -> float:
    """Exact image-space diameter of a ball at its camera-frame depth."""
    d, status = _k.ball_diameter_px(
        column(cal), *one_row(ball_3d.x, ball_3d.y, ball_3d.z), ball_diameter_m
    )
    raise_for_status(status[0], "ball is behind the camera")
    return float(d[0])
