"""Height-to-3D reconstruction and the diameter baseline.

Pipeline for one ball (all heavy lifting happens in undistorted image
space): undistort the raw ball pixel, walk the predicted pixel height
along the local image vertical to the foot pixel, drop the foot ray onto
the ground plane, then take the point of the ball ray on the world
vertical through that ground point. Only the foot's ray must meet the
floor, so a ball above its camera lifts like any other.

In an undistorted pinhole image every world-vertical line passes through
the vanishing point of the world Z axis, c = K R[:, 2]. Ball and foot lie
on the image of one world vertical, so the foot is the ball pixel moved h
px along the line through it and c, in closed form; the vertical at the
foot then gives the reported angle and the row's final status. For the
same reason the ball ray meets the world vertical through the ground
point exactly, so the ball's x and y are the ground point's (its floor
projection) and its height comes from one ray parameter.

Batch reconstruction runs in two steps. ``ball_rays`` does the part no
prediction changes: it gathers each row's camera, undistorts the raw
ball pixel, and computes the camera centre, the ball's ray and the local
vertical at its pixel. ``reconstruct_from_height_batch`` and
``reconstruct_from_diameter_batch`` then lift one set of predictions
from those rays, so scoring many predictions of the same balls (the
repeats of ``evaluate``, the levels of ``sweep``) computes each of these
once. Both return two arrays, ``(ball_3d, status)``: each row's ball
and status.

``reconstruct_from_height``, the one-ball form the ``reconstruct`` command
calls, is the batch lift at n = 1: it takes the pixel as any pair (u, v),
returns the ball, foot pixel and vertical angle as a tuple of Python
floats and raises a failed row's typed error. A known ball's pixel height and image
diameter are the ``Samples`` columns ``h_true`` and ``d_true``; the lift
itself is ``_kernels.lift_height``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import field

import numpy as np

from . import _kernels as _k
from ._record import Record, record
from .camera import CameraCalibration, raise_for_status
from .errors import NonPositiveDiameter

BALL_DIAMETER_M = 0.24


def reconstruct_from_height(
    cal: CameraCalibration, ball_px_raw, h: float
) -> tuple[tuple[float, float, float], tuple[float, float], float]:
    """Reconstruct the 3D ball from a raw (distorted) pixel (u, v) and a
    height.

    Returns ``(ball_3d, foot_pixel, vertical_angle)`` as Python floats:
    the ball (x, y, z) in meters, whose floor projection is (x, y, 0);
    the foot (u, v) in undistorted image coordinates; and the local
    vertical's angle there, in radians. Negative heights are legal
    predictor outputs and propagate through.
    """
    rays = ball_rays([cal], [0], [ball_px_raw])
    bz, gx, gy, fu, fv, angle, status = _k.lift_height(rays, _per_ray(rays, [h]))
    raise_for_status(status[0], "height reconstruction failed")
    return (gx.item(), gy.item(), bz.item()), (fu.item(), fv.item()), angle.item()


def pack_calibrations(cals: Iterable[CameraCalibration]) -> np.ndarray:
    """Stack calibrations into the (m, 24) array the batch functions accept."""
    return np.array([cal.as_array() for cal in cals]).reshape(-1, _k.CAL_LEN)


def calibration_columns(
    cals: Iterable[CameraCalibration] | np.ndarray, cal_index
) -> np.ndarray:
    """Kernel layout (24, n) whose column i is the camera cal_index[i] selects.

    ``cals`` holds calibrations in order, or is a pack_calibrations array.
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
    or failed undistortion. ``terms``, derived from them, are
    ``_kernels.ray_terms``: what both lifts would otherwise recompute for
    each set of predictions. Build it once with ``ball_rays`` and pass it
    to ``reconstruct_from_height_batch`` or
    ``reconstruct_from_diameter_batch`` for each set of predictions.
    """

    cal: np.ndarray
    u: np.ndarray
    v: np.ndarray
    status: np.ndarray
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = _k.ray_terms(self.cal, self.u, self.v, self.status)
        for array in terms:
            array.flags.writeable = False
        self.__dict__["terms"] = terms

    def __len__(self) -> int:
        return self.status.shape[0]


def ball_rays(
    cals: Iterable[CameraCalibration] | np.ndarray, cal_index, ball_px_raw
) -> BallRays:
    """Undistort n raw (distorted) ball pixels through their cameras.

    ``cals`` holds calibrations in order (or is a pre-packed (m, 24)
    array) and ``cal_index[i]`` selects the camera of sample i: for a
    `Samples` table, ``samples.cameras.values()`` and
    ``samples.cal_index``.
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


def _batch(ball, status) -> tuple[np.ndarray, np.ndarray]:
    ball = np.column_stack(ball)
    ball[status != _k.STATUS_OK] = np.nan
    return ball, status


def reconstruct_from_height_batch(
    rays: BallRays, heights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """reconstruct_from_height over the n rows of ``rays``, as whole-array
    operations; ``heights[i]`` is row i's pixel height.

    Returns ``(ball_3d, status)``: ``ball_3d`` (n, 3) float64, whose first
    two columns are each ball's floor projection, and ``status`` (n,)
    int64, 0 for OK, which ``camera.STATUS_NAMES`` maps to error names.
    Failures surface as nonzero statuses rather than exceptions, and a
    failed row's ball is NaN.
    """
    h = _per_ray(rays, heights)
    bz, gx, gy, _, _, _, status = _k.lift_height(rays, h)
    return _batch((gx, gy, bz), status)


def reconstruct_from_diameter_batch(
    rays: BallRays,
    diameters_px: np.ndarray,
    ball_diameter_m: float = BALL_DIAMETER_M,
) -> tuple[np.ndarray, np.ndarray]:
    """Diameter baseline over the n rows of ``rays``: depth from apparent
    size, point on the pixel ray.

    Row i's depth along the optical axis is mean(fx, fy) * ball_diameter_m
    / diameters_px[i] by similar triangles, and the ball is placed on the
    back-projected ray at that camera-frame depth. Returns ``(ball_3d,
    status)`` as ``reconstruct_from_height_batch`` does.
    """
    if not 0.0 < ball_diameter_m < math.inf:
        raise NonPositiveDiameter(f"ball diameter must be finite and > 0 m, got {ball_diameter_m}")
    d = _per_ray(rays, diameters_px)
    bx, by, bz, status = _k.reconstruct_diameter(rays, d, float(ball_diameter_m))
    return _batch((bx, by, bz), status)
