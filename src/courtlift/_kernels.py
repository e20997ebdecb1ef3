"""Numeric kernels behind the camera and reconstruction modules.

Every kernel works on whole arrays of rows. A calibration travels as a
packed float64 array of shape (CAL_LEN, n), one column per row (offsets
below); one camera for one row is ``CameraCalibration.as_array()[:, None]``.
Kernels report failures through int64 status codes per row instead of
raising; the public wrappers translate codes into typed exceptions. A
row's status is its first failure in pipeline order, and its other
outputs are undefined unless the status is STATUS_OK.

World frame: right-handed, Z up, ground plane Z = 0.
Image frame: origin top-left, x right, y down, pixel centers at integers.
Extrinsics: x_cam = R @ X_world + t. One kernel projects world points,
``project_point``: distorted and distortion-free pixels and depths at once.

Undistortion inverts Brown-Conrady on the lens model's invertible domain
only: a solution where the model folds (det J <= 0), or one past the
first monotone branch of the radial map r -> r radial(r^2), gives status
STATUS_NO_CONVERGENCE, with or without tangential terms.
"""

from __future__ import annotations

import functools

import numpy as np

# Packed calibration layout.
CAL_FX = 0
CAL_FY = 1
CAL_CX = 2
CAL_CY = 3
CAL_SKEW = 4
CAL_R = 5  # 9 entries, row-major
CAL_T = 14  # 3 entries
CAL_K1 = 17
CAL_K2 = 18
CAL_K3 = 19
CAL_P1 = 20
CAL_P2 = 21
CAL_W = 22
CAL_H = 23
CAL_LEN = 24

# Status codes.
STATUS_OK = 0
STATUS_DEPTH_NONPOSITIVE = 1
STATUS_NO_CONVERGENCE = 2  # outside the lens model's invertible domain
STATUS_RAY_PARALLEL = 3
STATUS_BEHIND_CAMERA = 4
STATUS_DEGENERATE_VERTICAL = 5
STATUS_VERTICAL_BEHIND_CAMERA = 7
STATUS_NONPOSITIVE_DIAMETER = 8
STATUS_NONFINITE_INPUT = 9

# Numeric guards; far below physical scales, above double-precision noise.
EPS_DEPTH = 1e-9
EPS_AXIS = 1e-9

# Undistortion by Newton's method: a row stops once its residual is at
# float noise (in-frame pixels take 3 or 4 steps), and fails if it is
# still above 1e-8 normalized units after the last step.
UNDISTORT_MAX_ITER = 20
UNDISTORT_STOP_TOL = 1e-13
UNDISTORT_FAIL_TOL = 1e-8

# Degenerate local vertical: one metre of world vertical at the ground
# point images shorter than this many pixels.
VERTICAL_MIN_PX = 1e-6


def _quiet(kernel):
    """Silence float warnings: failed rows may divide by zero or overflow."""

    @functools.wraps(kernel)
    def run(*args):
        with np.errstate(all="ignore"):
            return kernel(*args)

    return run


def _flag(condition, code: int) -> np.ndarray:
    return np.where(condition, code, STATUS_OK)


def _then(status: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Per-row status after a later step: an earlier failure stands."""
    return np.where(status == STATUS_OK, later, status)


def _finite(*values) -> np.ndarray:
    """STATUS_NONFINITE_INPUT on rows where any input is NaN or infinite."""
    ok = np.isfinite(values[0])
    for value in values[1:]:
        ok &= np.isfinite(value)
    return _flag(~ok, STATUS_NONFINITE_INPUT)


def distort_norm(cal, x, y):
    """Brown-Conrady distortion of normalized camera coordinates."""
    k1 = cal[CAL_K1]
    k2 = cal[CAL_K2]
    k3 = cal[CAL_K3]
    p1 = cal[CAL_P1]
    p2 = cal[CAL_P2]
    r2 = x * x + y * y
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    return xd, yd


@_quiet
def undistort_norm(cal, xd, yd):
    """Invert distort_norm by Newton's method on normalized coordinates.

    Each row starts from one fixed-point step, xd / radial(xd), and
    steps with the analytic Jacobian J of the Brown-Conrady model until
    its residual is at most UNDISTORT_STOP_TOL. All rows step together,
    a converged row stays where it stopped, and the loop ends once every
    row has converged or after UNDISTORT_MAX_ITER steps, so each row's
    result is its own. A row is outside the model's invertible domain
    (STATUS_NO_CONVERGENCE) when its residual is above
    UNDISTORT_FAIL_TOL, when det J <= 0 at the solution, or when the
    solution lies on or past the first positive root s* of the slope
    1 + 3 k1 s + 5 k2 s^2 + 7 k3 s^3 of r -> r radial(r^2), with s = r^2:
    a solution past the fold is not the pixel's first-branch preimage,
    even where tangential terms keep det J > 0 there.
    Returns (x, y, status).
    """
    k1, k2, k3, p1, p2 = (cal[c] for c in (CAL_K1, CAL_K2, CAL_K3, CAL_P1, CAL_P2))
    r2 = xd * xd + yd * yd
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    x, y = xd / radial, yd / radial
    for it in range(UNDISTORT_MAX_ITER + 1):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        slope = 2.0 * (k1 + r2 * (2.0 * k2 + 3.0 * r2 * k3))  # d radial / d r, over r
        ex = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x) - xd
        ey = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y - yd
        jxx = radial + x * x * slope + 2.0 * p1 * y + 6.0 * p2 * x
        jyy = radial + y * y * slope + 6.0 * p1 * y + 2.0 * p2 * x
        jxy = x * y * slope + 2.0 * (p1 * x + p2 * y)
        det = jxx * jyy - jxy * jxy
        error = np.maximum(np.abs(ex), np.abs(ey))
        # NaN compares false: a non-finite row never holds the others up.
        active = error > UNDISTORT_STOP_TOL
        if it == UNDISTORT_MAX_ITER or not active.any():
            break
        x = np.where(active, x - (jyy * ex - jxy * ey) / det, x)
        y = np.where(active, y - (jxx * ey - jxy * ex) / det, y)
    inside = (error <= UNDISTORT_FAIL_TOL) & (det > 0.0)
    inside &= _first_branch(k1, k2, k3, r2)
    return x, y, _flag(~inside, STATUS_NO_CONVERGENCE)


def _first_branch(k1, k2, k3, r2):
    """Whether the slope D(s) = 1 + 3 k1 s + 5 k2 s^2 + 7 k3 s^3 of the
    radial map stays positive on [0, r2], i.e. r2 lies before its first
    positive root. D(0) = 1, so its minimum on the interval is at r2 or at
    a root of D'(s) = 3 k1 + 10 k2 s + 21 k3 s^2 clipped into it."""
    a, b, c = 21.0 * k3, 10.0 * k2, 3.0 * k1
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))

    def slope(s):
        return 1.0 + s * (c + s * (5.0 * k2 + s * 7.0 * k3))

    # No real root gives NaN and a missing one +-inf; neither can fail.
    positive = slope(r2) > 0.0
    for s in (q / a, c / q):
        positive &= ~(slope(np.clip(s, 0.0, r2)) <= 0.0)
    return positive


def _camera_coords(cal, wx, wy, wz):
    xc = cal[CAL_R + 0] * wx + cal[CAL_R + 1] * wy + cal[CAL_R + 2] * wz + cal[CAL_T + 0]
    yc = cal[CAL_R + 3] * wx + cal[CAL_R + 4] * wy + cal[CAL_R + 5] * wz + cal[CAL_T + 1]
    zc = cal[CAL_R + 6] * wx + cal[CAL_R + 7] * wy + cal[CAL_R + 8] * wz + cal[CAL_T + 2]
    return xc, yc, zc


def _to_pixel(cal, x, y):
    return cal[CAL_FX] * x + cal[CAL_SKEW] * y + cal[CAL_CX], cal[CAL_FY] * y + cal[CAL_CY]


def _to_norm(cal, u, v):
    yn = (v - cal[CAL_CY]) / cal[CAL_FY]
    xn = (u - cal[CAL_CX] - cal[CAL_SKEW] * yn) / cal[CAL_FX]
    return xn, yn


@_quiet
def project_point(cal, wx, wy, wz):
    """World points -> pixels. Returns (u, v, un, vn, depth, status): the
    distorted pixel, the distortion-free pixel and the camera-frame depth."""
    xc, yc, zc = _camera_coords(cal, wx, wy, wz)
    xn, yn = xc / zc, yc / zc
    u, v = _to_pixel(cal, *distort_norm(cal, xn, yn))
    un, vn = _to_pixel(cal, xn, yn)
    return u, v, un, vn, zc, _flag(zc <= EPS_DEPTH, STATUS_DEPTH_NONPOSITIVE)


@_quiet
def undistort_pixel(cal, u, v):
    """Distorted pixels -> undistorted pixels under the same intrinsics.

    Rows of a camera without distortion pass through unchanged.
    """
    xu, yu, status = undistort_norm(cal, *_to_norm(cal, u, v))
    uu, vv = _to_pixel(cal, xu, yu)
    plain = (
        (cal[CAL_K1] == 0.0)
        & (cal[CAL_K2] == 0.0)
        & (cal[CAL_K3] == 0.0)
        & (cal[CAL_P1] == 0.0)
        & (cal[CAL_P2] == 0.0)
    )
    status = np.where(plain, STATUS_OK, status)
    status = _then(_finite(u, v), status)
    return np.where(plain, u, uu), np.where(plain, v, vv), status


def camera_center(cal):
    """Camera optical centers in world coordinates: -R^T t."""
    t0 = cal[CAL_T + 0]
    t1 = cal[CAL_T + 1]
    t2 = cal[CAL_T + 2]
    cx = -(cal[CAL_R + 0] * t0 + cal[CAL_R + 3] * t1 + cal[CAL_R + 6] * t2)
    cy = -(cal[CAL_R + 1] * t0 + cal[CAL_R + 4] * t1 + cal[CAL_R + 7] * t2)
    cz = -(cal[CAL_R + 2] * t0 + cal[CAL_R + 5] * t1 + cal[CAL_R + 8] * t2)
    return cx, cy, cz


def ray_direction(cal, u, v):
    """Unit world directions of the rays through UNDISTORTED pixels."""
    xn, yn = _to_norm(cal, u, v)
    dx = cal[CAL_R + 0] * xn + cal[CAL_R + 3] * yn + cal[CAL_R + 6]
    dy = cal[CAL_R + 1] * xn + cal[CAL_R + 4] * yn + cal[CAL_R + 7]
    dz = cal[CAL_R + 2] * xn + cal[CAL_R + 5] * yn + cal[CAL_R + 8]
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    return dx / norm, dy / norm, dz / norm


def _toward_nadir(cal, u, v):
    """Unit image directions of decreasing world Z at undistorted pixels
    b, and the lengths of b c_w - c_xy, which they scale.

    Every world vertical's image passes through the vertical vanishing
    point c = K R[:, 2] (homogeneous). Below a point seen at b, at camera
    depth z > 0, one metre of vertical images as (b c_w - c_xy) / z px,
    so the direction is exact for a pinhole camera; it is 0 only at c.
    """
    r02 = cal[CAL_R + 2]
    r12 = cal[CAL_R + 5]
    r22 = cal[CAL_R + 8]
    ex = u * r22 - (cal[CAL_FX] * r02 + cal[CAL_SKEW] * r12 + cal[CAL_CX] * r22)
    ey = v * r22 - (cal[CAL_FY] * r12 + cal[CAL_CY] * r22)
    norm = np.sqrt(ex * ex + ey * ey)
    return ex / norm, ey / norm, norm


@_quiet
def lift_height(cal, u, v, h, status):
    """Height-based reconstruction from UNDISTORTED ball pixels.

    Ball, foot and the vertical vanishing point are collinear, so the
    foot is the ball pixel moved h px along ``_toward_nadir``; the ball
    pixel may lie above the horizon. Only the foot must be a ground
    point: its ray must meet the ground plane Z = 0, not run parallel to
    it, in front of the camera at a point (gx, gy) of positive depth,
    where one metre of vertical images at least VERTICAL_MIN_PX long.
    The angle is atan2 of the foot's ``_toward_nadir`` direction. The
    ball is (gx, gy, bz): its ray meets the world vertical through the
    ground point at the ray parameter s that matches its horizontal
    position.
    ``status`` is each pixel's status so far (undistort_pixel's). A
    non-finite h comes before it, and it before any later failure.
    Returns (bz, gx, gy, fu, fv, angle, status).
    """
    status = _then(_finite(h), status)
    vx, vy, norm = _toward_nadir(cal, u, v)
    status = _then(status, _flag(norm == 0.0, STATUS_DEGENERATE_VERTICAL))
    fu, fv = u + h * vx, v + h * vy
    status = _then(status, _finite(fu, fv))
    ox, oy, oz = camera_center(cal)
    rx, ry, rz = ray_direction(cal, fu, fv)
    t = -oz / rz
    behind = _flag(t < 0.0, STATUS_BEHIND_CAMERA)
    status = _then(status, np.where(np.abs(rz) < EPS_AXIS, STATUS_RAY_PARALLEL, behind))
    gx, gy = ox + t * rx, oy + t * ry
    depth = _camera_coords(cal, gx, gy, 0.0)[2]
    status = _then(status, _flag(depth <= EPS_DEPTH, STATUS_DEPTH_NONPOSITIVE))
    nx, ny, norm = _toward_nadir(cal, fu, fv)
    status = _then(status, _flag(norm / depth < VERTICAL_MIN_PX, STATUS_DEGENERATE_VERTICAL))
    dx, dy, dz = ray_direction(cal, u, v)
    s = ((gx - ox) * dx + (gy - oy) * dy) / (dx * dx + dy * dy)
    in_front = (s > 0.0) & (s < np.inf)
    status = _then(status, _flag(~in_front, STATUS_VERTICAL_BEHIND_CAMERA))
    return oz + s * dz, gx, gy, fu, fv, np.arctan2(nx, ny), status


@_quiet
def reconstruct_diameter(cal, u, v, status, diameter_px, ball_diameter_m):
    """Diameter-baseline reconstruction from UNDISTORTED ball pixels.

    Each ball is the point of its pixel's ray at the camera-frame depth
    mean(fx, fy) * ball_diameter_m / diameter_px, by similar triangles.
    ``status`` is each pixel's status so far (undistort_pixel's). A
    non-finite pixel or diameter comes first, then a non-positive
    diameter, then the pixel's undistortion failure.
    Returns (bx, by, bz, status).
    """
    nonfinite = (status == STATUS_NONFINITE_INPUT) | ~np.isfinite(diameter_px)
    first = _flag(nonfinite, STATUS_NONFINITE_INPUT)
    first = _then(first, _flag(diameter_px <= 0.0, STATUS_NONPOSITIVE_DIAMETER))
    status = _then(first, status)
    depth = 0.5 * (cal[CAL_FX] + cal[CAL_FY]) * ball_diameter_m / diameter_px
    ox, oy, oz = camera_center(cal)
    dx, dy, dz = ray_direction(cal, u, v)
    # Camera-frame depth grows at rate (R d)_z per unit ray parameter.
    rz = cal[CAL_R + 6] * dx + cal[CAL_R + 7] * dy + cal[CAL_R + 8] * dz
    status = _then(status, _flag(rz <= 1e-12, STATUS_DEPTH_NONPOSITIVE))
    s = depth / rz
    # A diameter too small for a finite depth is as unusable as zero.
    status = _then(status, _flag(~np.isfinite(s), STATUS_NONPOSITIVE_DIAMETER))
    return ox + s * dx, oy + s * dy, oz + s * dz, status
