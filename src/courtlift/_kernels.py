"""Numeric kernels behind the camera and reconstruction modules.

Every kernel works on whole arrays of rows. A calibration travels as a
packed float64 array of shape (CAL_LEN, n), one column per row (offsets
below); one camera for one row is ``CameraCalibration.as_array()[:, None]``.
Kernels report failures through int64
status codes per row instead of raising; the public wrappers translate
codes into typed exceptions. A row's status is its first failure in
pipeline order, and its other outputs are undefined unless the status is
STATUS_OK.

World frame: right-handed, Z up, ground plane Z = 0.
Image frame: origin top-left, x right, y down, pixel centers at integers.
Extrinsics: x_cam = R @ X_world + t.
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
STATUS_NO_CONVERGENCE = 2
STATUS_RAY_PARALLEL = 3
STATUS_BEHIND_CAMERA = 4
STATUS_DEGENERATE_VERTICAL = 5
STATUS_GROUND_FAILED = 6  # unused: foot_pixel reports a foot ray off the ground as 3 or 4
STATUS_BOTH_PLANES_DEGENERATE = 7
STATUS_NONPOSITIVE_DIAMETER = 8
STATUS_NONFINITE_INPUT = 9

# Numeric guards; far below physical scales, above double-precision noise.
EPS_DEPTH = 1e-9
EPS_AXIS = 1e-9

# Undistortion fixed point: stop early once the residual is at float noise,
# declare failure above 1e-8 normalized units.
UNDISTORT_MAX_ITER = 50
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
    """Invert distort_norm by fixed-point iteration on normalized coords.

    A row stops once its residual is at float noise, its radial factor
    collapses or after UNDISTORT_MAX_ITER steps, and fails when the
    residual it stopped at is above UNDISTORT_FAIL_TOL. Each step
    computes only the rows still iterating. Returns (x, y, status).
    """
    x = np.empty_like(xd)
    y = np.empty_like(yd)
    status = np.empty(xd.shape, dtype=np.int64)
    rows = np.arange(xd.shape[0])
    k1, k2, k3, p1, p2 = (cal[c] for c in (CAL_K1, CAL_K2, CAL_K3, CAL_P1, CAL_P2))
    xi, yi = xd, yd
    for it in range(UNDISTORT_MAX_ITER + 1):
        r2 = xi * xi + yi * yi
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        tx = 2.0 * p1 * xi * yi + p2 * (r2 + 2.0 * xi * xi)
        ty = p1 * (r2 + 2.0 * yi * yi) + 2.0 * p2 * xi * yi
        ex = np.abs(xi * radial + tx - xd)
        ey = np.abs(yi * radial + ty - yd)
        stop = (ex <= UNDISTORT_STOP_TOL) & (ey <= UNDISTORT_STOP_TOL)
        stop |= radial <= 1e-9
        if it == UNDISTORT_MAX_ITER:
            stop[:] = True
        if stop.any():
            done = rows[stop]
            x[done] = xi[stop]
            y[done] = yi[stop]
            ok = (ex[stop] <= UNDISTORT_FAIL_TOL) & (ey[stop] <= UNDISTORT_FAIL_TOL)
            status[done] = _flag(~ok, STATUS_NO_CONVERGENCE)
            keep = ~stop
            rows = rows[keep]
            if rows.size == 0:
                break
            xi, yi, xd, yd, tx, ty, radial, k1, k2, k3, p1, p2 = (
                a[keep] for a in (xi, yi, xd, yd, tx, ty, radial, k1, k2, k3, p1, p2)
            )
        xi = (xd - tx) / radial
        yi = (yd - ty) / radial
    return x, y, status


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
    """World points -> distorted pixels. Returns (u, v, status)."""
    xc, yc, zc = _camera_coords(cal, wx, wy, wz)
    xd, yd = distort_norm(cal, xc / zc, yc / zc)
    u, v = _to_pixel(cal, xd, yd)
    return u, v, _flag(zc <= EPS_DEPTH, STATUS_DEPTH_NONPOSITIVE)


@_quiet
def project_point_nodist(cal, wx, wy, wz):
    """World points -> undistorted pixels (distortion ignored)."""
    xc, yc, zc = _camera_coords(cal, wx, wy, wz)
    u, v = _to_pixel(cal, xc / zc, yc / zc)
    return u, v, _flag(zc <= EPS_DEPTH, STATUS_DEPTH_NONPOSITIVE)


@_quiet
def ball_diameter_px(cal, wx, wy, wz, ball_diameter_m):
    """Image diameters of balls centred at world points, from their
    camera-frame depths by similar triangles. Returns (diameter, status)."""
    depth = _camera_coords(cal, wx, wy, wz)[2]
    diameter = 0.5 * (cal[CAL_FX] + cal[CAL_FY]) * ball_diameter_m / depth
    return diameter, _flag(depth <= EPS_DEPTH, STATUS_DEPTH_NONPOSITIVE)


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


@_quiet
def intersect_axis_plane(origin, direction, axis: int, value):
    """Intersect rays with the planes {axis coordinate == value}.

    ``origin`` and ``direction`` are (x, y, z) triples of arrays. The
    returned points carry exactly ``value`` along the plane axis.
    Returns (px, py, pz, status).
    """
    comp = direction[axis]
    s = (value - origin[axis]) / comp
    point = [o + s * d for o, d in zip(origin, direction)]
    point[axis] = np.broadcast_to(value, s.shape)
    status = np.where(
        np.abs(comp) < EPS_AXIS,
        STATUS_RAY_PARALLEL,
        _flag(s < 0.0, STATUS_BEHIND_CAMERA),
    )
    return point[0], point[1], point[2], status


@_quiet
def vertical_direction(cal, u, v):
    """Unit image directions of decreasing world Z at undistorted pixels.

    Every world vertical's image passes through the vertical vanishing
    point c = K R[:, 2] (homogeneous). Below the ground point that pixel
    b's ray hits, at camera depth z, one metre of vertical images as
    (b c_w - c_xy) / z px, so the direction is exact for a pinhole camera.
    Returns (vx, vy, angle, gx, gy, status) with angle = atan2(vx, vy) and
    (gx, gy) the ground point.
    """
    status = _finite(u, v)
    center = camera_center(cal)
    gx, gy, _, st = intersect_axis_plane(center, ray_direction(cal, u, v), 2, 0.0)
    status = _then(status, st)
    depth = _camera_coords(cal, gx, gy, 0.0)[2]
    status = _then(status, _flag(depth <= EPS_DEPTH, STATUS_DEPTH_NONPOSITIVE))
    r02 = cal[CAL_R + 2]
    r12 = cal[CAL_R + 5]
    r22 = cal[CAL_R + 8]
    ex = u * r22 - (cal[CAL_FX] * r02 + cal[CAL_SKEW] * r12 + cal[CAL_CX] * r22)
    ey = v * r22 - (cal[CAL_FY] * r12 + cal[CAL_CY] * r22)
    norm = np.sqrt(ex * ex + ey * ey)
    status = _then(status, _flag(norm / depth < VERTICAL_MIN_PX, STATUS_DEGENERATE_VERTICAL))
    vx = ex / norm
    vy = ey / norm
    return vx, vy, np.arctan2(vx, vy), gx, gy, status


@_quiet
def foot_pixel(cal, u, v, h):
    """Foot pixels = ball pixels displaced h px along the local vertical.

    Ball, foot and the vertical vanishing point are collinear, so the
    vertical at the ball pixel points at the foot. The vertical at the
    foot then gives each row's angle, ground point and final status.
    Returns (fu, fv, gx, gy, angle, status).
    """
    vx, vy, _, _, _, status = vertical_direction(cal, u, v)
    status = _then(_finite(h), status)
    fu = u + h * vx
    fv = v + h * vy
    _, _, angle, gx, gy, st = vertical_direction(cal, fu, fv)
    return fu, fv, gx, gy, angle, _then(status, st)


@_quiet
def lift_height(cal, u, v, h, status):
    """Height-based reconstruction from UNDISTORTED ball pixels.

    ``status`` is each pixel's status so far (undistort_pixel's). A
    non-finite h comes before it, and it before any later failure.
    Returns (bx, by, bz, gx, gy, fu, fv, angle, plane_gap, status).
    """
    status = _then(_finite(h), status)
    fu, fv, gx, gy, angle, st = foot_pixel(cal, u, v, h)
    status = _then(status, st)

    # Vertical-plane intersections; a plane is skipped when the ray is
    # (near-)parallel to it or meets it behind the camera.
    center = camera_center(cal)
    ray = ray_direction(cal, u, v)
    xx, xy, xz, st = intersect_axis_plane(center, ray, 0, gx)
    x_ok = st == STATUS_OK
    yx, yy, yz, st = intersect_axis_plane(center, ray, 1, gy)
    y_ok = st == STATUS_OK
    both = x_ok & y_ok
    bx = np.where(both, 0.5 * (xx + yx), np.where(x_ok, xx, yx))
    by = np.where(both, 0.5 * (xy + yy), np.where(x_ok, xy, yy))
    bz = np.where(both, 0.5 * (xz + yz), np.where(x_ok, xz, yz))
    gap = np.where(both, np.sqrt((xx - yx) ** 2 + (xy - yy) ** 2 + (xz - yz) ** 2), 0.0)
    status = _then(status, _flag(~(x_ok | y_ok), STATUS_BOTH_PLANES_DEGENERATE))
    return bx, by, bz, gx, gy, fu, fv, angle, gap, status


@_quiet
def reconstruct_diameter(cal, u, v, status, diameter_px, ball_diameter_m):
    """Diameter-baseline reconstruction from UNDISTORTED ball pixels.

    ``status`` is each pixel's status so far (undistort_pixel's). A
    non-finite pixel or diameter comes first, then a non-positive
    diameter, then the pixel's undistortion failure.
    Returns (bx, by, bz, fu, fv, angle, status). The foot pixel (fu, fv)
    is the undistorted image of the ground point below the ball and angle
    the vertical direction there; both are NaN where undefined.
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
    bx = ox + s * dx
    by = oy + s * dy
    bz = oz + s * dz
    fu, fv, st = project_point_nodist(cal, bx, by, 0.0)
    on_image = st == STATUS_OK
    _, _, angle, _, _, st = vertical_direction(cal, fu, fv)
    fu = np.where(on_image, fu, np.nan)
    fv = np.where(on_image, fv, np.nan)
    angle = np.where(on_image & (st == STATUS_OK), angle, np.nan)
    return bx, by, bz, fu, fv, angle, status


@_quiet
def true_pixel_height(cal, wx, wy, wz):
    """Undistorted-image Euclidean distances ball -> ground projection."""
    u0, v0, status = project_point_nodist(cal, wx, wy, wz)
    u1, v1, st = project_point_nodist(cal, wx, wy, 0.0)
    return np.hypot(u0 - u1, v0 - v1), _then(status, st)
