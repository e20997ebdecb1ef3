"""An independent oracle for the height lift, in long double.

The kernel lifts a ball by ray algebra: camera centre, ray directions and
ground intersections. The round-trip tests check it against the forward
model, which shares its camera-frame and pixel helpers, so a bug in a
shared helper would pass both. This oracle shares no kernel code. Per
camera it builds the projection matrix P = K [R | t] with columns
p1..p4, the ground homography H = [p1 p2 p4], which maps (X, Y, 1) on
the court Z = 0 to the image, and the vertical vanishing point p3
(Criminisi, Reid & Zisserman, "Single View Metrology", IJCV 2000;
Hartley & Zisserman, ch. 8). For an undistorted ball pixel b and a
pixel height h:

- the foot is f = b + h e(b), with e the unit vector along
  b p3_w - p3_xy, the image direction of decreasing world Z;
- the ground point is g~ = H^-1 f~. Its weight g~_w is 1 / depth of the
  ground point, so it is <= 0 exactly when that point is behind the
  camera;
- the ball is (g, Z), where Z solves b~ x (H g^ + Z p3) = 0 in the
  least-squares sense (exactly, when b, f and p3 are collinear).

Everything is evaluated in np.longdouble, which carries 64 mantissa bits
on x86-64 Linux; where long double is plain float64 the module is
skipped. The inputs are the golden rows of tests/data/golden_kernels.npz
and the undistorted pixels `ball_rays` gives for them.
"""

from pathlib import Path

import numpy as np
import pytest

from courtlift._kernels import CAL_CX, CAL_CY, CAL_FX, CAL_FY, CAL_R, CAL_SKEW, CAL_T
from courtlift.reconstruct import ball_rays, reconstruct_from_height_batch

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="np.longdouble is not wider than float64 on this platform",
)

GOLDEN = Path(__file__).parent / "data" / "golden_kernels.npz"

OFFSETS_PX = (0.0, 10.0, 40.0, -400.0, 3000.0)

# At -400 px the foot of many rows lies just below the horizon, where the
# ground point's depth is large and a pixel's rounding error moves it by
# metres per pixel; the float64 kernel then differs from the long-double
# oracle by up to about 3e-8 m on the golden rows.
NEAR_HORIZON_TOL_M = 1e-7
TOL_M = 1e-12


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _apply(m, x):
    """The 3 x 3 matrix m, a list of rows of per-row arrays, times x."""
    return tuple(_dot(row, x) for row in m)


def _inverse(m):
    """The 3 x 3 inverse of m per row: adjugate over determinant."""
    cols = [[m[i][j] for i in range(3)] for j in range(3)]
    # The adjugate's rows are the cross products of m's columns.
    adj = [_cross(cols[1], cols[2]), _cross(cols[2], cols[0]), _cross(cols[0], cols[1])]
    det = _dot(cols[0], adj[0])
    return [[a / det for a in row] for row in adj]


def projective_lift(cal, u, v, h):
    """Oracle ball (x, y, z) and the ground weights at the ball pixel and
    at the foot, per row, in long double. ``cal`` is the (24, n) kernel
    layout; only the intrinsics and extrinsics are read."""
    c = np.asarray(cal, dtype=np.longdouble)
    u, v, h = (np.asarray(a, dtype=np.longdouble) for a in (u, v, h))
    zero, one = np.zeros_like(u), np.ones_like(u)
    k = [[c[CAL_FX], c[CAL_SKEW], c[CAL_CX]], [zero, c[CAL_FY], c[CAL_CY]], [zero, zero, one]]
    rt = [[c[CAL_R + 3 * i + j] for j in range(3)] + [c[CAL_T + i]] for i in range(3)]
    p = [[_dot(k[i], [rt[0][j], rt[1][j], rt[2][j]]) for j in range(4)] for i in range(3)]
    hom = [[row[0], row[1], row[3]] for row in p]
    p3 = tuple(row[2] for row in p)
    h_inv = _inverse(hom)

    b = (u, v, one)
    ex = u * p3[2] - p3[0]
    ey = v * p3[2] - p3[1]
    norm = np.sqrt(ex * ex + ey * ey)
    foot = (u + h * ex / norm, v + h * ey / norm, one)
    g = _apply(h_inv, foot)
    ground = (g[0] / g[2], g[1] / g[2], one)
    c1 = _cross(b, _apply(hom, ground))
    c2 = _cross(b, p3)
    z = -_dot(c1, c2) / _dot(c2, c2)
    ball = np.column_stack([ground[0], ground[1], z])
    return ball, _apply(h_inv, b)[2], g[2]


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def rays(golden):
    return ball_rays(golden["cals"], golden["cal_index"], golden["px"])


@pytest.fixture(scope="module")
def wild_rays(golden):
    return ball_rays(golden["cals"], golden["w_cal_index"], golden["w_px"])


def _lift(rays, heights):
    batch = reconstruct_from_height_batch(rays, heights)
    return batch, projective_lift(rays.cal, rays.u, rays.v, heights)


def _heights(golden, offset):
    n = len(golden["px"])
    return golden["heights"][offset * n : (offset + 1) * n]


@pytest.mark.parametrize("offset", range(len(OFFSETS_PX)))
def test_kernel_ball_matches_projective_oracle(golden, rays, offset):
    batch, (ball, _, _) = _lift(rays, _heights(golden, offset))
    ok = batch.ok
    assert ok.any()
    tol = NEAR_HORIZON_TOL_M if OFFSETS_PX[offset] < 0 else TOL_M
    error = np.abs(batch.ball_3d[ok] - ball[ok]).max()
    assert error <= tol, (OFFSETS_PX[offset], float(error))


def _behind_camera_iff_nonpositive_weight(rays, heights):
    """On the rows that pass undistortion, status 4 (ground point behind
    the camera) exactly where the ground weight at the ball pixel or at
    the foot is <= 0. Returns the number of status-4 rows."""
    batch, (_, w_ball, w_foot) = _lift(rays, heights)
    undistorted = rays.status == 0
    behind = (w_ball <= 0) | (w_foot <= 0)
    np.testing.assert_array_equal(batch.status[undistorted] == 4, behind[undistorted])
    return (batch.status == 4).sum()


def test_behind_camera_status_iff_nonpositive_ground_weight(golden, rays):
    counts = [_behind_camera_iff_nonpositive_weight(rays, _heights(golden, k)) for k in range(5)]
    assert counts[OFFSETS_PX.index(-400.0)] > 0


def test_wild_behind_camera_status_iff_nonpositive_ground_weight(golden, wild_rays):
    assert (wild_rays.status == 0).sum() >= 600
    assert _behind_camera_iff_nonpositive_weight(wild_rays, golden["w_heights"]) > 0
