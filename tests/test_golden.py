"""Golden gate for the batch reconstruction kernels.

tests/data/golden_kernels.npz holds inputs and outputs captured with
tests/data/capture_golden.py: 2000 samples over 12 default (distorted)
arenas, the height path at offsets 0, 10, 40, -400 and 3000 px, the
diameter path with heavy-tailed diameters, including non-positive ones,
the height path on random pixels in and far outside the frame, and the
undistortion of random pixels through the same cameras with k3,
tangential and skew terms added. The 2000 rows' rays are built once and
every offset and the diameters are reconstructed from them, as
`evaluate --repeats` and `sweep` do. Status codes must match on every
row, and the balls and undistorted pixels of OK rows must be
bit-identical. On the height path, `_kernels.lift_height` on the same
rays must give the stored foot pixels bit for bit and the stored
vertical angles to 1e-12 rad: numpy may run np.arctan2 on CPU-specific
SIMD code, whose last bit can differ from the capture host's.

The same inputs also check the foot pixel against the equation it
solves, f = b + h e(f), with e(f) the unit vertical at the foot, and
the undistortion's domain against a root-finding oracle on the wild
pixels.
"""

from pathlib import Path

import numpy as np
import pytest

from courtlift import _kernels as _k
from courtlift.reconstruct import (
    BallRays,
    ball_rays,
    reconstruct_from_diameter_batch,
    reconstruct_from_height_batch,
)

from conftest import first_branch_peak

GOLDEN = Path(__file__).parent / "data" / "golden_kernels.npz"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def rays(golden):
    return ball_rays(golden["cals"], golden["cal_index"], golden["px"])


def _lift(rays, heights):
    """``_k.lift_height`` on ``rays``: (bz, gx, gy, fu, fv, angle, status)."""
    return _k.lift_height(rays, heights)


def _check(batch, g, prefix, rows=slice(None)):
    """Compare a batch lift's (ball_3d, status) with the golden rows
    ``rows`` of ``prefix``."""
    ball_3d, status = batch
    np.testing.assert_array_equal(status, g[f"{prefix}_status"][rows])
    ok = status == _k.STATUS_OK
    np.testing.assert_array_equal(ball_3d[ok], g[f"{prefix}_ball"][rows][ok])


def _check_foot_and_angle(rays, heights, g, prefix, rows=slice(None)):
    """Compare the height lift's foot pixels and vertical angles with the
    golden rows ``rows`` of ``prefix``."""
    _, _, _, fu, fv, angle, _ = _lift(rays, heights)
    ok = g[f"{prefix}_status"][rows] == _k.STATUS_OK
    np.testing.assert_array_equal(np.column_stack([fu, fv])[ok], g[f"{prefix}_foot"][rows][ok])
    np.testing.assert_allclose(angle[ok], g[f"{prefix}_angle"][rows][ok], rtol=0, atol=1e-12)


def test_height_path_matches_golden(golden, rays):
    g = golden
    n = len(rays)
    assert len(g["heights"]) == 5 * n  # offsets 0, 10, 40, -400, 3000 px
    for start in range(0, 5 * n, n):
        rows = slice(start, start + n)
        heights = g["heights"][rows]
        _check(reconstruct_from_height_batch(rays, heights), g, "h", rows)
        _check_foot_and_angle(rays, heights, g, "h", rows)


def test_wild_pixels_match_golden(golden):
    g = golden
    wild = ball_rays(g["cals"], g["w_cal_index"], g["w_px"])
    batch = reconstruct_from_height_batch(wild, g["w_heights"])
    ball_3d, status = batch
    assert (status == 2).any()  # undistortion failures are covered
    # A ball above its camera images above the horizon, where its own
    # ray never meets the floor; only the foot's must.
    ok = status == _k.STATUS_OK
    above = ball_3d[ok, 2] > _k.camera_center(wild.cal[:, ok])[2]
    assert above.sum() >= 150
    _check(batch, g, "w")
    _check_foot_and_angle(wild, g["w_heights"], g, "w")


def test_diameter_path_matches_golden(golden, rays):
    g = golden
    batch = reconstruct_from_diameter_batch(rays, g["diameters"])
    _, status = batch
    assert (status != 0).any()
    _check(batch, g, "d")


def test_non_radial_undistortion_matches_golden(golden):
    # The default arenas' lenses are radial-only; this group pins the
    # k3, tangential and skew terms of the undistortion, both outcomes.
    g = golden
    lens = ball_rays(g["t_cals"], g["t_cal_index"], g["t_px"])
    np.testing.assert_array_equal(lens.status, g["t_status"])
    np.testing.assert_array_equal(np.bincount(lens.status), [1690, 0, 310])
    ok = lens.status == _k.STATUS_OK
    np.testing.assert_array_equal(lens.u[ok], g["t_u"][ok])
    np.testing.assert_array_equal(lens.v[ok], g["t_v"][ok])


def _assert_foot_solves_its_equation(rays, heights):
    """On OK rows the foot lifts at h = 0, the vertical at the foot is
    parallel to foot - ball, and the foot lies h px along it."""
    _, _, _, fu, fv, _, status = _lift(rays, heights)
    ok = status == _k.STATUS_OK
    fu, fv, cal = fu[ok], fv[ok], rays.cal[:, ok]
    feet = BallRays(cal, fu, fv, np.zeros_like(status[ok]))
    status = _k.lift_height(feet, np.zeros_like(fu))[-1]
    assert (status == _k.STATUS_OK).all()
    vx, vy, _ = _k._toward_nadir(cal, fu, fv)
    du = fu - rays.u[ok]
    dv = fv - rays.v[ok]
    assert np.abs(du * vy - dv * vx).max() <= 1e-10
    assert np.abs(du * vx + dv * vy - heights[ok]).max() <= 1e-9


@pytest.mark.parametrize("offset", range(5))
def test_foot_is_the_fixed_point(golden, rays, offset):
    n = len(rays)
    _assert_foot_solves_its_equation(rays, golden["heights"][offset * n : (offset + 1) * n])


def test_wild_foot_is_the_fixed_point(golden):
    g = golden
    wild = ball_rays(g["cals"], g["w_cal_index"], g["w_px"])
    _assert_foot_solves_its_equation(wild, g["w_heights"])


def test_wild_undistortion_domain_matches_the_root_oracle(golden):
    # Every golden camera is radial-only, so a pixel is inside the lens
    # model's invertible domain exactly when its distorted normalized
    # radius is below the first monotone branch's peak.
    g = golden
    cals = g["cals"]
    assert not cals[:, [_k.CAL_P1, _k.CAL_P2, _k.CAL_SKEW]].any()
    k1, k2, k3 = cals[:, _k.CAL_K1], cals[:, _k.CAL_K2], cals[:, _k.CAL_K3]
    peaks = np.array([first_branch_peak(*k) for k in zip(k1, k2, k3)])
    cam = cals[g["w_cal_index"]]
    u, v = g["w_px"].T
    xn = (u - cam[:, _k.CAL_CX]) / cam[:, _k.CAL_FX]
    yn = (v - cam[:, _k.CAL_CY]) / cam[:, _k.CAL_FY]
    inside = np.hypot(xn, yn) < peaks[g["w_cal_index"]]
    status = _k.undistort_pixel(cam.T, u, v)[2]
    np.testing.assert_array_equal(np.bincount(status), [873, 0, 127])
    np.testing.assert_array_equal(status == _k.STATUS_OK, inside)
