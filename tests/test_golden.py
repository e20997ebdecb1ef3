"""Golden gate for the batch reconstruction kernels.

tests/data/golden_kernels.npz holds inputs and outputs captured with
tests/data/capture_golden.py: 2000 samples over 12 default (distorted)
arenas, the height path at offsets 0, 10, 40, -400 and 3000 px, the
diameter path with heavy-tailed diameters, including non-positive ones,
and the height path on random pixels in and far outside the frame. The
2000 rows' rays are built once and every offset and the diameters are
reconstructed from them, as `evaluate --repeats` and `sweep` do. Status
codes must match on every row and the geometry of OK rows must be
bit-identical, except the vertical angle: numpy may run np.arctan2 on
CPU-specific SIMD code, whose last bit can differ from the capture
host's, so it gets 1e-12 rad.

The same inputs also check the foot pixel against the equation it
solves, f = b + h e(f), with e(f) the unit vertical at the foot.
"""

from pathlib import Path

import numpy as np
import pytest

from courtlift import _kernels as _k
from courtlift.reconstruct import (
    ball_rays,
    reconstruct_from_diameter_batch,
    reconstruct_from_height_batch,
)

GOLDEN = Path(__file__).parent / "data" / "golden_kernels.npz"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def rays(golden):
    return ball_rays(golden["cals"], golden["cal_index"], golden["px"])


def _check(batch, g, prefix, exact, rows=slice(None)):
    """Compare a batch with the golden rows ``rows`` of ``prefix``."""
    np.testing.assert_array_equal(batch.status, g[f"{prefix}_status"][rows])
    ok = batch.ok
    for name, key in exact:
        np.testing.assert_array_equal(getattr(batch, name)[ok], g[f"{prefix}_{key}"][rows][ok])
    np.testing.assert_allclose(
        batch.vertical_angle[ok], g[f"{prefix}_angle"][rows][ok], rtol=0, atol=1e-12
    )


HEIGHT_EXACT = [
    ("ball_3d", "ball"),
    ("ground_projection", "ground"),
    ("foot_px", "foot"),
    ("plane_gap", "gap"),
]


def test_height_path_matches_golden(golden, rays):
    g = golden
    n = len(rays)
    assert len(g["heights"]) == 5 * n  # offsets 0, 10, 40, -400, 3000 px
    for start in range(0, 5 * n, n):
        rows = slice(start, start + n)
        batch = reconstruct_from_height_batch(rays, g["heights"][rows])
        _check(batch, g, "h", HEIGHT_EXACT, rows)


def test_wild_pixels_match_golden(golden):
    g = golden
    wild = ball_rays(g["cals"], g["w_cal_index"], g["w_px"])
    batch = reconstruct_from_height_batch(wild, g["w_heights"])
    assert (batch.status == 2).any()  # undistortion failures are covered
    _check(batch, g, "w", HEIGHT_EXACT)


def test_diameter_path_matches_golden(golden, rays):
    g = golden
    batch = reconstruct_from_diameter_batch(rays, g["diameters"])
    assert (batch.status != 0).any()
    _check(batch, g, "d", [("ball_3d", "ball"), ("ground_projection", "ground"), ("foot_px", "foot")])
    assert (batch.plane_gap[batch.ok] == 0.0).all()


def _assert_foot_solves_its_equation(rays, heights):
    """On OK rows the vertical at the foot is parallel to foot - ball, and
    the foot lies h px along it."""
    batch = reconstruct_from_height_batch(rays, heights)
    ok = batch.ok
    fu, fv = batch.foot_px[ok].T
    vx, vy, _, _, _, status = _k.vertical_direction(rays.cal[:, ok], fu, fv)
    assert (status == _k.STATUS_OK).all()
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
