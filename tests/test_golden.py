"""Golden gate for the batch reconstruction kernels.

tests/data/golden_kernels.npz holds inputs and outputs captured with
tests/data/capture_golden.py before the kernels were rewritten as array
operations: 2000 samples over 12 default (distorted) arenas, the height
path at offsets 0, 10, 40, -400 and 3000 px, the diameter path with
heavy-tailed diameters, including non-positive ones, and the height path
on random pixels in and far outside the frame. The 2000 rows' rays are
built once and every offset and the diameters are reconstructed from
them, as `evaluate --repeats` and `sweep` do. Status codes must
match on every row and the geometry of OK rows must be bit-identical,
except the vertical angle: np.arctan2 and math.atan2 can differ in the
last bit, so it gets 1e-12 rad.
"""

from pathlib import Path

import numpy as np
import pytest

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
