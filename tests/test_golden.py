"""Golden gate for the batch reconstruction kernels.

tests/data/golden_kernels.npz holds inputs and outputs captured with
tests/data/capture_golden.py before the kernels were rewritten as array
operations: 2000 samples over 12 default (distorted) arenas, the height
path at offsets 0, 10, 40, -400 and 3000 px, the diameter path with
heavy-tailed diameters, including non-positive ones, and the height path
on random pixels in and far outside the frame. Status codes must
match on every row and the geometry of OK rows must be bit-identical,
except the vertical angle: np.arctan2 and math.atan2 can differ in the
last bit, so it gets 1e-12 rad.
"""

from pathlib import Path

import numpy as np
import pytest

from courtlift.reconstruct import reconstruct_from_diameter_batch, reconstruct_from_height_batch

GOLDEN = Path(__file__).parent / "data" / "golden_kernels.npz"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


def _check(batch, g, prefix, exact):
    np.testing.assert_array_equal(batch.status, g[f"{prefix}_status"])
    ok = batch.ok
    for name, key in exact:
        np.testing.assert_array_equal(getattr(batch, name)[ok], g[f"{prefix}_{key}"][ok])
    np.testing.assert_allclose(
        batch.vertical_angle[ok], g[f"{prefix}_angle"][ok], rtol=0, atol=1e-12
    )


HEIGHT_EXACT = [
    ("ball_3d", "ball"),
    ("ground_projection", "ground"),
    ("foot_px", "foot"),
    ("plane_gap", "gap"),
]


def test_height_path_matches_golden(golden):
    g = golden
    k = len(g["heights"]) // len(g["px"])
    batch = reconstruct_from_height_batch(
        g["cals"], np.tile(g["cal_index"], k), np.tile(g["px"], (k, 1)), g["heights"]
    )
    _check(batch, g, "h", HEIGHT_EXACT)


def test_wild_pixels_match_golden(golden):
    g = golden
    batch = reconstruct_from_height_batch(g["cals"], g["w_cal_index"], g["w_px"], g["w_heights"])
    assert (batch.status == 2).any()  # undistortion failures are covered
    _check(batch, g, "w", HEIGHT_EXACT)


def test_diameter_path_matches_golden(golden):
    g = golden
    batch = reconstruct_from_diameter_batch(g["cals"], g["cal_index"], g["px"], g["diameters"])
    assert (batch.status != 0).any()
    _check(batch, g, "d", [("ball_3d", "ball"), ("ground_projection", "ground"), ("foot_px", "foot")])
    assert (batch.plane_gap[batch.ok] == 0.0).all()
