"""Property tests over arena cameras drawn by sample_camera.

Each example draws a seed; generate_dataset then draws the cameras (with
sample_camera) and exactly annotated balls from it, on the zero-distortion
and on the strong-distortion arena. Examples are derandomized so every
run checks the same inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courtlift import (
    generate_dataset,
    reconstruct_from_diameter,
    reconstruct_from_height,
    scale_calibration,
)
from courtlift._kernels import STATUS_NONFINITE_INPUT
from courtlift.camera import STATUS_NAMES
from courtlift import errors
from courtlift.reconstruct import (
    ball_rays,
    reconstruct_from_diameter_batch,
    reconstruct_from_height_batch,
)

from conftest import STRONG_DIST_ARENA, ZERO_DIST_ARENA

N = 12
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
arenas = st.sampled_from([ZERO_DIST_ARENA, STRONG_DIST_ARENA])
# Height offsets (px) and diameter factors, from exact to pathological.
offsets = st.lists(
    st.one_of(
        st.floats(-500.0, 3000.0),
        st.sampled_from([0.0, float("nan"), float("inf"), -float("inf"), 1e300]),
    ),
    min_size=N,
    max_size=N,
)
factors = st.lists(
    st.one_of(
        st.floats(-2.0, 5.0),
        st.sampled_from([1.0, 0.0, float("nan"), float("inf"), 1e-300]),
    ),
    min_size=N,
    max_size=N,
)


def _samples(seed, arena):
    return generate_dataset(seed=seed, n=N, arena=arena, n_arenas=3)


def _pixels(samples):
    return np.array([[s.ball_px.x, s.ball_px.y] for s in samples])


def _height_batch(samples, heights):
    cals = [s.cal for s in samples]
    return reconstruct_from_height_batch(ball_rays(cals, np.arange(N), _pixels(samples)), heights)


def _diameter_batch(samples, diameters):
    cals = [s.cal for s in samples]
    rays = ball_rays(cals, np.arange(N), _pixels(samples))
    return reconstruct_from_diameter_batch(rays, diameters)


def _assert_row_matches(batch, i, call):
    """Row i of a batch equals, bit for bit, the n=1 wrapper result, or the
    wrapper raises the error the row's status names."""
    if not batch.ok[i]:
        with pytest.raises(getattr(errors, STATUS_NAMES[int(batch.status[i])])):
            call()
        return
    rec = call()
    np.testing.assert_array_equal(batch.ball_3d[i], rec.ball_3d.as_array())
    np.testing.assert_array_equal(
        batch.ground_projection[i], rec.ground_projection.as_array()[:2]
    )
    foot = [np.nan, np.nan] if rec.foot_pixel is None else [rec.foot_pixel.x, rec.foot_pixel.y]
    np.testing.assert_array_equal(batch.foot_px[i], foot)
    angle = np.nan if rec.vertical_angle is None else rec.vertical_angle
    np.testing.assert_array_equal(batch.vertical_angle[i], angle)
    assert batch.plane_gap[i] == rec.plane_gap


@PROPERTY
@given(seed=seeds, arena=arenas)
def test_exact_inputs_round_trip(seed, arena):
    samples = _samples(seed, arena)
    batch = _height_batch(samples, [s.h_true for s in samples])
    assert batch.ok.all()
    truth = np.array([s.ball_3d.as_array() for s in samples])
    assert np.linalg.norm(batch.ball_3d - truth, axis=1).max() < 1e-6


@PROPERTY
@given(seed=seeds, arena=arenas, offset=offsets, factor=factors)
def test_batch_rows_equal_single_calls(seed, arena, offset, factor):
    samples = _samples(seed, arena)
    heights = np.array([s.h_true for s in samples]) + offset
    diameters = np.array([s.diameter_px_true for s in samples]) * factor
    h_batch = _height_batch(samples, heights)
    d_batch = _diameter_batch(samples, diameters)
    for i, s in enumerate(samples):
        _assert_row_matches(h_batch, i, lambda: reconstruct_from_height(s.cal, s.ball_px, heights[i]))
        _assert_row_matches(
            d_batch, i, lambda: reconstruct_from_diameter(s.cal, s.ball_px, diameters[i])
        )


@PROPERTY
@given(seed=seeds, arena=arenas, ratio=st.sampled_from([2.0, 0.5, 0.25, 0.125]))
def test_power_of_two_scale_invariance_is_bit_exact(seed, arena, ratio):
    samples = _samples(seed, arena)
    heights = np.array([s.h_true for s in samples])
    base = _height_batch(samples, heights)
    scaled_cals = [scale_calibration(s.cal, ratio) for s in samples]
    rays = ball_rays(scaled_cals, np.arange(N), _pixels(samples) * ratio)
    scaled = reconstruct_from_height_batch(rays, heights * ratio)
    assert base.ok.all() and scaled.ok.all()
    np.testing.assert_array_equal(scaled.ball_3d, base.ball_3d)
    np.testing.assert_array_equal(scaled.ground_projection, base.ground_projection)


@PROPERTY
@given(seed=seeds, arena=arenas, offset=offsets, factor=factors)
def test_ok_rows_are_finite(seed, arena, offset, factor):
    samples = _samples(seed, arena)
    h_batch = _height_batch(samples, np.array([s.h_true for s in samples]) + offset)
    d_batch = _diameter_batch(samples, np.array([s.diameter_px_true for s in samples]) * factor)
    for batch in (h_batch, d_batch):
        ok = batch.ok
        for values in (batch.ball_3d, batch.ground_projection, batch.plane_gap):
            assert np.isfinite(values[ok]).all()
    ok = h_batch.ok
    assert np.isfinite(h_batch.foot_px[ok]).all() and np.isfinite(h_batch.vertical_angle[ok]).all()
    nonfinite = ~np.isfinite(np.array(offset))
    assert (h_batch.status[nonfinite] == STATUS_NONFINITE_INPUT).all()

