"""Property tests over arena cameras drawn by sample_camera.

Each example draws a seed; generate_dataset then draws the cameras (with
sample_camera) and exactly annotated balls from it, on the zero-distortion
and on the strong-distortion arena. One more property places cameras and
balls directly, so no reconstructability filter picks the balls it lifts.
Examples are derandomized so every run checks the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courtlift import (
    generate_dataset,
    project,
    reconstruct_from_height,
)
from courtlift import _kernels as _k
from courtlift._kernels import STATUS_NONFINITE_INPUT, STATUS_OK
from courtlift.camera import STATUS_NAMES, scale_calibration
from courtlift import errors
from courtlift.reconstruct import (
    ball_rays,
    reconstruct_from_diameter_batch,
    reconstruct_from_height_batch,
)
from courtlift.synth import make_camera

from conftest import STRONG_DIST_ARENA, ZERO_DIST_ARENA, sample_rows

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


def _rays(samples):
    return ball_rays(samples.cameras.values(), samples.cal_index, samples.ball_px)


def _height_batch(samples, heights):
    return reconstruct_from_height_batch(_rays(samples), heights)


def _height_lift(samples, heights):
    """The height batch and, from _k.lift_height on the same rays, each
    row's foot pixel (fu, fv) and vertical angle."""
    rays = _rays(samples)
    _, _, _, fu, fv, angle, _ = _k.lift_height(rays, heights)
    return reconstruct_from_height_batch(rays, heights), (fu, fv, angle)


def _diameter_batch(samples, diameters):
    return reconstruct_from_diameter_batch(_rays(samples), diameters)


def _assert_diameter_row_matches_one_ray(batch, i, cal, px, d):
    """Row i of a diameter batch equals, bit for bit, the diameter baseline
    on a length-one BallRays of its camera and pixel alone."""
    one = reconstruct_from_diameter_batch(ball_rays([cal], [0], [px]), [d])
    for array, one_array in zip(batch, one):
        np.testing.assert_array_equal(array[i], one_array[0])


def _assert_row_matches_one_ball(batch, foot_angle, i, cal, px, h):
    """Row i of a height batch, with its foot pixel and angle from
    ``foot_angle`` (see _height_lift), equals, bit for bit,
    reconstruct_from_height, or reconstruct_from_height raises the error
    the row's status names."""
    ball_3d, status = batch
    if status[i] != STATUS_OK:
        with pytest.raises(getattr(errors, STATUS_NAMES[int(status[i])])):
            reconstruct_from_height(cal, px, h)
        return
    one_ball, foot_pixel, vertical_angle = reconstruct_from_height(cal, px, h)
    fu, fv, angle = foot_angle
    np.testing.assert_array_equal(ball_3d[i], np.asarray(one_ball))
    np.testing.assert_array_equal([fu[i], fv[i]], np.asarray(foot_pixel))
    np.testing.assert_array_equal(angle[i], vertical_angle)


@PROPERTY
@given(seed=seeds, arena=arenas)
def test_exact_inputs_round_trip(seed, arena):
    samples = _samples(seed, arena)
    ball_3d, status = _height_batch(samples, samples.h_true)
    assert (status == STATUS_OK).all()
    assert np.linalg.norm(ball_3d - samples.ball_3d, axis=1).max() < 1e-6


# A camera 22-30 m from the court centre at 1.5-8 m, looking at the
# centre spot, has every ball over the court up to twice its own height
# in front of it.
@PROPERTY
@given(
    distance=st.floats(22.0, 30.0),
    azimuth=st.floats(0.0, 2.0 * math.pi),
    camera_z=st.floats(1.5, 8.0),
    focal=st.floats(1000.0, 3000.0),
    balls=st.lists(
        st.tuples(st.floats(-14.0, 14.0), st.floats(-7.5, 7.5), st.floats(0.0, 1.0)),
        min_size=N,
        max_size=N,
    ),
)
def test_placed_balls_round_trip_above_and_below_the_camera(
    distance, azimuth, camera_z, focal, balls
):
    center = (distance * math.cos(azimuth), distance * math.sin(azimuth), camera_z)
    cal = make_camera(center, (0.0, 0.0, 0.0), focal, 4500.0, 1500.0)
    # Even rows at or below the camera centre, odd rows at or above it.
    truth = np.array([(x, y, camera_z * (t + i % 2)) for i, (x, y, t) in enumerate(balls)])
    px = [project(cal, ball) for ball in truth]
    feet = [project(cal, (x, y, 0.0)) for x, y, _ in truth]
    heights = [math.hypot(b[0] - f[0], b[1] - f[1]) for b, f in zip(px, feet)]
    rays = ball_rays([cal], np.zeros(N, dtype=np.int64), px)
    ball_3d, status = reconstruct_from_height_batch(rays, heights)
    assert (status == STATUS_OK).all()
    assert np.linalg.norm(ball_3d - truth, axis=1).max() < 1e-6


@PROPERTY
@given(seed=seeds, arena=arenas, offset=offsets, factor=factors)
def test_batch_rows_equal_single_calls(seed, arena, offset, factor):
    samples = _samples(seed, arena)
    heights = samples.h_true + offset
    diameters = samples.d_true * factor
    h_batch, foot_angle = _height_lift(samples, heights)
    d_batch = _diameter_batch(samples, diameters)
    for i, (cal, px, _, _) in enumerate(sample_rows(samples)):
        _assert_row_matches_one_ball(h_batch, foot_angle, i, cal, px, heights[i])
        _assert_diameter_row_matches_one_ray(d_batch, i, cal, px, diameters[i])


@PROPERTY
@given(seed=seeds, arena=arenas, ratio=st.sampled_from([2.0, 0.5, 0.25, 0.125]))
def test_power_of_two_scale_invariance_is_bit_exact(seed, arena, ratio):
    samples = _samples(seed, arena)
    heights = samples.h_true
    base_ball, base_status = _height_batch(samples, heights)
    scaled_cals = [scale_calibration(cal, ratio) for cal in samples.cameras.values()]
    rays = ball_rays(scaled_cals, samples.cal_index, samples.ball_px * ratio)
    scaled_ball, scaled_status = reconstruct_from_height_batch(rays, heights * ratio)
    assert (base_status == STATUS_OK).all() and (scaled_status == STATUS_OK).all()
    np.testing.assert_array_equal(scaled_ball, base_ball)


@PROPERTY
@given(seed=seeds, arena=arenas, offset=offsets, factor=factors)
def test_ok_rows_are_finite(seed, arena, offset, factor):
    samples = _samples(seed, arena)
    h_batch, (fu, fv, angle) = _height_lift(samples, samples.h_true + offset)
    d_batch = _diameter_batch(samples, samples.d_true * factor)
    for ball_3d, status in (h_batch, d_batch):
        ok = status == STATUS_OK
        assert np.isfinite(ball_3d[ok]).all()
        assert np.isnan(ball_3d[~ok]).all()
    _, h_status = h_batch
    ok = h_status == STATUS_OK
    assert all(np.isfinite(values[ok]).all() for values in (fu, fv, angle))
    nonfinite = ~np.isfinite(np.array(offset))
    assert (h_status[nonfinite] == STATUS_NONFINITE_INPUT).all()

