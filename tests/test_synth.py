"""Synthetic-scene generator tests: camera validity, height law, determinism."""

import io
import math

import numpy as np
import pytest

from courtlift import (
    ArenaSpec,
    Dataset,
    HeightDistSpec,
    ImagePoint,
    WorldPoint,
    make_camera,
    project,
    reconstruct_from_height,
    sample_ball,
    validate,
    write_dataset,
)
from courtlift import synth
from courtlift.camera import column, one_row
from courtlift.errors import DepthNonPositive, FrameCoverageFailure
from courtlift.rng import PURPOSE_BALL, PURPOSE_CAMERA, stream
from courtlift.synth import DIST_KINDS, generate_dataset, sample_camera, sample_height

from conftest import ZERO_DIST_ARENA


class TestSampleCamera:
    def test_degenerate_ranges_pin_parameters(self):
        arena = ArenaSpec(
            camera_height_range=(5.0, 5.0),
            camera_distance_range=(20.0, 20.0),
            focal_range=(2000.0, 2000.0),
            k1_range=(0.0, 0.0),
            k2_range=(0.0, 0.0),
        )
        cal = sample_camera(stream(4, 0, PURPOSE_CAMERA), arena)
        assert cal.fx == 2000.0 and cal.fy == 2000.0
        center = -cal.rotation.T @ cal.translation
        assert center[2] == pytest.approx(5.0)
        assert math.hypot(center[0], center[1]) == pytest.approx(20.0)

    def test_draws_are_valid_and_see_court_center(self):
        arena = ArenaSpec()
        for i in range(1000):
            cal = sample_camera(stream(9, i, PURPOSE_CAMERA), arena)
            assert validate(cal) == []
            px = project(cal, WorldPoint(0, 0, 0))
            assert 0.0 <= px.x <= arena.image_width - 1
            assert 0.0 <= px.y <= arena.image_height - 1

    def test_same_stream_reproduces_camera(self):
        arena = ArenaSpec()
        a = sample_camera(stream(3, 1, PURPOSE_CAMERA), arena)
        b = sample_camera(stream(3, 1, PURPOSE_CAMERA), arena)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        assert a.fx == b.fx and a.cx == b.cx and a.k1 == b.k1


class TestHeightLaw:
    def test_zero_tail_probability_keeps_all_below_3(self):
        dist = HeightDistSpec(kind="deepsport_like", p_above_3m=0.0)
        rng = stream(1, 0, PURPOSE_CAMERA)
        draws = [sample_height(rng, dist) for _ in range(2000)]
        assert all(0.0 <= z < 3.0 for z in draws)

    def test_tail_fraction_tracks_kind(self):
        rng = stream(2, 0, PURPOSE_CAMERA)
        deep = [sample_height(rng, HeightDistSpec(kind="deepsport_like")) for _ in range(30000)]
        frac = np.mean(np.asarray(deep) >= 3.0)
        assert frac == pytest.approx(60.0 / 801.0, abs=0.015)

    def test_uniform_kind_spans_range(self):
        dist = HeightDistSpec(kind="uniform", max_height=5.0)
        rng = stream(3, 0, PURPOSE_CAMERA)
        draws = np.array([sample_height(rng, dist) for _ in range(5000)])
        assert draws.min() >= 0.0 and draws.max() <= 5.0
        assert np.mean(draws) == pytest.approx(2.5, abs=0.1)

    def test_ball_position_within_court(self):
        arena = ArenaSpec()
        rng = stream(4, 0, PURPOSE_CAMERA)
        for _ in range(500):
            b = sample_ball(rng, arena, HeightDistSpec())
            assert abs(b.x) <= arena.court_half_length
            assert abs(b.y) <= arena.court_half_width
            assert b.z >= 0.0

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            HeightDistSpec(kind="gaussian")
        with pytest.raises(ValueError):
            HeightDistSpec(p_above_3m=1.5)
        with pytest.raises(ValueError):
            HeightDistSpec(max_height=2.0)


class TestGenerateDataset:
    def test_sample_invariants(self, clean_samples):
        arena = ZERO_DIST_ARENA
        for s in clean_samples:
            px = project(s.cal, s.ball_3d)
            assert math.hypot(px.x - s.ball_px.x, px.y - s.ball_px.y) < 1e-9
            assert s.ball_3d.z >= 0.0
            assert 0.0 <= s.ball_px.x <= arena.image_width - 1
            assert 0.0 <= s.ball_px.y <= arena.image_height - 1
            assert s.h_true >= 0.0 and s.diameter_px_true > 0.0

    def test_round_robin_arena_assignment(self, clean_samples):
        for i, s in enumerate(clean_samples):
            assert s.sample_id == i
            assert s.arena_id == i % 8

    def test_single_sample_and_determinism(self):
        one = generate_dataset(seed=5, n=1, n_arenas=1)
        assert len(one) == 1
        a = generate_dataset(seed=6, n=50, n_arenas=3)
        b = generate_dataset(seed=6, n=50, n_arenas=3)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        folds = {"A": {0, 1, 2}}
        write_dataset(Dataset(samples=a, folds=folds), buf_a)
        write_dataset(Dataset(samples=b, folds=folds), buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_dataset(seed=0, n=0)
        with pytest.raises(ValueError):
            generate_dataset(seed=0, n=1, n_arenas=0)

    def test_frame_coverage_failure_when_nothing_fits(self):
        # A 10 px image with a 3000 px focal cannot frame the court.
        arena = ArenaSpec(
            focal_range=(3000.0, 3000.0),
            image_width=10.0,
            image_height=10.0,
            k1_range=(0.0, 0.0),
            k2_range=(0.0, 0.0),
        )
        with pytest.raises(FrameCoverageFailure):
            generate_dataset(seed=1, n=5, arena=arena, n_arenas=1)


# A small frame misses many balls, so samples need several attempts.
RETRY_ARENA = ArenaSpec(image_width=1500.0, image_height=700.0)


def _fields(s):
    """A sample's values; calibrations compare by their packed numbers."""
    return (
        s.sample_id,
        s.arena_id,
        s.cal.as_array().tolist(),
        s.ball_3d,
        s.ball_px,
        s.foot_px,
        s.h_true,
        s.diameter_px_true,
    )


def _reference_sample(seed, i, cameras, dist):
    """Sample i from a fresh stream of its own, one row at a time, and
    the number of attempts it took."""
    rng = stream(seed, i, PURPOSE_BALL)
    cal = cameras[i % len(cameras)]
    for attempt in range(1, 101):
        ball = sample_ball(rng, RETRY_ARENA, dist)
        usable, u, v, fu, fv, h, diameter = synth._annotate(
            column(cal), *one_row(ball.x, ball.y, ball.z), RETRY_ARENA
        )
        if usable[0]:
            sample = synth.BallSample(
                sample_id=i,
                arena_id=i % len(cameras),
                cal=cal,
                ball_3d=ball,
                ball_px=synth.ImagePoint(float(u[0]), float(v[0])),
                foot_px=synth.ImagePoint(float(fu[0]), float(fv[0])),
                h_true=float(h[0]),
                diameter_px_true=float(diameter[0]),
            )
            return sample, attempt
    raise AssertionError(f"sample {i} found no usable ball")


class TestStreamContract:
    """Sample i's attempts read stream (seed, i, PURPOSE_BALL) in order:
    the first from its start, each retry from where the last one stopped,
    whatever the placement block size."""

    @pytest.mark.parametrize("kind", DIST_KINDS)
    def test_block_size_and_per_sample_reference_agree(self, kind, monkeypatch):
        seed, n, n_arenas = 5, 40, 3
        dist = HeightDistSpec(kind=kind)
        runs = []
        for block in (1, 7, n):
            monkeypatch.setattr(synth, "_PLACEMENT_BLOCK", block)
            samples = generate_dataset(seed, n, arena=RETRY_ARENA, dist=dist, n_arenas=n_arenas)
            runs.append([_fields(s) for s in samples])
        assert runs[0] == runs[1] == runs[2]
        cameras = [
            sample_camera(stream(seed, a, PURPOSE_CAMERA), RETRY_ARENA) for a in range(n_arenas)
        ]
        reference = [_reference_sample(seed, i, cameras, dist) for i in range(n)]
        assert runs[0] == [_fields(sample) for sample, _ in reference]
        attempts = [a for _, a in reference]
        assert max(attempts) >= 3, attempts  # retries, and retries of retries, were taken


def test_ball_whose_ground_point_is_behind_the_camera_is_unusable():
    # A camera 5 m up, pitched 45 degrees upward: the ball at (0, 4.5, 3) is
    # in front of it and in frame, its ground point (0, 4.5, 0) behind it.
    # The height lift from the ball pixel still succeeds, at the wrong
    # point, so only the ground point's depth check rejects the placement.
    arena = ArenaSpec(image_width=4000.0, image_height=4000.0)
    cal = make_camera((0.0, 0.0, 5.0), (0.0, 10.0, 15.0), 500.0, 4000.0, 4000.0)
    ball = WorldPoint(0.0, 4.5, 3.0)
    with pytest.raises(DepthNonPositive):
        project(cal, WorldPoint(ball.x, ball.y, 0.0))
    usable, u, v, _, _, h, _ = synth._annotate(column(cal), *one_row(ball.x, ball.y, ball.z), arena)
    assert synth._in_bounds(u[0], v[0], arena)
    lifted = reconstruct_from_height(cal, ImagePoint(u[0], v[0]), h[0]).ball_3d
    assert math.dist(lifted.as_array(), ball.as_array()) > 0.5
    assert not usable[0]


class TestMakeCamera:
    def test_straight_down_is_rejected(self):
        with pytest.raises(ValueError):
            make_camera((0, 0, 10), (0, 0, 0), 1000.0, 1920, 1080)

    def test_rotation_is_proper(self, cam_a):
        np.testing.assert_allclose(cam_a.rotation.T @ cam_a.rotation, np.eye(3), atol=1e-12)
        assert np.linalg.det(cam_a.rotation) == pytest.approx(1.0)
