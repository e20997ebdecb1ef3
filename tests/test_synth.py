"""Synthetic-scene generator tests: camera validity, height law, determinism."""

import io
import math
import warnings

import numpy as np
import pytest

from courtlift import (
    ArenaSpec,
    Dataset,
    HeightDistSpec,
    project,
    reconstruct_from_height,
    validate,
    write_dataset,
)
from courtlift import _kernels as _k
from courtlift import synth
from courtlift.camera import column, one_row
from courtlift.errors import DepthNonPositive, FrameCoverageFailure
from courtlift.rng import PURPOSE_BALL, PURPOSE_CAMERA, stream
from courtlift.synth import (
    DIST_KINDS,
    generate_dataset,
    make_camera,
    sample_ball,
    sample_camera,
    sample_height,
)

from conftest import ZERO_DIST_ARENA, camera_from_stream, sample_rows


class TestSampleCamera:
    def test_degenerate_ranges_pin_parameters(self):
        arena = ArenaSpec(
            camera_height_range=(5.0, 5.0),
            camera_distance_range=(20.0, 20.0),
            focal_range=(2000.0, 2000.0),
            k1_range=(0.0, 0.0),
            k2_range=(0.0, 0.0),
        )
        cal = camera_from_stream(4, 0, arena)
        assert cal.fx == 2000.0 and cal.fy == 2000.0
        center = -cal.rotation.T @ cal.translation
        assert center[2] == pytest.approx(5.0)
        assert math.hypot(center[0], center[1]) == pytest.approx(20.0)

    def test_draws_are_valid_and_see_court_center(self):
        arena = ArenaSpec()
        for i in range(1000):
            cal = camera_from_stream(9, i, arena)
            assert validate(cal) == []
            px = project(cal, (0, 0, 0))
            assert 0.0 <= px[0] <= arena.image_width - 1
            assert 0.0 <= px[1] <= arena.image_height - 1

    def test_same_stream_reproduces_camera(self):
        arena = ArenaSpec()
        a = camera_from_stream(3, 1, arena)
        b = camera_from_stream(3, 1, arena)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        assert a.fx == b.fx and a.cx == b.cx and a.k1 == b.k1

    def test_fewer_doubles_than_the_retry_budget_raise(self):
        with pytest.raises(ValueError, match="sample_camera needs 1100 doubles, got 1099"):
            sample_camera(np.full(1099, 0.5), ArenaSpec())

    @pytest.mark.parametrize(
        "name, value",
        [
            ("court_half_length", 1e160),  # the look-at distance overflows
            ("camera_distance_range", (15.0, 1e308)),
            ("camera_height_range", (3.0, 2.0**63)),  # looking straight down
        ],
    )
    def test_pose_make_camera_refuses_is_redrawn(self, name, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameCoverageFailure, match="no valid camera"):
                camera_from_stream(3, 0, ArenaSpec(**{name: value}))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("court_half_length", math.nan),
            ("court_half_width", math.inf),
            ("camera_height_range", (3.0, math.inf)),
            ("focal_range", (math.nan, 3000.0)),
            ("k1_range", (-math.inf, 0.0)),
            ("image_width", math.inf),
            ("ball_diameter_m", math.inf),
        ],
    )
    def test_non_finite_arena_spec_raises(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ArenaSpec(**{name: value})


class TestHeightLaw:
    def test_zero_tail_probability_keeps_all_below_3(self):
        dist = HeightDistSpec(kind="deepsport_like", p_above_3m=0.0)
        rng = stream(1, 0, PURPOSE_CAMERA)
        draws = sample_height(rng.random((2000, 2)).T, dist)
        assert all(0.0 <= z < 3.0 for z in draws)

    def test_tail_fraction_tracks_kind(self):
        rng = stream(2, 0, PURPOSE_CAMERA)
        deep = sample_height(rng.random((30000, 2)).T, HeightDistSpec(kind="deepsport_like"))
        frac = np.mean(np.asarray(deep) >= 3.0)
        assert frac == pytest.approx(60.0 / 801.0, abs=0.015)

    def test_uniform_kind_spans_range(self):
        dist = HeightDistSpec(kind="uniform", max_height=5.0)
        rng = stream(3, 0, PURPOSE_CAMERA)
        draws = sample_height(rng.random((5000, 1)).T, dist)
        assert draws.min() >= 0.0 and draws.max() <= 5.0
        assert np.mean(draws) == pytest.approx(2.5, abs=0.1)

    def test_ball_position_within_court(self):
        arena = ArenaSpec()
        rng = stream(4, 0, PURPOSE_CAMERA)
        for x, y, z in sample_ball(rng.random((500, 4)).T, arena, HeightDistSpec()):
            assert abs(x) <= arena.court_half_length
            assert abs(y) <= arena.court_half_width
            assert z >= 0.0

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            HeightDistSpec(kind="gaussian")
        with pytest.raises(ValueError):
            HeightDistSpec(p_above_3m=1.5)
        with pytest.raises(ValueError):
            HeightDistSpec(max_height=2.0)
        with pytest.raises(ValueError, match="max_height"):
            HeightDistSpec(max_height=math.inf)
        # The uniform law has no above-3 m share to set.
        with pytest.raises(ValueError, match="p_above_3m does not apply"):
            HeightDistSpec(kind="uniform", p_above_3m=0.5)


class TestGenerateDataset:
    def test_sample_invariants(self, clean_samples):
        arena = ZERO_DIST_ARENA
        for cal, ball_px, h, ball in sample_rows(clean_samples):
            px = project(cal, ball)
            assert math.hypot(px[0] - ball_px[0], px[1] - ball_px[1]) < 1e-9
            assert ball[2] >= 0.0
            assert 0.0 <= ball_px[0] <= arena.image_width - 1
            assert 0.0 <= ball_px[1] <= arena.image_height - 1
            assert h >= 0.0
        assert (clean_samples.d_true > 0.0).all()

    def test_round_robin_arena_assignment(self, clean_samples):
        n = len(clean_samples)
        assert clean_samples.ids.tolist() == list(range(n))
        assert clean_samples.arena.tolist() == [i % 8 for i in range(n)]

    def test_single_sample_and_determinism(self):
        one = generate_dataset(seed=5, n=1, n_arenas=1)
        assert len(one) == 1
        a = generate_dataset(seed=6, n=50, n_arenas=3)
        b = generate_dataset(seed=6, n=50, n_arenas=3)
        buf_a, buf_b = io.BytesIO(), io.BytesIO()
        folds = {"A": {0, 1, 2}}
        write_dataset(Dataset(samples=a, folds=folds), buf_a)
        write_dataset(Dataset(samples=b, folds=folds), buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_low_cameras_keep_balls_above_them(self):
        # Cameras at 3-3.5 m see many ballistic balls above them, and all
        # of those are reconstructable: none may be redrawn as unusable.
        arena = ArenaSpec(camera_height_range=(3.0, 3.5))
        dist = HeightDistSpec(kind="ballistic_like")
        samples = generate_dataset(seed=3, n=300, arena=arena, dist=dist, n_arenas=6)
        cals = np.array([cal.as_array() for cal in samples.cameras.values()]).T
        camera_z = _k.camera_center(cals)[2][samples.cal_index]
        assert (samples.ball_3d[:, 2] > camera_z).sum() > 50

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_dataset(seed=0, n=0)
        with pytest.raises(ValueError):
            generate_dataset(seed=0, n=1, n_arenas=0)
        # Arenas past the n-th would hold no sample.
        with pytest.raises(ValueError, match=r"n_arenas must be in \[1, n\], got 7 for n = 3"):
            generate_dataset(seed=1, n=3, n_arenas=7)

    @pytest.mark.parametrize("seed", [1.7, True, -1], ids=["float", "bool", "negative"])
    def test_seed_is_checked_before_any_column_is_allocated(self, seed):
        # 2**62 rows could not be allocated: the seed must be refused first.
        with pytest.raises(ValueError, match=rf"seed must be an int in \[0, 2\*\*64\), got {seed}"):
            generate_dataset(seed=seed, n=2**62)

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


def _fields(samples):
    """Each row's values; calibrations compare by their packed numbers."""
    s = samples
    return list(
        zip(
            s.ids.tolist(),
            s.arena.tolist(),
            (s.cameras[a].as_array().tolist() for a in s.arena.tolist()),
            s.ball_3d.tolist(),
            s.ball_px.tolist(),
            s.foot_px.tolist(),
            s.h_true.tolist(),
            s.d_true.tolist(),
        )
    )


def _reference_sample(seed, i, cameras, dist):
    """Sample i's row values (as `_fields` lists them) from a fresh stream
    of its own, one row at a time, and the number of attempts it took."""
    rng = stream(seed, i, PURPOSE_BALL)
    cal = cameras[i % len(cameras)]
    for attempt in range(1, 101):
        u = rng.random((synth._BALL_WORDS[dist.kind], 1))
        ball = sample_ball(u, RETRY_ARENA, dist)[0].tolist()
        usable, u, v, fu, fv, h, diameter = synth._annotate(
            column(cal), *one_row(*ball), RETRY_ARENA
        )
        if usable[0]:
            sample = (
                i,
                i % len(cameras),
                cal.as_array().tolist(),
                ball,
                [float(u[0]), float(v[0])],
                [float(fu[0]), float(fv[0])],
                float(h[0]),
                float(diameter[0]),
            )
            return sample, attempt
    raise AssertionError(f"sample {i} found no usable ball")


class TestStreamContract:
    """Sample i's attempts read stream (seed, i, PURPOSE_BALL) in order:
    the first from its start, each retry from where the last one stopped,
    and arena a's camera reads stream (seed, a, PURPOSE_CAMERA), whatever
    the placement and camera block sizes."""

    @pytest.mark.parametrize("kind", DIST_KINDS)
    def test_block_size_and_per_sample_reference_agree(self, kind, monkeypatch):
        seed, n, n_arenas = 5, 40, 3
        dist = HeightDistSpec(kind=kind)
        runs = []
        for block in (1, 7, n):
            monkeypatch.setattr(synth, "_PLACEMENT_BLOCK", block)
            monkeypatch.setattr(synth, "_CAMERA_BLOCK", block)
            samples = generate_dataset(seed, n, arena=RETRY_ARENA, dist=dist, n_arenas=n_arenas)
            runs.append(_fields(samples))
        assert runs[0] == runs[1] == runs[2]
        cameras = [
            camera_from_stream(seed, a, RETRY_ARENA) for a in range(n_arenas)
        ]
        reference = [_reference_sample(seed, i, cameras, dist) for i in range(n)]
        assert runs[0] == [sample for sample, _ in reference]
        attempts = [a for _, a in reference]
        assert max(attempts) >= 3, attempts  # retries, and retries of retries, were taken


def test_ball_whose_ground_point_is_behind_the_camera_is_unusable():
    # A camera 5 m up, pitched 45 degrees upward: the ball at (0, 4.5, 3) is
    # in front of it and in frame, its ground point (0, 4.5, 0) behind it.
    # The height lift from the ball pixel still succeeds, at the wrong
    # point, so only the ground point's depth check rejects the placement.
    arena = ArenaSpec(image_width=4000.0, image_height=4000.0)
    cal = make_camera((0.0, 0.0, 5.0), (0.0, 10.0, 15.0), 500.0, 4000.0, 4000.0)
    ball = (0.0, 4.5, 3.0)
    with pytest.raises(DepthNonPositive):
        project(cal, (*ball[:2], 0.0))
    usable, u, v, _, _, h, _ = synth._annotate(column(cal), *one_row(*ball), arena)
    assert synth._in_bounds(u[0], v[0], arena)
    lifted, _, _ = reconstruct_from_height(cal, (u[0], v[0]), h[0])
    assert math.dist(lifted, ball) > 0.5
    assert not usable[0]


@pytest.mark.parametrize(
    "ball", [(1.0, 0.0, 0.0), (1.0, 2.0, 0.0), (1.0, 1.0, -3.0)], ids=["nan", "inf", "behind"]
)
def test_candidate_on_or_behind_the_camera_plane_is_unusable_without_a_warning(
    identity_cal, ball
):
    # The identity camera's plane is world z = 0, so these balls and their
    # ground points have depth 0 or less: their normalized coordinates are
    # NaN or infinite, and h of (1, 2, 0) would subtract inf from inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        usable = synth._annotate(column(identity_cal), *one_row(*ball), ArenaSpec())[0]
    assert not usable[0]


class TestMakeCamera:
    def test_straight_down_is_rejected(self):
        with pytest.raises(ValueError):
            make_camera((0, 0, 10), (0, 0, 0), 1000.0, 1920, 1080)

    def test_rotation_is_proper(self, cam_a):
        np.testing.assert_allclose(cam_a.rotation.T @ cam_a.rotation, np.eye(3), atol=1e-12)
        assert np.linalg.det(cam_a.rotation) == pytest.approx(1.0)
