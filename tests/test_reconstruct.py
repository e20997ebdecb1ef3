"""Reconstruction tests: verticals, foot pixels, the master round trip,
the forward oracle, and the diameter baseline.

The side-on fixture makes many expectations exact: with a horizontal
optical axis along +Y and up +Z, world verticals map to image columns,
so the local vertical is (0, 1), the foot pixel is a pure +y offset, and
the hand-projected pixel height of a ball at (0, 0, 1) seen from
(0, -20, 1.5) with f = 2000 is
  y_ball = cy + 2000 * 0.5 / 20 = cy + 50
  y_foot = cy + 2000 * 1.5 / 20 = cy + 150   ->   h = 100 px exactly.
"""

import dataclasses
import math

import numpy as np
import pytest

from courtlift import (
    ArenaSpec,
    CameraCalibration,
    ImagePoint,
    WorldPoint,
    ball_rays,
    make_camera,
    project,
    reconstruct_from_height,
    reconstruct_from_height_batch,
    synth,
)
from courtlift import _kernels as _k
from courtlift.camera import column, one_row
from courtlift.errors import (
    DegenerateVertical,
    IntersectionBehindCamera,
    NonFiniteInput,
    NonPositiveDiameter,
    VerticalBehindCamera,
)
from courtlift._kernels import STATUS_NONFINITE_INPUT, STATUS_NONPOSITIVE_DIAMETER, STATUS_OK
from courtlift.reconstruct import pack_calibrations, reconstruct_from_diameter_batch

from conftest import kernel_row


def _overhead_cal() -> CameraCalibration:
    # Straight-down camera at 20 m: right=+X, image-down=-Y, forward=-Z.
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    return CameraCalibration(
        fx=1500.0,
        fy=1500.0,
        cx=960.0,
        cy=540.0,
        rotation=rotation,
        translation=-rotation @ np.array([0.0, 0.0, 20.0]),
        image_width=1920.0,
        image_height=1080.0,
    )


def _vertical(cal: CameraCalibration, x: float, y: float):
    """(vx, vy), angle and status of the local vertical at a pixel: the
    lift at h = 0, whose foot is the pixel itself."""
    with np.errstate(invalid="ignore"):  # 0 / 0 at the vanishing point
        vx, vy, _ = kernel_row(_k._toward_nadir, cal, x, y)
    _, _, _, _, _, angle, status = kernel_row(_k.lift_height, cal, x, y, 0.0, STATUS_OK)
    return (vx, vy), angle, status


def _foot(cal: CameraCalibration, px: ImagePoint, h: float):
    """Foot pixel and lift status of a ball pixel lifted by h px."""
    _, _, _, fu, fv, _, status = kernel_row(_k.lift_height, cal, px.x, px.y, h, STATUS_OK)
    return ImagePoint(fu, fv), status


def _oracle(cal: CameraCalibration, ball: WorldPoint):
    """synth's forward oracle for one ball, the source of the Samples
    columns h_true and d_true: (usable, pixel height, image diameter)."""
    arena = ArenaSpec(image_width=cal.image_width, image_height=cal.image_height)
    usable, _, _, _, _, h, d = synth._annotate(column(cal), *one_row(ball.x, ball.y, ball.z), arena)
    return bool(usable[0]), h[0].item(), d[0].item()


def _diameter_row(cal: CameraCalibration, px: ImagePoint, d: float, *ball_diameter_m):
    """The diameter baseline on one ray: (ball_3d, status)."""
    rays = ball_rays([cal], [0], [[px.x, px.y]])
    batch = reconstruct_from_diameter_batch(rays, [d], *ball_diameter_m)
    return batch.ball_3d[0], batch.status[0]


class TestVerticalDirection:
    def test_side_on_vertical_is_image_column(self, side_cal):
        direction, angle, status = _vertical(side_cal, 1400.0, 950.0)
        assert status == STATUS_OK
        np.testing.assert_allclose(direction, [0.0, 1.0], atol=1e-12)
        assert abs(angle) < 1e-12

    def test_overhead_nadir_is_degenerate(self):
        cal = _overhead_cal()
        assert _vertical(cal, cal.cx, cal.cy)[2] == _k.STATUS_DEGENERATE_VERTICAL
        # A ball pixel at the vanishing point has no direction to walk.
        with pytest.raises(DegenerateVertical):
            reconstruct_from_height(cal, ImagePoint(cal.cx, cal.cy), 10.0)

    def test_fan_pattern_across_panorama(self, cam_a):
        # Verticals lean toward the nadir vanishing point below the image:
        # positive angle left of center, negative right, growing outward.
        def angle_at(dx):
            _, angle, status = _vertical(cam_a, cam_a.cx + dx, cam_a.cy)
            assert status == STATUS_OK
            return angle

        assert angle_at(-1500) > 0 > angle_at(+1500)
        assert abs(angle_at(1500)) > abs(angle_at(700)) > abs(angle_at(100))
        np.testing.assert_allclose(angle_at(-1500), -angle_at(1500), atol=1e-12)

    def test_sky_pixel_errors(self, side_cal):
        sky = _vertical(side_cal, 2250.0, side_cal.cy - 200.0)[2]
        assert sky == _k.STATUS_BEHIND_CAMERA
        assert _vertical(side_cal, 2250.0, side_cal.cy)[2] == _k.STATUS_RAY_PARALLEL


class TestFootPixel:
    def test_zero_height_is_identity(self, side_cal):
        px = ImagePoint(1800.0, 1000.0)
        f, status = _foot(side_cal, px, 0.0)
        assert status == STATUS_OK
        np.testing.assert_allclose([f.x, f.y], [px.x, px.y], atol=1e-9)

    def test_side_on_offset_is_exact(self, side_cal):
        px = ImagePoint(2000.0, 900.0)
        f, status = _foot(side_cal, px, 100.0)
        assert status == STATUS_OK
        np.testing.assert_allclose([f.x, f.y], [2000.0, 1000.0], atol=1e-9)

    def test_forward_oracle_consistency(self, clean_samples):
        # The foot at the true height must land on the projected ground
        # point; the closed form is exact up to float noise.
        for s in clean_samples:
            f, status = _foot(s.cal, s.ball_px, s.h_true)
            assert status == STATUS_OK
            x, y, _ = s.ball_3d.as_array()
            _, _, gu, gv, _, status = kernel_row(_k.project_point, s.cal, x, y, 0.0)
            assert status == STATUS_OK
            assert math.hypot(f.x - gu, f.y - gv) < 1e-9


class TestReconstructFromHeight:
    def test_master_round_trip_zero_distortion(self, clean_samples):
        for s in clean_samples:
            rec = reconstruct_from_height(s.cal, s.ball_px, s.h_true)
            err = np.linalg.norm(rec.ball_3d.as_array() - s.ball_3d.as_array())
            assert err < 1e-6

    def test_master_round_trip_with_distortion(self, distorted_samples):
        for s in distorted_samples:
            rec = reconstruct_from_height(s.cal, s.ball_px, s.h_true)
            err = np.linalg.norm(rec.ball_3d.as_array() - s.ball_3d.as_array())
            assert err < 1e-9

    def test_zero_height_on_ground_point(self, cam_a):
        g = WorldPoint(2.5, -1.5, 0.0)
        px = project(cam_a, g)
        rec = reconstruct_from_height(cam_a, px, 0.0)
        np.testing.assert_allclose(rec.ball_3d.as_array(), g.as_array(), atol=1e-9)

    def test_ball_ray_without_x_component(self, side_cal):
        # Ball in the camera's own Y-Z plane: the ball-ray x component is
        # exactly 0, and recovery stays exact.
        # (Kept below camera height so the pixel ray still meets the ground.)
        ball = WorldPoint(0.0, 0.0, 1.0)
        px = project(side_cal, ball)
        assert px.x == side_cal.cx
        rec = reconstruct_from_height(side_cal, px, _oracle(side_cal, ball)[1])
        np.testing.assert_allclose(rec.ball_3d.as_array(), ball.as_array(), atol=1e-6)
        assert rec.ball_3d.x == 0.0

    def test_negative_height_is_propagated(self, side_cal):
        # Foot above the ball in the image: ground lands farther away and
        # the reconstructed ball is lower than the truth (may go negative).
        ball = WorldPoint(0.5, 0.0, 1.0)
        px = project(side_cal, ball)
        rec = reconstruct_from_height(side_cal, px, -30.0)
        assert math.isfinite(rec.ball_3d.z)
        assert rec.ball_3d.z < 1.0

    def test_extreme_negative_height_fails_cleanly(self, side_cal):
        # A -500 px prediction pushes the foot past the horizon, so the
        # foot ray meets the ground behind the camera: a typed failure,
        # never a garbage value.
        ball = WorldPoint(0.5, 0.0, 1.0)
        px = project(side_cal, ball)
        with pytest.raises(IntersectionBehindCamera):
            reconstruct_from_height(side_cal, px, -500.0)

    def test_foot_past_the_vanishing_point_fails_cleanly(self):
        # A steep camera whose vertical vanishing point (1000, 1300) is in
        # frame. The true height round-trips; a 1500 px height walks the
        # foot past that point, to a ground point whose vertical the ball
        # ray meets only behind the camera.
        cal = make_camera((0.0, -3.0, 10.0), (0.0, 0.0, 0.0), 1000.0, 2000.0, 2000.0)
        ball = WorldPoint(0.0, 0.5, 1.0)
        px = project(cal, ball)
        h = _oracle(cal, ball)[1]
        assert h == pytest.approx(34.35, abs=0.01)
        rec = reconstruct_from_height(cal, px, h)
        np.testing.assert_allclose(rec.ball_3d.as_array(), ball.as_array(), atol=1e-9)
        with pytest.raises(VerticalBehindCamera):
            reconstruct_from_height(cal, px, 1500.0)

    @pytest.mark.parametrize("z", [3.1, 5.0])
    def test_ball_above_the_camera_round_trips(self, z):
        # The ball pixel lies above the horizon and its ray never meets
        # the floor; only the foot's ray must.
        cal = make_camera((0.0, -20.0, 3.0), (0.0, 0.0, 1.5), 2000.0, 4500.0, 1500.0)
        ball = WorldPoint(0.5, -5.0, z)
        px = project(cal, ball)
        h = _oracle(cal, ball)[1]
        rec = reconstruct_from_height(cal, px, h)
        np.testing.assert_allclose(rec.ball_3d.as_array(), ball.as_array(), rtol=0, atol=1e-9)
        batch = reconstruct_from_height_batch(ball_rays([cal], [0], [[px.x, px.y]]), [h])
        np.testing.assert_array_equal(batch.ball_3d[0], rec.ball_3d.as_array())

    def test_vertical_angle_reported(self, cam_a, clean_samples):
        s = next(iter(clean_samples))
        rec = reconstruct_from_height(s.cal, s.ball_px, s.h_true)
        _, angle, status = _vertical(s.cal, rec.foot_pixel.x, rec.foot_pixel.y)
        assert status == STATUS_OK
        assert rec.vertical_angle == pytest.approx(angle, abs=1e-9)

    def test_result_holds_finite_python_floats(self, clean_samples):
        # An OK row always has a foot pixel and a vertical angle.
        s = next(iter(clean_samples))
        rec = reconstruct_from_height(s.cal, s.ball_px, s.h_true)
        points = (rec.ball_3d, rec.foot_pixel)
        values = [*(x for p in points for x in dataclasses.astuple(p)), rec.vertical_angle]
        assert all(type(x) is float and math.isfinite(x) for x in values)


class TestForwardOracle:
    def test_ground_ball_has_zero_height(self, cam_a):
        assert _oracle(cam_a, WorldPoint(3.0, 1.0, 0.0))[1] == 0.0

    def test_side_on_hand_values(self, side_cal):
        # Depth 20 m: h = 100 px (module docstring) and the 0.24 m ball
        # images 2000 * 0.24 / 20 = 24 px wide; doubling the depth halves
        # the diameter.
        usable, h, d = _oracle(side_cal, WorldPoint(0.0, 0.0, 1.0))
        assert usable
        assert h == pytest.approx(100.0, abs=1e-9)
        assert d == pytest.approx(24.0, rel=1e-12)
        far = _oracle(side_cal, WorldPoint(0.0, 20.0, 1.5))[2]
        assert d == pytest.approx(2.0 * far, rel=1e-12)

    def test_ball_behind_camera_is_unusable(self, side_cal):
        assert not _oracle(side_cal, WorldPoint(0.0, -30.0, 1.0))[0]


class TestReconstructFromDiameter:
    def test_on_axis_similar_triangles(self, identity_cal):
        # depth = f_mean * D / d = 1000 * 0.24 / 48 = 5 m on the axis.
        ball, status = _diameter_row(identity_cal, ImagePoint(960.0, 540.0), 48.0, 0.24)
        assert status == STATUS_OK
        np.testing.assert_allclose(ball, [0, 0, 5], atol=1e-12)

    @pytest.mark.parametrize(
        "samples, tolerance_m", [("clean_samples", 1e-6), ("distorted_samples", 1e-9)]
    )
    def test_exact_diameter_recovers_ball(self, request, samples, tolerance_m):
        s = request.getfixturevalue(samples)
        rays = ball_rays(s.cameras.values(), s.cal_index, s.ball_px)
        batch = reconstruct_from_diameter_batch(rays, s.d_true)
        assert batch.ok.all()
        assert np.linalg.norm(batch.ball_3d - s.ball_3d, axis=1).max() < tolerance_m

    @pytest.mark.parametrize("diameter", [0.0, -3.0])
    def test_non_positive_diameter_fails_the_row(self, identity_cal, diameter):
        ball, status = _diameter_row(identity_cal, ImagePoint(960, 540), diameter)
        assert status == STATUS_NONPOSITIVE_DIAMETER
        assert np.isnan(ball).all()

    @pytest.mark.parametrize("ball_diameter_m", [0.0, -0.24, math.nan, math.inf])
    def test_ball_diameter_must_be_finite_and_positive(self, identity_cal, ball_diameter_m):
        with pytest.raises(NonPositiveDiameter, match="must be finite and > 0 m"):
            _diameter_row(identity_cal, ImagePoint(960, 540), 30.0, ball_diameter_m)

    @pytest.mark.parametrize("eps", [-0.2, -0.05, 0.01, 0.1, 0.5])
    def test_relative_diameter_error_law_is_exact(self, distorted_samples, eps):
        # Scaling the true diameter by 1 + eps scales the depth by
        # 1 / (1 + eps), so the ball slides along its ray, away from the
        # camera centre C, by |ball - C| * |eps| / (1 + eps): the 3D error
        # grows linearly with distance. Measured within 1.7e-12 m on these
        # rows; the tolerance leaves room for the undistortion's residual.
        tolerance_m = 1e-9
        s = distorted_samples
        rays = ball_rays(s.cameras.values(), s.cal_index, s.ball_px)
        batch = reconstruct_from_diameter_batch(rays, s.d_true * (1.0 + eps))
        assert batch.ok.all()
        centre = np.column_stack(_k.camera_center(rays.cal))
        expected = np.linalg.norm(s.ball_3d - centre, axis=1) * abs(eps) / (1.0 + eps)
        error = np.linalg.norm(batch.ball_3d - s.ball_3d, axis=1)
        np.testing.assert_allclose(error, expected, rtol=0, atol=tolerance_m)


class TestBatchPaths:
    def test_batch_matches_scalar(self, distorted_samples):
        subset = distorted_samples[:200]
        cals = pack_calibrations([s.cal for s in subset])
        idx = np.arange(len(subset), dtype=np.int64)
        px = np.array([[s.ball_px.x, s.ball_px.y] for s in subset])
        h = np.array([s.h_true for s in subset])
        batch = reconstruct_from_height_batch(ball_rays(cals, idx, px), h)
        assert batch.ok.all()
        for i, s in enumerate(subset):
            rec = reconstruct_from_height(s.cal, s.ball_px, s.h_true)
            np.testing.assert_array_equal(batch.ball_3d[i], rec.ball_3d.as_array())

    def test_rays_serve_many_predictions_unchanged(self, distorted_samples):
        subset = distorted_samples[:50]
        rays = ball_rays(subset.cameras.values(), subset.cal_index, subset.ball_px)
        before = [a.copy() for a in (rays.cal, rays.u, rays.v, rays.status)]
        first = reconstruct_from_height_batch(rays, subset.h_true)
        reconstruct_from_diameter_batch(rays, subset.d_true)
        reconstruct_from_height_batch(rays, subset.h_true - 400.0)
        again = reconstruct_from_height_batch(rays, subset.h_true)
        np.testing.assert_array_equal(again.ball_3d, first.ball_3d)
        for array, copy in zip((rays.cal, rays.u, rays.v, rays.status), before):
            np.testing.assert_array_equal(array, copy)
            assert not array.flags.writeable
        for batch in (reconstruct_from_height_batch, reconstruct_from_diameter_batch):
            with pytest.raises(ValueError, match="one prediction per ball ray"):
                batch(rays, subset.h_true[:-1])


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_scalar_calls_raise(self, side_cal, bad):
        px = project(side_cal, WorldPoint(0.5, 0.0, 1.0))
        with pytest.raises(NonFiniteInput):
            reconstruct_from_height(side_cal, px, bad)
        with pytest.raises(NonFiniteInput):
            reconstruct_from_height(side_cal, ImagePoint(px.x, bad), 50.0)
        assert _diameter_row(side_cal, px, bad)[1] == STATUS_NONFINITE_INPUT
        assert _foot(side_cal, px, bad)[1] == STATUS_NONFINITE_INPUT

    def test_batch_rows_carry_the_status(self, side_cal):
        px = project(side_cal, WorldPoint(0.5, 0.0, 1.0))
        pixels = [[px.x, px.y], [px.x, px.y], [float("nan"), px.y]]
        values = [50.0, float("inf"), 50.0]
        rays = ball_rays([side_cal], [0, 0, 0], pixels)
        for batch in (
            reconstruct_from_height_batch(rays, values),
            reconstruct_from_diameter_batch(rays, values),
        ):
            expected = [STATUS_OK, STATUS_NONFINITE_INPUT, STATUS_NONFINITE_INPUT]
            np.testing.assert_array_equal(batch.status, expected)
            assert np.isfinite(batch.ball_3d[0]).all()
            assert np.isnan(batch.ball_3d[1:]).all()


class TestStatusPrecedence:
    """A row's status is its first failure in pipeline order: a non-finite
    pixel or prediction (9) before the diameter path's non-positive
    diameter (8), before the raw pixel's undistortion failure (2), before
    anything later, such as the diameter path's non-finite depth (8)."""

    @pytest.fixture
    def strong_barrel(self, side_cal):
        # x = 9000 px is far enough outside this frame that undistortion fails.
        return dataclasses.replace(side_cal, k1=-0.3)

    ROWS = [
        # (pixel x, value, height-path status, diameter-path status)
        (9000.0, float("nan"), 9, 9),
        (9000.0, float("inf"), 9, 9),
        (9000.0, -float("inf"), 9, 9),
        (9000.0, 0.0, 2, 8),
        (9000.0, -50.0, 2, 8),
        (9000.0, 1e-320, 2, 2),
        (float("nan"), float("nan"), 9, 9),
        (float("inf"), -50.0, 9, 9),
        (float("nan"), 0.0, 9, 9),
        (2300.0, 1e-320, 0, 8),
        (2300.0, 50.0, 0, 0),
    ]

    @pytest.mark.parametrize("method", ["height", "diameter"])
    def test_first_failure_stands(self, strong_barrel, method):
        pixels = [[x, 850.0] for x, _, _, _ in self.ROWS]
        values = [value for _, value, _, _ in self.ROWS]
        rays = ball_rays([strong_barrel], [0] * len(self.ROWS), pixels)
        if method == "height":
            batch = reconstruct_from_height_batch(rays, values)
            expected = [row[2] for row in self.ROWS]
        else:
            batch = reconstruct_from_diameter_batch(rays, values)
            expected = [row[3] for row in self.ROWS]
        np.testing.assert_array_equal(batch.status, expected)
