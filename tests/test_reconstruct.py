"""Reconstruction tests: verticals, foot pixels, the master round trip,
the diameter baseline, and crop transforms.

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
    CameraCalibration,
    ImagePoint,
    WorldPoint,
    ball_rays,
    crop_transform,
    diameter_px_of,
    make_camera,
    project,
    reconstruct_from_diameter,
    reconstruct_from_height,
    reconstruct_from_height_batch,
    true_pixel_height,
)
from courtlift import _kernels as _k
from courtlift.errors import (
    BothPlanesDegenerate,
    DepthNonPositive,
    IntersectionBehindCamera,
    NonFiniteInput,
    NonPositiveDiameter,
)
from courtlift._kernels import STATUS_NONFINITE_INPUT, STATUS_OK
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
    """(vx, vy), angle and status of the local vertical at a pixel."""
    vx, vy, angle, _, _, status = kernel_row(_k.vertical_direction, cal, x, y)
    return (vx, vy), angle, status


def _foot(cal: CameraCalibration, px: ImagePoint, h: float):
    """Foot pixel and status of a ball pixel lifted by h px."""
    fu, fv, _, _, _, status = kernel_row(_k.foot_pixel, cal, px.x, px.y, h)
    return ImagePoint(fu, fv), status


class TestVerticalDirection:
    def test_side_on_vertical_is_image_column(self, side_cal):
        direction, angle, status = _vertical(side_cal, 1400.0, 950.0)
        assert status == STATUS_OK
        np.testing.assert_allclose(direction, [0.0, 1.0], atol=1e-12)
        assert abs(angle) < 1e-12

    def test_overhead_nadir_is_degenerate(self):
        cal = _overhead_cal()
        assert _vertical(cal, cal.cx, cal.cy)[2] == _k.STATUS_DEGENERATE_VERTICAL

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
        # foot_pixel at the true height must land on the projected ground
        # point; the closed form is exact up to float noise.
        for s in clean_samples:
            f, status = _foot(s.cal, s.ball_px, s.h_true)
            assert status == STATUS_OK
            expected = project(
                s.cal.without_distortion(),
                WorldPoint(s.ball_3d.x, s.ball_3d.y, 0.0),
            )
            assert math.hypot(f.x - expected.x, f.y - expected.y) < 1e-9


class TestReconstructFromHeight:
    def test_master_round_trip_zero_distortion(self, clean_samples):
        for s in clean_samples:
            rec = reconstruct_from_height(s.cal, s.ball_px, s.h_true)
            err = np.linalg.norm(rec.ball_3d.as_array() - s.ball_3d.as_array())
            assert err < 1e-6
            assert (rec.ball_3d.x, rec.ball_3d.y) == (rec.ground_projection.x, rec.ground_projection.y)
            assert rec.ground_projection.z == 0.0

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
        np.testing.assert_allclose(
            rec.ground_projection.as_array(), g.as_array(), atol=1e-9
        )

    def test_ball_ray_without_x_component(self, side_cal):
        # Ball in the camera's own Y-Z plane: the ball-ray x component is
        # exactly 0, and recovery stays exact.
        # (Kept below camera height so the pixel ray still meets the ground.)
        ball = WorldPoint(0.0, 0.0, 1.0)
        px = project(side_cal, ball)
        assert px.x == side_cal.cx
        h = true_pixel_height(side_cal, ball)
        rec = reconstruct_from_height(side_cal, px, h)
        np.testing.assert_allclose(rec.ball_3d.as_array(), ball.as_array(), atol=1e-6)
        assert rec.ball_3d.x == rec.ground_projection.x == 0.0

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
        h = true_pixel_height(cal, ball)
        assert h == pytest.approx(34.35, abs=0.01)
        rec = reconstruct_from_height(cal, px, h)
        np.testing.assert_allclose(rec.ball_3d.as_array(), ball.as_array(), atol=1e-9)
        with pytest.raises(BothPlanesDegenerate):
            reconstruct_from_height(cal, px, 1500.0)

    def test_vertical_angle_reported(self, cam_a, clean_samples):
        s = clean_samples[0]
        rec = reconstruct_from_height(s.cal, s.ball_px, s.h_true)
        _, angle, status = _vertical(s.cal, rec.foot_pixel.x, rec.foot_pixel.y)
        assert status == STATUS_OK
        assert rec.vertical_angle == pytest.approx(angle, abs=1e-9)


class TestTruePixelHeight:
    def test_ground_ball_has_zero_height(self, cam_a):
        assert true_pixel_height(cam_a, WorldPoint(3.0, 1.0, 0.0)) == 0.0

    def test_side_on_hand_value(self, side_cal):
        assert true_pixel_height(side_cal, WorldPoint(0.0, 0.0, 1.0)) == pytest.approx(
            100.0, abs=1e-9
        )

    def test_behind_camera_raises(self, side_cal):
        with pytest.raises(DepthNonPositive):
            true_pixel_height(side_cal, WorldPoint(0.0, -30.0, 1.0))


class TestReconstructFromDiameter:
    def test_on_axis_similar_triangles(self, identity_cal):
        # depth = f_mean * D / d = 1000 * 0.24 / 48 = 5 m on the axis.
        rec = reconstruct_from_diameter(
            identity_cal, ImagePoint(960.0, 540.0), 48.0, 0.24
        )
        np.testing.assert_allclose(rec.ball_3d.as_array(), [0, 0, 5], atol=1e-12)
        np.testing.assert_allclose(rec.ground_projection.as_array(), [0, 0, 0], atol=1e-12)

    def test_exact_diameter_recovers_ball(self, clean_samples):
        for s in clean_samples[:300]:
            rec = reconstruct_from_diameter(
                s.cal, s.ball_px, s.diameter_px_true, 0.24
            )
            err = np.linalg.norm(rec.ball_3d.as_array() - s.ball_3d.as_array())
            assert err < 1e-6

    def test_non_positive_diameter_raises(self, identity_cal):
        with pytest.raises(NonPositiveDiameter):
            reconstruct_from_diameter(identity_cal, ImagePoint(960, 540), 0.0)
        with pytest.raises(NonPositiveDiameter):
            reconstruct_from_diameter(identity_cal, ImagePoint(960, 540), -3.0)

    def test_depth_doubling_halves_diameter(self, side_cal):
        d1 = diameter_px_of(side_cal, WorldPoint(0.0, 0.0, 1.5))  # depth 20
        d2 = diameter_px_of(side_cal, WorldPoint(0.0, 20.0, 1.5))  # depth 40
        assert d1 == pytest.approx(2.0 * d2, rel=1e-12)

    def test_error_grows_linearly_with_distance(self, side_cal):
        # Fixed 5% diameter error: 3D error = depth * eps / (1 + eps),
        # exactly linear in camera distance.
        eps = 0.05
        depths = np.arange(5.0, 41.0, 2.5)
        errors = []
        for depth in depths:
            ball = WorldPoint(0.0, depth - 20.0, 1.5)
            d_true = diameter_px_of(side_cal, ball)
            rec = reconstruct_from_diameter(
                side_cal, project(side_cal, ball), d_true * (1 + eps)
            )
            errors.append(np.linalg.norm(rec.ball_3d.as_array() - ball.as_array()))
        slope, intercept = np.polyfit(depths, errors, 1)
        fitted = slope * depths + intercept
        ss_res = np.sum((errors - fitted) ** 2)
        ss_tot = np.sum((errors - np.mean(errors)) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99
        assert slope > 0


class TestCropTransform:
    def test_side_on_is_pure_translation(self, side_cal):
        px = ImagePoint(1500.0, 950.0)
        t = crop_transform(side_cal, px, crop_size=256.0, scale=1.0)
        np.testing.assert_allclose(t.matrix, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(t.apply([px.x, px.y]), [128.0, 128.0], atol=1e-9)

    def test_rectified_frame_property(self, distorted_samples):
        # In crop coordinates the foot sits exactly scale*h below the ball.
        for s in distorted_samples[:200]:
            scale = 0.5
            t = crop_transform(s.cal, s.ball_px, crop_size=512.0, scale=scale)
            ball_u = project(
                s.cal.without_distortion(), s.ball_3d
            )
            foot_u = project(
                s.cal.without_distortion(),
                WorldPoint(s.ball_3d.x, s.ball_3d.y, 0.0),
            )
            delta = t.apply([foot_u.x, foot_u.y]) - t.apply([ball_u.x, ball_u.y])
            np.testing.assert_allclose(delta, [0.0, scale * s.h_true], atol=0.1)

    def test_half_scale_halves_distances(self, cam_a):
        px = ImagePoint(2000.0, 900.0)
        t = crop_transform(cam_a, px, crop_size=128.0, scale=0.5)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 2000, size=(20, 2))
        mapped = t.apply(pts)
        for i in range(0, 18, 2):
            orig = np.linalg.norm(pts[i] - pts[i + 1])
            new = np.linalg.norm(mapped[i] - mapped[i + 1])
            assert new == pytest.approx(0.5 * orig, rel=1e-12)


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
            np.testing.assert_array_equal(
                batch.ground_projection[i],
                [rec.ground_projection.x, rec.ground_projection.y],
            )
        np.testing.assert_array_equal(batch.ball_3d[:, :2], batch.ground_projection)

    def test_rays_serve_many_predictions_unchanged(self, distorted_samples):
        subset = distorted_samples[:50]
        rays = ball_rays(subset.cals, subset.cal_index, subset.ball_px)
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
        with pytest.raises(NonFiniteInput):
            reconstruct_from_diameter(side_cal, px, bad)
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
