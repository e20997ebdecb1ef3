"""Camera model tests: projection, distortion, rays, planes, scaling.

Expected values are hand-derived before comparing against the library:
for the elevated camera the look-at construction gives rows
right=(1,0,0), down=(0,-3,-20)/sqrt(409), forward=(0,20,-3)/sqrt(409)
and t = (0, 0, sqrt(409)), so the court origin sits on the optical axis
and must land exactly on the principal point.
"""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import courtlift
from courtlift import (
    BallRays,
    CameraCalibration,
    project,
    read_dataset,
    validate,
)
from courtlift import _kernels as _k
from courtlift import errors
from courtlift.camera import STATUS_NAMES, column, one_row, raise_for_status, scale_calibration
from courtlift.dataio import calibration_to_json_dict, load_calibration
from courtlift.errors import DepthNonPositive, NonPositiveScale

from conftest import first_branch_peak, kernel_row, random_cameras

SRC = str(Path(courtlift.__file__).resolve().parents[1])


def _with_distortion(cal: CameraCalibration, **coeffs) -> CameraCalibration:
    from dataclasses import replace

    return replace(cal, **coeffs)


class TestProject:
    def test_optical_axis_maps_to_principal_point(self, identity_cal):
        p = project(identity_cal, (0, 0, 5))
        assert (p[0], p[1]) == (960.0, 540.0)

    def test_unit_offset(self, identity_cal):
        # x_img = fx * (1/5) + cx = 1000/5 + 960 = 1160
        p = project(identity_cal, (1, 0, 5))
        assert (p[0], p[1]) == (1160.0, 540.0)

    def test_cam_a_court_origin(self, cam_a):
        # Hand linear algebra: R @ (0,0,0) + t = (0, 0, sqrt(409)), depth
        # sqrt(409) > 0, normalized (0, 0) -> principal point (2250, 750).
        p = project(cam_a, (0, 0, 0))
        np.testing.assert_allclose(p, [2250.0, 750.0], atol=1e-9)

    def test_point_behind_camera_raises(self, identity_cal):
        with pytest.raises(DepthNonPositive):
            project(identity_cal, (0, 0, -1))
        with pytest.raises(DepthNonPositive):
            project(identity_cal, (0, 0, 0))

    @pytest.mark.parametrize(
        "make",
        [
            tuple,
            list,
            np.array,
            lambda p: np.array([[9.0, 9.0, 9.0], p])[1],
            lambda p: tuple(map(np.float64, p)),
            iter,
        ],
        ids=["tuple", "list", "array", "array-row", "numpy-scalars", "iterator"],
    )
    def test_any_3_sequence_projects_to_the_same_pair_of_floats(self, cam_a, make):
        point = (1.5, -2.0, 0.7)
        p = project(cam_a, make(point))
        assert type(p) is tuple and len(p) == 2
        assert all(type(c) is float for c in p)
        assert p == project(cam_a, point)

    @pytest.mark.parametrize("point", [(0.0, 5.0), (0.0, 0.0, 5.0, 1.0)])
    def test_point_of_the_wrong_length_is_a_value_error(self, identity_cal, point):
        with pytest.raises(ValueError, match="unpack"):
            project(identity_cal, point)

    def test_skew_term(self, identity_cal):
        cal = _with_distortion(identity_cal, skew=25.0)
        # normalized (0.2, 0.1): u = 1000*0.2 + 25*0.1 + 960 = 1162.5
        p = project(cal, (1.0, 0.5, 5.0))
        np.testing.assert_allclose(p, [1162.5, 640.0], rtol=1e-12)


def _distort(cal: CameraCalibration, n) -> np.ndarray:
    return np.array(kernel_row(_k.distort_norm, cal, *n)[:2])


def _undistort(cal: CameraCalibration, p) -> tuple[tuple[float, float], int]:
    u, v, status = kernel_row(_k.undistort_pixel, cal, *p)
    return (u, v), status


class TestDistort:
    def test_identity_when_no_coefficients(self, identity_cal):
        np.testing.assert_array_equal(
            _distort(identity_cal, [0.3, -0.2]), [0.3, -0.2]
        )

    def test_center_is_fixed_point(self, identity_cal):
        cal = _with_distortion(identity_cal, k1=-0.1)
        np.testing.assert_array_equal(_distort(cal, [0.0, 0.0]), [0.0, 0.0])

    def test_radial_polynomial_value(self, identity_cal):
        # (0.5, 0): r2 = 0.25, scale = 1 - 0.1*0.25 = 0.975 -> 0.4875
        cal = _with_distortion(identity_cal, k1=-0.1)
        np.testing.assert_allclose(_distort(cal, [0.5, 0.0]), [0.4875, 0.0], rtol=1e-15)

    def test_tangential_terms(self, identity_cal):
        cal = _with_distortion(identity_cal, p1=0.01, p2=-0.005)
        x, y = 0.2, -0.1
        r2 = x * x + y * y
        expected = [
            x + 2 * 0.01 * x * y + (-0.005) * (r2 + 2 * x * x),
            y + 0.01 * (r2 + 2 * y * y) + 2 * (-0.005) * x * y,
        ]
        np.testing.assert_allclose(_distort(cal, [x, y]), expected, rtol=1e-15)


class TestUndistortPoint:
    def test_identity_with_zero_distortion(self, identity_cal):
        q, status = _undistort(identity_cal, (123.4, 567.8))
        assert (q[0], q[1], status) == (123.4, 567.8, _k.STATUS_OK)

    def test_round_trip_mild(self, identity_cal):
        cal = _with_distortion(identity_cal, k1=-0.1)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            q = (rng.uniform(0, 1920), rng.uniform(0, 1080))
            distorted = _project_with_distortion_of(cal, q)
            rec, status = _undistort(cal, distorted)
            assert status == _k.STATUS_OK
            assert math.hypot(rec[0] - q[0], rec[1] - q[1]) < 1e-6

    def test_round_trip_strong_wide_angle(self, identity_cal):
        cal = _with_distortion(identity_cal, k1=-0.28, k2=0.12)
        rng = np.random.default_rng(7)
        for _ in range(500):
            q = (rng.uniform(0, 1920), rng.uniform(0, 1080))
            rec, status = _undistort(cal, _project_with_distortion_of(cal, q))
            assert status == _k.STATUS_OK
            assert math.hypot(rec[0] - q[0], rec[1] - q[1]) < 1e-6

    def test_inverse_property_over_coefficient_ranges(self, identity_cal):
        # distort(normalize(undistort(p))) == normalize(p) at float noise:
        # the solve stops at residuals <= 1e-13 and the pixel conversions
        # round on top of that.
        # fx = fy = 2000 keeps the corner radius (~0.55 normalized) inside
        # the invertible range of the strongest coefficient combination
        # (k1 = -0.3 with k2 = -0.15 folds at radius ~0.84).
        from dataclasses import replace

        narrow = replace(identity_cal, fx=2000.0, fy=2000.0)
        rng = np.random.default_rng(11)
        for _ in range(200):
            cal = _with_distortion(
                narrow,
                k1=rng.uniform(-0.3, 0.3),
                k2=rng.uniform(-0.15, 0.15),
                p1=rng.uniform(-0.01, 0.01),
                p2=rng.uniform(-0.01, 0.01),
            )
            p = (rng.uniform(0, 1920), rng.uniform(0, 1080))
            q, status = _undistort(cal, p)
            assert status == _k.STATUS_OK
            n_q = np.array([(q[0] - cal.cx) / cal.fx, (q[1] - cal.cy) / cal.fy])
            n_p = np.array([(p[0] - cal.cx) / cal.fx, (p[1] - cal.cy) / cal.fy])
            np.testing.assert_allclose(_distort(cal, n_q), n_p, rtol=0, atol=2e-13)

    def test_preimage_near_the_fold_is_found(self, identity_cal):
        # k1 = -0.134 folds r (1 + k1 r^2) at r^2 = 1 / (3 |k1|), where the
        # distorted radius peaks at ~1.0515. The corner pixel (1900, 1000)
        # lies at distorted radius ~1.0465, so it has a preimage on the
        # first branch, which a fixed-point iteration approaches too slowly
        # to reach within 50 steps.
        cal = _with_distortion(identity_cal, k1=-0.134)
        p = (1900.0, 1000.0)
        q, status = _undistort(cal, p)
        assert status == _k.STATUS_OK
        n_q = np.array([(q[0] - cal.cx) / cal.fx, (q[1] - cal.cy) / cal.fy])
        assert n_q @ n_q < 1.0 / (3.0 * 0.134)
        back = _project_with_distortion_of(cal, q)
        np.testing.assert_allclose(back, p, rtol=0, atol=1e-9)

    def test_preimage_only_past_the_fold_is_outside_the_domain(self, identity_cal):
        # k1 = -0.12, k2 = 0.006: the slope 1 - 0.36 s + 0.03 s^2 of the
        # radial map is negative for s = r^2 in (4.37, 7.63), so the
        # distorted radius peaks at ~1.234 on the first branch and rises
        # again past s = 7.63. Radius 3.2 distorts to ~1.281, beyond the
        # peak: its pixel's only preimage lies past the fold.
        cal = _with_distortion(identity_cal, k1=-0.12, k2=0.006)
        q = (cal.cx + cal.fx * 3.2, cal.cy)
        p = _project_with_distortion_of(cal, q)
        assert _undistort(cal, p)[1] == _k.STATUS_NO_CONVERGENCE

    def test_preimage_where_the_lens_folds_is_outside_the_domain(self, identity_cal):
        # With tangential terms a far preimage need not fold. This pixel,
        # normalized (1.0, 0.9), has a preimage q far out on the opposite
        # side, where radial(r^2) < 0 and det J < 0: there the lens folds,
        # and q is no inverse of it.
        cal = _with_distortion(identity_cal, k1=-0.6, k2=0.02, p1=-0.003, p2=-0.004)
        q = np.array([-3.932568488558745, -3.4807006680837924])
        np.testing.assert_allclose(_distort(cal, q), [1.0, 0.9], rtol=0, atol=1e-12)
        step = 1e-6
        jacobian = np.column_stack(
            [(_distort(cal, q + d) - _distort(cal, q - d)) / (2 * step) for d in np.eye(2) * step]
        )
        assert np.linalg.det(jacobian) < 0
        p = (cal.cx + cal.fx * 1.0, cal.cy + cal.fy * 0.9)
        assert _undistort(cal, p)[1] == _k.STATUS_NO_CONVERGENCE
        # The normalized pixel (5.7, 4.275), the image of (-4, -3), has a
        # preimage near r^2 = 30.6 where det J > 0, but the radial map's
        # first branch ends below r^2 = 1 (its distorted radius peaks near
        # 0.50), so only the first-branch test rejects it.
        np.testing.assert_allclose(_distort(cal, [-4.0, -3.0]), [5.7, 4.275], rtol=0, atol=1e-12)
        far = (cal.cx + cal.fx * 5.7, cal.cy + cal.fy * 4.275)
        assert _undistort(cal, far)[1] == _k.STATUS_NO_CONVERGENCE

    def test_radial_lenses_synth_never_draws(self, identity_cal):
        # Radial-only lenses with k3 != 0 and k1 down to -0.6, on pixels
        # spread over twice the frame. An OK row is a first-branch
        # preimage: its distorted radius is below the branch's peak, and
        # distorting it gives back the pixel within UNDISTORT_FAIL_TOL.
        n, c = 2000, identity_cal
        rng = np.random.default_rng(2026)
        k1, k2, k3 = rng.uniform(-0.6, 0.3, n), rng.uniform(-0.2, 0.2, n), rng.uniform(-0.1, 0.1, n)
        assert (k3 != 0.0).all()
        cal = np.repeat(c.as_array()[:, None], n, axis=1)
        cal[_k.CAL_K1], cal[_k.CAL_K2], cal[_k.CAL_K3] = k1, k2, k3
        u = rng.uniform(-0.5, 1.5, n) * c.image_width
        v = rng.uniform(-0.5, 1.5, n) * c.image_height
        uu, vv, status = _k.undistort_pixel(cal, u, v)
        ok = status == _k.STATUS_OK
        assert 0.3 < ok.mean() < 0.9  # both outcomes are well represented
        xn, yn = (u - c.cx) / c.fx, (v - c.cy) / c.fy
        peaks = np.array([first_branch_peak(*k) for k in zip(k1, k2, k3)])
        assert (np.hypot(xn, yn)[ok] < peaks[ok]).all()
        xd, yd = _k.distort_norm(cal, (uu - c.cx) / c.fx, (vv - c.cy) / c.fy)[:2]
        residual = np.maximum(np.abs(xd - xn), np.abs(yd - yn))
        assert residual[ok].max() <= _k.UNDISTORT_FAIL_TOL

    def test_no_convergence_outside_model_range(self, identity_cal):
        # k1 = -0.5 folds the radial polynomial at |n| ~ 0.82; a distorted
        # radius beyond the fold maximum (~0.544) has no preimage.
        cal = _with_distortion(identity_cal, k1=-0.5)
        target = (cal.cx + cal.fx * 0.9, cal.cy)
        assert _undistort(cal, target)[1] == _k.STATUS_NO_CONVERGENCE


def _project_with_distortion_of(cal: CameraCalibration, q) -> tuple[float, float]:
    """Distorted pixel whose undistorted position is q (forward model)."""
    ny = (q[1] - cal.cy) / cal.fy
    nx = (q[0] - cal.cx - cal.skew * ny) / cal.fx
    d = _distort(cal, [nx, ny])
    return cal.fx * d[0] + cal.skew * d[1] + cal.cx, cal.fy * d[1] + cal.cy


class TestBackProject:
    def test_principal_point_gives_optical_axis(self, identity_cal):
        origin = kernel_row(_k.camera_center, identity_cal)
        np.testing.assert_allclose(origin, [0, 0, 0], atol=1e-12)
        direction = kernel_row(_k.ray_direction, identity_cal, 960, 540)
        np.testing.assert_allclose(direction, [0, 0, 1], atol=1e-12)

    def test_inverse_of_project_example(self, identity_cal):
        direction = kernel_row(_k.ray_direction, identity_cal, 1160, 540)
        expected = np.array([0.2, 0.0, 1.0])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(direction, expected, atol=1e-12)

    def test_project_round_trip_along_ray(self):
        # Zero-distortion cameras: project's pixels are the undistorted
        # pixels ray_direction takes.
        cams = random_cameras(50, seed=21)
        rng = np.random.default_rng(3)
        for cal in cams:
            assert not cal.as_array()[_k.CAL_K1 : _k.CAL_P2 + 1].any()
            origin = np.array(kernel_row(_k.camera_center, cal))
            for _ in range(20):
                p = (rng.uniform(0, cal.image_width), rng.uniform(0, cal.image_height))
                direction = np.array(kernel_row(_k.ray_direction, cal, *p))
                for s in (1.0, 5.0, 50.0):
                    q = project(cal, origin + s * direction)
                    assert math.hypot(q[0] - p[0], q[1] - p[1]) < 1e-9


class TestGroundIntersection:
    """The height lift at h = 0 drops a pixel's ray onto the floor: its
    foot is the pixel, so (gx, gy) is the ground point and bz is 0."""

    @staticmethod
    def _assert_lands(cal, wx, wy):
        cols = column(cal)
        zeros = np.zeros_like(wx)
        _, _, un, vn, _, status = _k.project_point(cols, wx, wy, zeros)
        assert (status == _k.STATUS_OK).all()
        bz, gx, gy, _, _, _, status = _k.lift_height(BallRays(cols, un, vn, status), zeros)
        assert (status == _k.STATUS_OK).all()
        np.testing.assert_allclose(gx, wx, rtol=0, atol=1e-9)
        np.testing.assert_allclose(gy, wy, rtol=0, atol=1e-9)
        np.testing.assert_allclose(bz, 0.0, rtol=0, atol=1e-9)

    def test_random_cameras(self):
        rng = np.random.default_rng(5)
        for cal in random_cameras(30, seed=22):
            self._assert_lands(cal, rng.uniform(-14.0, 14.0, 40), rng.uniform(-7.5, 7.5, 40))

    def test_fixture_cameras(self, cam_a, side_cal):
        wx, wy = np.meshgrid(np.linspace(-14.0, 14.0, 9), np.linspace(-7.5, 7.5, 7))
        for cal in (cam_a, side_cal):
            self._assert_lands(cal, wx.ravel(), wy.ravel())


class TestCameraCenter:
    def test_identity(self, identity_cal):
        assert kernel_row(_k.camera_center, identity_cal) == [0.0, 0.0, 0.0]

    def test_translated(self, identity_cal):
        from dataclasses import replace

        cal = replace(identity_cal, translation=np.array([0.0, 0.0, -5.0]))
        np.testing.assert_allclose(kernel_row(_k.camera_center, cal), [0, 0, 5], atol=1e-12)

    def test_cam_a_matches_construction(self, cam_a):
        np.testing.assert_allclose(kernel_row(_k.camera_center, cam_a), [0, -20, 3], atol=1e-9)

    def test_center_to_point_segment_projects_to_same_pixel(self, cam_a):
        # Collinearity: points on the segment center -> p image to p's pixel.
        p = np.array([3.0, 2.0, 1.0])
        target = project(cam_a, p)
        c = np.array(kernel_row(_k.camera_center, cam_a))
        for alpha in (0.25, 0.5, 0.9):
            mid = c + alpha * (p - c)
            q = project(cam_a, mid)
            assert math.hypot(q[0] - target[0], q[1] - target[1]) < 1e-8


class TestScaleCalibration:
    def test_scale_one_is_identity(self, cam_a):
        scaled = scale_calibration(cam_a, 1.0)
        assert scaled.fx == cam_a.fx and scaled.cx == cam_a.cx
        assert scaled.image_width == cam_a.image_width
        np.testing.assert_array_equal(scaled.rotation, cam_a.rotation)

    def test_half_scale_projects_half_principal_point(self, identity_cal):
        p = project(scale_calibration(identity_cal, 0.5), (0, 0, 5))
        assert (p[0], p[1]) == (480.0, 270.0)

    def test_projection_scales_linearly(self):
        rng = np.random.default_rng(17)
        cams = random_cameras(25, seed=33)
        for cal in cams:
            for _ in range(40):
                p = (rng.uniform(-12, 12), rng.uniform(-7, 7), rng.uniform(0, 5))
                base = project(cal, p)
                for s in (0.5, 0.25, 0.125):
                    scaled = project(scale_calibration(cal, s), p)
                    np.testing.assert_allclose(
                        [scaled[0], scaled[1]], [s * base[0], s * base[1]], rtol=1e-9
                    )

    def test_non_positive_scale_raises(self, identity_cal):
        with pytest.raises(NonPositiveScale):
            scale_calibration(identity_cal, 0.0)
        with pytest.raises(NonPositiveScale):
            scale_calibration(identity_cal, -2.0)


def _linked_to_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _threshold_cal(rotation) -> CameraCalibration:
    # Its centre, -20 R[2], is above the floor for R[2][2] < 0.
    return CameraCalibration(
        2000.0, 2000.0, 2250.0, 750.0, rotation, [0.0, 0.0, 20.0], 4500.0, 1500.0
    )


# Reads rotations as JSON on stdin and writes validate's verdicts on them.
_VALIDATE_EACH = """
import json, sys
from courtlift import CameraCalibration, validate
cals = (
    CameraCalibration(2000.0, 2000.0, 2250.0, 750.0, r, [0.0, 0.0, 20.0], 4500.0, 1500.0)
    for r in json.load(sys.stdin)
)
json.dump([validate(cal) for cal in cals], sys.stdout)
"""


def _straddling_rotations() -> list:
    """Rotations Q + t E at 17 steps of 2**-53 in t around the t where
    validate's verdict flips, found by bisection, for 16 rotations Q and
    two directions each:
    E = Q scales Q, so det(R) passes 1 + 1e-9 while R^T R is still within
    1e-9 of I; E = Q S with S symmetric and traceless shears it, so R^T R
    leaves 1e-9 of I first. Built elementwise, as JSON lists, which
    hold every bit."""
    rng = np.random.default_rng(12)
    rotations = []
    for _ in range(16):
        a, b = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(1.7, 2.5)
        ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
        q = np.array([[ca, -sa, 0.0], [cb * sa, cb * ca, -sb], [sb * sa, sb * ca, cb]])
        m = rng.uniform(-1.0, 1.0, (3, 3))
        sym = m + m.T - (2.0 * np.trace(m) / 3.0) * np.eye(3)
        shear = (q[:, :, None] * sym[None, :, :]).sum(axis=1)
        directions = ((q, "RotationNotProper", 4.5e-10), (shear, "RotationNotOrthonormal", 1e-8))
        for e, name, hi in directions:
            lo = 0.0
            while hi - lo > 1e-18:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if name in validate(_threshold_cal(q + mid * e)) else (mid, hi)
            rotations += [(q + (hi + k * 2.0**-53) * e).tolist() for k in range(-8, 9)]
    return rotations


class TestValidate:
    def test_identity_is_valid(self, identity_cal):
        with warnings.catch_warnings():
            # Camera center sits exactly on the ground plane -> warning only.
            warnings.simplefilter("ignore")
            assert validate(identity_cal) == []

    def test_negative_focal(self, identity_cal):
        from dataclasses import replace

        assert validate(replace(identity_cal, fx=-1.0)) == ["FocalNonPositive"]

    def test_row_swapped_rotation_is_improper(self, identity_cal):
        from dataclasses import replace

        swapped = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert validate(replace(identity_cal, rotation=swapped)) == ["RotationNotProper"]

    def test_non_orthonormal_rotation(self, identity_cal):
        from dataclasses import replace

        bad = np.eye(3)
        bad = bad + 1e-6
        assert "RotationNotOrthonormal" in validate(replace(identity_cal, rotation=bad))

    @pytest.mark.parametrize(
        "rotation",
        [
            [[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            # R^T R would hold inf - inf.
            [[1e308, 1e308, 0.0], [1e308, -1e308, 0.0], [0.0, 0.0, 1.0]],
        ],
    )
    def test_rotation_past_float_range_is_not_orthonormal(self, identity_cal, rotation):
        from dataclasses import replace

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            violations = validate(replace(identity_cal, rotation=np.array(rotation)))
        assert violations == ["RotationNotOrthonormal"]

    def test_low_camera_warns(self, cam_a):
        from dataclasses import replace

        low = replace(cam_a, translation=-cam_a.rotation @ np.array([0.0, -20.0, -1.0]))
        with pytest.warns(UserWarning, match="ground plane"):
            assert validate(low) == []

    def test_low_camera_warning_names_the_calling_line(self, cam_a):
        # However deep inside courtlift the check runs, the warning names
        # the first caller outside the package: here, this file.
        from dataclasses import replace

        low = replace(cam_a, translation=-cam_a.rotation @ np.array([0.0, -20.0, -1.0]))
        cal = calibration_to_json_dict(low)
        header = {"schema_version": 3, "folds": {}, "cameras": [{"arena": 0, "cal": cal}]}
        data = (json.dumps({**header, "n_samples": 0}) + "\n").encode()
        with pytest.warns(UserWarning, match="ground plane") as record:
            validate(low)
            load_calibration("calibration", cal)
            read_dataset(io.BytesIO(data))
        assert [w.filename for w in record] == [__file__] * 3

    @pytest.mark.skipif(
        not _linked_to_openblas(),
        reason="numpy is not linked to OpenBLAS, so OPENBLAS_CORETYPE picks no kernel",
    )
    def test_verdicts_at_the_thresholds_do_not_depend_on_the_blas_kernel(self):
        # The same rotations, a few ulps either side of each 1e-9
        # threshold, validated under the default kernel and under
        # Prescott, the oldest x86-64 one (no FMA), get the same verdicts.
        rotations = json.dumps(_straddling_rotations())
        verdicts = []
        for coretype in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            result = subprocess.run(
                [sys.executable, "-c", _VALIDATE_EACH],
                input=rotations,
                capture_output=True,
                text=True,
                env={**env, "PYTHONPATH": SRC, **coretype},
                check=True,
            )
            verdicts.append(json.loads(result.stdout))
        assert verdicts[0] == verdicts[1]
        assert {tuple(v) for v in verdicts[0]} == {
            (), ("RotationNotOrthonormal",), ("RotationNotProper",)
        }


class TestRoundTripToRay:
    def test_pixel_ray_passes_near_source_point(self):
        # undistort(project(p)) back-projected must pass within 1e-6 m of p.
        cams = random_cameras(40, seed=5)
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 1000:
            cal = cams[checked % len(cams)]
            p = np.array([rng.uniform(-12, 12), rng.uniform(-7, 7), rng.uniform(0, 5)])
            try:
                px = project(cal, p)
            except DepthNonPositive:
                continue
            u, v, status = kernel_row(_k.undistort_pixel, cal, *px)
            assert status == _k.STATUS_OK
            direction = np.array(kernel_row(_k.ray_direction, cal, u, v))
            rel = p - np.array(kernel_row(_k.camera_center, cal))
            closest = np.linalg.norm(rel - (rel @ direction) * direction)
            assert closest < 1e-6
            checked += 1


class TestCalibrationJson:
    def test_round_trip_preserves_all_fields(self, cam_a):
        from dataclasses import replace

        cal = replace(cam_a, k1=-0.12, k2=0.03, p1=0.001, p2=-0.002, skew=0.5)
        rec = load_calibration("calibration", calibration_to_json_dict(cal))
        assert rec.fx == cal.fx and rec.skew == cal.skew and rec.k1 == cal.k1
        np.testing.assert_array_equal(rec.rotation, cal.rotation)
        np.testing.assert_array_equal(rec.translation, cal.translation)
        assert rec.image_width == cal.image_width


def test_status_codes_keep_their_numbers():
    # Codes are stored in golden files and reported by number; a rename
    # keeps the number.
    assert STATUS_NAMES == {
        0: "OK",
        1: "DepthNonPositive",
        2: "NoConvergence",
        3: "RayParallelToPlane",
        4: "IntersectionBehindCamera",
        5: "DegenerateVertical",
        7: "VerticalBehindCamera",
        8: "NonPositiveDiameter",
        9: "NonFiniteInput",
    }


def test_every_kernel_status_names_its_error_class():
    codes = [value for name, value in vars(_k).items() if name.startswith("STATUS_")]
    assert sorted(STATUS_NAMES) == sorted(codes)
    assert STATUS_NAMES[_k.STATUS_OK] == "OK"
    raise_for_status(_k.STATUS_OK)
    for code in codes:
        if code == _k.STATUS_OK:
            continue
        with pytest.raises(errors.GeometryError) as exc_info:
            raise_for_status(code)
        assert exc_info.type is getattr(errors, STATUS_NAMES[code])
