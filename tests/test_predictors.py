"""Predictor tests: oracle exactness, noise calibration, tails, determinism.

Closed-form anchors used as oracles:
  E|z|   = sigma * sqrt(2/pi)                       (folded normal)
  E|t_3| = 2 * sqrt(3) / pi ~= 1.10266              (folded Student-t)
so a 5% relative gaussian diameter error gives relative MAE
0.05 * sqrt(2/pi) ~= 0.0399.
"""

import math

import numpy as np
import pytest

from courtlift import WorldPoint, diameter_px_of
from courtlift.predictors import (
    PredictorSpec,
    mean_abs_student_t,
    noise_scale,
    predict_diameters,
    predict_heights,
)
from courtlift.rng import PURPOSE_DIAMETER_NOISE, PURPOSE_HEIGHT_NOISE, stream


def _fake_heights(n: int, h_true: float = 50.0):
    """Sample ids 0..n-1, all with the same true pixel height."""
    return np.arange(n), np.full(n, h_true)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            PredictorSpec(kind="cnn")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            PredictorSpec(kind="gaussian", sigma=-1.0)
        with pytest.raises(ValueError):
            PredictorSpec(kind="heavy_tailed", nu=1.0)
        with pytest.raises(ValueError):
            PredictorSpec(kind="gaussian", target_mae=0.0)

    def test_mean_abs_t_limits(self):
        # nu = 3 has the closed form 2*sqrt(3)/pi; large nu approaches the
        # folded-normal constant sqrt(2/pi).
        assert mean_abs_student_t(3.0) == pytest.approx(2.0 * math.sqrt(3.0) / math.pi)
        assert mean_abs_student_t(1e6) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-4)


class TestPredictHeight:
    def test_oracle_is_exact(self):
        ids, h_true = _fake_heights(10, h_true=42.5)
        preds = predict_heights(PredictorSpec(kind="oracle"), ids, h_true)
        np.testing.assert_array_equal(preds, 42.5)

    def test_gaussian_mae_calibrated_to_34(self):
        ids, h_true = _fake_heights(100_000)
        spec = PredictorSpec(kind="gaussian", target_mae=34.0, seed=5)
        preds = predict_heights(spec, ids, h_true)
        mae = np.abs(preds - 50.0).mean()
        assert 33.0 <= mae <= 35.0

    def test_heavy_tail_beats_gaussian_at_99th_percentile(self):
        ids, h_true = _fake_heights(100_000)
        gauss = predict_heights(
            PredictorSpec(kind="gaussian", target_mae=34.0, seed=5), ids, h_true
        )
        heavy = predict_heights(
            PredictorSpec(kind="heavy_tailed", nu=3.0, target_mae=34.0, seed=5), ids, h_true
        )
        assert np.abs(heavy - 50.0).mean() == pytest.approx(34.0, rel=0.05)
        p99_gauss = np.percentile(np.abs(gauss - 50.0), 99)
        p99_heavy = np.percentile(np.abs(heavy - 50.0), 99)
        assert p99_heavy > p99_gauss

    @pytest.mark.parametrize("target", [5.0, 60.0])
    @pytest.mark.parametrize("kind", ["gaussian", "heavy_tailed"])
    def test_calibration_across_target_range(self, kind, target):
        ids, h_true = _fake_heights(100_000)
        preds = predict_heights(
            PredictorSpec(kind=kind, nu=3.0, target_mae=target, seed=9), ids, h_true
        )
        mae = np.abs(preds - 50.0).mean()
        assert abs(mae - target) / target < 0.05


class TestPredictDiameter:
    def test_oracle_similar_triangles(self, identity_cal):
        # f_mean * D / depth = 1000 * 0.24 / 5 = 48 px; doubling the depth
        # halves it.
        near = diameter_px_of(identity_cal, WorldPoint(0.0, 0.0, 5.0), 0.24)
        far = diameter_px_of(identity_cal, WorldPoint(0.0, 0.0, 10.0), 0.24)
        assert near == pytest.approx(48.0)
        assert far == pytest.approx(24.0)

    def test_oracle_returns_stored_diameters(self):
        d_true = np.array([48.0, 24.0, 7.25])
        preds = predict_diameters(PredictorSpec(kind="oracle"), [0, 1, 2], d_true)
        np.testing.assert_array_equal(preds, d_true)

    def test_relative_gaussian_mae(self):
        ids = np.arange(100_000)
        spec = PredictorSpec(kind="gaussian", sigma=0.05, seed=2)
        preds = predict_diameters(spec, ids, np.full(ids.size, 48.0))
        rel_mae = np.abs(preds / 48.0 - 1.0).mean()
        assert rel_mae == pytest.approx(0.05 * math.sqrt(2.0 / math.pi), abs=0.002)


class TestSpecJson:
    def test_round_trip_with_null_target(self):
        spec = PredictorSpec(kind="gaussian", sigma=3.0)
        obj = spec.to_json_dict()
        assert obj["target_mae"] is None


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self):
        ids, h_true = _fake_heights(2000)
        spec = PredictorSpec(kind="heavy_tailed", target_mae=20.0, seed=77)
        a = predict_heights(spec, ids, h_true)
        b = predict_heights(spec, ids, h_true)
        np.testing.assert_array_equal(a, b)

    def test_prediction_keyed_by_sample_id_not_position(self):
        # A subset evaluated alone gets exactly the predictions it would
        # get inside the full set: streams are keyed by sample id.
        ids, h_true = _fake_heights(500)
        spec = PredictorSpec(kind="gaussian", target_mae=10.0, seed=3)
        full = predict_heights(spec, ids, h_true)
        subset = predict_heights(spec, ids[200:300], h_true[200:300])
        np.testing.assert_array_equal(full[200:300], subset)

    @pytest.mark.parametrize("kind", ["gaussian", "heavy_tailed"])
    def test_each_draw_comes_from_its_sample_stream(self, kind):
        ids, h_true = _fake_heights(50)
        ids = ids * 7 + 3
        spec = PredictorSpec(kind=kind, nu=4.0, target_mae=20.0, seed=11)
        expected = []
        for i in ids.tolist():
            rng = stream(11, i, PURPOSE_HEIGHT_NOISE)
            draw = rng.standard_normal() if kind == "gaussian" else rng.standard_t(4.0)
            expected.append(50.0 + noise_scale(spec) * draw)
        np.testing.assert_array_equal(predict_heights(spec, ids, h_true), expected)

    @pytest.mark.parametrize("kind", ["gaussian", "heavy_tailed"])
    def test_each_diameter_draw_comes_from_its_sample_stream(self, kind):
        ids = np.arange(50)[::-1] * 5 + 2
        d_true = np.linspace(20.0, 60.0, 50)
        spec = PredictorSpec(kind=kind, nu=4.0, target_mae=0.1, seed=11)
        expected = []
        for i, d in zip(ids.tolist(), d_true.tolist()):
            rng = stream(11, i, PURPOSE_DIAMETER_NOISE)
            draw = rng.standard_normal() if kind == "gaussian" else rng.standard_t(4.0)
            expected.append(d * (1.0 + noise_scale(spec) * draw))
        np.testing.assert_array_equal(predict_diameters(spec, ids, d_true), expected)

    def test_height_and_diameter_streams_are_independent(self):
        spec = PredictorSpec(kind="gaussian", sigma=1.0, seed=8)
        h_noise = predict_heights(spec, [4], [50.0])[0] - 50.0
        d_pred = predict_diameters(spec, [4], [48.0])
        d_noise = d_pred[0] / 48.0 - 1.0
        assert h_noise != pytest.approx(d_noise)
