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

UINT64_MAX = 2**64 - 1


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
        for field, value in [
            ("sigma", math.nan),
            ("sigma", math.inf),
            ("nu", math.inf),
            ("target_mae", math.inf),
        ]:
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                PredictorSpec(kind="heavy_tailed", **{field: value})

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

    @pytest.mark.parametrize("kind", ["oracle", "gaussian", "heavy_tailed"])
    def test_one_true_height_per_id(self, kind):
        spec = PredictorSpec(kind=kind, sigma=1.0)
        with pytest.raises(ValueError, match="1 sample ids for 4 true values"):
            predict_heights(spec, [7], np.full(4, 50.0))

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

    @pytest.mark.parametrize("kind", ["oracle", "gaussian", "heavy_tailed"])
    def test_one_true_diameter_per_id(self, kind):
        spec = PredictorSpec(kind=kind, sigma=0.1)
        with pytest.raises(ValueError, match="3 sample ids for 1 true values"):
            predict_diameters(spec, [1, 2, 3], [40.0])

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

    def test_height_and_diameter_streams_are_independent(self):
        spec = PredictorSpec(kind="gaussian", sigma=1.0, seed=8)
        h_noise = predict_heights(spec, [4], [50.0])[0] - 50.0
        d_pred = predict_diameters(spec, [4], [48.0])
        d_noise = d_pred[0] / 48.0 - 1.0
        assert h_noise != pytest.approx(d_noise)


def _oracle_draw(seed, index, purpose, kind, nu):
    """One unit draw of noise stream 2 and the attempts it took, in scalar
    ``math`` from the words of numpy's own Philox for the sample."""
    bitgen = stream(seed, index, purpose).bit_generator

    def double():
        return (int(bitgen.random_raw()) >> 11) * 2.0**-53

    if kind == "gaussian":
        d0, d1 = double(), double()
        return math.sqrt(-2.0 * math.log(1.0 - d0)) * math.cos(2.0 * math.pi * d1), 1
    attempts = 0
    while True:
        attempts += 1
        u, v = 2.0 * double() - 1.0, 2.0 * double() - 1.0
        w = u * u + v * v
        if 0.0 < w <= 1.0:
            return u * math.sqrt(nu * math.expm1(-2.0 / nu * math.log(w)) / w), attempts


# Unit draws of ids 0, 1, 2, 26 and 1_000_000_007 at seed 1 (height noise).
GAUSSIAN_PINS = [
    -0.8617146764734905,
    0.981879216049471,
    -0.09552676423159384,
    0.004079418512854419,
    -0.5472784669292681,
]
STUDENT_T_PINS = [  # nu = 3.5
    -2.6653603407878097,
    0.11683672292443809,
    -0.3355026820530375,
    -0.7584724816035183,
    -1.411216751406371,
]


def _unit_noise(kind, ids, seed, nu=3.5):
    """Unit height noise: sigma 1 added to true heights of 0."""
    spec = PredictorSpec(kind=kind, sigma=1.0, nu=nu, seed=seed)
    return predict_heights(spec, ids, np.zeros(len(ids)))


class TestNoiseStream2:
    @pytest.mark.parametrize(
        "kind, nu", [("gaussian", 3.0), ("heavy_tailed", 4.0), ("heavy_tailed", 1.5)]
    )
    def test_heights_equal_a_scalar_oracle_per_sample(self, kind, nu):
        ids, h_true = _fake_heights(300)
        ids = ids * 7 + 3
        spec = PredictorSpec(kind=kind, nu=nu, target_mae=20.0, seed=11)
        oracle = [_oracle_draw(11, i, PURPOSE_HEIGHT_NOISE, kind, nu) for i in ids.tolist()]
        expected = [50.0 + noise_scale(spec) * z for z, _ in oracle]
        np.testing.assert_array_equal(predict_heights(spec, ids, h_true), expected)
        if kind == "heavy_tailed":
            # The equality above covers draws accepted on a third attempt.
            assert max(attempts for _, attempts in oracle) >= 3

    @pytest.mark.parametrize("kind", ["gaussian", "heavy_tailed"])
    def test_diameters_equal_a_scalar_oracle_per_sample(self, kind):
        ids = np.arange(300)[::-1] * 5 + 2
        d_true = np.linspace(20.0, 60.0, 300)
        spec = PredictorSpec(kind=kind, nu=4.0, target_mae=0.1, seed=11)
        draws = [_oracle_draw(11, i, PURPOSE_DIAMETER_NOISE, kind, 4.0)[0] for i in ids.tolist()]
        expected = [d * (1.0 + noise_scale(spec) * z) for d, z in zip(d_true.tolist(), draws)]
        np.testing.assert_array_equal(predict_diameters(spec, ids, d_true), expected)

    def test_extreme_seed_and_ids_equal_the_oracle(self):
        ids = [0, 2**63 - 1, 1]
        for kind in ("gaussian", "heavy_tailed"):
            expected = [
                _oracle_draw(UINT64_MAX, i, PURPOSE_HEIGHT_NOISE, kind, 3.5)[0] for i in ids
            ]
            np.testing.assert_array_equal(_unit_noise(kind, ids, UINT64_MAX), expected)

    def test_pinned_draws(self):
        # Literal values of noise stream 2: no numpy upgrade may move them.
        # The t draw of id 26 is accepted on its third attempt.
        ids = [0, 1, 2, 26, 1_000_000_007]
        np.testing.assert_array_equal(_unit_noise("gaussian", ids, 1), GAUSSIAN_PINS)
        np.testing.assert_array_equal(_unit_noise("heavy_tailed", ids, 1), STUDENT_T_PINS)

    def test_no_ids_give_no_draws(self):
        for kind in ("gaussian", "heavy_tailed"):
            got = _unit_noise(kind, [], 5)
            assert got.dtype == np.float64 and got.shape == (0,)

    def test_id_of_2_to_the_63_raises(self):
        for kind in ("oracle", "gaussian", "heavy_tailed"):
            with pytest.raises(ValueError, match=r"sample ids must lie in \[0, 2\*\*63\)"):
                _unit_noise(kind, [0, 2**63], 5)

    def test_negative_id_raises(self):
        for kind in ("gaussian", "heavy_tailed"):
            with pytest.raises(ValueError, match="index must fit in uint64, got -1"):
                _unit_noise(kind, [0, -1, 2], 5)

    @pytest.mark.parametrize(
        "kind, cdf",
        [
            ("gaussian", lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))),
            # Student-t with 3 degrees of freedom has a closed-form CDF.
            (
                "heavy_tailed",
                lambda x: 0.5
                + (x / math.sqrt(3.0) / (1.0 + x * x / 3.0) + math.atan(x / math.sqrt(3.0)))
                / math.pi,
            ),
        ],
    )
    def test_empirical_cdf_within_dkw_bound(self, kind, cdf):
        # Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2),
        # so eps below is exceeded with probability at most 1e-6.
        n = 100_000
        z = np.sort(_unit_noise(kind, np.arange(n), 13, nu=3.0))
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        for x in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            empirical = np.searchsorted(z, x, side="right") / n
            assert abs(empirical - cdf(x)) <= eps, x
