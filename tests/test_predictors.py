"""Predictor tests: oracle exactness, noise calibration, tails, determinism.

Closed-form anchors used as oracles:
  E|z|   = sigma * sqrt(2/pi)                       (folded normal)
  E|t_3| = 2 * sqrt(3) / pi ~= 1.10266              (folded Student-t)
so a 5% relative gaussian diameter error gives relative MAE
0.05 * sqrt(2/pi) ~= 0.0399.
"""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from courtlift import ArenaSpec, synth
from courtlift._libm import cos_sin_2pi, expm1, log
from courtlift.camera import column, one_row
from courtlift.predictors import (
    MEAN_ABS_NORMAL,
    PredictorSpec,
    mean_abs_student_t,
    noise_scale,
    predict_diameters,
    predict_heights,
)
from courtlift.rng import PURPOSE_DIAMETER_NOISE, PURPOSE_HEIGHT_NOISE

UINT64_MAX = 2**64 - 1


def _spec(kind, sigma, **kwargs):
    """A predictor of `kind` with noise scale `sigma`; the oracle takes none."""
    return PredictorSpec(kind=kind, sigma=0.0 if kind == "oracle" else sigma, **kwargs)


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

    @pytest.mark.parametrize("kind", ["oracle", "gaussian", "heavy_tailed"])
    # 1.7 and True are no uint64 either: cast, both would run seed 1's streams.
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.7, True])
    def test_seed_outside_uint64_raises_when_built(self, kind, seed):
        with pytest.raises(ValueError, match=rf"seed must be an int in \[0, 2\*\*64\), got {seed}"):
            PredictorSpec(kind=kind, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_uint64_ends_is_accepted(self, seed):
        spec = PredictorSpec(kind="gaussian", sigma=1.0, seed=seed)
        assert predict_heights(spec, [0, 1], [10.0, 20.0]).shape == (2,)

    @pytest.mark.parametrize("noise", [{"sigma": 1.0}, {"target_mae": 34.0}])
    def test_oracle_takes_no_noise(self, noise):
        with pytest.raises(ValueError, match="the oracle adds no noise"):
            PredictorSpec(kind="oracle", **noise)

    @pytest.mark.parametrize("kind", ["gaussian", "heavy_tailed"])
    def test_target_mae_takes_no_sigma(self, kind):
        # The scale is solved from the target, so a sigma would go unused.
        with pytest.raises(ValueError, match="target_mae sets the noise scale: it takes no sigma"):
            PredictorSpec(kind=kind, sigma=500.0, target_mae=34.0)
        assert PredictorSpec(kind=kind, sigma=0.0, target_mae=34.0).target_mae == 34.0

    def test_mean_abs_t_limits(self):
        # nu = 3 has the closed form 2*sqrt(3)/pi; large nu approaches the
        # folded-normal constant sqrt(2/pi).
        assert mean_abs_student_t(3.0) == pytest.approx(2.0 * math.sqrt(3.0) / math.pi)
        assert mean_abs_student_t(1e6) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-4)

    @pytest.mark.parametrize("m", [1, 2, 50, 499, 500, 501, 2000, 50_000])
    def test_mean_abs_t_at_an_even_nu_is_its_closed_form(self, m):
        # At nu = 2m, Gamma(m + 1/2) / Gamma(m) = sqrt(pi) m C(2m, m) / 4^m,
        # so E|T| = 2 sqrt(2m) m C(2m, m) / (4^m (2m - 1)); the integer
        # division rounds once. These nu lie on both sides of 1000, where
        # the asymptotic series takes over from lgamma.
        exact = 2.0 * math.sqrt(2 * m) * (m * math.comb(2 * m, m) / 4**m) / (2 * m - 1)
        assert mean_abs_student_t(2.0 * m) == pytest.approx(exact, rel=1e-12)

    def test_mean_abs_t_holds_up_to_the_float_range(self):
        # The difference of two lgamma values loses every digit by
        # nu = 1e16, and lgamma overflows from about 5e305.
        nus = [1e3, 1e4, 1e8, 1e16, 1e100, 1e300, sys.float_info.max]
        values = [mean_abs_student_t(nu) for nu in nus]
        assert values == sorted(values, reverse=True)
        assert values[-1] == MEAN_ABS_NORMAL
        assert mean_abs_student_t(1e16) == pytest.approx(MEAN_ABS_NORMAL, rel=1e-15)


class TestPredictHeight:
    def test_oracle_is_exact(self):
        ids, h_true = _fake_heights(10, h_true=42.5)
        preds = predict_heights(PredictorSpec(kind="oracle"), ids, h_true)
        np.testing.assert_array_equal(preds, 42.5)

    @pytest.mark.parametrize("kind", ["oracle", "gaussian", "heavy_tailed"])
    def test_one_true_height_per_id(self, kind):
        spec = _spec(kind, 1.0)
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
        arena = ArenaSpec(ball_diameter_m=0.24)
        near, far = (
            synth._annotate(column(identity_cal), *one_row(0.0, 0.0, z), arena)[-1][0]
            for z in (5.0, 10.0)
        )
        assert near == pytest.approx(48.0)
        assert far == pytest.approx(24.0)

    def test_oracle_returns_stored_diameters(self):
        d_true = np.array([48.0, 24.0, 7.25])
        preds = predict_diameters(PredictorSpec(kind="oracle"), [0, 1, 2], d_true)
        np.testing.assert_array_equal(preds, d_true)

    @pytest.mark.parametrize("kind", ["oracle", "gaussian", "heavy_tailed"])
    def test_one_true_diameter_per_id(self, kind):
        spec = _spec(kind, 0.1)
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
        obj = dataclasses.asdict(spec)
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


def _one(kernel, x: float) -> float:
    """A ``_libm`` kernel applied to one float."""
    return kernel(np.array([x]))[0].item()


def _philox(seed, index, purpose, lane=0):
    """numpy's own Philox for the stream (seed, index, purpose) at
    counter lane `lane`."""
    key = np.array((seed, index), dtype=np.uint64)
    return np.random.Philox(key=key, counter=np.array((0, lane, 0, purpose), dtype=np.uint64))


def _oracle_draw(seed, index, purpose, kind, nu, repeat=0):
    """Unit draw `repeat` of noise stream 4 and the attempts it took, in
    scalar arithmetic from the words of numpy's own Philox for the
    sample, with the ``_libm`` kernels one value at a time. A gaussian
    repeat r is normal r of the stream: Box-Muller pair r // 2 from words
    r - r % 2 and r - r % 2 + 1, its cos for an even r and its sin for an
    odd one. A Student-t repeat r reads counter lane r."""
    bitgen = _philox(seed, index, purpose, 0 if kind == "gaussian" else repeat)

    def double():
        return (int(bitgen.random_raw()) >> 11) * 2.0**-53

    if kind == "gaussian":
        bitgen.random_raw(repeat - repeat % 2)
        d0, d1 = double(), double()
        radius = math.sqrt(-2.0 * _one(log, 1.0 - d0))
        return radius * _one(lambda d: cos_sin_2pi(d)[repeat % 2], d1), 1
    attempts = 0
    while True:
        attempts += 1
        u, v = 2.0 * double() - 1.0, 2.0 * double() - 1.0
        w = u * u + v * v
        if 0.0 < w <= 1.0:
            return u * math.sqrt(nu * _one(expm1, -2.0 / nu * _one(log, w)) / w), attempts


# Unit draws of ids 0, 1, 2, 26 and 1_000_000_007 at seed 1 (height
# noise), repeat 0.
GAUSSIAN_PINS = [
    -0.8617146764734906,
    0.981879216049471,
    -0.09552676423159391,
    0.0040794185128545145,
    -0.5472784669292682,
]
STUDENT_T_PINS = [  # nu = 3.5
    -2.6653603407878097,
    0.11683672292443809,
    -0.3355026820530375,
    -0.7584724816035183,
    -1.411216751406371,
]
# The same ids' repeats 1 to 5, one row per repeat.
GAUSSIAN_REPEAT_PINS = [
    [0.044627503068689955, 0.7804576946589044, -0.34922803116204365, -0.20763813458452798,
     0.3139754720864248],
    [1.7502069038693042, -0.5775870069430721, -0.7858172094637997, 0.47131411571054155,
     0.2515193105797093],
    [0.2093600713555437, 0.2663111527880517, -0.1809276088437487, 0.2805695162625321,
     -0.6792443209737475],
    [1.4759643087626866, -0.5212882634336514, 1.6728140183483844, -0.023835895662893486,
     0.611483248118455],
    [0.03972691699307079, -1.6660520755576513, -0.3413472316923102, -0.6104116232592369,
     -0.36936406503017877],
]  # fmt: skip
STUDENT_T_REPEAT_PINS = [  # nu = 3.5
    [-0.04100687341282018, -0.6452212964275668, 3.8058523097239965, 0.4090603077759811,
     0.4879783812930668],
    [-1.1650762999904958, -0.06402456272294685, -0.5106064678695543, -2.7680992649019176,
     0.14267950415474676],
    [0.2598526948130386, 0.7108877469450022, 0.3060636823506618, 0.4944489790929126,
     0.13098428634630968],
    [0.9351695958182604, 1.824877580024483, 0.4238680178287155, 0.05547158512126364,
     1.8444866678182834],
    [0.32508424828053556, 6.215986313046788, 1.6699312764964769, 0.7847456834141395,
     0.3138265713061879],
]  # fmt: skip


def _unit_noise(kind, ids, seed, nu=3.5, repeats=None):
    """Unit height noise: sigma 1 added to true heights of 0."""
    spec = _spec(kind, 1.0, nu=nu, seed=seed)
    return predict_heights(spec, ids, np.zeros(len(ids)), repeats)


class TestNoiseStream4:
    @pytest.mark.parametrize(
        "kind, nu", [("gaussian", 3.0), ("heavy_tailed", 4.0), ("heavy_tailed", 1.5)]
    )
    def test_heights_equal_a_scalar_oracle_per_sample(self, kind, nu):
        ids, h_true = _fake_heights(300)
        ids = ids * 7 + 3
        spec = PredictorSpec(kind=kind, nu=nu, target_mae=20.0, seed=11)
        got = predict_heights(spec, ids, h_true, range(6))
        assert got.shape == (6, 300)
        np.testing.assert_array_equal(predict_heights(spec, ids, h_true), got[0])
        attempts = []
        for r in range(6):
            oracle = [
                _oracle_draw(11, i, PURPOSE_HEIGHT_NOISE, kind, nu, r) for i in ids.tolist()
            ]
            expected = [50.0 + noise_scale(spec) * z for z, _ in oracle]
            np.testing.assert_array_equal(got[r], expected)
            attempts += [n for _, n in oracle]
        if kind == "heavy_tailed":
            # The equality above covers draws accepted on a third attempt.
            assert max(attempts) >= 3

    @pytest.mark.parametrize("kind", ["gaussian", "heavy_tailed"])
    @pytest.mark.parametrize("repeats", [None, range(3, 6), range(2, 3)])
    def test_diameters_equal_a_scalar_oracle_per_sample(self, kind, repeats):
        ids = np.arange(300)[::-1] * 5 + 2
        d_true = np.linspace(20.0, 60.0, 300)
        spec = PredictorSpec(kind=kind, nu=4.0, target_mae=0.1, seed=11)
        got = predict_diameters(spec, ids, d_true, repeats)
        for r, row in zip(repeats or [0], got if repeats else [got]):
            draws = [
                _oracle_draw(11, i, PURPOSE_DIAMETER_NOISE, kind, 4.0, r)[0] for i in ids.tolist()
            ]
            expected = [d * (1.0 + noise_scale(spec) * z) for d, z in zip(d_true.tolist(), draws)]
            np.testing.assert_array_equal(row, expected)

    def test_extreme_seed_and_ids_equal_the_oracle(self):
        ids = [0, 2**63 - 1, 1]
        for kind in ("gaussian", "heavy_tailed"):
            got = _unit_noise(kind, ids, UINT64_MAX, repeats=range(4))
            for r in range(4):
                expected = [
                    _oracle_draw(UINT64_MAX, i, PURPOSE_HEIGHT_NOISE, kind, 3.5, r)[0] for i in ids
                ]
                np.testing.assert_array_equal(got[r], expected)

    def test_pinned_draws(self):
        # Literal values of noise stream 4: no numpy upgrade may move them.
        # The t draw of id 26 is accepted on its third attempt.
        ids = [0, 1, 2, 26, 1_000_000_007]
        np.testing.assert_array_equal(_unit_noise("gaussian", ids, 1), GAUSSIAN_PINS)
        np.testing.assert_array_equal(_unit_noise("heavy_tailed", ids, 1), STUDENT_T_PINS)
        for kind, pins in (
            ("gaussian", GAUSSIAN_REPEAT_PINS), ("heavy_tailed", STUDENT_T_REPEAT_PINS)
        ):
            np.testing.assert_array_equal(_unit_noise(kind, ids, 1, repeats=range(1, 6)), pins)

    @pytest.mark.parametrize("kind", ["oracle", "gaussian", "heavy_tailed"])
    def test_a_run_of_repeats_is_each_repeat_alone(self, kind):
        ids, h_true = _fake_heights(200)
        spec = _spec(kind, 3.0, seed=6)
        run = predict_heights(spec, ids, h_true, range(9))
        assert run.shape == (9, 200)
        for start in range(9):
            for stop in range(start, 10):
                got = predict_heights(spec, ids, h_true, range(start, stop))
                assert got.shape == (stop - start, 200)
                if stop < 10:
                    np.testing.assert_array_equal(got, run[start:stop])

    @pytest.mark.parametrize("kind", ["gaussian", "heavy_tailed"])
    def test_neighbouring_seeds_share_no_repeat(self, kind):
        # Repeat r of seed s reads the key (s, id) alone, so seeds s and
        # s + 1 no longer share 7 of their first 8 repeats.
        ids = np.arange(100)
        later = _unit_noise(kind, ids, 20, repeats=range(1, 8))
        shifted = _unit_noise(kind, ids, 21, repeats=range(7))
        assert not np.any(later == shifted)

    @pytest.mark.parametrize(
        "repeats", [range(0, 4, 2), range(-1, 2), range(3, 0, -1), range(3, 1), [0, 1], 2]
    )
    def test_repeats_must_be_a_range_of_step_1_from_0_up(self, repeats):
        for kind in ("oracle", "gaussian", "heavy_tailed"):
            with pytest.raises(ValueError, match="repeats must be a range of step 1 from 0 up"):
                _unit_noise(kind, [0, 1], 5, repeats=repeats)

    def test_no_ids_give_no_draws(self):
        for kind in ("gaussian", "heavy_tailed"):
            got = _unit_noise(kind, [], 5)
            assert got.dtype == np.float64 and got.shape == (0,)
            assert _unit_noise(kind, [], 5, repeats=range(3)).shape == (3, 0)

    def test_id_of_2_to_the_63_raises(self):
        # numpy 1.24 reads [0, 2**63] as uint64 and numpy 2 as float64: the
        # id is refused either way, and the message shows it as read.
        message = r"sample_ids\[1\]: id \S+ is not a whole number in \[0, 2\*\*63\)"
        for kind in ("oracle", "gaussian", "heavy_tailed"):
            with pytest.raises(ValueError, match=message):
                _unit_noise(kind, [0, 2**63], 5)

    @pytest.mark.parametrize("sample_id", [2**63, 2**64 - 1])
    @pytest.mark.parametrize("predict", [predict_heights, predict_diameters])
    def test_unsigned_ids_of_2_to_the_63_or_more_raise(self, predict, sample_id):
        # A uint64 array would wrap such ids to negatives in an int64 cast.
        ids = np.array([0, sample_id], dtype=np.uint64)
        for kind in ("oracle", "gaussian", "heavy_tailed"):
            spec = _spec(kind, 0.1)
            message = rf"\[{{}}\]: id {sample_id} is not a whole number in \[0, 2\*\*63\)"
            with pytest.raises(ValueError, match=message.format(1)):
                predict(spec, ids, [10.0, 20.0])
            with pytest.raises(ValueError, match=message.format(0)):
                predict(spec, ids[1], [10.0])

    def test_unsigned_ids_below_2_to_the_63_are_the_signed_ids(self):
        ids = np.array([0, 2**63 - 1, 5], dtype=np.uint64)
        spec = PredictorSpec(kind="heavy_tailed", sigma=2.0, seed=4)
        np.testing.assert_array_equal(
            predict_heights(spec, ids, [1.0, 2.0, 3.0]),
            predict_heights(spec, ids.astype(np.int64), [1.0, 2.0, 3.0]),
        )

    @pytest.mark.parametrize(
        "ids, message",
        [
            ([1.2, 1.7], r"sample_ids\[0\]: id 1\.2 is not a whole number in \[0, 2\*\*63\)"),
            ([0.0, math.nan], r"sample_ids\[1\]: id nan is not a whole number in \[0, 2\*\*63\)"),
            ([1e30], r"sample_ids\[0\]: id 1e\+30 is not a whole number in \[0, 2\*\*63\)"),
            ([0.0, math.inf], r"sample_ids\[1\]: id inf is not a whole number in \[0, 2\*\*63\)"),
            ([0.0, 2.0**63], r"sample_ids\[1\]: id 9\.223372036854776e\+18 is not a whole number"),
            ([3.0, -1.0], r"sample_ids\[1\]: id -1\.0 is not a whole number in \[0, 2\*\*63\)"),
        ],
        ids=["fraction", "nan", "1e30", "inf", "2_to_the_63", "negative"],
    )
    def test_float_ids_must_be_whole_numbers_in_range(self, ids, message):
        # A cast to int64 would truncate 1.2 and 1.7 to the one stream of
        # id 1, and wrap NaN or 1e30 with a float warning; no draw is made.
        for kind in ("oracle", "gaussian", "heavy_tailed"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    _unit_noise(kind, np.array(ids), 5)

    def test_whole_float_ids_are_the_integer_ids(self):
        spec = PredictorSpec(kind="heavy_tailed", sigma=2.0, seed=4)
        np.testing.assert_array_equal(
            predict_heights(spec, [0.0, 7.0, 2.0**62], [1.0, 2.0, 3.0]),
            predict_heights(spec, [0, 7, 2**62], [1.0, 2.0, 3.0]),
        )

    @pytest.mark.parametrize(
        "ids",
        [np.array([True, False]), np.array(["1", "2"]), np.array([1, 2], dtype=object)],
        ids=["bool", "string", "object"],
    )
    @pytest.mark.parametrize("predict", [predict_heights, predict_diameters])
    def test_bool_string_and_object_ids_raise(self, predict, ids):
        # A mask passed where ids belong would run ids 1 and 0, and the
        # strings would be parsed as ids.
        message = r"sample_ids\[0\]: ids must be integers or whole-number floats, got"
        for kind in ("oracle", "gaussian", "heavy_tailed"):
            with pytest.raises(ValueError, match=message):
                predict(_spec(kind, 0.1), ids, [10.0, 20.0])

    def test_negative_id_raises(self):
        message = r"sample_ids\[1\]: id -1 is not a whole number in \[0, 2\*\*63\)"
        for kind in ("oracle", "gaussian", "heavy_tailed"):
            with pytest.raises(ValueError, match=message):
                _unit_noise(kind, [0, -1, 2], 5)

    # Repeat 1 of the gaussian is a Box-Muller sine; of the Student-t,
    # counter lane 1.
    @pytest.mark.parametrize("repeat", [0, 1])
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
    def test_empirical_cdf_within_dkw_bound(self, kind, cdf, repeat):
        # Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2),
        # so eps below is exceeded with probability at most 1e-6.
        n = 100_000
        z = np.sort(_unit_noise(kind, np.arange(n), 13, 3.0, range(repeat, repeat + 1))[0])
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        for x in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            empirical = np.searchsorted(z, x, side="right") / n
            assert abs(empirical - cdf(x)) <= eps, x
