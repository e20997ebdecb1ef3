"""Metric tests with hand-computed expectations.

The outlier example {1, 1, 1, 10} m gives MAPE (1+1+1+10)/4 = 3.25 and
MdnAPE median{1,1,1,10} = 1.0; two repeats {1.0, 2.0} give mean 1.5 and
sample std sqrt(0.5) ~= 0.7071.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from courtlift.errors import BadBins, EmptyInput, LengthMismatch
from courtlift.metrics import (
    METRIC_NAMES,
    aggregate_repeats,
    _median,
    evaluate_arrays,
    height_histogram,
)


def _report(**metric_values) -> dict:
    """An evaluate_arrays dict of 4 samples, every metric 0 unless given."""
    return {**dict.fromkeys(METRIC_NAMES, 0.0), "n_samples": 4, **metric_values}


def _arrays_from_proj_errors(errors):
    """Truth at the origin; balls on the floor, displaced along x by the
    given distances."""
    n = len(errors)
    truth = np.zeros((n, 3))
    ball = np.column_stack([np.asarray(errors, float), np.zeros((n, 2))])
    return truth, ball


class TestEvaluate:
    def test_outlier_example(self):
        truth, ball = _arrays_from_proj_errors([1.0, 1.0, 1.0, 10.0])
        report = evaluate_arrays(truth, None, None, ball)
        assert report["mape_m"] == pytest.approx(3.25)
        assert report["mdnape_m"] == pytest.approx(1.0)
        assert report["ma3de_m"] == pytest.approx(3.25)
        assert report["mae_px"] is None
        assert report["n_samples"] == 4

    def test_two_sample_hand_values(self):
        truth = [[1.0, 2.0, 0.5], [-1.0, 0.0, 2.0]]
        ball = [[1.5, 2.0, 0.5], [-1.0, 1.0, 2.0]]
        report = evaluate_arrays(truth, [10.0, 20.0], [12.0, 17.0], ball)
        assert report["mae_px"] == pytest.approx(2.5)  # (|2| + |-3|) / 2
        assert report["mape_m"] == pytest.approx((0.5 + 1.0) / 2)
        assert report["ma3de_m"] == pytest.approx((0.5 + 1.0) / 2)

    def test_floor_error_is_the_balls_x_and_y(self):
        report = evaluate_arrays([[0.0, 0.0, 1.0]], None, None, [[3.0, 4.0, 13.0]])
        assert (report["mape_m"], report["ma3de_m"]) == (5.0, 13.0)

    def test_3d_error_is_the_row_norm_on_the_golden_rows(self):
        # The golden height balls scored against the golden diameter balls
        # of the same pixels: the 3D error is np.linalg.norm's, bit for bit.
        g = np.load(Path(__file__).parent / "data" / "golden_kernels.npz")
        rows = len(g["d_ball"])
        ok = (g["h_status"][:rows] == 0) & (g["d_status"] == 0)
        ball, truth = g["h_ball"][:rows][ok], g["d_ball"][ok]
        err3d = np.linalg.norm(ball - truth, axis=1)
        report = evaluate_arrays(truth, None, None, ball)
        assert report["ma3de_m"] == float(np.mean(err3d))
        assert report["mdna3de_m"] == float(np.median(err3d))

    def test_even_median_is_midpoint(self):
        truth, ball = _arrays_from_proj_errors([1.0, 2.0, 3.0, 4.0])
        report = evaluate_arrays(truth, None, None, ball)
        assert report["mdnape_m"] == pytest.approx(2.5)

    def test_permutation_invariance(self):
        errors = [0.3, 1.2, 0.7, 5.0, 2.2]
        truth, ball = _arrays_from_proj_errors(errors)
        r1 = evaluate_arrays(truth, None, None, ball)
        perm = np.array([3, 0, 4, 1, 2])
        r2 = evaluate_arrays(truth[perm], None, None, ball[perm])
        for name in METRIC_NAMES[1:]:
            assert r1[name] == pytest.approx(r2[name])

    def test_scale_consistency(self):
        errors = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        truth, ball = _arrays_from_proj_errors(errors)
        t2, b2 = _arrays_from_proj_errors(2.0 * errors)
        h_true = np.zeros(5)
        r1 = evaluate_arrays(truth, h_true, errors, ball)
        r2 = evaluate_arrays(t2, h_true, 2.0 * errors, b2)
        for name in METRIC_NAMES:
            assert r2[name] == pytest.approx(2.0 * r1[name])

    def test_median_robust_mean_not(self):
        errors = np.linspace(1.0, 11.0, 11)
        truth, ball = _arrays_from_proj_errors(errors)
        base = evaluate_arrays(truth, None, None, ball)
        bumped = errors.copy()
        bumped[-1] *= 10.0  # one outlier, 11 -> 110
        t2, b2 = _arrays_from_proj_errors(bumped)
        after = evaluate_arrays(t2, None, None, b2)
        # MAPE moves by exactly 9 * err / n.
        assert after["mape_m"] - base["mape_m"] == pytest.approx(9.0 * 11.0 / 11.0)
        # MdnAPE moves by at most the largest gap between adjacent order stats.
        max_gap = np.diff(np.sort(errors)).max()
        assert abs(after["mdnape_m"] - base["mdnape_m"]) <= max_gap + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 57, 58, 4999, 5000])
    def test_median_equals_np_median(self, n):
        x = np.random.default_rng(n).exponential(size=n)
        assert _median(x) == float(np.median(x))
        x[n // 2] = np.nan
        assert math.isnan(_median(x)) and math.isnan(np.median(x))

    def test_error_past_the_largest_double_is_inf_without_a_warning(self):
        # 1e160 squared passes the largest double; the 3D error is inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_arrays([[0.0, 0.0, 1.0]], None, None, [[1e160, 0.0, 1.0]])
        assert report["mape_m"] == report["mdnape_m"] == 1e160
        assert report["ma3de_m"] == report["mdna3de_m"] == math.inf
        # Finite errors whose sum passes the largest double: the means are inf.
        truth, ball = [[0.0, 0.0, 1.0]] * 3, [[1e308, 0.0, 1.0]] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_arrays(truth, [0.0] * 3, [1e308] * 3, ball)
        assert report["mae_px"] == report["mape_m"] == math.inf and report["mdnape_m"] == 1e308

    def test_length_mismatch_and_empty(self):
        truth, ball = _arrays_from_proj_errors([1.0, 2.0])
        with pytest.raises(LengthMismatch):
            evaluate_arrays(truth, None, None, ball[:1])
        with pytest.raises(EmptyInput):
            evaluate_arrays(np.zeros((0, 3)), None, None, np.zeros((0, 3)))


class TestAggregateRepeats:
    def test_single_report_has_zero_std(self):
        agg = aggregate_repeats([_report(mape_m=1.3)])
        assert agg["k"] == 1
        assert agg["mean"]["mape_m"] == pytest.approx(1.3)
        assert agg["std"]["mape_m"] == 0.0

    def test_identical_reports_have_zero_std(self):
        agg = aggregate_repeats([_report(mape_m=1.3)] * 8)
        assert agg["std"]["mape_m"] == pytest.approx(0.0)

    def test_two_reports_hand_value(self):
        agg = aggregate_repeats([_report(mape_m=1.0), _report(mape_m=2.0)])
        assert agg["mean"]["mape_m"] == pytest.approx(1.5)
        assert agg["std"]["mape_m"] == pytest.approx(math.sqrt(0.5))

    def test_none_metric_propagates(self):
        agg = aggregate_repeats([_report(mae_px=None), _report(mae_px=None)])
        assert agg["mean"]["mae_px"] is None
        assert agg["std"]["mae_px"] is None

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            aggregate_repeats([])

    def test_overflowing_metrics_give_inf_and_nan_without_a_warning(self):
        reports = [_report(mape_m=1e308, ma3de_m=math.inf), _report(mape_m=1e308, ma3de_m=1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = aggregate_repeats(reports)
        assert agg["mean"]["mape_m"] == agg["mean"]["ma3de_m"] == math.inf
        assert math.isnan(agg["std"]["ma3de_m"])


class TestPlainResults:
    """Both results are dicts of Python numbers: the reports write them
    with json and their CSV with repr, which under numpy 2 spells a numpy
    scalar as np.float64(...)."""

    @staticmethod
    def _heights_report(n):
        rng = np.random.default_rng(n)
        truth = rng.normal(size=(n, 3))
        h_true = rng.uniform(20.0, 80.0, size=n)
        return evaluate_arrays(truth, h_true, h_true + rng.normal(size=n), truth + 0.1)

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_each_metric_is_a_python_float(self, name):
        # An odd and an even count: the median takes one or two middle values.
        for n in (5, 6):
            value = self._heights_report(n)[name]
            assert type(value) is float and math.isfinite(value)

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_each_aggregate_statistic_is_a_python_float(self, name):
        # k = 1 takes the std 0.0 branch; k = 3 numpy's ddof-1 std.
        for reports in ([self._heights_report(5)], [self._heights_report(n) for n in (5, 6, 7)]):
            agg = aggregate_repeats(reports)
            assert type(agg["k"]) is int and agg["k"] == len(reports)
            assert type(agg["mean"][name]) is float and type(agg["std"][name]) is float

    @pytest.mark.parametrize("with_heights", [False, True], ids=["no-heights", "heights"])
    def test_keys_in_report_order_and_an_int_sample_count(self, with_heights):
        truth, ball = _arrays_from_proj_errors([1.0, 2.0, 4.0])
        heights = [10.0, 20.0, 30.0] if with_heights else None
        report = evaluate_arrays(truth, heights, heights, ball)
        assert list(report) == [*METRIC_NAMES, "n_samples"]
        assert type(report["n_samples"]) is int and report["n_samples"] == 3
        assert (report["mae_px"] == 0.0) if with_heights else (report["mae_px"] is None)


class TestHeightHistogram:
    def test_all_on_ground_fall_in_first_bin(self):
        counts = height_histogram([0.0] * 7, [0, 1, 2, 3])
        np.testing.assert_array_equal(counts, [7, 0, 0, 0])

    def test_overflow_bin_and_sum(self):
        counts = height_histogram(np.array([0.5, 1.5, 2.5, 3.5, 9.0]), [0, 1, 2, 3])
        np.testing.assert_array_equal(counts, [1, 1, 1, 2])
        assert counts.sum() == 5

    def test_bad_bins(self):
        with pytest.raises(BadBins):
            height_histogram([1.0], [])
        with pytest.raises(BadBins):
            height_histogram([1.0], [2.0])
        with pytest.raises(BadBins):
            height_histogram([1.0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "heights, shown",
        [
            ([1.0, math.nan], "nan at index 1"),
            ([0.5, 2.0, math.inf, math.nan], "inf at index 2"),
            ([-math.inf], "-inf at index 0"),
        ],
    )
    def test_non_finite_heights_raise(self, heights, shown):
        # Dropping or clipping one would break the counts' sum.
        with pytest.raises(ValueError, match=f"heights must be finite, got {shown}"):
            height_histogram(heights, [0, 1, 2])


class TestSerialization:
    def test_aggregate_covers_all_metrics(self):
        agg = aggregate_repeats([_report(mape_m=1.0), _report(mape_m=2.0)])
        assert list(agg) == ["k", "mean", "std"]
        assert list(agg["mean"]) == list(agg["std"]) == list(METRIC_NAMES)
        assert agg["mean"]["mape_m"] == pytest.approx(1.5)

    def test_json_dict_round_trips_none(self):
        truth, ball = _arrays_from_proj_errors([1.0, 1.0, 1.0, 10.0])
        report = evaluate_arrays(truth, None, None, ball)
        assert list(report) == [*METRIC_NAMES, "n_samples"]
        obj = json.loads(json.dumps(report))
        assert obj["mae_px"] is None
        assert obj["n_samples"] == 4
