"""Metric tests with hand-computed expectations.

The outlier example {1, 1, 1, 10} m gives MAPE (1+1+1+10)/4 = 3.25 and
MdnAPE median{1,1,1,10} = 1.0; two repeats {1.0, 2.0} give mean 1.5 and
sample std sqrt(0.5) ~= 0.7071.
"""

import math

import numpy as np
import pytest

from courtlift.errors import BadBins, EmptyInput, LengthMismatch
from courtlift.metrics import (
    EvalReport,
    METRIC_NAMES,
    aggregate_repeats,
    _median,
    evaluate_arrays,
    height_histogram,
)


def _report(**metric_values) -> EvalReport:
    base = dict(
        mae_px=0.0, mape_m=0.0, mdnape_m=0.0, ma3de_m=0.0, mdna3de_m=0.0, n_samples=4
    )
    base.update(metric_values)
    return EvalReport(**base)


def _arrays_from_proj_errors(errors):
    """Truth at the origin; projections displaced by the given distances."""
    n = len(errors)
    truth = np.zeros((n, 3))
    ground = np.column_stack([np.asarray(errors, float), np.zeros(n)])
    ball = np.column_stack([ground, np.zeros(n)])
    return truth, ball, ground


class TestEvaluate:
    def test_outlier_example(self):
        truth, ball, ground = _arrays_from_proj_errors([1.0, 1.0, 1.0, 10.0])
        report = evaluate_arrays(truth, None, None, ball, ground)
        assert report.mape_m == pytest.approx(3.25)
        assert report.mdnape_m == pytest.approx(1.0)
        assert report.ma3de_m == pytest.approx(3.25)
        assert report.mae_px is None
        assert report.n_samples == 4

    def test_two_sample_hand_values(self):
        truth = [[1.0, 2.0, 0.5], [-1.0, 0.0, 2.0]]
        ball = [[1.5, 2.0, 0.5], [-1.0, 1.0, 2.0]]
        ground = [[1.5, 2.0], [-1.0, 1.0]]
        report = evaluate_arrays(truth, [10.0, 20.0], [12.0, 17.0], ball, ground)
        assert report.mae_px == pytest.approx(2.5)  # (|2| + |-3|) / 2
        assert report.mape_m == pytest.approx((0.5 + 1.0) / 2)
        assert report.ma3de_m == pytest.approx((0.5 + 1.0) / 2)

    def test_even_median_is_midpoint(self):
        truth, ball, ground = _arrays_from_proj_errors([1.0, 2.0, 3.0, 4.0])
        report = evaluate_arrays(truth, None, None, ball, ground)
        assert report.mdnape_m == pytest.approx(2.5)

    def test_permutation_invariance(self):
        errors = [0.3, 1.2, 0.7, 5.0, 2.2]
        truth, ball, ground = _arrays_from_proj_errors(errors)
        r1 = evaluate_arrays(truth, None, None, ball, ground)
        perm = np.array([3, 0, 4, 1, 2])
        r2 = evaluate_arrays(truth[perm], None, None, ball[perm], ground[perm])
        for name in METRIC_NAMES[1:]:
            assert r1.metric(name) == pytest.approx(r2.metric(name))

    def test_scale_consistency(self):
        errors = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        truth, ball, ground = _arrays_from_proj_errors(errors)
        t2, b2, g2 = _arrays_from_proj_errors(2.0 * errors)
        h_true = np.zeros(5)
        r1 = evaluate_arrays(truth, h_true, errors, ball, ground)
        r2 = evaluate_arrays(t2, h_true, 2.0 * errors, b2, g2)
        for name in METRIC_NAMES:
            assert r2.metric(name) == pytest.approx(2.0 * r1.metric(name))

    def test_median_robust_mean_not(self):
        errors = np.linspace(1.0, 11.0, 11)
        truth, ball, ground = _arrays_from_proj_errors(errors)
        base = evaluate_arrays(truth, None, None, ball, ground)
        bumped = errors.copy()
        bumped[-1] *= 10.0  # one outlier, 11 -> 110
        t2, b2, g2 = _arrays_from_proj_errors(bumped)
        after = evaluate_arrays(t2, None, None, b2, g2)
        # MAPE moves by exactly 9 * err / n.
        assert after.mape_m - base.mape_m == pytest.approx(9.0 * 11.0 / 11.0)
        # MdnAPE moves by at most the largest gap between adjacent order stats.
        max_gap = np.diff(np.sort(errors)).max()
        assert abs(after.mdnape_m - base.mdnape_m) <= max_gap + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 57, 58, 4999, 5000])
    def test_median_equals_np_median(self, n):
        x = np.random.default_rng(n).exponential(size=n)
        assert _median(x) == float(np.median(x))
        x[n // 2] = np.nan
        assert math.isnan(_median(x)) and math.isnan(np.median(x))

    def test_length_mismatch_and_empty(self):
        truth, ball, ground = _arrays_from_proj_errors([1.0, 2.0])
        with pytest.raises(LengthMismatch):
            evaluate_arrays(truth, None, None, ball[:1], ground)
        with pytest.raises(EmptyInput):
            evaluate_arrays(np.zeros((0, 3)), None, None, np.zeros((0, 3)), np.zeros((0, 2)))


class TestAggregateRepeats:
    def test_single_report_has_zero_std(self):
        agg = aggregate_repeats([_report(mape_m=1.3)])
        assert agg.k == 1
        assert agg.mean["mape_m"] == pytest.approx(1.3)
        assert agg.std["mape_m"] == 0.0

    def test_identical_reports_have_zero_std(self):
        agg = aggregate_repeats([_report(mape_m=1.3)] * 8)
        assert agg.std["mape_m"] == pytest.approx(0.0)

    def test_two_reports_hand_value(self):
        agg = aggregate_repeats([_report(mape_m=1.0), _report(mape_m=2.0)])
        assert agg.mean["mape_m"] == pytest.approx(1.5)
        assert agg.std["mape_m"] == pytest.approx(math.sqrt(0.5))

    def test_none_metric_propagates(self):
        agg = aggregate_repeats([_report(mae_px=None), _report(mae_px=None)])
        assert agg.mean["mae_px"] is None
        assert agg.std["mae_px"] is None

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            aggregate_repeats([])


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


class TestSerialization:
    def test_csv_rows_cover_all_metrics(self):
        agg = aggregate_repeats([_report(mape_m=1.0), _report(mape_m=2.0)])
        rows = agg.to_csv_rows()
        assert [r[0] for r in rows] == list(METRIC_NAMES)
        assert float(rows[1][1]) == pytest.approx(1.5)

    def test_json_dict_round_trips_none(self):
        report = _report(mae_px=None)
        obj = report.to_json_dict()
        assert obj["mae_px"] is None
        assert obj["n_samples"] == 4
