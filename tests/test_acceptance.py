"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them).

Criteria, with their tolerances pinned here:
  1. Master round trip: 10k samples, >= 10 cameras, exact inputs ->
     MA3DE and MAPE < 1e-6 m, reconstruction < 5 s single-threaded;
     with |k1| <= 0.3 distortion -> MA3DE < 1e-11 m (measured 2.3e-13).
  2. Scale invariance at ratios {1, 1/2, 1/4, 1/8} within 1e-9 m.
  3. MAPE strictly increasing over height offsets {0, 5, 10, 20, 40} px.
  4. Gaussian predictor at 34 px MAE on panoramic arenas: MAPE in
     [0.5, 2.5] m and median < mean.
  5. Diameter baseline (10% relative error) worse than the height method.
  6. Height-law anchors: above-3 m fraction 7.5% +/- 1% (deepsport-like)
     and 43.8% +/- 1.5% (ballistic-like) over 100k draws.
  7. k = 8 repeats: std > 0 under noise, std = 0 under the oracle.
  8. Reports byte-identical across --threads values.
"""

import json
import time

import numpy as np
import pytest

from courtlift import (
    HeightDistSpec,
    generate_dataset,
    reconstruct_from_height,
)
from courtlift.camera import scale_calibration
from courtlift.cli import main, run_evaluation, run_sweep
from courtlift.metrics import METRIC_NAMES, aggregate_repeats
from courtlift.predictors import PredictorSpec
from courtlift.rng import stream
from courtlift.synth import sample_height

from conftest import STRONG_DIST_ARENA, ZERO_DIST_ARENA, sample_rows

ORACLE = PredictorSpec(kind="oracle")
GAUSS_34 = PredictorSpec(kind="gaussian", target_mae=34.0, seed=1)
DIAM_10PCT = PredictorSpec(kind="gaussian", target_mae=0.10, seed=1)


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def big_clean_set():
    return generate_dataset(seed=201, n=10_000, arena=ZERO_DIST_ARENA, n_arenas=12)


@pytest.fixture(scope="module")
def band_set():
    # Default arena: 4500x1500 px panoramas, focal 1500-3000 px.
    return generate_dataset(seed=202, n=4000, n_arenas=10)


@pytest.fixture(scope="module")
def sweep_set():
    return generate_dataset(seed=203, n=5000, arena=ZERO_DIST_ARENA, n_arenas=10)


def test_criterion_1_master_round_trip(big_clean_set):
    # Warm caches out of the timed region.
    run_evaluation(big_clean_set[:16], ORACLE)
    t0 = time.perf_counter()
    [report], [n_failed] = run_evaluation(big_clean_set, ORACLE)
    elapsed = time.perf_counter() - t0
    distorted = generate_dataset(seed=204, n=10_000, arena=STRONG_DIST_ARENA, n_arenas=12)
    [report_d], [n_failed_d] = run_evaluation(distorted, ORACLE)
    ok = (
        n_failed == 0
        and report["ma3de_m"] < 1e-6
        and report["mape_m"] < 1e-6
        and elapsed < 5.0
        and n_failed_d == 0
        and report_d["ma3de_m"] < 1e-11
    )
    _criterion(
        1,
        f"master round trip: MA3DE {report['ma3de_m']:.2e} m, MAPE {report['mape_m']:.2e} m "
        f"in {elapsed:.3f} s; distorted MA3DE {report_d['ma3de_m']:.2e} m",
        ok,
    )


def test_criterion_2_scale_invariance(big_clean_set):
    worst = 0.0
    for cal, px, h, _ in sample_rows(big_clean_set[:1000]):
        base_3d, _, _ = reconstruct_from_height(cal, px, h)
        base = np.asarray(base_3d)
        for ratio in (1.0, 0.5, 0.25, 0.125):
            scaled_cal = scale_calibration(cal, ratio)
            scaled_px = (px[0] * ratio, px[1] * ratio)
            ball_3d, _, _ = reconstruct_from_height(scaled_cal, scaled_px, h * ratio)
            worst = max(worst, float(np.linalg.norm(np.asarray(ball_3d) - base)))
    ok = worst < 1e-9
    _criterion(2, f"scale invariance: worst deviation {worst:.2e} m over 1000 samples", ok)


def test_criterion_3_noise_monotonicity(sweep_set):
    levels = [0.0, 5.0, 10.0, 20.0, 40.0]
    reports, failed = run_sweep(sweep_set, levels)
    assert failed == [0] * len(levels)
    mapes = [report["mape_m"] for report in reports]
    steps = np.diff(mapes)
    ok = bool(np.all(steps >= 0.0) and (mapes[-1] - mapes[0]) > 0.0)
    _criterion(
        3,
        "MAPE over height offsets "
        + ", ".join(f"{lv:g}px={m:.3f}m" for lv, m in zip(levels, mapes)),
        ok,
    )


def test_criterion_4_paper_scale_band(band_set):
    reports, _ = run_evaluation(band_set, GAUSS_34, method="height", repeats=3)
    agg = aggregate_repeats(reports)
    mape = agg["mean"]["mape_m"]
    mdnape = agg["mean"]["mdnape_m"]
    ok = 0.5 <= mape <= 2.5 and mdnape < mape
    _criterion(
        4,
        f"34 px gaussian on panoramic arenas: MAPE {mape:.3f} m (band [0.5, 2.5]), "
        f"MdnAPE {mdnape:.3f} m < MAPE",
        ok,
    )


def test_criterion_5_baseline_inferiority(band_set):
    height_reports, _ = run_evaluation(band_set, GAUSS_34, method="height", repeats=3)
    diam_reports, _ = run_evaluation(band_set, DIAM_10PCT, method="diameter", repeats=3)
    height_mape = aggregate_repeats(height_reports)["mean"]["mape_m"]
    diam_mape = aggregate_repeats(diam_reports)["mean"]["mape_m"]
    ok = diam_mape > height_mape
    _criterion(
        5,
        f"diameter baseline MAPE {diam_mape:.3f} m > height method {height_mape:.3f} m",
        ok,
    )


def test_criterion_6_height_distribution_anchors():
    rng = stream(42, 0, 0)
    deep = sample_height(rng.random((100_000, 2)).T, HeightDistSpec(kind="deepsport_like"))
    ballistic = sample_height(rng.random((100_000, 2)).T, HeightDistSpec(kind="ballistic_like"))
    deep_frac = float(np.mean(deep >= 3.0))
    ball_frac = float(np.mean(ballistic >= 3.0))
    ok = abs(deep_frac - 0.075) <= 0.01 and abs(ball_frac - 0.438) <= 0.015
    _criterion(
        6,
        f"above-3m fractions: deepsport {deep_frac:.4f} (target 0.075 +/- 0.01), "
        f"ballistic {ball_frac:.4f} (target 0.438 +/- 0.015)",
        ok,
    )


def test_criterion_7_repeat_aggregation(band_set):
    subset = band_set[:800]
    noisy_reports, _ = run_evaluation(subset, GAUSS_34, repeats=8)
    oracle_reports, _ = run_evaluation(subset, ORACLE, repeats=8)
    noisy_agg = aggregate_repeats(noisy_reports)
    oracle_agg = aggregate_repeats(oracle_reports)
    ok = (
        noisy_agg["k"] == 8
        and all(noisy_agg["std"][name] > 0.0 for name in METRIC_NAMES)
        and all(oracle_agg["std"][name] == 0.0 for name in METRIC_NAMES)
    )
    _criterion(
        7,
        f"k=8 aggregation: noisy stds all > 0 (mape std {noisy_agg['std']['mape_m']:.4f}), "
        "oracle stds all exactly 0",
        ok,
    )


def test_criterion_8_thread_determinism(tmp_path):
    ds_path = tmp_path / "ds.dat"
    assert main(["synth", "--n", "400", "--arenas", "8", "--seed", "31", "--out", str(ds_path)]) == 0
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"report_t{threads}"
        rc = main(
            [
                "evaluate",
                "--dataset",
                str(ds_path),
                "--predictor",
                "heavy_tailed",
                "--target-mae",
                "34",
                "--repeats",
                "3",
                "--seed",
                "5",
                "--out",
                str(out),
                "--threads",
                threads,
            ]
        )
        assert rc == 0
        outputs.append(
            (out.with_suffix(".json").read_bytes(), out.with_suffix(".csv").read_bytes())
        )
    ok = outputs[0] == outputs[1]
    _criterion(8, "evaluate reports byte-identical for --threads 1 vs 4", ok)
