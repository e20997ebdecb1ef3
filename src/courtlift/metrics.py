"""Evaluation metrics and repeat aggregation.

Five metrics per run: MAE of the predicted pixel height (px), mean and
median absolute projection error on the court floor (m, 2D), and mean
and median absolute 3D error (m). Repeated runs aggregate to per-metric
mean and sample standard deviation (k - 1 denominator, 0 for k = 1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BadBins, EmptyInput, LengthMismatch

METRIC_NAMES = ("mae_px", "mape_m", "mdnape_m", "ma3de_m", "mdna3de_m")


def evaluate_arrays(
    truth_xyz: np.ndarray,
    h_true: np.ndarray | None,
    h_pred: np.ndarray | None,
    ball_xyz: np.ndarray,
) -> dict:
    """Metrics from plain arrays: a dict of the five ``METRIC_NAMES`` and
    ``n_samples``, the sample count.

    truth_xyz: (n, 3) ground-truth ball positions; ball_xyz: (n, 3)
    reconstructed positions, whose x and y are the predicted floor
    projections. h_true/h_pred may be None together (no height metric):
    ``mae_px`` is then None, as for the diameter baseline.
    """
    truth = np.asarray(truth_xyz, dtype=np.float64)
    ball = np.asarray(ball_xyz, dtype=np.float64)
    n = truth.shape[0]
    if n == 0:
        raise EmptyInput("evaluate needs at least one sample")
    if ball.shape[0] != n:
        raise LengthMismatch(f"got {n} samples and {ball.shape[0]} reconstructions")
    if h_pred is not None:
        if h_true is None:
            raise LengthMismatch("h_pred given without h_true")
        h_true = np.asarray(h_true, dtype=np.float64)
        h_pred = np.asarray(h_pred, dtype=np.float64)
        if h_true.shape[0] != n or h_pred.shape[0] != n:
            raise LengthMismatch("height arrays must match the sample count")
    # An error, or a sum of errors, past float range is inf: the report refuses it.
    with np.errstate(over="ignore"):
        mae = None if h_pred is None else float(np.mean(np.abs(h_pred - h_true)))
        dx, dy, dz = (ball - truth).T
        proj_err = np.hypot(dx, dy)
        # The sum np.linalg.norm(axis=1) takes, in its order, without its overhead.
        err3d = np.sqrt((dx * dx + dy * dy) + dz * dz)
        return {
            "mae_px": mae,
            "mape_m": float(np.mean(proj_err)),
            "mdnape_m": _median(proj_err),
            "ma3de_m": float(np.mean(err3d)),
            "mdna3de_m": _median(err3d),
            "n_samples": int(n),
        }


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, computed as np.median computes
    it: a partition, then the mean of the middle one or two values. The
    first np.median call in a process imports numpy.ma (numpy 2 and
    later); this does not."""
    mid = len(x) // 2
    middle = [mid] if len(x) % 2 else [mid - 1, mid]
    part = np.partition(x, middle + [-1])  # -1: a NaN sorts last
    return float("nan") if np.isnan(part[-1]) else float(np.mean(part[middle]))


def aggregate_repeats(reports: Sequence[dict]) -> dict:
    """Per-metric sample mean and std (ddof 1; std 0 when k = 1) of
    ``evaluate_arrays`` dicts, as ``{"k", "mean", "std"}``: the count k
    and a dict of each ``METRIC_NAMES`` value per statistic, None where a
    report has none."""
    k = len(reports)
    if k == 0:
        raise EmptyInput("aggregate_repeats needs at least one report")
    mean: dict[str, float | None] = {}
    std: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        values = [r[name] for r in reports]
        if any(v is None for v in values):
            mean[name] = None
            std[name] = None
            continue
        arr = np.asarray(values, dtype=np.float64)
        # An infinite metric gives an inf or NaN the report refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            mean[name] = float(arr.mean())
            std[name] = 0.0 if k == 1 else float(arr.std(ddof=1))
    return {"k": k, "mean": mean, "std": std}


def height_histogram(heights_m, bin_edges_m: Sequence[float]) -> np.ndarray:
    """Counts of true ball heights per bin, plus a trailing overflow bin.

    For edges (e0, ..., em) the bins are [e0, e1), ..., [e_{m-1}, em),
    [em, inf); heights below e0 (heights are nonnegative, edges
    conventionally start at 0) are clipped into the first bin so the
    counts always sum to the sample count. A NaN or infinite height
    raises ValueError naming its index.
    """
    edges = np.asarray(list(bin_edges_m), dtype=np.float64)
    if edges.size < 2:
        raise BadBins("need at least two bin edges")
    if not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0.0):
        raise BadBins("bin edges must be finite and strictly increasing")
    z = np.asarray(heights_m, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise ValueError(f"heights must be finite, got {z.flat[bad[0]]} at index {bad[0]}")
    z = np.maximum(z, edges[0])
    counts, _ = np.histogram(z, bins=np.append(edges, np.inf))
    return counts
