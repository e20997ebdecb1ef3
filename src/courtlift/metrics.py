"""Evaluation metrics and repeat aggregation.

Five metrics per run: MAE of the predicted pixel height (px), mean and
median absolute projection error on the court floor (m, 2D), and mean
and median absolute 3D error (m). Repeated runs aggregate to per-metric
mean and sample standard deviation (k - 1 denominator, 0 for k = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadBins, EmptyInput, LengthMismatch

METRIC_NAMES = ("mae_px", "mape_m", "mdnape_m", "ma3de_m", "mdna3de_m")


@dataclass(frozen=True)
class EvalReport:
    """Metrics over one evaluation run.

    ``mae_px`` is None when no height predictions exist (the diameter
    baseline).
    """

    mae_px: float | None
    mape_m: float
    mdnape_m: float
    ma3de_m: float
    mdna3de_m: float
    n_samples: int

    def metric(self, name: str) -> float | None:
        return self.to_json_dict()[name]

    def to_json_dict(self) -> dict:
        return {
            "mae_px": self.mae_px,
            "mape_m": self.mape_m,
            "mdnape_m": self.mdnape_m,
            "ma3de_m": self.ma3de_m,
            "mdna3de_m": self.mdna3de_m,
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class AggregateReport:
    """Per-metric mean and std over k repeated evaluations."""

    k: int
    mean: dict[str, float | None]
    std: dict[str, float | None]

    def to_json_dict(self) -> dict:
        return {"k": self.k, "mean": dict(self.mean), "std": dict(self.std)}

    def to_csv_rows(self) -> list[tuple[str, str, str]]:
        rows = []
        for name in METRIC_NAMES:
            m = self.mean.get(name)
            s = self.std.get(name)
            rows.append(
                (
                    name,
                    "" if m is None else repr(float(m)),
                    "" if s is None else repr(float(s)),
                )
            )
        return rows


def evaluate_arrays(
    truth_xyz: np.ndarray,
    h_true: np.ndarray | None,
    h_pred: np.ndarray | None,
    ball_xyz: np.ndarray,
    ground_xy: np.ndarray,
) -> EvalReport:
    """Metrics from plain arrays.

    truth_xyz: (n, 3) ground-truth ball positions; ball_xyz: (n, 3)
    reconstructed positions; ground_xy: (n, 2) predicted floor
    projections. h_true/h_pred may be None together (no height metric).
    """
    truth = np.asarray(truth_xyz, dtype=np.float64)
    ball = np.asarray(ball_xyz, dtype=np.float64)
    ground = np.asarray(ground_xy, dtype=np.float64)
    n = truth.shape[0]
    if n == 0:
        raise EmptyInput("evaluate needs at least one sample")
    if ball.shape[0] != n or ground.shape[0] != n:
        raise LengthMismatch(
            f"got {n} samples, {ball.shape[0]} reconstructions, {ground.shape[0]} projections"
        )
    proj_err = np.hypot(ground[:, 0] - truth[:, 0], ground[:, 1] - truth[:, 1])
    err3d = np.linalg.norm(ball - truth, axis=1)
    mae: float | None = None
    if h_pred is not None:
        if h_true is None:
            raise LengthMismatch("h_pred given without h_true")
        h_true = np.asarray(h_true, dtype=np.float64)
        h_pred = np.asarray(h_pred, dtype=np.float64)
        if h_true.shape[0] != n or h_pred.shape[0] != n:
            raise LengthMismatch("height arrays must match the sample count")
        mae = float(np.mean(np.abs(h_pred - h_true)))
    return EvalReport(
        mae_px=mae,
        mape_m=float(np.mean(proj_err)),
        mdnape_m=_median(proj_err),
        ma3de_m=float(np.mean(err3d)),
        mdna3de_m=_median(err3d),
        n_samples=int(n),
    )


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, computed as np.median computes
    it: a partition, then the mean of the middle one or two values. The
    first np.median call in a process imports numpy.ma (numpy 2 and
    later); this does not."""
    mid = len(x) // 2
    middle = [mid] if len(x) % 2 else [mid - 1, mid]
    part = np.partition(x, middle + [-1])  # -1: a NaN sorts last
    return float("nan") if np.isnan(part[-1]) else float(np.mean(part[middle]))


def aggregate_repeats(reports: Sequence[EvalReport]) -> AggregateReport:
    """Per-metric sample mean and std (ddof 1; std 0 when k = 1)."""
    k = len(reports)
    if k == 0:
        raise EmptyInput("aggregate_repeats needs at least one report")
    mean: dict[str, float | None] = {}
    std: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        values = [r.metric(name) for r in reports]
        if any(v is None for v in values):
            mean[name] = None
            std[name] = None
            continue
        arr = np.asarray(values, dtype=np.float64)
        mean[name] = float(arr.mean())
        std[name] = 0.0 if k == 1 else float(arr.std(ddof=1))
    return AggregateReport(k=k, mean=mean, std=std)


def height_histogram(heights_m, bin_edges_m: Sequence[float]) -> np.ndarray:
    """Counts of true ball heights per bin, plus a trailing overflow bin.

    For edges (e0, ..., em) the bins are [e0, e1), ..., [e_{m-1}, em),
    [em, inf); heights below e0 (heights are nonnegative, edges
    conventionally start at 0) are clipped into the first bin so the
    counts always sum to the sample count.
    """
    edges = np.asarray(list(bin_edges_m), dtype=np.float64)
    if edges.size < 2:
        raise BadBins("need at least two bin edges")
    if not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0.0):
        raise BadBins("bin edges must be finite and strictly increasing")
    z = np.maximum(np.asarray(heights_m, dtype=np.float64), edges[0])
    counts, _ = np.histogram(z, bins=np.append(edges, np.inf))
    return counts
