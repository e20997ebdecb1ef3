"""Pluggable height/diameter predictors standing in for a trained model.

Three kinds: ``oracle`` returns the ground truth, ``gaussian`` adds
normal noise, ``heavy_tailed`` adds Student-t noise (outlier-prone
predictions, one tail knob ``nu``). Noise can be calibrated to a target
pixel MAE using the closed-form mean absolute value of each law:
E|z| = sigma * sqrt(2/pi) for the normal, and
E|t_nu| = 2 sqrt(nu) Gamma((nu+1)/2) / (sqrt(pi) (nu-1) Gamma(nu/2))
for Student-t with nu > 1.

Draws come from per-sample Philox streams keyed by (seed, sample_id), so
the prediction for a sample never depends on evaluation order, subset
choice, or thread count. One call draws every sample's value through a
single reused bit generator (``rng.draws``); the values are those of a
fresh ``rng.stream`` per sample. Height noise is additive in pixels;
diameter noise is multiplicative (relative), since diameter errors scale
with apparent size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .rng import PURPOSE_DIAMETER_NOISE, PURPOSE_HEIGHT_NOISE, draws

KINDS = ("oracle", "gaussian", "heavy_tailed")


@dataclass(frozen=True)
class PredictorSpec:
    """Configuration of a synthetic predictor.

    ``sigma`` is the raw noise scale (px for heights, relative for
    diameters); when ``target_mae`` is set it overrides sigma and the
    scale is solved so the noise MAE equals the target.
    """

    kind: str
    sigma: float = 0.0
    nu: float = 3.0
    target_mae: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 1.0 < self.nu < math.inf:
            raise ValueError(f"nu must be finite and > 1, got {self.nu}")
        if self.target_mae is not None and not 0.0 < self.target_mae < math.inf:
            raise ValueError(f"target_mae must be finite and > 0, got {self.target_mae}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sigma": self.sigma,
            "nu": self.nu,
            "target_mae": self.target_mae,
            "seed": self.seed,
        }


def mean_abs_student_t(nu: float) -> float:
    """E|T| for Student-t with nu degrees of freedom (nu > 1)."""
    log_ratio = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
    return 2.0 * math.sqrt(nu) * math.exp(log_ratio) / (math.sqrt(math.pi) * (nu - 1.0))


MEAN_ABS_NORMAL = math.sqrt(2.0 / math.pi)


def noise_scale(spec: PredictorSpec) -> float:
    """Scale applied to the unit noise draw for this spec."""
    if spec.kind == "oracle":
        return 0.0
    if spec.target_mae is not None:
        unit_mae = MEAN_ABS_NORMAL if spec.kind == "gaussian" else mean_abs_student_t(spec.nu)
        return spec.target_mae / unit_mae
    return spec.sigma


def _noise(spec: PredictorSpec, sample_ids, purpose: int) -> np.ndarray:
    """Unit noise draws, one from each sample's own stream."""
    ids = np.asarray(sample_ids, dtype=np.int64).reshape(-1).tolist()
    if spec.kind == "gaussian":
        draw = np.random.Generator.standard_normal
    else:
        draw = partial(np.random.Generator.standard_t, df=spec.nu)
    return draws(spec.seed, ids, purpose, draw)


def predict_heights(spec: PredictorSpec, sample_ids, h_true) -> np.ndarray:
    """Predicted pixel heights (px; may be negative), additive noise.

    ``sample_ids`` keys each sample's noise stream; ``h_true`` holds the
    true pixel heights, one per id.
    """
    h_true = np.asarray(h_true, dtype=np.float64).reshape(-1)
    if spec.kind == "oracle":
        return h_true.copy()
    return h_true + noise_scale(spec) * _noise(spec, sample_ids, PURPOSE_HEIGHT_NOISE)


def predict_diameters(spec: PredictorSpec, sample_ids, d_true) -> np.ndarray:
    """Predicted image diameters (px) with relative (multiplicative) noise.

    ``sample_ids`` keys each sample's noise stream; ``d_true`` holds the
    true image diameters, one per id.
    """
    d_true = np.asarray(d_true, dtype=np.float64).reshape(-1)
    if spec.kind == "oracle":
        return d_true.copy()
    return d_true * (1.0 + noise_scale(spec) * _noise(spec, sample_ids, PURPOSE_DIAMETER_NOISE))
