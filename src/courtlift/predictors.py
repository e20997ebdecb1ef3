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
choice, or thread count. Noise stream 2 (``NOISE_STREAM``) turns the
streams' 64-bit words (``rng.words``) into unit noise with courtlift's
own transforms, as array code over all samples at once:

- gaussian: Box-Muller on words 0 and 1, z = sqrt(-2 ln u1) cos(2 pi u2)
  with u1 = 1 - d0 in (0, 1] and u2 = d1, where d is ``rng.doubles``;
- Student-t: Bailey's polar method (Math. Comp. 62, 1994). Attempt k
  takes words 2k and 2k + 1 as U, V = 2d - 1 and is accepted where
  0 < W = U^2 + V^2 <= 1; then T = U sqrt(nu (W^(-2/nu) - 1) / W). The
  attempts run in rounds over the samples still pending.

Logs, cosines and expm1 are taken per element through ``math`` (libm),
because numpy's SIMD versions give other roundings than libm for some
inputs on some CPUs; numpy's ``sqrt`` is correctly rounded. So the
values depend neither on the CPU nor on numpy's own distribution code. Height noise is additive
in pixels; diameter noise is multiplicative (relative), since diameter
errors scale with apparent size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import PURPOSE_DIAMETER_NOISE, PURPOSE_HEIGHT_NOISE, doubles, words

KINDS = ("oracle", "gaussian", "heavy_tailed")

# The version of the transforms from stream words to unit noise; reports
# name it, and it changes whenever a seed's noise values change.
NOISE_STREAM = 2


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


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` (a ``math`` function) applied to each element of ``x``."""
    return np.fromiter(map(f, x.tolist()), np.float64, len(x))


def _gaussian(w: np.ndarray) -> np.ndarray:
    """Box-Muller on a (2, n) block of words: one normal per column."""
    radius = np.sqrt(-2.0 * _each(math.log, 1.0 - doubles(w[0])))
    return radius * _each(math.cos, 2.0 * math.pi * doubles(w[1]))


def _student_t(seed: int, ids: np.ndarray, purpose: int, nu: float) -> np.ndarray:
    """Bailey's polar Student-t, one per id. Round k makes attempt k of
    every id not yet accepted, from words 2k and 2k + 1 of its stream."""
    out = np.empty(len(ids))
    pending = np.arange(len(ids))
    attempt = 0
    while len(pending):
        u, v = 2.0 * doubles(words(seed, ids[pending], purpose, 2 * attempt, 2)) - 1.0
        w = u * u + v * v
        ok = (0.0 < w) & (w <= 1.0)
        u, w = u[ok], w[ok]
        power = _each(math.expm1, -2.0 / nu * _each(math.log, w))
        out[pending[ok]] = u * np.sqrt(nu * power / w)
        pending = pending[~ok]
        attempt += 1
    return out


def _noise(spec: PredictorSpec, ids: np.ndarray, purpose: int) -> np.ndarray:
    """Unit noise draws, one from each sample's own stream."""
    if spec.kind == "gaussian":
        return _gaussian(words(spec.seed, ids, purpose, 0, 2))
    return _student_t(spec.seed, ids, purpose, spec.nu)


def _arrays(sample_ids, truth) -> tuple[np.ndarray, np.ndarray]:
    """Sample ids and true values as flat arrays, one value per id."""
    try:
        ids = np.asarray(sample_ids, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ValueError("sample ids must lie in [0, 2**63)") from None
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    if len(ids) != len(truth):
        raise ValueError(f"{len(ids)} sample ids for {len(truth)} true values")
    return ids, truth


def predict_heights(spec: PredictorSpec, sample_ids, h_true) -> np.ndarray:
    """Predicted pixel heights (px; may be negative), additive noise.

    ``sample_ids`` keys each sample's noise stream; ``h_true`` holds the
    true pixel heights, one per id, else ValueError.
    """
    ids, h_true = _arrays(sample_ids, h_true)
    if spec.kind == "oracle":
        return h_true.copy()
    return h_true + noise_scale(spec) * _noise(spec, ids, PURPOSE_HEIGHT_NOISE)


def predict_diameters(spec: PredictorSpec, sample_ids, d_true) -> np.ndarray:
    """Predicted image diameters (px) with relative (multiplicative) noise.

    ``sample_ids`` keys each sample's noise stream; ``d_true`` holds the
    true image diameters, one per id, else ValueError.
    """
    ids, d_true = _arrays(sample_ids, d_true)
    if spec.kind == "oracle":
        return d_true.copy()
    return d_true * (1.0 + noise_scale(spec) * _noise(spec, ids, PURPOSE_DIAMETER_NOISE))
