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
choice, or thread count. Every repeat of a sample reads that one key: a
run of repeats is one call, and seeds s and s + 1 share no repeat.
Noise stream 4 (``NOISE_STREAM``) turns the streams' 64-bit words
(``rng.words``) into unit noise with courtlift's own transforms, as
array code over all samples and repeats at once:

- gaussian: repeat r is normal r of the stream. Box-Muller pair p takes
  words 2p and 2p + 1, with u1 = 1 - d0 in (0, 1] and u2 = d1, where d
  is ``rng.doubles``, and gives sqrt(-2 ln u1) cos(2 pi u2) to repeat 2p
  and sqrt(-2 ln u1) sin(2 pi u2) to repeat 2p + 1, so one Philox block
  serves four repeats;
- Student-t: Bailey's polar method (Math. Comp. 62, 1994) on counter
  lane r for repeat r (``rng.words``' ``lane``). Attempt k takes words
  2k and 2k + 1 as U, V = 2d - 1 and is accepted where
  0 < W = U^2 + V^2 <= 1; then T = U sqrt(nu (W^(-2/nu) - 1) / W). The
  attempts run in rounds over the draws still pending, two attempts (one
  Philox block) a round.

Repeat 0's unit noise is stream 3's, bit for bit, for both laws.

Logs, cos(2 pi d), sin(2 pi d) and expm1 are courtlift's own array kernels
(``_libm``: fdlibm's polynomials on basic arithmetic), because numpy's
SIMD versions round some inputs differently on some CPUs and ``math``
runs element by element through the host's libm; numpy's ``sqrt`` is
correctly rounded. So the values depend neither on the CPU nor on
numpy's own distribution code. (Synth still calls ``math`` per element
for its camera poses and low heights.) Height noise is additive in pixels;
diameter noise is multiplicative (relative), since diameter errors
scale with apparent size.
"""

from __future__ import annotations

import math

import numpy as np

from ._libm import cos_sin_2pi, expm1, log
from ._record import ValueRecord, record
from .dataio import check_ids
from .rng import PURPOSE_DIAMETER_NOISE, PURPOSE_HEIGHT_NOISE, check_seed, doubles, words

KINDS = ("oracle", "gaussian", "heavy_tailed")

# The version of the transforms from stream words to unit noise; reports
# name it, and it changes whenever a seed's noise values change.
NOISE_STREAM = 4


@record
class PredictorSpec(ValueRecord):
    """Configuration of a synthetic predictor.

    ``sigma`` is the raw noise scale (px for heights, relative for
    diameters). Setting ``target_mae`` instead solves the scale so the
    noise MAE equals the target, so a spec with it takes no sigma. The
    oracle adds no noise, so it takes neither. `rng.check_seed` checks ``seed``.
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
        if self.kind == "oracle" and (self.sigma or self.target_mae is not None):
            raise ValueError("the oracle adds no noise: it takes no sigma or target_mae")
        if self.target_mae is not None and self.sigma:
            raise ValueError("target_mae sets the noise scale: it takes no sigma")
        check_seed(self.seed)


MEAN_ABS_NORMAL = math.sqrt(2.0 / math.pi)


def mean_abs_student_t(nu: float) -> float:
    """E|T| for Student-t with nu degrees of freedom (nu > 1).

    Above nu = 1000 the ratio Gamma((nu + 1) / 2) / Gamma(nu / 2) comes
    from its asymptotic series, so E|T| = sqrt(2 / pi) nu / (nu - 1)
    exp(-1 / (4 nu) + 1 / (24 nu^3)) to within an ulp or two: the
    difference of two lgamma values loses every digit by nu = 1e16, and
    lgamma overflows from about 5e305.
    """
    if nu > 1000.0:
        series = -0.25 / nu * (1.0 - 1.0 / (6.0 * nu * nu))
        return MEAN_ABS_NORMAL * nu / (nu - 1.0) * math.exp(series)
    log_ratio = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
    return 2.0 * math.sqrt(nu) * math.exp(log_ratio) / (math.sqrt(math.pi) * (nu - 1.0))


def noise_scale(spec: PredictorSpec) -> float:
    """Scale applied to the unit noise draw for this spec."""
    if spec.target_mae is not None:
        unit_mae = MEAN_ABS_NORMAL if spec.kind == "gaussian" else mean_abs_student_t(spec.nu)
        return spec.target_mae / unit_mae
    return spec.sigma


def _gaussian(seed: int, ids: np.ndarray, purpose: int, repeats: range) -> np.ndarray:
    """Box-Muller normals ``repeats`` of every id's stream, (m, n). Pair p
    takes words 2p and 2p + 1 and gives normals 2p (cos) and 2p + 1 (sin)."""
    first = repeats.start // 2
    pairs = (repeats.stop + 1) // 2 - first
    w = words(seed, ids, purpose, 2 * first, 2 * pairs)
    radius = np.sqrt(-2.0 * log(1.0 - doubles(w[0::2])))
    cos, sin = cos_sin_2pi(doubles(w[1::2]))
    z = np.stack([radius * cos, radius * sin], axis=1).reshape(2 * pairs, len(ids))
    skip = repeats.start - 2 * first
    return z[skip : skip + len(repeats)]


def _student_t(seed: int, ids: np.ndarray, purpose: int, nu: float, repeats: range) -> np.ndarray:
    """Bailey's polar Student-t of every id and repeat, (m, n); repeat r
    reads counter lane r. Round b makes attempts 2b and 2b + 1, from
    words 4b to 4b + 3, of every draw not yet accepted, and keeps the
    first of them accepted."""
    n = len(ids)
    keys = np.tile(ids, len(repeats))
    lanes = np.repeat(np.arange(repeats.start, repeats.stop), n)
    u, w = np.empty(len(keys)), np.empty(len(keys))
    pending = np.arange(len(keys))
    block = 0
    while len(pending):
        block_words = words(seed, keys[pending], purpose, 4 * block, 4, lanes[pending])
        uv = 2.0 * doubles(block_words) - 1.0
        ww = uv[0::2] * uv[0::2] + uv[1::2] * uv[1::2]
        ok = (0.0 < ww) & (ww <= 1.0)
        u[pending] = np.where(ok[0], uv[0], uv[2])
        w[pending] = np.where(ok[0], ww[0], ww[1])
        pending = pending[~(ok[0] | ok[1])]
        block += 1
    power = expm1(-2.0 / nu * log(w))
    return (u * np.sqrt(nu * power / w)).reshape(len(repeats), n)


def _noise(spec: PredictorSpec, ids: np.ndarray, purpose: int, repeats: range) -> np.ndarray:
    """Unit noise draws ``repeats`` of each sample's own stream, (m, n)."""
    if spec.kind == "gaussian":
        return _gaussian(spec.seed, ids, purpose, repeats)
    return _student_t(spec.seed, ids, purpose, spec.nu, repeats)


def _arrays(sample_ids, truth) -> tuple[np.ndarray, np.ndarray]:
    """Sample ids (`dataio.check_ids`) and true values, flat, one value per id."""
    ids, fault = check_ids(np.reshape(sample_ids, -1))
    if fault:
        raise ValueError("sample_ids[%d]: %s" % fault)
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    if len(ids) != len(truth):
        raise ValueError(f"{len(ids)} sample ids for {len(truth)} true values")
    return ids, truth


def _predict(spec, sample_ids, truth, purpose, repeats, perturb) -> np.ndarray:
    """`perturb` of the true values and the scaled noise ``repeats`` of
    each id's stream: (m, n), or repeat 0's (n,) when ``repeats`` is None."""
    ids, truth = _arrays(sample_ids, truth)
    runs = range(1) if repeats is None else repeats
    if not (isinstance(runs, range) and runs.step == 1 and 0 <= runs.start <= runs.stop):
        raise ValueError(f"repeats must be a range of step 1 from 0 up, got {repeats!r}")
    if spec.kind == "oracle":
        preds = np.tile(truth, (len(runs), 1))
    else:
        noise = _noise(spec, ids, purpose, runs)
        with np.errstate(over="ignore"):
            preds = perturb(truth, noise_scale(spec) * noise)
    return preds[0] if repeats is None else preds


def predict_heights(spec: PredictorSpec, sample_ids, h_true, repeats=None) -> np.ndarray:
    """Predicted pixel heights (px; may be negative), additive noise.

    ``sample_ids`` keys each sample's noise stream (`dataio.check_ids`'
    rule); ``h_true`` holds the true pixel heights, one per id, else
    ValueError. The result is repeat 0, one height per id; with
    ``repeats``, a range of repeat numbers of step 1, it is one row per
    repeat. A row whose noise passes the float range comes back as an
    infinity, which the lift refuses as NonFiniteInput.
    """
    return _predict(spec, sample_ids, h_true, PURPOSE_HEIGHT_NOISE, repeats, np.add)


def predict_diameters(spec: PredictorSpec, sample_ids, d_true, repeats=None) -> np.ndarray:
    """Predicted image diameters (px) with relative (multiplicative) noise.

    ``sample_ids`` keys each sample's noise stream; ``d_true`` holds the
    true image diameters, one per id, else ValueError. ``repeats`` and
    a row whose noise passes the float range behave as in
    `predict_heights`.
    """
    return _predict(
        spec, sample_ids, d_true, PURPOSE_DIAMETER_NOISE, repeats, lambda d, e: d * (1.0 + e)
    )
