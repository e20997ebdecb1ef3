"""Synthetic arena generator: cameras, ball positions, annotated samples.

Cameras sit on a ring around the court at sampled distance and height and
look at a point inside the court, matching high-mounted panoramic arena
rigs. Ball heights follow a two-component mixture: a truncated
exponential below 3 m (balls are mostly carried or dribbled low) and a
uniform tail above 3 m whose probability anchors the distribution kind.

Every generated sample carries the full forward-oracle annotation set
(raw pixel, foot pixel, pixel height, true image diameter) and is
guaranteed to be reconstructable, so downstream round-trip and noise
studies never hit degenerate geometry.

Randomness comes from per-index Philox streams, computed as arrays by
``rng.words``. Arena a's camera reads the doubles of stream (seed, a,
PURPOSE_CAMERA) in order. Every ball placement attempt takes a fixed
number of words (``_BALL_WORDS``), so attempt k of sample i starts k
times that many words into stream (seed, i, PURPOSE_BALL), and each
placement round draws all its candidates at once, with no per-sample
loop. The values are those of numpy's ``Generator`` on each stream.
This module reads no JSON: `dataio.load_arena_spec` reads ``--arena-json``.
The `Samples` table it fills is `dataio`'s, which reads and writes it;
only the ``synth`` command imports this module.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from . import _kernels as _k
from ._record import ValueRecord, record
from .camera import CameraCalibration, project, validate
from .dataio import Samples
from .errors import DepthNonPositive, FrameCoverageFailure
from .reconstruct import BALL_DIAMETER_M, BallRays, calibration_columns, pack_calibrations
from .rng import PURPOSE_BALL, PURPOSE_CAMERA, check_seed, doubles, words

DEEPSPORT_P_ABOVE_3M = 60.0 / 801.0
BALLISTIC_P_ABOVE_3M = 102.0 / 233.0
_DEFAULT_P_ABOVE_3M = {
    "deepsport_like": DEEPSPORT_P_ABOVE_3M,
    "ballistic_like": BALLISTIC_P_ABOVE_3M,
}

# Exponential scale (m) of the below-3 m height component.
LOW_HEIGHT_MEAN_M = 1.2

_MAX_PLACEMENT_RETRIES = 100

# Candidates annotated per kernel call: each placement round annotates
# its samples in chunks of at most this many rows, so per-call numpy
# overhead is spread over many rows. The cap bounds the kernels'
# temporaries, the largest being the per-row calibration gather,
# (CAL_LEN, rows) float64: 384 KiB here. glibc keeps up to twice the
# size of the largest freed large block in its heap, and at 8192 rows
# synth's peak RSS rose by 2 MiB on some seeds; at 2048 it stays at what
# 500-row blocks gave.
_PLACEMENT_BLOCK = 2048

# Arenas whose camera doubles are drawn in one call. Every arena takes
# the whole retry budget of doubles, so the block bounds the draw's
# temporaries when there are many arenas: about 0.5 MiB at 16 arenas.
_CAMERA_BLOCK = 16


@record
class ArenaSpec(ValueRecord):
    """Ranges describing a plausible arena capture setup."""

    court_half_length: float = 14.0
    court_half_width: float = 7.5
    camera_height_range: tuple[float, float] = (3.0, 8.0)
    camera_distance_range: tuple[float, float] = (15.0, 30.0)
    focal_range: tuple[float, float] = (1500.0, 3000.0)
    image_width: float = 4500.0
    image_height: float = 1500.0
    k1_range: tuple[float, float] = (-0.15, 0.0)
    k2_range: tuple[float, float] = (0.0, 0.03)
    ball_diameter_m: float = BALL_DIAMETER_M

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(x) for x in values):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.court_half_length <= 0 or self.court_half_width <= 0:
            raise ValueError("court dimensions must be positive")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image size must be positive")
        if self.ball_diameter_m <= 0:
            raise ValueError("ball diameter must be positive")
        for name in ("camera_height_range", "camera_distance_range", "focal_range", "k1_range", "k2_range"):
            lo, hi = getattr(self, name)
            if not (lo <= hi):
                raise ValueError(f"{name} must satisfy min <= max, got ({lo}, {hi})")
        lo, hi = self.focal_range
        if lo <= 0:
            raise ValueError("focal lengths must be positive")


DIST_KINDS = ("deepsport_like", "ballistic_like", "uniform")


@record
class HeightDistSpec(ValueRecord):
    """Ball-height law. A mixture kind left with ``p_above_3m=None``
    takes its kind's probability of a ball above 3 m when heights are
    drawn, so ``replace`` with another kind takes that kind's."""

    kind: str = "deepsport_like"
    p_above_3m: float | None = None
    max_height: float = 6.0

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ValueError(f"kind must be one of {DIST_KINDS}, got {self.kind!r}")
        if self.kind == "uniform" and self.p_above_3m is not None:
            raise ValueError("p_above_3m does not apply to kind 'uniform'")
        if self.p_above_3m is not None and not (0.0 <= self.p_above_3m <= 1.0):
            raise ValueError(f"p_above_3m must be in [0, 1], got {self.p_above_3m}")
        if not 3.0 < self.max_height < math.inf:
            raise ValueError(f"max_height must be finite and exceed 3 m, got {self.max_height}")


def make_camera(
    center,
    look_at,
    focal: float,
    image_width: float,
    image_height: float,
    cx: float | None = None,
    cy: float | None = None,
    k1: float = 0.0,
    k2: float = 0.0,
) -> CameraCalibration:
    """Calibration for a camera at `center` looking at `look_at`, up = +Z.

    Camera rows are (right, down, forward) so the image y axis points
    toward the ground for an upright camera.
    """
    c = np.asarray(center, dtype=np.float64).reshape(3)
    target = np.asarray(look_at, dtype=np.float64).reshape(3)
    forward = target - c
    norm = np.linalg.norm(forward)
    if norm == 0.0:
        raise ValueError("look_at must differ from center")
    forward = forward / norm
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    rnorm = np.linalg.norm(right)
    if rnorm < 1e-9:
        raise ValueError("camera looking straight along the vertical axis")
    right = right / rnorm
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward])
    translation = -rotation @ c
    return CameraCalibration(
        fx=float(focal),
        fy=float(focal),
        cx=image_width / 2.0 if cx is None else float(cx),
        cy=image_height / 2.0 if cy is None else float(cy),
        rotation=rotation,
        translation=translation,
        image_width=float(image_width),
        image_height=float(image_height),
        k1=k1,
        k2=k2,
    )


def _in_bounds(u, v, spec: ArenaSpec):
    """Whether pixels lie in the frame; floats or arrays."""
    return (
        (0.0 <= u) & (u <= spec.image_width - 1.0) & (0.0 <= v) & (v <= spec.image_height - 1.0)
    )


def _uniform(lo, hi, u):
    """Generator.uniform(lo, hi) of the doubles u, bit for bit."""
    return lo + (hi - lo) * u


# Doubles one sample_camera attempt reads: distance, azimuth, height and
# the look-at point, then, past the look-at distance check, the focal
# length, the principal point offsets, k1 and k2. An attempt rejected by
# that check reads only the first 6.
_CAMERA_WORDS = 11


def sample_camera(u: np.ndarray, arena: ArenaSpec) -> CameraCalibration:
    """Draw a valid arena camera from the doubles `u`, read in order;
    rejects draws that cannot see court center.

    `u` must hold enough doubles for every attempt,
    _MAX_PLACEMENT_RETRIES * _CAMERA_WORDS of them.
    """
    budget = _MAX_PLACEMENT_RETRIES * _CAMERA_WORDS
    if len(u) < budget:
        raise ValueError(f"sample_camera needs {budget} doubles, got {len(u)}")
    draw = iter(u.tolist()).__next__
    for _ in range(_MAX_PLACEMENT_RETRIES):
        distance = _uniform(*arena.camera_distance_range, draw())
        azimuth = _uniform(0.0, 2.0 * math.pi, draw())
        height = _uniform(*arena.camera_height_range, draw())
        center = (distance * math.cos(azimuth), distance * math.sin(azimuth), height)
        look_at = (
            _uniform(-arena.court_half_length, arena.court_half_length, draw()),
            _uniform(-arena.court_half_width, arena.court_half_width, draw()),
            _uniform(1.0, 2.0, draw()),
        )
        if math.hypot(center[0] - look_at[0], center[1] - look_at[1]) < 3.0:
            continue
        try:
            # A pose make_camera refuses (straight down, or overflowing) is redrawn.
            with np.errstate(over="ignore", invalid="ignore"):
                cal = make_camera(
                    center,
                    look_at,
                    focal=_uniform(*arena.focal_range, draw()),
                    image_width=arena.image_width,
                    image_height=arena.image_height,
                    cx=arena.image_width * (0.5 + _uniform(-0.02, 0.02, draw())),
                    cy=arena.image_height * (0.5 + _uniform(-0.02, 0.02, draw())),
                    k1=_uniform(*arena.k1_range, draw()),
                    k2=_uniform(*arena.k2_range, draw()),
                )
        except ValueError:
            continue
        if validate(cal):
            continue
        try:
            center_px = project(cal, (0.0, 0.0, 0.0))
        except DepthNonPositive:
            continue
        if _in_bounds(*center_px, arena):
            return cal
    raise FrameCoverageFailure("no valid camera after retry budget")


def sample_height(u: np.ndarray, dist: HeightDistSpec) -> np.ndarray:
    """Ball heights (m) from the configured law, one per column of the
    doubles `u`: the uniform law reads row 0; the mixture reads its
    above-3 m coin from row 0 and the height's draw from row 1."""
    if dist.kind == "uniform":
        return _uniform(0.0, dist.max_height, u[0])
    p_above = _DEFAULT_P_ABOVE_3M[dist.kind] if dist.p_above_3m is None else dist.p_above_3m
    z = _uniform(3.0, dist.max_height, u[1])
    low = ~(u[0] < p_above)
    # Inverse-CDF draw from an exponential truncated to [0, 3), with
    # math.log1p per element: np.log1p is an ULP off on some inputs.
    mass = -math.expm1(-3.0 / LOW_HEIGHT_MEAN_M)
    z[low] = [-LOW_HEIGHT_MEAN_M * math.log1p(x) for x in (-u[1][low] * mass).tolist()]
    return z


# 64-bit words one placement attempt draws, by height-law kind: x, y and
# a uniform height, or x, y, the above-3 m coin and the height's draw.
_BALL_WORDS = {"uniform": 3, "deepsport_like": 4, "ballistic_like": 4}


def sample_ball(u: np.ndarray, arena: ArenaSpec, dist: HeightDistSpec) -> np.ndarray:
    """Ball positions, (n, 3), from a (_BALL_WORDS[dist.kind], n) block of
    doubles: (x, y) uniform over the court from rows 0 and 1, z from the
    height law on the rest."""
    xyz = np.empty((u.shape[1], 3))
    xyz[:, 0] = _uniform(-arena.court_half_length, arena.court_half_length, u[0])
    xyz[:, 1] = _uniform(-arena.court_half_width, arena.court_half_width, u[1])
    xyz[:, 2] = sample_height(u[2:], dist)
    return xyz


@_k._quiet
def _annotate(cal: np.ndarray, bx, by, bz, arena: ArenaSpec):
    """Forward-oracle annotations of candidate balls, one per column of cal,
    from one projection of each ball and one of its ground point: h is the
    distance between their distortion-free pixels, and the diameter is
    ``_kernels.similar_triangles`` at the ball's depth.

    Returns (usable, u, v, foot_u, foot_v, h, diameter). A placement is
    unusable when the ball or foot is behind the camera, the ball pixel
    is out of frame, the annotation is ill-posed under distortion, or the
    height reconstruction is degenerate at exact inputs, so that every
    emitted sample survives the full round trip.
    """
    u, v, un, vn, depth, ball_status = _k.project_point(cal, bx, by, bz)
    fu, fv, gu, gv, _, foot_status = _k.project_point(cal, bx, by, 0.0)
    h = np.hypot(un - gu, vn - gv)
    diameter = _k.similar_triangles(cal, arena.ball_diameter_m, depth)
    usable = (ball_status == _k.STATUS_OK) & (foot_status == _k.STATUS_OK)
    usable &= _in_bounds(u, v, arena)
    # Well-posedness, on the visible rows only: undistorting the
    # annotation must recover the distortion-free pixel, and the lift must
    # succeed. Strong coefficients fold the Brown-Conrady polynomial at
    # large field radii, where the pixel has no preimage on the lens's
    # first branch. Every kernel computes each row on its own, so leaving
    # out the rows already unusable changes no result; kept in, an
    # off-frame row would set the number of Newton steps for all.
    rows = np.flatnonzero(usable)
    visible = cal[:, rows]
    uu, vv, status = _k.undistort_pixel(visible, u[rows], v[rows])
    status = _k.lift_height(BallRays(visible, uu, vv, status), h[rows])[-1]
    usable[rows] = (status == _k.STATUS_OK) & ~(np.hypot(uu - un[rows], vv - vn[rows]) > 1e-6)
    return usable, u, v, fu, fv, h, diameter


def generate_dataset(
    seed: int,
    n: int,
    arena: ArenaSpec | None = None,
    dist: HeightDistSpec | None = None,
    n_arenas: int = 1,
) -> Samples:
    """Generate n annotated samples over n_arenas <= n cameras
    (round-robin), so every camera holds a sample.

    Fully deterministic in `seed`: cameras and each sample draw from
    independent Philox streams keyed by their index, so output is
    identical no matter how generation is scheduled. Balls that fail the
    visibility/reconstructability check are redrawn from the rest of
    their stream, up to 100 times each, then FrameCoverageFailure is
    raised. ``seed`` is checked (`rng.check_seed`) before any allocation.
    """
    check_seed(seed)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= n_arenas <= n:
        raise ValueError(f"n_arenas must be in [1, n], got {n_arenas} for n = {n}")
    arena = arena or ArenaSpec()
    dist = dist or HeightDistSpec()
    # Columns first: a table too large to hold fails before any draw.
    ids = np.arange(n, dtype=np.int64)
    columns = (np.empty((n, 3)), np.empty((n, 2)), np.empty((n, 2)), np.empty(n), np.empty(n))
    cameras = []
    budget = _MAX_PLACEMENT_RETRIES * _CAMERA_WORDS
    for first in range(0, n_arenas, _CAMERA_BLOCK):
        arena_ids = np.arange(first, min(first + _CAMERA_BLOCK, n_arenas))
        u = doubles(words(seed, arena_ids, PURPOSE_CAMERA, 0, budget))
        cameras += [sample_camera(column, arena) for column in u.T]
    packed = pack_calibrations(cameras)
    # Round k draws attempt k of every sample not yet placed.
    todo = ids
    for attempt in range(_MAX_PLACEMENT_RETRIES):
        missed = []
        for start in range(0, len(todo), _PLACEMENT_BLOCK):
            chunk = todo[start : start + _PLACEMENT_BLOCK]
            missed.append(_place(seed, chunk, attempt, columns, packed, arena, dist))
        todo = np.concatenate(missed)
        if not len(todo):
            return Samples(ids, ids % n_arenas, dict(enumerate(cameras)), *columns)
    raise FrameCoverageFailure(
        f"sample {todo[0]}: no visible ball after {_MAX_PLACEMENT_RETRIES} retries"
    )


def _place(seed, ids, attempt, columns, packed, arena, dist) -> np.ndarray:
    """Draw and annotate attempt `attempt` of the ball of each sample id
    in `ids`. Every attempt takes _BALL_WORDS words of stream (seed, id,
    PURPOSE_BALL), so this one starts `attempt` times that many words in.
    Usable balls are written to their rows of `columns` (ball_3d,
    ball_px, foot_px, h_true, d_true); the ids of the others come back."""
    n_words = _BALL_WORDS[dist.kind]
    xyz = sample_ball(
        doubles(words(seed, ids, PURPOSE_BALL, attempt * n_words, n_words)), arena, dist
    )
    usable, u, v, fu, fv, h, diameter = _annotate(
        calibration_columns(packed, ids % len(packed)), *xyz.T, arena
    )
    rows = ids[usable]
    values = (xyz, np.column_stack([u, v]), np.column_stack([fu, fv]), h, diameter)
    for column, value in zip(columns, values):
        column[rows] = value[usable]
    return ids[~usable]
