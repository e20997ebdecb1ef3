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
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _kernels as _k
from .camera import CameraCalibration, ImagePoint, WorldPoint, project, validate
from .errors import DepthNonPositive, FrameCoverageFailure
from .reconstruct import BALL_DIAMETER_M, calibration_columns, pack_calibrations
from .rng import PURPOSE_BALL, PURPOSE_CAMERA, doubles, words

DEEPSPORT_P_ABOVE_3M = 60.0 / 801.0
BALLISTIC_P_ABOVE_3M = 102.0 / 233.0

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


@dataclass(frozen=True)
class ArenaSpec:
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

    @staticmethod
    def from_json_dict(obj: dict) -> "ArenaSpec":
        """The spec with the fields `obj` names overridden: a number, or a
        [min, max] pair for a range. ValueError on an unknown key or a
        value of the wrong shape."""
        if not isinstance(obj, dict):
            raise ValueError(f"arena spec must be a JSON object, got {obj!r}")
        defaults = {f.name: f.default for f in fields(ArenaSpec)}
        unknown = sorted(set(obj) - set(defaults))
        if unknown:
            raise ValueError(f"unknown arena spec keys {unknown}")
        kwargs = {}
        for name, value in obj.items():
            try:
                if isinstance(defaults[name], tuple):
                    lo, hi = value
                    kwargs[name] = (float(lo), float(hi))
                else:
                    kwargs[name] = float(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"arena spec {name}: {exc}") from exc
        return ArenaSpec(**kwargs)


DIST_KINDS = ("deepsport_like", "ballistic_like", "uniform")


@dataclass(frozen=True)
class HeightDistSpec:
    """Ball-height law; p_above_3m defaults by kind when omitted."""

    kind: str = "deepsport_like"
    p_above_3m: float | None = None
    max_height: float = 6.0

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ValueError(f"kind must be one of {DIST_KINDS}, got {self.kind!r}")
        if self.p_above_3m is None:
            defaults = {
                "deepsport_like": DEEPSPORT_P_ABOVE_3M,
                "ballistic_like": BALLISTIC_P_ABOVE_3M,
                "uniform": None,
            }
            object.__setattr__(self, "p_above_3m", defaults[self.kind])
        if self.p_above_3m is not None and not (0.0 <= self.p_above_3m <= 1.0):
            raise ValueError(f"p_above_3m must be in [0, 1], got {self.p_above_3m}")
        if not 3.0 < self.max_height < math.inf:
            raise ValueError(f"max_height must be finite and exceed 3 m, got {self.max_height}")


@dataclass(frozen=True)
class BallSample:
    """One fully annotated synthetic ball instance.

    ball_px and foot_px are in raw (distorted) image coordinates, matching
    annotations made on original frames; h_true is the undistorted-space
    pixel height (the predictor supervision target).
    """

    sample_id: int
    arena_id: int
    cal: CameraCalibration
    ball_3d: WorldPoint
    ball_px: ImagePoint
    foot_px: ImagePoint
    h_true: float
    diameter_px_true: float


@dataclass(frozen=True, eq=False)
class Samples:
    """Annotated samples as columns: row i of every array is sample i.

    ``cals`` holds each distinct calibration once and ``cal_index[i]`` is
    the position of row i's. ``len()``, iteration and an integer index
    give `BallSample` rows; a slice, boolean mask or index array gives
    the table of those rows.
    """

    ids: np.ndarray  # (n,) int64
    arena: np.ndarray  # (n,) int64
    cals: tuple[CameraCalibration, ...]
    cal_index: np.ndarray  # (n,) int64 into cals
    ball_3d: np.ndarray  # (n, 3) world metres
    ball_px: np.ndarray  # (n, 2) raw pixels
    foot_px: np.ndarray  # (n, 2) raw pixels
    h_true: np.ndarray  # (n,) undistorted pixel height
    d_true: np.ndarray  # (n,) true image diameter, pixels

    @staticmethod
    def from_rows(rows: Iterable[BallSample] | Samples) -> Samples:
        """The table of `BallSample` rows; a table is returned as it is.
        Rows share a ``cals`` entry when they share a calibration object."""
        if isinstance(rows, Samples):
            return rows
        rows = list(rows)
        cals = {id(s.cal): s.cal for s in rows}
        position = {key: j for j, key in enumerate(cals)}

        def column(values, width=None):
            array = np.array(list(values), dtype=np.float64)
            return array if width is None else array.reshape(-1, width)

        return Samples(
            ids=np.array([s.sample_id for s in rows], dtype=np.int64),
            arena=np.array([s.arena_id for s in rows], dtype=np.int64),
            cals=tuple(cals.values()),
            cal_index=np.array([position[id(s.cal)] for s in rows], dtype=np.int64),
            ball_3d=column(((s.ball_3d.x, s.ball_3d.y, s.ball_3d.z) for s in rows), 3),
            ball_px=column(((s.ball_px.x, s.ball_px.y) for s in rows), 2),
            foot_px=column(((s.foot_px.x, s.foot_px.y) for s in rows), 2),
            h_true=column(s.h_true for s in rows),
            d_true=column(s.diameter_px_true for s in rows),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[BallSample]:
        cals = [self.cals[j] for j in self.cal_index.tolist()]
        for i, a, cal, b, p, f, h, d in zip(
            self.ids.tolist(),
            self.arena.tolist(),
            cals,
            self.ball_3d.tolist(),
            self.ball_px.tolist(),
            self.foot_px.tolist(),
            self.h_true.tolist(),
            self.d_true.tolist(),
        ):
            yield BallSample(i, a, cal, WorldPoint(*b), ImagePoint(*p), ImagePoint(*f), h, d)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return next(iter(self[[key]]))
        columns = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "cals"}
        return replace(self, **{name: column[key] for name, column in columns.items()})


def make_camera(
    center,
    look_at,
    focal: float,
    image_width: float,
    image_height: float,
    cx: float | None = None,
    cy: float | None = None,
    skew: float = 0.0,
    k1: float = 0.0,
    k2: float = 0.0,
    k3: float = 0.0,
    p1: float = 0.0,
    p2: float = 0.0,
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
        skew=skew,
        k1=k1,
        k2=k2,
        k3=k3,
        p1=p1,
        p2=p2,
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
        if validate(cal):
            continue
        try:
            center_px = project(cal, WorldPoint(0.0, 0.0, 0.0))
        except DepthNonPositive:
            continue
        if _in_bounds(center_px.x, center_px.y, arena):
            return cal
    raise FrameCoverageFailure("no valid camera after retry budget")


def sample_height(u: np.ndarray, dist: HeightDistSpec) -> np.ndarray:
    """Ball heights (m) from the configured law, one per column of the
    doubles `u`: the uniform law reads row 0; the mixture reads its
    above-3 m coin from row 0 and the height's draw from row 1."""
    if dist.kind == "uniform":
        return _uniform(0.0, dist.max_height, u[0])
    z = _uniform(3.0, dist.max_height, u[1])
    low = ~(u[0] < dist.p_above_3m)
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


def _annotate(cal: np.ndarray, bx, by, bz, arena: ArenaSpec):
    """Forward-oracle annotations of candidate balls, one per column of cal.

    Returns (usable, u, v, foot_u, foot_v, h, diameter). A placement is
    unusable when the ball or foot is behind the camera, the ball pixel
    is out of frame, the annotation is ill-posed under distortion, or the
    height reconstruction is degenerate at exact inputs, so that every
    emitted sample survives the full round trip.
    """
    u, v, ball_status = _k.project_point(cal, bx, by, bz)
    fu, fv, foot_status = _k.project_point(cal, bx, by, 0.0)
    # Undistorted images of the ball and its ground point; their depth
    # checks are those of the distorted projections above.
    un, vn, _ = _k.project_point_nodist(cal, bx, by, bz)
    gu, gv, _ = _k.project_point_nodist(cal, bx, by, 0.0)
    h = np.hypot(un - gu, vn - gv)
    diameter, _ = _k.ball_diameter_px(cal, bx, by, bz, arena.ball_diameter_m)
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
    status = _k.lift_height(visible, uu, vv, h[rows], status)[-1]
    usable[rows] = (status == _k.STATUS_OK) & ~(np.hypot(uu - un[rows], vv - vn[rows]) > 1e-6)
    return usable, u, v, fu, fv, h, diameter


def generate_dataset(
    seed: int,
    n: int,
    arena: ArenaSpec | None = None,
    dist: HeightDistSpec | None = None,
    n_arenas: int = 1,
) -> Samples:
    """Generate n annotated samples over n_arenas cameras (round-robin).

    Fully deterministic in `seed`: cameras and each sample draw from
    independent Philox streams keyed by their index, so output is
    identical no matter how generation is scheduled. Balls that fail the
    visibility/reconstructability check are redrawn from the rest of
    their stream, up to 100 times each, then FrameCoverageFailure is
    raised.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n_arenas < 1:
        raise ValueError(f"n_arenas must be >= 1, got {n_arenas}")
    arena = arena or ArenaSpec()
    dist = dist or HeightDistSpec()
    cameras = []
    budget = _MAX_PLACEMENT_RETRIES * _CAMERA_WORDS
    for first in range(0, n_arenas, _CAMERA_BLOCK):
        arena_ids = np.arange(first, min(first + _CAMERA_BLOCK, n_arenas))
        u = doubles(words(seed, arena_ids, PURPOSE_CAMERA, 0, budget))
        cameras += [sample_camera(column, arena) for column in u.T]
    packed = pack_calibrations(cameras)
    ids = np.arange(n, dtype=np.int64)
    columns = (np.empty((n, 3)), np.empty((n, 2)), np.empty((n, 2)), np.empty(n), np.empty(n))
    # Round k draws attempt k of every sample not yet placed.
    todo = ids
    for attempt in range(_MAX_PLACEMENT_RETRIES):
        missed = []
        for start in range(0, len(todo), _PLACEMENT_BLOCK):
            chunk = todo[start : start + _PLACEMENT_BLOCK]
            missed.append(_place(seed, chunk, attempt, columns, packed, arena, dist))
        todo = np.concatenate(missed)
        if not len(todo):
            arena_ids = ids % n_arenas
            return Samples(ids, arena_ids, tuple(cameras), arena_ids, *columns)
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
