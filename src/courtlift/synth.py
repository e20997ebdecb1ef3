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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .camera import CameraCalibration, ImagePoint, WorldPoint, project, validate
from .errors import DepthNonPositive, FrameCoverageFailure
from .reconstruct import BALL_DIAMETER_M, calibration_columns, pack_calibrations
from .rng import PURPOSE_BALL, PURPOSE_CAMERA, Cursor, stream

DEEPSPORT_P_ABOVE_3M = 60.0 / 801.0
BALLISTIC_P_ABOVE_3M = 102.0 / 233.0

# Exponential scale (m) of the below-3 m height component.
LOW_HEIGHT_MEAN_M = 1.2

_MAX_PLACEMENT_RETRIES = 100

# Candidates annotated per kernel call. The samples a call cannot place
# are redrawn in the next call, topped up with fresh samples, so every
# call but the last few runs full and per-call numpy overhead is spread
# over many rows. The cap bounds the kernels' temporaries, the largest
# being the per-row calibration gather, (CAL_LEN, rows) float64: 384 KiB
# here. glibc keeps up to twice the size of the largest freed large
# block in its heap, and at 8192 rows synth's peak RSS rose by 2 MiB on
# some seeds; at 2048 it stays at what 500-row blocks gave.
_PLACEMENT_BLOCK = 2048


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
        kwargs = {}
        for name in (
            "court_half_length",
            "court_half_width",
            "image_width",
            "image_height",
            "ball_diameter_m",
        ):
            if name in obj:
                kwargs[name] = float(obj[name])
        for name in (
            "camera_height_range",
            "camera_distance_range",
            "focal_range",
            "k1_range",
            "k2_range",
        ):
            if name in obj:
                lo, hi = obj[name]
                kwargs[name] = (float(lo), float(hi))
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
        if not self.max_height > 3.0:
            raise ValueError(f"max_height must exceed 3 m, got {self.max_height}")


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


def sample_camera(rng: np.random.Generator, arena: ArenaSpec) -> CameraCalibration:
    """Draw a valid arena camera; rejects draws that cannot see court center."""
    for _ in range(_MAX_PLACEMENT_RETRIES):
        distance = rng.uniform(*arena.camera_distance_range)
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        height = rng.uniform(*arena.camera_height_range)
        center = (distance * math.cos(azimuth), distance * math.sin(azimuth), height)
        look_at = (
            rng.uniform(-arena.court_half_length, arena.court_half_length),
            rng.uniform(-arena.court_half_width, arena.court_half_width),
            rng.uniform(1.0, 2.0),
        )
        if math.hypot(center[0] - look_at[0], center[1] - look_at[1]) < 3.0:
            continue
        cal = make_camera(
            center,
            look_at,
            focal=rng.uniform(*arena.focal_range),
            image_width=arena.image_width,
            image_height=arena.image_height,
            cx=arena.image_width * (0.5 + rng.uniform(-0.02, 0.02)),
            cy=arena.image_height * (0.5 + rng.uniform(-0.02, 0.02)),
            k1=rng.uniform(*arena.k1_range),
            k2=rng.uniform(*arena.k2_range),
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


def sample_height(rng: np.random.Generator, dist: HeightDistSpec) -> float:
    """Draw one ball height (m) from the configured law."""
    if dist.kind == "uniform":
        return float(rng.uniform(0.0, dist.max_height))
    if rng.random() < dist.p_above_3m:
        return float(rng.uniform(3.0, dist.max_height))
    # Inverse-CDF draw from an exponential truncated to [0, 3).
    mass = -math.expm1(-3.0 / LOW_HEIGHT_MEAN_M)
    return -LOW_HEIGHT_MEAN_M * math.log1p(-rng.random() * mass)


def sample_ball(
    rng: np.random.Generator, arena: ArenaSpec, dist: HeightDistSpec
) -> WorldPoint:
    """Ball position: (x, y) uniform over the court, z from the height law."""
    return WorldPoint(
        float(rng.uniform(-arena.court_half_length, arena.court_half_length)),
        float(rng.uniform(-arena.court_half_width, arena.court_half_width)),
        sample_height(rng, dist),
    )


def _annotate(cal: np.ndarray, bx, by, bz, arena: ArenaSpec):
    """Forward-oracle annotations of candidate balls, one per column of cal.

    Returns (usable, u, v, foot_u, foot_v, h, diameter). A placement is
    unusable when the ball or foot is behind the camera, the ball pixel
    is out of frame, the annotation is ill-posed under distortion, or the
    height reconstruction is degenerate at exact inputs, so that every
    emitted sample survives the full round trip.
    """
    u, v, fu, fv, h, diameter, status = _k.forward_sample(
        cal, bx, by, bz, arena.ball_diameter_m
    )
    usable = (status == _k.STATUS_OK) & _in_bounds(u, v, arena)
    # Well-posedness: undistorting the annotation must recover the
    # distortion-free pixel. Strong coefficients fold the Brown-Conrady
    # polynomial at large field radii, where the pixel has multiple
    # preimages and no camera-model inverse exists.
    uu, vv, status = _k.undistort_pixel(cal, u, v)
    un, vn, st = _k.project_point_nodist(cal, bx, by, bz)
    usable &= (status == _k.STATUS_OK) & (st == _k.STATUS_OK)
    usable &= ~(np.hypot(uu - un, vv - vn) > 1e-6)
    usable &= _k.reconstruct_height(cal, u, v, h)[-1] == _k.STATUS_OK
    return usable, u, v, fu, fv, h, diameter


def generate_dataset(
    seed: int,
    n: int,
    arena: ArenaSpec | None = None,
    dist: HeightDistSpec | None = None,
    n_arenas: int = 1,
) -> list[BallSample]:
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
    cameras = [
        sample_camera(stream(seed, i, PURPOSE_CAMERA), arena) for i in range(n_arenas)
    ]
    packed = pack_calibrations(cameras)
    cursor = Cursor(seed, PURPOSE_BALL)
    samples: list = [None] * n
    redraw: list[tuple[int, int, int]] = []
    start = 0
    while start < n or redraw:
        fresh = range(start, min(n, start + _PLACEMENT_BLOCK - len(redraw)))
        start = fresh.stop
        batch = redraw + [(i, 0, 0) for i in fresh]
        redraw = _place_batch(cursor, batch, samples, cameras, packed, arena, dist)
    return samples


def _place_batch(cursor: Cursor, batch, samples, cameras, packed, arena, dist) -> list:
    """Draw and annotate one ball per (sample id, words drawn, attempts
    made) in `batch`. Usable ones go into `samples`; the others come back
    with their stream position and attempt count advanced.

    Every attempt of sample i draws from stream (seed, i, PURPOSE_BALL)
    through the one cursor: the first from its start, each retry from
    where the previous attempt stopped.
    """
    balls, words = [], []
    for i, drawn, _ in batch:
        balls.append(sample_ball(cursor.seek(i, drawn), arena, dist))
        words.append(cursor.tell())
    xyz = np.array([[b.x, b.y, b.z] for b in balls]).T
    arena_ids = np.array([i for i, _, _ in batch]) % len(cameras)
    usable, u, v, fu, fv, h, diameter = _annotate(
        calibration_columns(packed, arena_ids), *xyz, arena
    )
    redraw = []
    for j, ((i, _, attempts), ok) in enumerate(zip(batch, usable.tolist())):
        if ok:
            samples[i] = BallSample(
                sample_id=i,
                arena_id=i % len(cameras),
                cal=cameras[i % len(cameras)],
                ball_3d=balls[j],
                ball_px=ImagePoint(float(u[j]), float(v[j])),
                foot_px=ImagePoint(float(fu[j]), float(fv[j])),
                h_true=float(h[j]),
                diameter_px_true=float(diameter[j]),
            )
        elif attempts + 1 < _MAX_PLACEMENT_RETRIES:
            redraw.append((i, words[j], attempts + 1))
        else:
            raise FrameCoverageFailure(
                f"sample {i}: no visible ball after {_MAX_PLACEMENT_RETRIES} retries"
            )
    return redraw
