"""Calibrated camera model: calibration, projection, validation, JSON form.

Coordinate conventions
----------------------
World frame (right-handed): X/Y span the court, Z points up, the court
floor is the plane Z = 0, units are meters.

Camera frame (standard computer vision): x right, y down, z forward along
the optical axis. Extrinsics are stored as (R, t) with
``x_cam = R @ X_world + t``, so the camera center is ``-R.T @ t``.

Image frame: origin at the top-left, x right, y down, units are pixels,
pixel centers at integer coordinates.

Distortion follows the Brown-Conrady model (radial k1, k2, k3 and
tangential p1, p2) applied to normalized camera coordinates; all
coefficients default to zero. Undistortion inverts the model by Newton's
method on its invertible domain, the region around the principal point
where the map is one-to-one; a pixel without a preimage there fails with
NoConvergence.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels as _k
from .errors import (
    BothPlanesDegenerate,
    DegenerateVertical,
    DepthNonPositive,
    IntersectionBehindCamera,
    NoConvergence,
    NonFiniteInput,
    NonPositiveDiameter,
    NonPositiveScale,
    RayParallelToPlane,
)

_STATUS_EXCEPTIONS = {
    _k.STATUS_DEPTH_NONPOSITIVE: DepthNonPositive,
    _k.STATUS_NO_CONVERGENCE: NoConvergence,
    _k.STATUS_RAY_PARALLEL: RayParallelToPlane,
    _k.STATUS_BEHIND_CAMERA: IntersectionBehindCamera,
    _k.STATUS_DEGENERATE_VERTICAL: DegenerateVertical,
    _k.STATUS_BOTH_PLANES_DEGENERATE: BothPlanesDegenerate,
    _k.STATUS_NONPOSITIVE_DIAMETER: NonPositiveDiameter,
    _k.STATUS_NONFINITE_INPUT: NonFiniteInput,
}

STATUS_NAMES = {
    _k.STATUS_OK: "OK",
    **{code: exc.__name__ for code, exc in _STATUS_EXCEPTIONS.items()},
}


def raise_for_status(status: int, context: str = "") -> None:
    """Translate a kernel status code into the matching typed exception."""
    if status == _k.STATUS_OK:
        return
    exc = _STATUS_EXCEPTIONS.get(int(status))
    if exc is None:  # pragma: no cover - codes are exhaustive
        raise RuntimeError(f"unknown kernel status {status}")
    raise exc(context or STATUS_NAMES[int(status)])


def column(cal: CameraCalibration) -> np.ndarray:
    """One camera in the kernels' (CAL_LEN, 1) layout, for a one-row call."""
    return cal.as_array()[:, None]


def one_row(*values: float) -> list[np.ndarray]:
    """Each scalar as a length-1 float64 array, for a one-row kernel call."""
    return [np.array([v], dtype=np.float64) for v in values]


@dataclass(frozen=True)
class ImagePoint:
    """Pixel position, origin top-left, y down. May lie outside the frame."""

    x: float
    y: float


@dataclass(frozen=True)
class WorldPoint:
    """Point in the court frame, meters; the ground plane is z = 0."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class CameraCalibration:
    """Pinhole intrinsics + extrinsics + Brown-Conrady distortion.

    ``rotation`` maps world to camera coordinates; ``translation`` is in
    meters so camera coords = rotation @ X_world + translation.
    Compared by identity (array fields make value equality ambiguous).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    image_width: float
    image_height: float
    skew: float = 0.0
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0
    _packed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3).copy()
        trans = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        rot.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)
        packed = np.empty(_k.CAL_LEN, dtype=np.float64)
        packed[_k.CAL_FX] = self.fx
        packed[_k.CAL_FY] = self.fy
        packed[_k.CAL_CX] = self.cx
        packed[_k.CAL_CY] = self.cy
        packed[_k.CAL_SKEW] = self.skew
        packed[_k.CAL_R : _k.CAL_R + 9] = rot.ravel()
        packed[_k.CAL_T : _k.CAL_T + 3] = trans
        packed[_k.CAL_K1] = self.k1
        packed[_k.CAL_K2] = self.k2
        packed[_k.CAL_K3] = self.k3
        packed[_k.CAL_P1] = self.p1
        packed[_k.CAL_P2] = self.p2
        packed[_k.CAL_W] = self.image_width
        packed[_k.CAL_H] = self.image_height
        packed.flags.writeable = False
        object.__setattr__(self, "_packed", packed)

    def as_array(self) -> np.ndarray:
        """Packed float64 vector consumed by the numeric kernels."""
        return self._packed

    def without_distortion(self) -> "CameraCalibration":
        return replace(self, k1=0.0, k2=0.0, k3=0.0, p1=0.0, p2=0.0)


def project(cal: CameraCalibration, p: WorldPoint) -> ImagePoint:
    """Project a world point in front of the camera to (distorted) pixels.

    Raises DepthNonPositive when the camera-frame depth is <= 1e-9 m.
    """
    u, v, status = _k.project_point(column(cal), *one_row(p.x, p.y, p.z))
    raise_for_status(status[0], "point is behind or on the camera plane")
    return ImagePoint(float(u[0]), float(v[0]))


def scale_calibration(cal: CameraCalibration, s: float) -> CameraCalibration:
    """Rescale the image grid by s (the shrunk-image calibration).

    fx, fy, cx, cy, skew and the image size scale by s; pose and
    distortion are untouched, so project(scale(cal, s), p) == s * project(cal, p).
    """
    if not (s > 0.0):
        raise NonPositiveScale(f"scale must be > 0, got {s}")
    return replace(
        cal,
        fx=cal.fx * s,
        fy=cal.fy * s,
        cx=cal.cx * s,
        cy=cal.cy * s,
        skew=cal.skew * s,
        image_width=cal.image_width * s,
        image_height=cal.image_height * s,
    )


def _caller_outside_package() -> int:
    """The warnings stacklevel, for the function calling this one, that
    names the first frame outside courtlift: the user's line, whether it
    called validate, load_calibration or read_dataset."""
    frame = sys._getframe(1)
    level = 1
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame = frame.f_back
        level += 1
    return level


def validate(cal: CameraCalibration) -> list[str]:
    """Check calibration invariants; returns the names of violated ones.

    An empty list means the calibration is valid. A camera center at or
    below the ground plane is physically suspect for arena cameras and
    emits a warning but is not reported as a violation.
    """
    violations: list[str] = []
    intrinsics = [cal.fx, cal.fy, cal.cx, cal.cy, cal.skew]
    dist = [cal.k1, cal.k2, cal.k3, cal.p1, cal.p2]
    if not all(
        math.isfinite(x) for x in intrinsics + dist + [cal.image_width, cal.image_height]
    ) or not (np.isfinite(cal.rotation).all() and np.isfinite(cal.translation).all()):
        violations.append("NonFinite")
        return violations
    if cal.fx <= 0.0 or cal.fy <= 0.0:
        violations.append("FocalNonPositive")
    if cal.image_width <= 0.0 or cal.image_height <= 0.0:
        violations.append("ImageSizeNonPositive")
    rtr = cal.rotation.T @ cal.rotation
    if np.abs(rtr - np.eye(3)).max() >= 1e-9:
        violations.append("RotationNotOrthonormal")
    elif abs(float(np.linalg.det(cal.rotation)) - 1.0) >= 1e-9:
        violations.append("RotationNotProper")
    if not violations:
        z = float(_k.camera_center(column(cal))[2][0])
        if z <= 0.0:
            warnings.warn(
                f"camera center z = {z:.3f} m is not above the ground plane",
                stacklevel=_caller_outside_package(),
            )
    return violations


def calibration_to_json_dict(cal: CameraCalibration) -> dict:
    """Calibration as the JSON object used by dataset files."""
    return {
        "fx": cal.fx,
        "fy": cal.fy,
        "cx": cal.cx,
        "cy": cal.cy,
        "skew": cal.skew,
        "R": [float(x) for x in cal.rotation.ravel()],
        "t": [float(x) for x in cal.translation],
        "dist": {"k1": cal.k1, "k2": cal.k2, "k3": cal.k3, "p1": cal.p1, "p2": cal.p2},
        "width": cal.image_width,
        "height": cal.image_height,
    }


def _json_number(name: str, value) -> float:
    """A calibration field's JSON number; TypeError for anything else,
    including the strings and booleans float() would convert."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_numbers(name: str, value) -> np.ndarray:
    """A calibration field's nested list of JSON numbers, as float64."""
    values = np.array(value, dtype=object)
    return np.array([_json_number(name, x) for x in values.flat]).reshape(values.shape)


def calibration_from_json_dict(obj: dict) -> CameraCalibration:
    dist = obj["dist"]
    return CameraCalibration(
        fx=_json_number("fx", obj["fx"]),
        fy=_json_number("fy", obj["fy"]),
        cx=_json_number("cx", obj["cx"]),
        cy=_json_number("cy", obj["cy"]),
        skew=_json_number("skew", obj["skew"]),
        rotation=_json_numbers("R", obj["R"]).reshape(3, 3),
        translation=_json_numbers("t", obj["t"]),
        k1=_json_number("k1", dist["k1"]),
        k2=_json_number("k2", dist["k2"]),
        k3=_json_number("k3", dist["k3"]),
        p1=_json_number("p1", dist["p1"]),
        p2=_json_number("p2", dist["p2"]),
        image_width=_json_number("width", obj["width"]),
        image_height=_json_number("height", obj["height"]),
    )


def load_calibration(label: str, obj) -> CameraCalibration:
    """The calibration a JSON value describes, checked with `validate`.

    Raises ValueError, its message starting with ``label``, when the
    value is unreadable as a calibration or fails a check.
    """
    try:
        cal = calibration_from_json_dict(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{label} is unreadable: {exc!r}") from exc
    violations = validate(cal)
    if violations:
        raise ValueError(f"{label} is invalid: {', '.join(violations)}")
    return cal
