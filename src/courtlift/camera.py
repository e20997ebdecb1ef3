"""Calibrated camera model: calibration, projection, validation.

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
NoConvergence. This module reads no JSON: a calibration's JSON form is
`dataio`'s.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import field, replace

import numpy as np

from . import _kernels as _k
from ._record import Record, record
from .errors import (
    DegenerateVertical,
    DepthNonPositive,
    IntersectionBehindCamera,
    NoConvergence,
    NonFiniteInput,
    NonPositiveDiameter,
    NonPositiveScale,
    RayParallelToPlane,
    VerticalBehindCamera,
)

_STATUS_EXCEPTIONS = {
    _k.STATUS_DEPTH_NONPOSITIVE: DepthNonPositive,
    _k.STATUS_NO_CONVERGENCE: NoConvergence,
    _k.STATUS_RAY_PARALLEL: RayParallelToPlane,
    _k.STATUS_BEHIND_CAMERA: IntersectionBehindCamera,
    _k.STATUS_DEGENERATE_VERTICAL: DegenerateVertical,
    _k.STATUS_VERTICAL_BEHIND_CAMERA: VerticalBehindCamera,
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


@record
class CameraCalibration(Record):
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
        self.__dict__.update(rotation=rot, translation=trans, _packed=packed)

    def as_array(self) -> np.ndarray:
        """Packed float64 vector consumed by the numeric kernels."""
        return self._packed


def project(cal: CameraCalibration, point) -> tuple[float, float]:
    """Project a world point (x, y, z) in front of the camera to its
    (distorted) pixel (u, v).

    Raises DepthNonPositive when the camera-frame depth is <= 1e-9 m.
    """
    x, y, z = point
    u, v, _, _, _, status = _k.project_point(column(cal), *one_row(x, y, z))
    raise_for_status(status[0], "point is behind or on the camera plane")
    return u.item(), v.item()


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
    if not np.isfinite(cal.as_array()).all():
        return ["NonFinite"]
    violations: list[str] = []
    if cal.fx <= 0.0 or cal.fy <= 0.0:
        violations.append("FocalNonPositive")
    if cal.image_width <= 0.0 or cal.image_height <= 0.0:
        violations.append("ImageSizeNonPositive")
    # An entry past 2 fails orthonormality; tested first, R^T R cannot overflow.
    # R^T R and det(R) = R[0] . (R[1] x R[2]) are summed in a fixed order, not by
    # BLAS, whose last bits vary by CPU kernel: a verdict is the same on every host.
    rot = cal.rotation
    if np.abs(rot).max() > 2.0 or (
        np.abs((rot[:, :, None] * rot[:, None, :]).sum(axis=0) - np.eye(3)).max() >= 1e-9
    ):
        violations.append("RotationNotOrthonormal")
    elif abs(float((rot[0] * np.cross(rot[1], rot[2])).sum()) - 1.0) >= 1e-9:
        violations.append("RotationNotProper")
    if not violations:
        z = float(_k.camera_center(column(cal))[2][0])
        if z <= 0.0:
            warnings.warn(
                f"camera center z = {z:.3f} m is not above the ground plane",
                stacklevel=_caller_outside_package(),
            )
    return violations
