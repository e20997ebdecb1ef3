"""Exception hierarchy for courtlift.

All library errors derive from :class:`CourtliftError`; geometric failures
additionally derive from :class:`GeometryError` so callers can catch the
whole family when reconstructing noisy predictions.
"""


class CourtliftError(Exception):
    """Base class for all courtlift errors."""


class GeometryError(CourtliftError):
    """Base class for camera/reconstruction geometry failures."""


class DepthNonPositive(GeometryError):
    """Point lies behind (or on) the camera plane."""


class NoConvergence(GeometryError):
    """The pixel lies outside the lens model's invertible domain: no
    preimage was found on the distortion's first monotone branch."""


class RayParallelToPlane(GeometryError):
    """Ray direction has no component along the plane axis."""


class IntersectionBehindCamera(GeometryError):
    """Ray/plane intersection lies at negative ray parameter."""


class NonPositiveScale(GeometryError):
    """Calibration scale factor must be > 0."""


class DegenerateVertical(GeometryError):
    """World vertical projects to (nearly) a point at this pixel."""


class BothPlanesDegenerate(GeometryError):
    """The ball ray meets the ground point's vertical behind the camera or never."""


class NonPositiveDiameter(GeometryError):
    """Image-space ball diameter must be > 0 and give a finite depth."""


class NonFiniteInput(GeometryError):
    """A pixel, height or diameter is NaN or infinite."""


class InvalidCalibration(CourtliftError):
    """Calibration violates an invariant checked by camera.validate."""


class LengthMismatch(CourtliftError):
    """Parallel input sequences differ in length."""


class EmptyInput(CourtliftError):
    """Operation requires at least one element."""


class BadBins(CourtliftError):
    """Histogram bin edges are empty or not strictly increasing."""


class SchemaVersionMismatch(CourtliftError):
    """Dataset file carries an unsupported schema version."""


class MalformedRecord(CourtliftError):
    """Dataset record failed to parse; carries the record index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"record {index}: {message}")
        self.index = index


class FoldViolation(CourtliftError):
    """A sample's arena is missing from the folds or assigned twice."""


class UnknownFold(CourtliftError):
    """Requested fold name does not exist in the dataset."""


class OneSidedDataset(CourtliftError):
    """Rebalancing needs samples on both sides of the threshold."""


class FrameCoverageFailure(CourtliftError):
    """Could not place a ball inside the image after the retry budget."""
