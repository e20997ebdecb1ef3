"""courtlift: monocular 3D ball localization geometry and evaluation.

Given a calibrated camera, a ball pixel, and a predicted pixel height of
the ball above its ground projection, reconstruct the ball's 3D world
coordinates; generate synthetic arenas with exact annotations, model
predictor noise, and score everything with the standard metric suite.
"""

from .camera import (
    Axis,
    AxisPlane,
    CameraCalibration,
    ImagePoint,
    Ray,
    WorldPoint,
    back_project,
    calibration_from_json_dict,
    calibration_to_json_dict,
    camera_center,
    distort,
    intersect_ray_plane,
    project,
    scale_calibration,
    undistort_point,
    validate,
)
from .dataio import Dataset, assign_folds, read_dataset, rebalance, split, write_dataset
from .metrics import (
    AggregateReport,
    EvalReport,
    METRIC_NAMES,
    aggregate_repeats,
    evaluate_arrays,
    height_histogram,
)
from .predictors import (
    PredictorSpec,
    predict_diameters,
    predict_heights,
)
from .reconstruct import (
    AffineTransform,
    BALL_DIAMETER_M,
    BallRays,
    HeightBatch,
    Reconstruction,
    ball_rays,
    crop_transform,
    diameter_px_of,
    foot_pixel,
    reconstruct_from_diameter,
    reconstruct_from_diameter_batch,
    reconstruct_from_height,
    reconstruct_from_height_batch,
    true_pixel_height,
    vertical_direction,
)
from .synth import (
    ArenaSpec,
    BallSample,
    HeightDistSpec,
    Samples,
    generate_dataset,
    make_camera,
    sample_ball,
    sample_camera,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "AxisPlane",
    "AffineTransform",
    "AggregateReport",
    "ArenaSpec",
    "BALL_DIAMETER_M",
    "BallRays",
    "BallSample",
    "CameraCalibration",
    "Dataset",
    "EvalReport",
    "HeightBatch",
    "HeightDistSpec",
    "ImagePoint",
    "METRIC_NAMES",
    "PredictorSpec",
    "Ray",
    "Reconstruction",
    "Samples",
    "WorldPoint",
    "aggregate_repeats",
    "assign_folds",
    "back_project",
    "ball_rays",
    "calibration_from_json_dict",
    "calibration_to_json_dict",
    "camera_center",
    "crop_transform",
    "diameter_px_of",
    "distort",
    "errors",
    "evaluate_arrays",
    "foot_pixel",
    "generate_dataset",
    "height_histogram",
    "intersect_ray_plane",
    "make_camera",
    "predict_diameters",
    "predict_heights",
    "project",
    "read_dataset",
    "rebalance",
    "reconstruct_from_diameter",
    "reconstruct_from_diameter_batch",
    "reconstruct_from_height",
    "reconstruct_from_height_batch",
    "sample_ball",
    "sample_camera",
    "scale_calibration",
    "split",
    "true_pixel_height",
    "undistort_point",
    "validate",
    "vertical_direction",
    "write_dataset",
]
