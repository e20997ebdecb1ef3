"""courtlift: monocular 3D ball localization geometry and evaluation.

Given a calibrated camera, a ball pixel, and a predicted pixel height of
the ball above its ground projection, reconstruct the ball's 3D world
coordinates; generate synthetic arenas with exact annotations, model
predictor noise, and score everything with the standard metric suite.
"""

from .camera import (
    CameraCalibration,
    ImagePoint,
    WorldPoint,
    project,
    scale_calibration,
    validate,
)
from .dataio import Dataset, assign_folds, calibration_to_json_dict, read_dataset, write_dataset
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
    BALL_DIAMETER_M,
    BallRays,
    HeightBatch,
    Reconstruction,
    ball_rays,
    reconstruct_from_diameter_batch,
    reconstruct_from_height,
    reconstruct_from_height_batch,
)
from .synth import (
    ArenaSpec,
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
    "AggregateReport",
    "ArenaSpec",
    "BALL_DIAMETER_M",
    "BallRays",
    "CameraCalibration",
    "Dataset",
    "EvalReport",
    "HeightBatch",
    "HeightDistSpec",
    "ImagePoint",
    "METRIC_NAMES",
    "PredictorSpec",
    "Reconstruction",
    "Samples",
    "WorldPoint",
    "aggregate_repeats",
    "assign_folds",
    "ball_rays",
    "calibration_to_json_dict",
    "errors",
    "evaluate_arrays",
    "generate_dataset",
    "height_histogram",
    "make_camera",
    "predict_diameters",
    "predict_heights",
    "project",
    "read_dataset",
    "reconstruct_from_diameter_batch",
    "reconstruct_from_height",
    "reconstruct_from_height_batch",
    "sample_ball",
    "sample_camera",
    "scale_calibration",
    "validate",
    "write_dataset",
]
