"""courtlift: monocular 3D ball localization geometry and evaluation.

Given a calibrated camera, a ball pixel, and a predicted pixel height of
the ball above its ground projection, reconstruct the ball's 3D world
coordinates; generate synthetic arenas with exact annotations, model
predictor noise, and score everything with the standard metric suite.

Each public name is imported from its module on first use (PEP 562), so
``import courtlift`` imports none of courtlift's modules, and a command
imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, and the module that defines it.
_HOMES = {
    "ArenaSpec": "synth",
    "BALL_DIAMETER_M": "reconstruct",
    "BallRays": "reconstruct",
    "CameraCalibration": "camera",
    "Dataset": "dataio",
    "HeightDistSpec": "synth",
    "METRIC_NAMES": "metrics",
    "PredictorSpec": "predictors",
    "Samples": "dataio",
    "aggregate_repeats": "metrics",
    "assign_folds": "dataio",
    "ball_rays": "reconstruct",
    "errors": "errors",
    "evaluate_arrays": "metrics",
    "generate_dataset": "synth",
    "height_histogram": "metrics",
    "predict_diameters": "predictors",
    "predict_heights": "predictors",
    "project": "camera",
    "read_dataset": "dataio",
    "reconstruct_from_diameter_batch": "reconstruct",
    "reconstruct_from_height": "reconstruct",
    "reconstruct_from_height_batch": "reconstruct",
    "validate": "camera",
    "write_dataset": "dataio",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _main() -> None:
    """The `courtlift` script: `cli.entrypoint`, its imports made with the
    cyclic collector off, as ``python -m courtlift.cli`` makes them."""
    import gc

    gc.disable()
    from .cli import entrypoint

    entrypoint()
