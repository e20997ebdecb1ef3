import numpy as np
import pytest

from courtlift import ArenaSpec, CameraCalibration, generate_dataset
from courtlift.camera import column, one_row
from courtlift.rng import PURPOSE_CAMERA, stream
from courtlift.synth import make_camera, sample_camera


@pytest.fixture
def identity_cal() -> CameraCalibration:
    """Camera at the origin looking along world +Z (optical axis = Z)."""
    return CameraCalibration(
        fx=1000.0,
        fy=1000.0,
        cx=960.0,
        cy=540.0,
        rotation=np.eye(3),
        translation=np.zeros(3),
        image_width=1920.0,
        image_height=1080.0,
    )


@pytest.fixture
def cam_a() -> CameraCalibration:
    """Elevated arena camera: center (0, -20, 3), looking at the court origin."""
    return make_camera(
        center=(0.0, -20.0, 3.0),
        look_at=(0.0, 0.0, 0.0),
        focal=2000.0,
        image_width=4500.0,
        image_height=1500.0,
        cx=2250.0,
        cy=750.0,
    )


@pytest.fixture
def side_cal() -> CameraCalibration:
    """Side-on camera: horizontal optical axis along +Y, up +Z.

    World verticals map exactly to image columns, so the local vertical is
    (0, 1) everywhere below the horizon row.
    """
    return make_camera(
        center=(0.0, -20.0, 1.5),
        look_at=(0.0, 0.0, 1.5),
        focal=2000.0,
        image_width=4500.0,
        image_height=1500.0,
        cx=2250.0,
        cy=750.0,
    )


ZERO_DIST_ARENA = ArenaSpec(k1_range=(0.0, 0.0), k2_range=(0.0, 0.0))
STRONG_DIST_ARENA = ArenaSpec(k1_range=(-0.3, 0.3), k2_range=(-0.05, 0.05))


def kernel_row(kernel, cal: CameraCalibration, *values):
    """A kernel's outputs for one camera and one row, as Python scalars."""
    return [out[0].item() for out in kernel(column(cal), *one_row(*values))]


def first_branch_peak(k1: float, k2: float, k3: float) -> float:
    """Largest distorted normalized radius on the first monotone branch of
    the radial lens map r -> r (1 + k1 r^2 + k2 r^4 + k3 r^6): its value
    at the first positive root s = r^2 of the slope 1 + 3 k1 s + 5 k2 s^2
    + 7 k3 s^3, or inf when the slope has none. An oracle for the
    undistortion's domain, computed with np.roots, not kernel code."""
    roots = np.roots([7.0 * k3, 5.0 * k2, 3.0 * k1, 1.0])
    positive = [r.real for r in roots if r.imag == 0.0 and r.real > 0.0]
    if not positive:
        return np.inf
    s = min(positive)
    return float(np.sqrt(s) * (1.0 + s * (k1 + s * (k2 + s * k3))))


def camera_from_stream(seed: int, index: int, arena: ArenaSpec):
    """sample_camera on the doubles of numpy's own stream (seed, index,
    PURPOSE_CAMERA), so it also checks the words synth draws them from."""
    return sample_camera(stream(seed, index, PURPOSE_CAMERA).random(1100), arena)


def sample_rows(samples):
    """Each row of a `Samples` table as the one-ball functions take and
    give it: its camera, ball pixel (a tuple), true pixel height and ball
    (an array)."""
    s = samples
    columns = (s.arena.tolist(), s.ball_px.tolist(), s.h_true.tolist(), s.ball_3d)
    for a, (x, y), h, ball in zip(*columns):
        yield s.cameras[a], (x, y), h, ball


def random_cameras(n: int, seed: int = 0, arena: ArenaSpec = ZERO_DIST_ARENA):
    return [camera_from_stream(seed, i, arena) for i in range(n)]


@pytest.fixture(scope="session")
def clean_samples():
    """1000 zero-distortion samples shared across exactness tests."""
    return generate_dataset(seed=101, n=1000, arena=ZERO_DIST_ARENA, n_arenas=8)


@pytest.fixture(scope="session")
def distorted_samples():
    """1000 samples with strong distortion (|k1| up to 0.3)."""
    return generate_dataset(seed=102, n=1000, arena=STRONG_DIST_ARENA, n_arenas=8)
