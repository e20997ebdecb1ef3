"""Capture the reconstruction golden file that tests/test_golden.py checks.

Usage, from the repository root:

    PYTHONPATH=src python tests/data/capture_golden.py tests/data/golden_kernels.npz

Inputs are 2000 samples over 12 default (distorted) arenas, seed 17. The
height path runs every sample at true-height offsets of 0, 10, 40, -400
and 3000 px. The diameter path runs every sample once with heavy-tailed
relative errors (Student-t, nu = 2, scale 0.3), which include
non-positive diameters, and every 97th diameter set to exactly 0. A
third, wild group runs the height path on 1000 random pixels spread over
three times the frame with heights in [-1000, 3000) px, which reach the
undistortion failure and other failure paths. A fourth group undistorts
2000 random pixels over 1.5 times the frame through the same cameras
given k3, tangential (p1, p2) and skew terms, which no default arena
draws.

The file stores the inputs next to the outputs, so the test replays the
same numbers even when the synthetic generator changes. Each group
stores its statuses and balls from the batch API (``ball_rays`` and the
two batch reconstructions); the height groups also store each row's
foot pixel and vertical angle from ``_kernels.lift_height`` on the same
rays. The lens group stores the undistorted pixels and statuses of
``ball_rays``. Failed rows hold NaN.
"""

import sys

import numpy as np

from courtlift import _kernels as _k
from courtlift import generate_dataset
from courtlift.reconstruct import (
    ball_rays,
    pack_calibrations,
    reconstruct_from_diameter_batch,
    reconstruct_from_height_batch,
)

SEED = 17
N = 2000
ARENAS = 12
OFFSETS_PX = (0.0, 10.0, 40.0, -400.0, 3000.0)
WILD = 1000
LENS = 2000


def foot_and_angle(rays, heights):
    """Each row's foot pixel (n, 2) and vertical angle (n,), NaN where the
    height lift fails."""
    _, _, _, fu, fv, angle, status = _k.lift_height(rays, heights)
    failed = status != _k.STATUS_OK
    foot = np.column_stack([fu, fv])
    foot[failed] = np.nan
    return foot, np.where(failed, np.nan, angle)


def main(path: str) -> None:
    samples = generate_dataset(seed=SEED, n=N, n_arenas=ARENAS)
    packed = pack_calibrations(samples.cameras.values())
    idx, px, h_true, d_true = samples.arena, samples.ball_px, samples.h_true, samples.d_true

    k = len(OFFSETS_PX)
    heights = np.concatenate([h_true + off for off in OFFSETS_PX])
    h_rays = ball_rays(packed, np.tile(idx, k), np.tile(px, (k, 1)))
    h_ball, h_status = reconstruct_from_height_batch(h_rays, heights)
    h_foot, h_angle = foot_and_angle(h_rays, heights)

    rel = 0.3 * np.random.default_rng(SEED).standard_t(2.0, size=N)
    diameters = d_true * (1.0 + rel)
    diameters[::97] = 0.0
    d_ball, d_status = reconstruct_from_diameter_batch(ball_rays(packed, idx, px), diameters)

    rng = np.random.default_rng(SEED)
    w_idx = rng.integers(0, ARENAS, WILD)
    w_px = np.column_stack([rng.uniform(-4500, 9000, WILD), rng.uniform(-1500, 3000, WILD)])
    w_heights = rng.uniform(-1000, 3000, WILD)
    w_rays = ball_rays(packed, w_idx, w_px)
    w_ball, w_status = reconstruct_from_height_batch(w_rays, w_heights)
    w_foot, w_angle = foot_and_angle(w_rays, w_heights)

    rng = np.random.default_rng(SEED)
    t_cals = packed.copy()
    t_cals[:, _k.CAL_K3] = rng.uniform(-0.02, 0.02, ARENAS)
    t_cals[:, _k.CAL_P1] = rng.uniform(-2e-3, 2e-3, ARENAS)
    t_cals[:, _k.CAL_P2] = rng.uniform(-2e-3, 2e-3, ARENAS)
    t_cals[:, _k.CAL_SKEW] = rng.uniform(-2.0, 2.0, ARENAS)
    t_idx = rng.integers(0, ARENAS, LENS)
    t_px = np.column_stack(
        [rng.uniform(-0.25 * 4500, 1.25 * 4500, LENS), rng.uniform(-0.25 * 1500, 1.25 * 1500, LENS)]
    )
    t_rays = ball_rays(t_cals, t_idx, t_px)
    t_failed = t_rays.status != _k.STATUS_OK

    np.savez_compressed(
        path,
        cals=packed,
        cal_index=idx,
        px=px,
        heights=heights,
        diameters=diameters,
        h_status=h_status,
        h_ball=h_ball,
        h_foot=h_foot,
        h_angle=h_angle,
        d_status=d_status,
        d_ball=d_ball,
        w_cal_index=w_idx,
        w_px=w_px,
        w_heights=w_heights,
        w_status=w_status,
        w_ball=w_ball,
        w_foot=w_foot,
        w_angle=w_angle,
        t_cals=t_cals,
        t_cal_index=t_idx,
        t_px=t_px,
        t_u=np.where(t_failed, np.nan, t_rays.u),
        t_v=np.where(t_failed, np.nan, t_rays.v),
        t_status=t_rays.status,
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
