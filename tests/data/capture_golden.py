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
undistortion failure and other failure paths.

The file stores the inputs next to the outputs, so the test replays the
same numbers even when the synthetic generator changes. The script uses
only the batch API (``ball_rays`` and the two batch reconstructions),
plus scalar reconstruct_from_diameter for the diameter path's foot pixel
and vertical angle (NaN where it gives None).
"""

import sys

import numpy as np

from courtlift import generate_dataset, reconstruct_from_diameter
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


def main(path: str) -> None:
    samples = generate_dataset(seed=SEED, n=N, n_arenas=ARENAS)
    cals = [samples[a].cal for a in range(ARENAS)]
    packed = pack_calibrations(cals)
    idx = np.array([s.arena_id for s in samples], dtype=np.int64)
    px = np.array([[s.ball_px.x, s.ball_px.y] for s in samples])
    h_true = np.array([s.h_true for s in samples])
    d_true = np.array([s.diameter_px_true for s in samples])

    k = len(OFFSETS_PX)
    heights = np.concatenate([h_true + off for off in OFFSETS_PX])
    h_rays = ball_rays(packed, np.tile(idx, k), np.tile(px, (k, 1)))
    hb = reconstruct_from_height_batch(h_rays, heights)

    rel = 0.3 * np.random.default_rng(SEED).standard_t(2.0, size=N)
    diameters = d_true * (1.0 + rel)
    diameters[::97] = 0.0
    db = reconstruct_from_diameter_batch(ball_rays(packed, idx, px), diameters)
    d_foot = np.full((N, 2), np.nan)
    d_angle = np.full(N, np.nan)
    for i in np.flatnonzero(db.status == 0):
        s = samples[i]
        rec = reconstruct_from_diameter(s.cal, s.ball_px, float(diameters[i]))
        if rec.foot_pixel is not None:
            d_foot[i] = [rec.foot_pixel.x, rec.foot_pixel.y]
        if rec.vertical_angle is not None:
            d_angle[i] = rec.vertical_angle

    rng = np.random.default_rng(SEED)
    w_idx = rng.integers(0, ARENAS, WILD)
    w_px = np.column_stack([rng.uniform(-4500, 9000, WILD), rng.uniform(-1500, 3000, WILD)])
    w_heights = rng.uniform(-1000, 3000, WILD)
    wb = reconstruct_from_height_batch(ball_rays(packed, w_idx, w_px), w_heights)

    np.savez_compressed(
        path,
        cals=packed,
        cal_index=idx,
        px=px,
        heights=heights,
        diameters=diameters,
        h_status=hb.status,
        h_ball=hb.ball_3d,
        h_ground=hb.ground_projection,
        h_foot=hb.foot_px,
        h_angle=hb.vertical_angle,
        h_gap=hb.plane_gap,
        d_status=db.status,
        d_ball=db.ball_3d,
        d_ground=db.ground_projection,
        d_foot=d_foot,
        d_angle=d_angle,
        w_cal_index=w_idx,
        w_px=w_px,
        w_heights=w_heights,
        w_status=wb.status,
        w_ball=wb.ball_3d,
        w_ground=wb.ground_projection,
        w_foot=wb.foot_px,
        w_angle=wb.vertical_angle,
        w_gap=wb.plane_gap,
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
