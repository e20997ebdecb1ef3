"""Command-line frontend: synth, evaluate, reconstruct, sweep.

`evaluate` and `sweep` share one pass: predictions in, 3D positions
through the known cameras, a report out. `run_evaluation` and
`run_sweep` drive it over a `Samples` table.

Every command is deterministic given its flags and seed: reports carry no
timestamps or scheduling information, and randomness comes from
per-sample streams. Exit codes: 0 success, 1 runtime or geometry
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from typing import Sequence

from .camera import ImagePoint, load_calibration
from .dataio import Dataset, assign_folds, read_dataset, split, write_dataset
from .errors import CourtliftError, EmptyInput, InvalidCalibration
from .metrics import (
    EvalReport,
    METRIC_NAMES,
    aggregate_repeats,
    evaluate_arrays,
    height_histogram,
)
from .predictors import PredictorSpec, predict_diameters, predict_heights
from .reconstruct import (
    BALL_DIAMETER_M,
    ball_rays,
    reconstruct_from_diameter_batch,
    reconstruct_from_height,
    reconstruct_from_height_batch,
)
from .synth import ArenaSpec, HeightDistSpec, Samples, generate_dataset

DEFAULT_HIST_EDGES = (0.0, 1.0, 2.0, 3.0)

# --threads predates the single-threaded array kernels; scripts still pass it.
THREADS_HELP = "accepted and ignored; results never depend on it"


def _write_json(path: str, obj) -> None:
    # Serialize first: a payload that cannot be written leaves no file.
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# Evaluation pipeline shared by `evaluate` and `sweep`.


def _sample_arrays(samples: Samples):
    """The samples' ball rays, built once per command for every set of
    predictions, and the truth columns the metrics take."""
    s = samples
    return ball_rays(s.cals, s.cal_index, s.ball_px), s.ball_3d, s.h_true


def _evaluate(arrays, method, preds, ball_diameter_m=None):
    """Reconstruct `preds`, a pixel height or image diameter per sample as
    `method` says, and evaluate the rows that succeed; also return how
    many failed (e.g. a foot pixel pushed past the horizon by an extreme
    prediction). The diameter method assumes a ball of `ball_diameter_m`."""
    rays, truth, h_true = arrays
    if method == "height":
        batch = reconstruct_from_height_batch(rays, preds)
        heights = (h_true[batch.ok], preds[batch.ok])
    else:
        batch = reconstruct_from_diameter_batch(rays, preds, ball_diameter_m)
        heights = (None, None)
    ok = batch.ok
    report = evaluate_arrays(truth[ok], *heights, batch.ball_3d[ok], batch.ground_projection[ok])
    return report, int((~ok).sum())


def run_evaluation(
    samples: Samples,
    spec: PredictorSpec,
    method: str = "height",
    repeats: int = 1,
    ball_diameter_m: float = BALL_DIAMETER_M,
) -> tuple[list[EvalReport], list[int]]:
    """k seeded repeats of predict -> reconstruct -> evaluate; repeat r
    uses predictor seed spec.seed + r. Both predictors perturb the
    samples' true pixel heights or image diameters."""
    if method not in ("height", "diameter"):
        raise ValueError(f"unknown method {method!r}")
    arrays = _sample_arrays(samples)
    reports: list[EvalReport] = []
    failed: list[int] = []
    for r in range(repeats):
        spec_r = dataclasses.replace(spec, seed=spec.seed + r)
        if method == "height":
            preds = predict_heights(spec_r, samples.ids, samples.h_true)
        else:
            preds = predict_diameters(spec_r, samples.ids, samples.d_true)
        report, n_failed = _evaluate(arrays, method, preds, ball_diameter_m)
        reports.append(report)
        failed.append(n_failed)
    return reports, failed


def run_sweep(samples: Samples, grid: Sequence[float]) -> tuple[list[EvalReport], list[int]]:
    """One height-method pass per level of `grid`, the level (px) added
    to every true pixel height as the prediction."""
    arrays = _sample_arrays(samples)
    results = [_evaluate(arrays, "height", samples.h_true + float(level)) for level in grid]
    return [report for report, _ in results], [n_failed for _, n_failed in results]


# ---------------------------------------------------------------------------
# Subcommands.


def _load_samples(args) -> Samples:
    ds = read_dataset(args.dataset)
    fold = getattr(args, "fold", None)
    samples = split(ds, fold)[1].samples if fold else ds.samples
    if not samples:
        where = f"fold {fold!r} of {args.dataset}" if fold else args.dataset
        raise EmptyInput(f"no samples in {where}")
    return samples


def _write_report(out: str, payload: dict, csv_rows: list, lines: list[str]) -> None:
    """Write `out`.json and `out`.csv (header row first), then print `lines`."""
    _write_json(out + ".json", payload)
    with open(out + ".csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows(csv_rows)
    for line in lines:
        print(line)
    print(f"wrote {out}.json and {out}.csv")


def _add_input_args(sub) -> None:
    sub.add_argument("--dataset", required=True, help="dataset file written by `courtlift synth`")


def _add_predictor_args(sub) -> None:
    sub.add_argument(
        "--predictor",
        choices=["oracle", "gaussian", "heavy_tailed"],
        default="oracle",
        help="height/diameter predictor standing in for a trained model",
    )
    sub.add_argument("--sigma", type=float, default=0.0, help="raw noise scale")
    sub.add_argument("--nu", type=float, default=3.0, help="Student-t degrees of freedom")
    sub.add_argument(
        "--target-mae", type=float, default=None, help="calibrate noise to this MAE"
    )


def _check_seeds(parser, seed: int, count: int) -> None:
    """Usage error unless seeds seed .. seed + count - 1 all fit in uint64,
    as the key of a Philox stream must."""
    if not 0 <= seed <= 2**64 - count:
        parser.error(f"--seed must be in [0, 2**64 - {count}], got {seed}")


def cmd_synth(args, parser) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.arenas < 1:
        parser.error("--arenas must be >= 1")
    _check_seeds(parser, args.seed, 1)
    dist_kwargs = {}
    if args.p_above_3m is not None:
        dist_kwargs["p_above_3m"] = args.p_above_3m
    if args.max_height is not None:
        dist_kwargs["max_height"] = args.max_height
    try:
        arena = ArenaSpec()
        if args.arena_json:
            with open(args.arena_json, "r", encoding="utf-8") as f:
                arena = ArenaSpec.from_json_dict(json.load(f))
        dist = HeightDistSpec(kind=args.dist, **dist_kwargs)
    except ValueError as exc:
        parser.error(str(exc))
    samples = generate_dataset(
        seed=args.seed, n=args.n, arena=arena, dist=dist, n_arenas=args.arenas
    )
    folds = assign_folds(samples.arena.tolist(), args.n_folds)
    ds = Dataset(samples=samples, folds=folds)
    write_dataset(ds, args.out)
    counts = height_histogram(samples.ball_3d[:, 2], DEFAULT_HIST_EDGES)
    print(f"wrote {len(samples)} samples / {args.arenas} arenas to {args.out}")
    edges = list(DEFAULT_HIST_EDGES)
    labels = [f"[{edges[i]:g},{edges[i + 1]:g})" for i in range(len(edges) - 1)]
    labels.append(f"[{edges[-1]:g},inf)")
    print("height histogram (m): " + "  ".join(f"{l}={c}" for l, c in zip(labels, counts)))
    return 0


def cmd_evaluate(args, parser) -> int:
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    _check_seeds(parser, args.seed, args.repeats)
    try:
        spec = PredictorSpec(
            kind=args.predictor,
            sigma=args.sigma,
            nu=args.nu,
            target_mae=args.target_mae,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    samples = _load_samples(args)
    reports, failed = run_evaluation(
        samples,
        spec,
        method=args.method,
        repeats=args.repeats,
        ball_diameter_m=args.ball_diameter,
    )
    agg = aggregate_repeats(reports)
    payload = {
        "schema_version": 1,
        "command": "evaluate",
        "config": {
            "dataset": args.dataset,
            "fold": args.fold,
            "method": args.method,
            "predictor": spec.to_json_dict(),
            "repeats": args.repeats,
        },
        "aggregate": agg.to_json_dict(),
        "repeats": [
            {**r.to_json_dict(), "n_failed": nf} for r, nf in zip(reports, failed)
        ],
    }
    lines = []
    for name in METRIC_NAMES:
        m = agg.mean[name]
        s = agg.std[name]
        lines.append(f"{name}: n/a" if m is None else f"{name}: {m:.6g} +/- {s:.6g}")
    _write_report(args.out, payload, [["metric", "mean", "std"], *agg.to_csv_rows()], lines)
    return 0


def cmd_reconstruct(args, parser) -> int:
    with open(args.cal, "r", encoding="utf-8") as f:
        try:
            cal = load_calibration("calibration", json.load(f))
        except ValueError as exc:  # json.JSONDecodeError included
            raise InvalidCalibration(f"{args.cal}: {exc}") from exc
    result = reconstruct_from_height(cal, ImagePoint(args.x, args.y), args.height)
    print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_sweep(args, parser) -> int:
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--grid must be a comma-separated number list, got {args.grid!r}")
    if not grid:
        parser.error("--grid must contain at least one noise level")
    reports, failed = run_sweep(_load_samples(args), grid)
    rows = [
        {
            "level_px": level,
            "mae_px": report.mae_px,
            "mape_m": report.mape_m,
            "ma3de_m": report.ma3de_m,
            "n_samples": report.n_samples,
            "n_failed": n_failed,
        }
        for level, report, n_failed in zip(grid, reports, failed)
    ]
    payload = {
        "schema_version": 1,
        "command": "sweep",
        "config": {"dataset": args.dataset, "grid_px": grid},
        "levels": rows,
    }
    keys = ["level_px", "mae_px", "mape_m", "ma3de_m"]
    csv_rows = [keys, *([repr(row[k]) for k in keys] for row in rows)]
    lines = [
        f"level {row['level_px']:g} px -> MAPE {row['mape_m']:.6g} m, "
        f"MA3DE {row['ma3de_m']:.6g} m"
        for row in rows
    ]
    _write_report(args.out, payload, csv_rows, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courtlift",
        description="Monocular 3D ball localization: synthetic datasets, "
        "reconstruction, and evaluation reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate an annotated synthetic dataset")
    p_synth.add_argument("--n", type=int, required=True, help="number of samples")
    p_synth.add_argument("--arenas", type=int, default=10, help="number of cameras")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output dataset file")
    p_synth.add_argument(
        "--dist",
        choices=["deepsport_like", "ballistic_like", "uniform"],
        default="deepsport_like",
        help="ball height distribution",
    )
    p_synth.add_argument("--p-above-3m", type=float, default=None)
    p_synth.add_argument("--max-height", type=float, default=None)
    p_synth.add_argument("--n-folds", type=int, default=5, help="arena folds to assign")
    p_synth.add_argument("--arena-json", default=None, help="ArenaSpec overrides (JSON file)")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("evaluate", help="run predict/reconstruct/evaluate repeats")
    _add_input_args(p_eval)
    p_eval.add_argument("--fold", default=None, help="restrict to this test fold")
    _add_predictor_args(p_eval)
    p_eval.add_argument("--method", choices=["height", "diameter"], default="height")
    p_eval.add_argument(
        "--ball-diameter",
        type=float,
        default=BALL_DIAMETER_M,
        help="ball size (m) the diameter reconstruction assumes",
    )
    p_eval.add_argument("--repeats", type=int, default=1, help="seeded repetitions")
    p_eval.add_argument("--seed", type=int, default=0, help="base predictor seed")
    p_eval.add_argument("--out", required=True, help="report path prefix (.json/.csv)")
    p_eval.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p_eval.set_defaults(func=cmd_evaluate)

    p_rec = sub.add_parser("reconstruct", help="lift one pixel + height to 3D")
    p_rec.add_argument("--cal", required=True, help="calibration JSON file")
    p_rec.add_argument("--x", type=float, required=True, help="ball pixel x (raw image)")
    p_rec.add_argument("--y", type=float, required=True, help="ball pixel y (raw image)")
    p_rec.add_argument(
        "--height", "--h", dest="height", type=float, required=True, help="pixel height"
    )
    p_rec.set_defaults(func=cmd_reconstruct)

    p_sweep = sub.add_parser(
        "sweep", help="MAPE/MA3DE vs height-error level (constant px offsets)"
    )
    _add_input_args(p_sweep)
    p_sweep.add_argument(
        "--grid", required=True, help="comma-separated height offsets in px, e.g. 0,5,10"
    )
    p_sweep.add_argument("--out", required=True, help="report path prefix (.json/.csv)")
    p_sweep.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (CourtliftError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
