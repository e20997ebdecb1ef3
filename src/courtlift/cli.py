"""Command-line frontend: synth, evaluate, reconstruct, sweep.

`evaluate` and `sweep` share one pass loop over ball rays built once per
command. `run_evaluation`'s passes are labelled "repeat r", `run_sweep`'s
"level L px", and the EmptyInput raised when a pass fails every row
names its label.

Every command is deterministic given its flags and seed: reports carry no
timestamps or scheduling information, and randomness comes from
per-sample streams. Exit codes: 0 success, 1 runtime or geometry
failure, 2 usage error.

A command imports only the modules it runs, and builds only its own
subparser's arguments: `synth` imports the sampler (`synth`, `rng`),
`evaluate` the predictors (`predictors`, `rng`, `_libm`), and `sweep`
and `reconstruct` neither.

Both launch paths, the `courtlift` script (`courtlift._main`) and
`python -m courtlift.cli`, switch the cyclic garbage collector off
before they import numpy. `entrypoint`, which both then run, freezes the
heap the imports built (`gc.freeze`) and switches the collector back on
before `main`. So no collection scans that heap, neither during the
imports, nor during the command, nor at exit. Importing this module and
calling `main` leave the collector alone: tests and library callers
keep a normal one. When the reader closes stdout before the command has
printed, `entrypoint` ends with status 1 and prints nothing.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # run as a program: import with the collector off
    gc.disable()

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Sequence

from ._kernels import STATUS_OK
from .dataio import RECORD_DTYPE, Dataset, Samples, assign_folds, read_dataset, write_dataset
from .dataio import load_arena_spec, load_calibration, read_json
from .errors import CourtliftError, EmptyInput, InvalidCalibration, NonFiniteReport
from .metrics import METRIC_NAMES, aggregate_repeats, evaluate_arrays, height_histogram
from .reconstruct import (
    BALL_DIAMETER_M,
    ball_rays,
    reconstruct_from_diameter_batch,
    reconstruct_from_height,
    reconstruct_from_height_batch,
)

if TYPE_CHECKING:
    from .predictors import PredictorSpec

DEFAULT_HIST_EDGES = (0.0, 1.0, 2.0, 3.0)

# --threads predates the single-threaded array kernels; scripts still pass it.
THREADS_HELP = "accepted and ignored; results never depend on it"


def _first_non_finite(obj, where: str = "") -> str | None:
    """Path (``levels[0].ma3de_m``) of the first NaN or infinity in `obj`,
    in the order a sorted-keys JSON dump lists it; None if it has none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else where
    if isinstance(obj, dict):
        items = ((f"{where}.{k}" if where else str(k), v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_first_non_finite(v, w) for w, v in items)), None)


def _write_json(path: str, obj) -> None:
    # Serialize first: a payload that cannot be written leaves no file.
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteReport(f"cannot write {path}: {_first_non_finite(obj)}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# The layers that live in modules only one command imports. They stay
# names of this module, called through its globals, so that a tracer
# (perfbench/trace_cli.py) can find and rebind them before `main` runs.
# The command imports the module before its first call, so no call here
# compiles one.


def generate_dataset(*args, **kwargs):
    """`synth.generate_dataset`."""
    from .synth import generate_dataset

    return generate_dataset(*args, **kwargs)


def predict_heights(*args, **kwargs):
    """`predictors.predict_heights`."""
    from .predictors import predict_heights

    return predict_heights(*args, **kwargs)


def predict_diameters(*args, **kwargs):
    """`predictors.predict_diameters`."""
    from .predictors import predict_diameters

    return predict_diameters(*args, **kwargs)


# ---------------------------------------------------------------------------
# Evaluation pipeline shared by `evaluate` and `sweep`.


def _sample_arrays(samples: Samples):
    """The samples' ball rays, built once per command for every pass."""
    return ball_rays(samples.cameras.values(), samples.cal_index, samples.ball_px)


def _run_passes(samples: Samples, method, passes, ball_diameter_m):
    """Lift each pass's predictions along the samples' ball rays (pixel
    heights, or image diameters of a ball of `ball_diameter_m`, as `method`
    says) and score the rows that succeed. A pass is a (label, predictions)
    pair. Return each pass's `evaluate_arrays` dict and count of failed rows; raise
    EmptyInput naming the label of a pass whose every row fails."""
    if method not in ("height", "diameter"):
        raise ValueError(f"unknown method {method!r}")
    rays = _sample_arrays(samples)
    reports, failed = [], []
    for label, preds in passes:
        if method == "height":
            ball_3d, status = reconstruct_from_height_batch(rays, preds)
            columns = [samples.ball_3d, samples.h_true, preds, ball_3d]
        else:
            ball_3d, status = reconstruct_from_diameter_batch(rays, preds, ball_diameter_m)
            columns = [samples.ball_3d, None, None, ball_3d]
        ok = status == STATUS_OK
        n_failed = int((~ok).sum())
        if n_failed and n_failed == len(ok):
            raise EmptyInput(f"{label}: all {n_failed} samples failed to reconstruct")
        if n_failed:  # a boolean index copies the rows: only when some failed
            columns = [None if c is None else c[ok] for c in columns]
        reports.append(evaluate_arrays(*columns))
        failed.append(n_failed)
    return reports, failed


def run_evaluation(
    samples: Samples,
    spec: PredictorSpec,
    method: str = "height",
    repeats: int = 1,
    ball_diameter_m: float = BALL_DIAMETER_M,
) -> tuple[list[dict], list[int]]:
    """k repeats of predict -> reconstruct -> evaluate, 8 predicted at a time;
    repeat r perturbs the truth by noise r of each sample's stream (spec.seed, id)."""
    predict = predict_heights if method == "height" else predict_diameters
    truth = samples.h_true if method == "height" else samples.d_true
    blocks = (range(start, min(start + 8, repeats)) for start in range(0, repeats, 8))
    passes = (
        (f"repeat {r}", preds)
        for runs in blocks
        for r, preds in zip(runs, predict(spec, samples.ids, truth, runs))
    )
    return _run_passes(samples, method, passes, ball_diameter_m)


def run_sweep(samples: Samples, grid: Sequence[float]) -> tuple[list[dict], list[int]]:
    """One height-method pass per level of `grid`, the level (px) added
    to every true pixel height as the prediction."""
    passes = ((f"level {level:g} px", samples.h_true + float(level)) for level in grid)
    return _run_passes(samples, "height", passes, None)


def _report_row(report: dict, n_failed: int) -> dict:
    """A pass's row in a report: its metrics, sample count and failures."""
    return {**report, "n_failed": n_failed}


# ---------------------------------------------------------------------------
# Subcommands.


def _load_samples(args) -> Samples:
    ds = read_dataset(args.dataset)
    fold = getattr(args, "fold", None)
    samples = ds.samples if fold is None else ds.fold(fold)
    if not samples:
        where = args.dataset if fold is None else f"fold {fold!r} of {args.dataset}"
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
    sub.add_argument(
        "--nu", type=float, default=None, help="Student-t degrees of freedom (default 3)"
    )
    sub.add_argument(
        "--target-mae", type=float, default=None, help="calibrate noise to this MAE"
    )


def cmd_synth(args, parser) -> int:
    from .rng import check_seed
    from .synth import ArenaSpec, HeightDistSpec

    if args.n < 1:
        parser.error("--n must be >= 1")
    # No record table of more rows fits in memory that numpy can address.
    most = sys.maxsize // RECORD_DTYPE.itemsize
    if args.n > most:
        parser.error(f"--n must be <= {most}, got {args.n}")
    # Every arena holds a sample: one without would cost its camera draw for nothing.
    if not 1 <= args.arenas <= args.n:
        parser.error(f"--arenas must be in [1, --n], got {args.arenas} for --n {args.n}")
    if args.n_folds < 1:
        parser.error("--n-folds must be >= 1")
    try:
        check_seed(args.seed)
        arena = load_arena_spec(read_json(args.arena_json)) if args.arena_json else ArenaSpec()
        dist = HeightDistSpec(
            kind=args.dist, p_above_3m=args.p_above_3m, max_height=args.max_height
        )
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
    if len(folds) < args.n_folds:
        print(f"wrote {len(folds)} folds, not {args.n_folds}: a fold needs an arena of its own")
    edges = list(DEFAULT_HIST_EDGES)
    labels = [f"[{edges[i]:g},{edges[i + 1]:g})" for i in range(len(edges) - 1)]
    labels.append(f"[{edges[-1]:g},inf)")
    print("height histogram (m): " + "  ".join(f"{l}={c}" for l, c in zip(labels, counts)))
    return 0


def cmd_evaluate(args, parser) -> int:
    from .predictors import NOISE_STREAM, PredictorSpec

    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not 0.0 < args.ball_diameter < math.inf:
        parser.error(f"--ball-diameter must be finite and > 0 m, got {args.ball_diameter}")
    if args.nu is not None and args.predictor != "heavy_tailed":
        parser.error(f"--nu applies only to --predictor heavy_tailed, not {args.predictor}")
    try:
        spec = PredictorSpec(
            kind=args.predictor,
            sigma=args.sigma,
            nu=PredictorSpec.nu if args.nu is None else args.nu,
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
            "predictor": dataclasses.asdict(spec),
            "noise_stream": NOISE_STREAM,
            "repeats": args.repeats,
        },
        "aggregate": agg,
        "repeats": [_report_row(r, nf) for r, nf in zip(reports, failed)],
    }
    csv_rows, lines = [["metric", "mean", "std"]], []
    for name in METRIC_NAMES:
        m, s = agg["mean"][name], agg["std"][name]
        if m is None:
            csv_rows.append([name, "", ""])
            lines.append(f"{name}: n/a")
        else:
            csv_rows.append([name, repr(m), repr(s)])
            lines.append(f"{name}: {m:.6g} +/- {s:.6g}")
    _write_report(args.out, payload, csv_rows, lines)
    return 0


def cmd_reconstruct(args, parser) -> int:
    try:
        cal = load_calibration("calibration", read_json(args.cal))
    except ValueError as exc:  # a JSON syntax error or a NaN or Infinity token included
        raise InvalidCalibration(f"{args.cal}: {exc}") from exc
    (x, y, z), (fu, fv), angle = reconstruct_from_height(cal, (args.x, args.y), args.height)
    result = {
        "ball_3d": [x, y, z],
        "ground_projection": [x, y, 0.0],
        "foot_pixel": [fu, fv],
        "vertical_angle": angle,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args, parser) -> int:
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--grid must be a comma-separated number list, got {args.grid!r}")
    if not grid:
        parser.error("--grid must contain at least one noise level")
    if not all(map(math.isfinite, grid)):
        parser.error(f"--grid levels must be finite, got {args.grid!r}")
    reports, failed = run_sweep(_load_samples(args), grid)
    rows = [
        {"level_px": level, **_report_row(report, n_failed)}
        for level, report, n_failed in zip(grid, reports, failed)
    ]
    for row in rows:  # the medians would change the sweep report's contract
        del row["mdnape_m"], row["mdna3de_m"]
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


def _add_synth_args(sub) -> None:
    from .synth import HeightDistSpec

    sub.add_argument("--n", type=int, required=True, help="number of samples")
    sub.add_argument("--arenas", type=int, default=10, help="number of cameras")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output dataset file")
    sub.add_argument(
        "--dist",
        choices=["deepsport_like", "ballistic_like", "uniform"],
        default="deepsport_like",
        help="ball height distribution",
    )
    sub.add_argument("--p-above-3m", type=float, default=None)
    sub.add_argument("--max-height", type=float, default=HeightDistSpec.max_height)
    sub.add_argument("--n-folds", type=int, default=5, help="arena folds to assign")
    sub.add_argument("--arena-json", default=None, help="ArenaSpec overrides (JSON file)")


def _add_evaluate_args(sub) -> None:
    _add_input_args(sub)
    sub.add_argument("--fold", default=None, help="restrict to this test fold")
    _add_predictor_args(sub)
    sub.add_argument("--method", choices=["height", "diameter"], default="height")
    sub.add_argument(
        "--ball-diameter",
        type=float,
        default=BALL_DIAMETER_M,
        help="ball size (m) the diameter reconstruction assumes",
    )
    sub.add_argument("--repeats", type=int, default=1, help="seeded repetitions")
    sub.add_argument("--seed", type=int, default=0, help="base predictor seed")
    sub.add_argument("--out", required=True, help="report path prefix (.json/.csv)")
    sub.add_argument("--threads", type=int, default=None, help=THREADS_HELP)


def _add_reconstruct_args(sub) -> None:
    sub.add_argument("--cal", required=True, help="calibration JSON file")
    sub.add_argument("--x", type=float, required=True, help="ball pixel x (raw image)")
    sub.add_argument("--y", type=float, required=True, help="ball pixel y (raw image)")
    sub.add_argument(
        "--height", "--h", dest="height", type=float, required=True, help="pixel height"
    )


def _add_sweep_args(sub) -> None:
    _add_input_args(sub)
    sub.add_argument(
        "--grid", required=True, help="comma-separated height offsets in px, e.g. 0,5,10"
    )
    sub.add_argument("--out", required=True, help="report path prefix (.json/.csv)")
    sub.add_argument("--threads", type=int, default=None, help=THREADS_HELP)


# Each subcommand: its help line, the function adding its arguments, and its runner.
_COMMANDS = {
    "synth": ("generate an annotated synthetic dataset", _add_synth_args, cmd_synth),
    "evaluate": ("run predict/reconstruct/evaluate repeats", _add_evaluate_args, cmd_evaluate),
    "reconstruct": ("lift one pixel + height to 3D", _add_reconstruct_args, cmd_reconstruct),
    "sweep": (
        "MAPE/MA3DE vs height-error level (constant px offsets)",
        _add_sweep_args,
        cmd_sweep,
    ),
}


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops OSError here: a closed stdout's must reach `entrypoint`.
        if file is not sys.stdout:
            return super()._print_message(message, file)
        file.write(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand. Only `command`'s subparser gets its
    arguments, or every one when `command` names none (for ``--help``), so
    a run builds the arguments of the one command it parses."""
    parser = _Parser(
        prog="courtlift",
        description="Monocular 3D ball localization: synthetic datasets, "
        "reconstruction, and evaluation reports.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args, func) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_line)
        if command == name or command not in _COMMANDS:
            add_args(sub)
        sub.set_defaults(func=func, parser=sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        # Each command's usage errors print its own subparser's usage.
        return args.func(args, args.parser)
    except BrokenPipeError:
        raise  # the reader left: `entrypoint` ends quietly
    except (CourtliftError, OSError, MemoryError) as exc:
        # numpy's failed allocation is its private subclass of MemoryError.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    gc.freeze()
    gc.enable()
    try:
        try:
            status = main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point its descriptor at devnull so that
        # the interpreter's last flush cannot fail again (the note on
        # SIGPIPE in Python's `signal` docs), and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
