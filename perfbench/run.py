#!/usr/bin/env python3
"""courtlift CLI benchmark: one workload, one seed.

Usage (from the repository root):
  python3 perfbench/run.py --workload evaluate-height --seed 1 --seconds 15 --trace 0

Each workload is one courtlift CLI command, run as its own process with
the flags a user would pass (``python3 -m courtlift.cli ...`` with the
package imported from ./src). The inputs come from --seed: the dataset
that `evaluate` and `sweep` read is written first by the `courtlift
synth` of the source tree under test, so a format change is measured on
its write side and its read side. The command then runs repeatedly for
--seconds seconds, and every run's outputs are checked.

Every workload uses 5000 samples over 12 arenas, the dataset of the
CLI example in the top-level README.

--trace 0 reports the end-to-end metrics, measured untraced:
  wall_rel       median over runs of the command's wall time (process
                 start to exit) over the wall time of perfbench/reference.py
                 run right after it; the ratio cancels host speed drift
  setup_s        median of interpreter start plus `import courtlift.cli`
  setup_rel      median of the same time over that of a process that only
                 imports numpy, run right after it
  peak_rss_mb    median of the child's peak resident set size (wait4)
The `info ` line before the result gives the plain figures: wall_s, the
median wall time of one command; samples_per_s, sample-passes (one
sample in one repeat or grid level; for synth, one sample written) per
second of wall_s; and failed_frac, failed runs over runs attempted,
which the result carries as its `failed` and `attempted` fields.

--trace 1 alternates untraced runs with runs of perfbench/trace_cli.py,
which calls courtlift.cli.main in-process with timing and counting
wrappers, and reports the per-layer metrics listed in BENCHMARK.json.
Count metrics must repeat exactly between the traced runs.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Before it come the `info ` line and the
environment block, prefixed `env `.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACE_SCRIPT = Path(__file__).resolve().parent / "trace_cli.py"
REFERENCE_SCRIPT = Path(__file__).resolve().parent / "reference.py"

SAMPLES = 5000
ARENAS = 12
SETUP_PAIRS = 11
MIN_TIMED_RUNS = 3
MIN_TRACED_RUNS = 2
CHILD_TIMEOUT_S = 60.0

# Within this share of the target MAE the gaussian predictor counts as calibrated.
MAE_TOLERANCE = 0.05
GAUSSIAN_TARGET_MAE = 34.0


class CheckFailed(Exception):
    """An output of the command under test is wrong."""


@dataclass(frozen=True)
class Workload:
    """One CLI command line; `{n}`, `{seed}`, `{dataset}`, `{out}` are filled per run."""

    passes: int
    argv: str
    threads: int | None
    check: Callable[["Workload", Path, Path], None]

    def command(self, seed: int, dataset: Path, out: Path) -> list[str]:
        fields = {"n": SAMPLES, "seed": seed, "dataset": dataset, "out": out}
        return [tok.format(**fields) for tok in self.argv.split()]

    @property
    def writes_dataset(self) -> bool:
        return self.argv.startswith("synth")

    def outputs(self, dataset: Path, out: Path) -> list[Path]:
        if self.writes_dataset:
            return [dataset]
        return [Path(f"{out}.json"), Path(f"{out}.csv")]


# ---------------------------------------------------------------------------
# Output checks. They test properties that hold for any correct program,
# not exact values, so a change that alters random draws still passes.


def _reject_constant(name: str):
    raise CheckFailed(f"report contains non-standard JSON constant {name}")


def _load_report(out: Path) -> dict:
    text = Path(f"{out}.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=_reject_constant)
    _require_finite(report, "report")
    return report


def _require_finite(value, where: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise CheckFailed(f"{where} is not finite: {value}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _require_rows(entries: list[dict], n: int, what: str) -> None:
    for i, entry in enumerate(entries):
        rows = entry["n_samples"] + entry["n_failed"]
        _require(rows == n, f"{what} {i}: {rows} rows accounted for, expected {n}")


def check_synth(wl: Workload, dataset: Path, out: Path) -> None:
    import courtlift  # from SRC, which main() puts first on sys.path

    ds = courtlift.read_dataset(str(dataset))
    ids = sorted(s.sample_id for s in ds.samples)
    _require(ids == list(range(SAMPLES)), f"dataset has {len(ids)} ids, expected 0..{SAMPLES - 1}")
    arenas = {s.arena_id for s in ds.samples}
    _require(arenas == set(range(ARENAS)), f"dataset arenas {sorted(arenas)}")
    folded = [a for ids in ds.folds.values() for a in ids]
    _require(len(folded) == len(set(folded)), "an arena is in more than one fold")
    _require(set(folded) == arenas, "folds do not partition the arenas")


def check_evaluate_height(wl: Workload, dataset: Path, out: Path) -> None:
    report = _load_report(out)
    _require(len(report["repeats"]) == wl.passes, "wrong number of repeats")
    _require_rows(report["repeats"], SAMPLES, "repeat")
    mae = report["aggregate"]["mean"]["mae_px"]
    _require(
        abs(mae - GAUSSIAN_TARGET_MAE) <= MAE_TOLERANCE * GAUSSIAN_TARGET_MAE,
        f"gaussian mae_px {mae} is not within {MAE_TOLERANCE:.0%} of {GAUSSIAN_TARGET_MAE}",
    )


def check_sweep(wl: Workload, dataset: Path, out: Path) -> None:
    report = _load_report(out)
    levels = report["levels"]
    _require(len(levels) == wl.passes, "wrong number of grid levels")
    _require_rows(levels, SAMPLES, "level")
    exact = levels[0]
    _require(exact["level_px"] == 0.0 and exact["n_failed"] == 0, "level 0 lost rows")
    _require(exact["ma3de_m"] < 1e-6, f"level 0 ma3de_m {exact['ma3de_m']} >= 1e-6")


def check_evaluate_diameter(wl: Workload, dataset: Path, out: Path) -> None:
    report = _load_report(out)
    _require(len(report["repeats"]) == wl.passes, "wrong number of repeats")
    _require_rows(report["repeats"], SAMPLES, "repeat")
    _require(report["aggregate"]["mean"]["ma3de_m"] is not None, "no ma3de_m")


WORKLOADS = {
    "synth": Workload(
        passes=1,
        argv=f"synth --n {{n}} --arenas {ARENAS} --seed {{seed}} --out {{dataset}}",
        threads=None,
        check=check_synth,
    ),
    "evaluate-height": Workload(
        passes=8,
        argv="evaluate --dataset {dataset} --predictor gaussian --target-mae 34 --repeats 8"
        " --threads 1 --seed {seed} --out {out}",
        threads=1,
        check=check_evaluate_height,
    ),
    "sweep-stress": Workload(
        passes=5,
        argv="sweep --dataset {dataset} --grid=0,10,40,-400,3000 --threads 1 --out {out}",
        threads=1,
        check=check_sweep,
    ),
    "evaluate-diameter": Workload(
        passes=1,
        argv="evaluate --dataset {dataset} --method diameter --predictor heavy_tailed"
        " --target-mae 0.10 --seed {seed} --out {out}",
        threads=os.cpu_count() or 1,
        check=check_evaluate_diameter,
    ),
}


# ---------------------------------------------------------------------------
# Child processes.


@dataclass
class Run:
    wall_s: float
    rss_mb: float  # MiB
    code: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The CLI's default thread count is nproc unless this overrides it.
    env.pop("COURTLIFT_THREADS", None)
    return env


def spawn(cmd: list[str], env: dict[str, str], log: Path) -> Run:
    """Run cmd to completion; wall time from spawn to reap, peak RSS from wait4."""
    with open(log, "wb") as sink:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "courtlift.cli", *argv]


def environment(env: dict[str, str], wl: Workload) -> dict:
    probe = (
        "import json, platform, numpy, courtlift;"
        "print(json.dumps({'courtlift_file': courtlift.__file__,"
        " 'numba_enabled': getattr(courtlift, 'NUMBA_ENABLED', None),"
        " 'numpy': numpy.__version__, 'python': platform.python_version()}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise SystemExit(f"error: cannot import courtlift from {SRC}:\n{out.stderr}")
    info = json.loads(out.stdout)
    if not Path(info.pop("courtlift_file")).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: courtlift was not imported from {SRC}")
    numba = info["numba_enabled"]
    return {
        **info,
        "numba_path": "measured" if numba else "unmeasured: numba absent, pure-Python kernels timed",
        "nproc": os.cpu_count(),
        "threads": wl.threads,
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    return out.stdout.strip() or None


def tree_digest(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def file_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# One benchmark invocation.


@dataclass
class Bench:
    wl: Workload
    seed: int
    env: dict[str, str]
    tmp: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    info: dict[str, float] = field(default_factory=dict)
    first_digest: str | None = None

    @property
    def dataset(self) -> Path:
        return self.tmp / "dataset.jsonl"

    @property
    def out(self) -> Path:
        return self.tmp / "report"

    def command(self) -> list[str]:
        return self.wl.command(self.seed, self.dataset, self.out)

    def build_inputs(self) -> None:
        if self.wl.writes_dataset:
            return
        synth = WORKLOADS["synth"]
        argv = synth.command(self.seed, self.dataset, self.out)
        run = spawn(cli_command(argv), self.env, self.tmp / "build.log")
        if run.code != 0:
            raise SystemExit(f"error: building the input dataset failed:\n{self.log('build')}")
        check_synth(synth, self.dataset, self.out)

    def log(self, name: str) -> str:
        return (self.tmp / f"{name}.log").read_text(encoding="utf-8", errors="replace")[-2000:]

    def measure(self, cmd: list[str]) -> tuple[Run, bool]:
        """One checked run and whether it passed; the first run's outputs
        are checked in full, later runs must reproduce them byte for byte."""
        outputs = self.wl.outputs(self.dataset, self.out)
        for path in outputs:
            path.unlink(missing_ok=True)
        run = spawn(cmd, self.env, self.tmp / "cmd.log")
        self.attempted += 1
        try:
            if run.code != 0:
                raise CheckFailed(f"exit code {run.code}: {self.log('cmd')}")
            digest = file_digest(outputs)
            if self.first_digest is None:
                self.wl.check(self.wl, self.dataset, self.out)
                self.first_digest = digest
            elif digest != self.first_digest:
                raise CheckFailed("outputs differ from the first run's")
        except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return run, False
        return run, True

    def yardstick(self, cmd: list[str]) -> float:
        """Wall time of a fixed program that must succeed."""
        run = spawn(cmd, self.env, self.tmp / "yardstick.log")
        if run.code != 0:
            raise SystemExit(f"error: {' '.join(cmd)} failed:\n{self.log('yardstick')}")
        return run.wall_s

    def setup(self) -> tuple[float, float]:
        """Median import time of courtlift.cli, and its median ratio to an
        import of numpy alone run right after it."""
        walls, ratios = [], []
        for _ in range(SETUP_PAIRS):
            walls.append(self.yardstick([sys.executable, "-c", "import courtlift.cli"]))
            ratios.append(walls[-1] / self.yardstick([sys.executable, "-c", "import numpy"]))
        return statistics.median(walls), statistics.median(ratios)

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        cmd = cli_command(self.command())
        reference = [sys.executable, str(REFERENCE_SCRIPT)]
        setup_s, setup_rel = self.setup()
        runs, ratios = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or len(runs) < MIN_TIMED_RUNS:
            runs.append(self.measure(cmd)[0])
            ratios.append(runs[-1].wall_s / self.yardstick(reference))
        wall = statistics.median(r.wall_s for r in runs)
        self.info = {"wall_s": wall, "samples_per_s": SAMPLES * self.wl.passes / wall}
        return {
            "wall_rel": (statistics.median(ratios), "x"),
            "setup_s": (setup_s, "s"),
            "setup_rel": (setup_rel, "x"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MiB"),
        }

    def per_layer(self, seconds: float) -> dict[str, tuple[float, str]]:
        argv = self.command()
        plain = cli_command(argv)
        untraced, traced = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or len(untraced) < MIN_TRACED_RUNS:
            untraced.append(self.measure(plain)[0].wall_s)
            summary = self.tmp / "summary.json"
            summary.unlink(missing_ok=True)
            run, ok = self.measure([sys.executable, str(TRACE_SCRIPT), str(summary), *argv])
            if ok:
                spans = json.loads(summary.read_text(encoding="utf-8"))
                self.absent.update(spans["absent"])
                traced.append((run.wall_s, layer_metrics(spans, self.wl, self.dataset, self.out)))
        if not traced:
            return {}
        metrics: dict[str, tuple[float, str]] = {}
        for name, (_, unit) in traced[0][1].items():
            values = [layers[name][0] for _, layers in traced]
            if unit != "count":
                metrics[name] = (statistics.median(values), unit)
                continue
            if len(set(values)) != 1:
                self.problems.append(f"count metric {name} differs between traced runs: {values}")
            metrics[name] = (values[0], unit)
        overhead = statistics.median(w for w, _ in traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics


TIMED_LAYERS = (
    "synth.generate_dataset",
    "dataio.write_dataset",
    "dataio.read_dataset",
    "predictors.predict_heights",
    "predictors.predict_diameters",
    "reconstruct.height_batch",
    "reconstruct.diameter_batch",
    "metrics.evaluate_arrays",
    "cli.sample_arrays",
)


def layer_metrics(summary: dict, wl: Workload, dataset: Path, out: Path) -> dict:
    """Per-layer metrics of one traced run. A layer that does no work on
    this workload reads 0; a layer whose entry point no longer exists is
    left out and named in the trace summary's `absent` list."""
    layers = summary["layers"]
    absent = set(summary["absent"])

    def stat(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        if layer not in absent:
            us = ratio(stat(layer, "seconds"), stat(layer, "rows"), 1e6)
            metrics[f"{layer}.us_per_sample"] = (us, "us")
    if "synth.sample_ball" not in absent:
        attempts = ratio(stat("synth.sample_ball", "calls"), stat("synth.generate_dataset", "rows"))
        metrics["synth.sample_ball.attempts_per_sample"] = (attempts, "count")
    if "rng.stream" not in absent:
        calls = stat("rng.stream", "calls")
        metrics["rng.stream.calls"] = (calls, "count")
        metrics["rng.stream.us_per_call"] = (ratio(stat("rng.stream", "seconds"), calls, 1e6), "us")
    metrics["dataio.bytes_per_sample"] = (dataset.stat().st_size / SAMPLES, "count")
    metrics["reconstruct.failed_rows_frac"] = (failed_rows_frac(wl, out), "count")
    metrics["cli.self_s"] = (summary["self_s"], "s")
    return metrics


def failed_rows_frac(wl: Workload, out: Path) -> float:
    """Rows the reconstruct kernel failed on, over rows attempted, from the report."""
    if wl.writes_dataset:
        return 0.0
    report = _load_report(out)
    entries = report.get("levels") or report["repeats"]
    failed = sum(e["n_failed"] for e in entries)
    return failed / sum(e["n_failed"] + e["n_samples"] for e in entries)


def print_metrics(workload: str, metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:<18} {name:<46} {value:>16.6f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="courtlift CLI benchmark (one workload).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "courtlift" / "cli.py").is_file():
        print(f"error: no courtlift source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = WORKLOADS[args.workload]
        bench = Bench(wl, args.seed, child_env(), tmp)
        env_block = environment(bench.env, wl)
        bench.build_inputs()
        if args.trace:
            metrics = bench.per_layer(args.seconds)
        else:
            metrics = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print_metrics(args.workload, metrics)
    bench.info["failed_frac"] = bench.failed / bench.attempted
    # Layers whose entry point no longer exists; their metrics are left out.
    print("absent " + json.dumps(sorted(bench.absent)))
    print("info " + json.dumps(bench.info))
    print("env " + json.dumps(env_block, sort_keys=True))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
