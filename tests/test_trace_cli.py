"""What perfbench/trace_cli.py sees of the CLI: every layer it wraps exists,
and `evaluate` and `sweep` build the ball rays once, then lift and score
each pass once.

The tracer rebinds module-level names of courtlift after import and counts
a call's rows from its positional arguments, so a renamed layer or a moved
argument shows here as an absent layer or a wrong count. Each command runs
through the tracer in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import courtlift

SRC = str(Path(courtlift.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"
N = 120


def _traced(argv, cwd):
    """The tracer's summary of one command, with its layers as
    {layer: (calls, rows)}."""
    subprocess.run(
        [sys.executable, str(TRACER), "summary.json", *argv],
        cwd=cwd,
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    summary = json.loads((cwd / "summary.json").read_text())
    layers = {k: (v["calls"], v["rows"]) for k, v in summary["layers"].items()}
    return summary["absent"], layers


@pytest.fixture(scope="module")
def traced_synth(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("trace")
    argv = ["synth", "--n", str(N), "--arenas", "4", "--seed", "3", "--out", "d.dat"]
    return cwd, *_traced(argv, cwd)


def test_synth_generates_and_writes_once(traced_synth):
    _, absent, layers = traced_synth
    assert absent == []
    assert layers["synth.generate_dataset"] == (1, N)
    assert layers["dataio.write_dataset"] == (1, N)
    assert "cli.sample_arrays" not in layers


@pytest.mark.parametrize(
    "argv, predict, lift, passes",
    [
        (
            "evaluate --predictor gaussian --target-mae 34 --repeats 3",
            "predictors.predict_heights",
            "reconstruct.height_batch",
            3,
        ),
        (
            "evaluate --method diameter --predictor heavy_tailed --target-mae 0.1",
            "predictors.predict_diameters",
            "reconstruct.diameter_batch",
            1,
        ),
        # At -400 px some feet pass the horizon: the metrics see fewer rows.
        ("sweep --grid=0,10,-400", None, "reconstruct.height_batch", 3),
    ],
    ids=["evaluate-height", "evaluate-diameter", "sweep"],
)
def test_each_pass_lifts_every_row_and_scores_the_rest(
    argv, predict, lift, passes, traced_synth
):
    cwd = traced_synth[0]
    absent, layers = _traced([*argv.split(), "--dataset", "d.dat", "--out", "r"], cwd)
    assert absent == []
    report = json.loads((cwd / "r.json").read_text())
    rows = report["repeats" if report["command"] == "evaluate" else "levels"]
    assert len(rows) == passes
    assert all(row["n_samples"] + row["n_failed"] == N for row in rows)
    scored = sum(row["n_samples"] for row in rows)
    expected = {
        "cli.main": (1, 0),
        "dataio.read_dataset": (1, N),
        "cli.sample_arrays": (1, N),
        lift: (passes, passes * N),
        "metrics.evaluate_arrays": (passes, scored),
    }
    if predict:  # up to 8 repeats in one call
        assert layers.pop(predict)[0] == 1
    assert layers == expected
