"""Capture the CLI golden file that tests/test_cli_golden.py checks.

Usage, from the repository root:

    PYTHONPATH=src python tests/data/capture_cli_golden.py tests/data/golden_cli.json

The script runs the synth -> evaluate -> sweep pipeline at n = 300 over
3 arenas with ``courtlift.cli.main`` inside a temporary directory, using
relative file names so the reports do not depend on where they are
written:

- ``synth``; its dataset file is recorded by sha256;
- ``evaluate`` with the gaussian predictor at MAE 34 px, 2 repeats;
- ``evaluate --method diameter`` with the heavy-tailed predictor at a
  relative MAE of 0.10;
- ``sweep`` over height offsets 0, 10, 40, -400 and 3000 px; at -400 px
  some rows of this dataset fail to reconstruct, so the failure count
  is pinned too;
- two more ``synth`` runs at n = 1200 over 12 arenas, seed 2, with
  ``--dist uniform`` and ``--dist ballistic_like``; 1200 samples span
  more than one placement block of 500 rows, the block size these
  datasets were first captured with, so the pins show that the bytes
  do not depend on how placement is blocked.

The JSON and CSV reports of the last three are stored as text. The
golden file holds each command's argv next to its outputs, so the test
replays exactly what was captured.
"""

import hashlib
import json
import os
import sys
import tempfile

from courtlift.cli import main as cli_main

DATASET = "data.jsonl"

COMMANDS = (
    ["synth", "--n", "300", "--arenas", "3", "--seed", "1", "--out", DATASET],
    [
        "evaluate", "--dataset", DATASET, "--predictor", "gaussian",
        "--target-mae", "34", "--repeats", "2", "--seed", "3", "--out", "height",
    ],
    [
        "evaluate", "--dataset", DATASET, "--method", "diameter",
        "--predictor", "heavy_tailed", "--target-mae", "0.10", "--seed", "3",
        "--out", "diameter",
    ],
    ["sweep", "--dataset", DATASET, "--grid=0,10,40,-400,3000", "--out", "sweep"],
    [
        "synth", "--n", "1200", "--arenas", "12", "--seed", "2", "--dist", "uniform",
        "--out", "uniform.jsonl",
    ],
    [
        "synth", "--n", "1200", "--arenas", "12", "--seed", "2",
        "--dist", "ballistic_like", "--out", "ballistic.jsonl",
    ],
)


def record_outputs(argv: list[str]) -> dict[str, dict[str, str]]:
    """Outputs of one command already run in the current directory."""
    out = argv[argv.index("--out") + 1]
    outputs = {}
    for name in [out] if argv[0] == "synth" else [out + ".json", out + ".csv"]:
        with open(name, "rb") as f:
            data = f.read()
        if argv[0] == "synth":
            outputs[name] = {"sha256": hashlib.sha256(data).hexdigest()}
        else:
            outputs[name] = {"text": data.decode("utf-8")}
    return outputs


def capture() -> list[dict]:
    entries = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                code = cli_main(list(argv))
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}")
                entries.append({"argv": list(argv), "outputs": record_outputs(argv)})
        finally:
            os.chdir(cwd)
    return entries


def main(path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"commands": capture()}, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
