"""Golden gate for the CLI pipeline.

tests/data/golden_cli.json was captured with
tests/data/capture_cli_golden.py: `courtlift synth` at n = 300 over 3
arenas, `evaluate` on the height path (gaussian, MAE 34 px, 2 repeats)
and the diameter path (heavy-tailed, relative MAE 0.10), and `sweep`
over offsets 0, 10, 40, -400 and 3000 px, where the -400 px level sends
rows down the failure path; and two more `synth` runs at n = 1200 over
12 arenas with `--dist uniform` and `--dist ballistic_like`, which hold
balls above their cameras (169 and 180 of 1200), which synth keeps
because the height lift needs only the foot's ray to meet the floor.
They fit in one placement block; `test_synth.py::TestStreamContract`
pins that synth's output does not depend on the block size. Rerunning the recorded commands
must give the same dataset bytes (by sha256) and byte-identical reports,
both in-process through `courtlift.cli.main` and through the entry point
the `courtlift` script runs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import courtlift
from courtlift.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"]
    for entry in commands:
        assert main(entry["argv"]) == 0, entry["argv"]
        _assert_outputs_match(tmp_path, entry)


def test_entrypoint_replays_the_golden_pipeline(tmp_path, capsys, monkeypatch):
    # `python -m courtlift.cli` imports with the collector off and runs
    # cli.entrypoint, which freezes the import-time heap and switches the
    # collector back on before calling main. synth, evaluate on both
    # methods and sweep, the first four commands, must still write the
    # golden bytes and print what main prints in-process.
    src = str(Path(courtlift.__file__).resolve().parents[1])
    commands = json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"][:4]
    script_dir, main_dir = tmp_path / "script", tmp_path / "main"
    script_dir.mkdir()
    main_dir.mkdir()
    monkeypatch.chdir(main_dir)
    for entry in commands:
        result = subprocess.run(
            [sys.executable, "-m", "courtlift.cli", *entry["argv"]],
            cwd=script_dir,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert main(entry["argv"]) == 0
        assert (result.stdout, result.stderr) == capsys.readouterr(), entry["argv"]
        _assert_outputs_match(script_dir, entry)


def _assert_outputs_match(directory, entry):
    for name, expected in entry["outputs"].items():
        data = (directory / name).read_bytes()
        if "sha256" in expected:
            assert hashlib.sha256(data).hexdigest() == expected["sha256"], name
        else:
            assert data.decode("utf-8") == expected["text"], name
