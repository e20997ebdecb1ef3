"""Golden gate for the CLI pipeline.

tests/data/golden_cli.json was captured with
tests/data/capture_cli_golden.py: `courtlift synth` at n = 300 over 3
arenas, `evaluate` on the height path (gaussian, MAE 34 px, 2 repeats)
and the diameter path (heavy-tailed, relative MAE 0.10), and `sweep`
over offsets 0, 10, 40, -400 and 3000 px, where the -400 px level sends
rows down the failure path; and two more `synth` runs at n = 1200 over
12 arenas with `--dist uniform` and `--dist ballistic_like`, which span
more than one 500-row placement block. Rerunning the recorded commands
must give the same dataset bytes (by sha256) and byte-identical reports.
"""

import hashlib
import json
from pathlib import Path

from courtlift.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"]
    for entry in commands:
        assert main(entry["argv"]) == 0, entry["argv"]
        for name, expected in entry["outputs"].items():
            data = (tmp_path / name).read_bytes()
            if "sha256" in expected:
                assert hashlib.sha256(data).hexdigest() == expected["sha256"], name
            else:
                assert data.decode("utf-8") == expected["text"], name
