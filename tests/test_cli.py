"""CLI tests: subcommand contracts, exit codes, file determinism."""

import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import courtlift
from courtlift import calibration_to_json_dict, make_camera, project, read_dataset, WorldPoint
from courtlift.cli import _write_json, build_parser, main


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "synthetic.jsonl"
    rc = main(
        ["synth", "--n", "300", "--arenas", "6", "--seed", "21", "--out", str(path)]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def side_cal_file(tmp_path_factory):
    cal = make_camera(
        center=(0.0, -20.0, 1.5),
        look_at=(0.0, 0.0, 1.5),
        focal=2000.0,
        image_width=4500.0,
        image_height=1500.0,
    )
    path = tmp_path_factory.mktemp("cal") / "side.json"
    path.write_text(json.dumps(calibration_to_json_dict(cal)))
    return path, cal


class TestSynth:
    def test_writes_requested_record_count(self, dataset_file):
        lines = dataset_file.read_text().splitlines()
        assert len(lines) == 301  # header + samples
        header = json.loads(lines[0])
        assert header["schema_version"] == 2
        assert [camera["arena"] for camera in header["cameras"]] == list(range(6))
        assert all(len(json.loads(line)) == 11 for line in lines[1:])
        assert sum(len(v) for v in header["folds"].values()) == 6

    def test_same_flags_give_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert (
                main(["synth", "--n", "40", "--arenas", "3", "--seed", "8", "--out", str(out)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "0", "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2

    def test_height_law_flags_bound_every_height(self, tmp_path):
        out = tmp_path / "high.jsonl"
        argv = ["synth", "--n", "60", "--arenas", "3", "--seed", "2", "--out", str(out)]
        assert main([*argv, "--p-above-3m", "1", "--max-height", "4"]) == 0
        heights = [s.ball_3d.z for s in read_dataset(out).samples]
        assert len(heights) == 60
        assert all(3.0 <= z <= 4.0 for z in heights)

    def test_arena_json_overrides_reach_the_cameras(self, tmp_path):
        spec = tmp_path / "arena.json"
        spec.write_text(json.dumps({"image_width": 3000, "focal_range": [1800, 1800]}))
        out = tmp_path / "arena.jsonl"
        argv = ["synth", "--n", "30", "--arenas", "3", "--seed", "5", "--out", str(out)]
        assert main([*argv, "--arena-json", str(spec)]) == 0
        cals = [s.cal for s in read_dataset(out).samples]
        assert {c.image_width for c in cals} == {3000.0}
        assert {(c.fx, c.fy) for c in cals} == {(1800.0, 1800.0)}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"focal_rnage": [100, 200]}, "unknown arena spec keys ['focal_rnage']"),
            ({"focal_range": [100]}, "arena spec focal_range"),
            ([1, 2], "arena spec must be a JSON object"),
        ],
    )
    def test_bad_arena_json_is_usage_error(self, tmp_path, capsys, spec, message):
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "5", "--arena-json", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "synth --n 5 --out {out} --seed -1",
        "synth --n 5 --out {out} --seed 18446744073709551616",
        "synth --n 5 --out {out} --p-above-3m 2",
        "synth --n 5 --out {out} --max-height 2",
        "evaluate --dataset {dataset} --out {out} --seed -1",
        "evaluate --dataset {dataset} --out {out} --seed 18446744073709551615 --repeats 2",
        "evaluate --dataset {dataset} --out {out} --nu 0.5",
        "evaluate --dataset {dataset} --out {out} --sigma -1",
        "evaluate --dataset {dataset} --out {out} --target-mae 0",
    ],
)
def test_bad_flag_values_are_usage_errors(argv, dataset_file, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv.format(dataset=dataset_file, out=out).split())
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        "evaluate --dataset {missing} --out {out}",
        "sweep --dataset {missing} --grid 0 --out {out}",
        "synth --n 5 --arena-json {missing} --out {out}",
        "reconstruct --cal {missing} --x 1 --y 1 --height 1",
    ],
)
def test_missing_input_file_is_an_error_line(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "nope.json"
    assert main(argv.format(missing=missing, out="out").split()) == 1
    err = capsys.readouterr().err
    assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: '{missing}'\n"
    assert list(tmp_path.iterdir()) == []


class TestEvaluate:
    def test_oracle_metrics_are_exact(self, dataset_file, tmp_path):
        out = tmp_path / "oracle"
        rc = main(
            [
                "evaluate",
                "--dataset",
                str(dataset_file),
                "--predictor",
                "oracle",
                "--out",
                str(out),
                "--threads",
                "2",
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        for name in ("mae_px", "mape_m", "mdnape_m", "ma3de_m", "mdna3de_m"):
            assert payload["aggregate"]["mean"][name] < 1e-6
        assert payload["repeats"][0]["n_failed"] == 0

    def test_diameter_method_reports_no_height_mae(self, dataset_file, tmp_path):
        out = tmp_path / "diam"
        rc = main(
            [
                "evaluate",
                "--dataset",
                str(dataset_file),
                "--method",
                "diameter",
                "--predictor",
                "gaussian",
                "--sigma",
                "0.05",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "diam.json").read_text())
        assert payload["aggregate"]["mean"]["mae_px"] is None
        assert payload["aggregate"]["mean"]["mape_m"] > 0

    def test_fold_restriction_shrinks_sample_count(self, dataset_file, tmp_path):
        out_all = tmp_path / "all"
        out_fold = tmp_path / "fold"
        main(["evaluate", "--dataset", str(dataset_file), "--out", str(out_all)])
        rc = main(
            ["evaluate", "--dataset", str(dataset_file), "--fold", "A", "--out", str(out_fold)]
        )
        assert rc == 0
        n_all = json.loads((tmp_path / "all.json").read_text())["repeats"][0]["n_samples"]
        n_fold = json.loads((tmp_path / "fold.json").read_text())["repeats"][0]["n_samples"]
        assert 0 < n_fold < n_all

    def test_unknown_fold_is_runtime_error(self, dataset_file, tmp_path, capsys):
        rc = main(
            ["evaluate", "--dataset", str(dataset_file), "--fold", "Z", "--out", str(tmp_path / "x")]
        )
        assert rc == 1
        assert "UnknownFold" in capsys.readouterr().err

    def test_empty_fold_is_empty_input(self, dataset_file, tmp_path, capsys):
        header, *lines = dataset_file.read_text().splitlines()
        folds = json.loads(header)
        folds["folds"]["Z"] = [99]
        path = tmp_path / "empty_fold.jsonl"
        path.write_text("\n".join([json.dumps(folds), *lines]) + "\n")
        out = tmp_path / "x"
        rc = main(["evaluate", "--dataset", str(path), "--fold", "Z", "--out", str(out)])
        assert rc == 1
        assert "error: EmptyInput: no samples in fold 'Z'" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_header_only_dataset_is_empty_input(self, dataset_file, tmp_path, capsys):
        path = tmp_path / "header_only.jsonl"
        path.write_text(dataset_file.read_text().splitlines()[0] + "\n")
        for command in (["evaluate"], ["sweep", "--grid", "0,10"]):
            rc = main([*command, "--dataset", str(path), "--out", str(tmp_path / "x")])
            assert rc == 1
            assert "error: EmptyInput: no samples in" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_assumed_ball_size_differs_from_the_dataset(self, dataset_file, tmp_path):
        # The oracle returns the stored diameters of 0.24 m balls; assuming
        # 0.30 m puts every ball 25 % too far from its camera.
        out = tmp_path / "wrong_size"
        rc = main(
            [
                "evaluate",
                "--dataset",
                str(dataset_file),
                "--method",
                "diameter",
                "--predictor",
                "oracle",
                "--ball-diameter",
                "0.30",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "wrong_size.json").read_text())
        assert payload["aggregate"]["mean"]["mape_m"] > 1.0

    def test_thread_count_does_not_change_output(self, dataset_file, tmp_path):
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}"
            rc = main(
                [
                    "evaluate",
                    "--dataset",
                    str(dataset_file),
                    "--predictor",
                    "gaussian",
                    "--target-mae",
                    "34",
                    "--repeats",
                    "2",
                    "--out",
                    str(out),
                    "--threads",
                    threads,
                ]
            )
            assert rc == 0
            outs.append((out.with_suffix(".json").read_bytes(), out.with_suffix(".csv").read_bytes()))
        assert outs[0] == outs[1]


class TestReconstruct:
    def test_ground_pixel_has_zero_height_solution(self, side_cal_file, capsys):
        path, cal = side_cal_file
        ground = WorldPoint(1.0, 2.0, 0.0)
        px = project(cal, ground)
        rc = main(
            [
                "reconstruct",
                "--cal",
                str(path),
                "--x",
                str(px.x),
                "--y",
                str(px.y),
                "--height",
                "0",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["ball_3d"], [1.0, 2.0, 0.0], atol=1e-9)
        assert out["ground_projection"][2] == 0.0

    def test_horizon_pixel_exits_nonzero_with_named_error(self, side_cal_file, capsys):
        path, cal = side_cal_file
        rc = main(
            ["reconstruct", "--cal", str(path), "--x", "2250", "--y", str(cal.cy), "--height", "10"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "RayParallelToPlane" in err

    @pytest.mark.parametrize(
        "edit, violation",
        [
            ({"fx": -2000.0}, "FocalNonPositive"),
            ({"cx": float("nan")}, "NonFinite"),
            # A string is the whole file.
            ("{not json", "Expecting property name"),
            ("[1, 2]", "unreadable: TypeError"),
            ('{"fx": 1}', "unreadable: KeyError('dist')"),
        ],
    )
    def test_invalid_calibration_exits_1_with_typed_error(
        self, side_cal_file, tmp_path, capsys, edit, violation
    ):
        path, _ = side_cal_file
        bad = tmp_path / "bad.json"
        if isinstance(edit, str):
            bad.write_text(edit)
        else:
            bad.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        rc = main(["reconstruct", "--cal", str(bad), "--x", "2250", "--y", "900", "--height", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidCalibration: {bad}: ") and violation in err


def test_reports_refuse_non_finite_numbers(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        _write_json(str(path), {"mape_m": float("nan")})
    assert not path.exists()  # no partial report is left behind


class TestSweep:
    def test_monotone_grid(self, dataset_file, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--dataset",
                str(dataset_file),
                "--grid",
                "0,10,20,40",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        with open(tmp_path / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        mape = [float(r["mape_m"]) for r in rows]
        assert mape[0] < 1e-6  # zero offset reconstructs exactly
        assert mape == sorted(mape)
        assert mape[-1] > mape[0]
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert [lv["level_px"] for lv in payload["levels"]] == [0.0, 10.0, 20.0, 40.0]

    def test_empty_grid_is_usage_error(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["sweep", "--dataset", str(dataset_file), "--grid", ",", "--out", str(tmp_path / "s")]
            )
        assert exc.value.code == 2

    def test_missing_input_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", "0,1", "--out", str(tmp_path / "s")])
        assert exc.value.code == 2


def test_evaluate_and_sweep_do_not_import_numpy_ma(dataset_file, tmp_path):
    # The first np.median call in a process imports numpy.ma, about 15 ms.
    # numpy 1.x imports numpy.ma with numpy itself; there is nothing to save.
    commands = [
        ["evaluate", "--dataset", str(dataset_file), "--out", str(tmp_path / "e")],
        ["sweep", "--dataset", str(dataset_file), "--grid", "0,10", "--out", str(tmp_path / "s")],
    ]
    code = (
        "import sys\n"
        "from courtlift.cli import main\n"
        "before = 'numpy.ma' in sys.modules\n"
        f"assert all(main(argv) == 0 for argv in {commands!r})\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(courtlift.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    before, after = result.stdout.splitlines()[-1].split()
    if before == "True":
        pytest.skip("numpy.ma is loaded with numpy itself (numpy < 2)")
    assert after == "False"


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [
        line
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("courtlift ")
    ]
    assert len(commands) >= 5
    parser = build_parser()
    for line in commands:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]
