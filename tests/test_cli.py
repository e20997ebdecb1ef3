"""CLI tests: subcommand contracts, exit codes, file determinism."""

import csv
import gc
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import courtlift
from courtlift import (
    Dataset,
    generate_dataset,
    project,
    read_dataset,
    reconstruct_from_height,
    write_dataset,
)
from courtlift import cli
from courtlift.cli import _write_json, build_parser, main
from courtlift.dataio import RECORD_DTYPE, calibration_to_json_dict, load_calibration
from courtlift.errors import NonFiniteReport
from courtlift.metrics import METRIC_NAMES
from courtlift.predictors import PredictorSpec
from courtlift.synth import make_camera

SRC = str(Path(courtlift.__file__).resolve().parents[1])
# The most records a table can hold: more would pass sys.maxsize bytes.
MOST_SAMPLES = sys.maxsize // RECORD_DTYPE.itemsize


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "synthetic.dat"
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
        line, body = dataset_file.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        assert header["schema_version"] == 3 and header["n_samples"] == 300
        assert [camera["arena"] for camera in header["cameras"]] == list(range(6))
        assert len(body) == 300 * 88
        assert sorted(np.frombuffer(body, RECORD_DTYPE)["ids"].tolist()) == list(range(300))
        assert sum(len(v) for v in header["folds"].values()) == 6

    def test_same_flags_give_identical_files(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        for out in (a, b):
            assert (
                main(["synth", "--n", "40", "--arenas", "3", "--seed", "8", "--out", str(out)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n_folds, note", [(7, True), (3, False), (2, False)])
    def test_fewer_folds_than_asked_are_reported(self, n_folds, note, tmp_path, capsys):
        out = tmp_path / "f.dat"
        argv = ["synth", "--n", "20", "--arenas", "3", "--n-folds", str(n_folds)]
        assert main([*argv, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        written = sorted(read_dataset(out).folds)
        assert written == ["A", "B", "C"][: min(n_folds, 3)]
        assert ("wrote 3 folds, not 7: a fold needs an arena of its own" in lines) == note
        assert len(lines) == 2 + note

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "0", "--out", str(tmp_path / "x.dat")])
        assert exc.value.code == 2

    def test_height_law_flags_bound_every_height(self, tmp_path):
        out = tmp_path / "high.dat"
        argv = ["synth", "--n", "60", "--arenas", "3", "--seed", "2", "--out", str(out)]
        assert main([*argv, "--p-above-3m", "1", "--max-height", "4"]) == 0
        heights = read_dataset(out).samples.ball_3d[:, 2].tolist()
        assert len(heights) == 60
        assert all(3.0 <= z <= 4.0 for z in heights)

    def test_arena_json_overrides_reach_the_cameras(self, tmp_path):
        spec = tmp_path / "arena.json"
        spec.write_text(json.dumps({"image_width": 3000, "focal_range": [1800, 1800]}))
        out = tmp_path / "arena.dat"
        argv = ["synth", "--n", "30", "--arenas", "3", "--seed", "5", "--out", str(out)]
        assert main([*argv, "--arena-json", str(spec)]) == 0
        samples = read_dataset(out).samples
        cals = [samples.cameras[a] for a in samples.arena.tolist()]
        assert {c.image_width for c in cals} == {3000.0}
        assert {(c.fx, c.fy) for c in cals} == {(1800.0, 1800.0)}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"focal_rnage": [100, 200]}, "unknown arena spec keys ['focal_rnage']"),
            ({"focal_range": [100]}, "arena spec focal_range"),
            ([1, 2], "arena spec must be a JSON object"),
            # json.dumps writes NaN and Infinity tokens, which the decoder refuses.
            ({"court_half_length": float("nan")}, "non-finite number NaN"),
            ({"focal_range": [1500, float("inf")]}, "non-finite number Infinity"),
            ({"ball_diameter_m": float("inf")}, "non-finite number Infinity"),
            ({"focal_range": "12"}, "focal_range must be an array of 2 numbers, got '12'"),
            ({"ball_diameter_m": True}, "ball_diameter_m must be a number, got True"),
            ({"image_width": "4500"}, "image_width must be a number, got '4500'"),
            ({"image_width": 10**400}, "arena spec image_width: int too large"),
            # A literal past float range reads as inf: ArenaSpec's finite check.
            ('{"court_half_length": -1e999}', "court_half_length must be finite"),
            ('{"focal_range": [1500, 1e999]}', "focal_range must be finite"),
            ('{"ball_diameter_m": 1e999}', "ball_diameter_m must be finite"),
        ],
    )
    def test_bad_arena_json_is_usage_error(self, tmp_path, capsys, spec, message):
        path = tmp_path / "arena.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        out = tmp_path / "x.dat"
        with pytest.raises(SystemExit) as exc:
            main(
                ["synth", "--n", "5", "--arenas", "1", "--arena-json", str(path), "--out", str(out)]
            )
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "synth --n 5 --arenas 1 --out {out} --seed -1",
        "synth --n 5 --arenas 1 --out {out} --seed 18446744073709551616",
        "synth --n 5 --arenas 1 --out {out} --p-above-3m 2",
        "synth --n 5 --arenas 1 --out {out} --dist uniform --p-above-3m 0.5",
        "synth --n 5 --arenas 1 --out {out} --max-height 2",
        "synth --n 5 --arenas 1 --out {out} --max-height inf",
        "evaluate --dataset {dataset} --out {out} --seed -1",
        "evaluate --dataset {dataset} --out {out} --predictor heavy_tailed --sigma 5 --nu 0.5",
        "evaluate --dataset {dataset} --out {out} --sigma -1",
        "evaluate --dataset {dataset} --out {out} --target-mae 0",
        "evaluate --dataset {dataset} --out {out} --predictor oracle --target-mae 34",
        # --target-mae solves the scale, so a --sigma would go unused.
        "evaluate --dataset {dataset} --out {out} --predictor gaussian --sigma 500 --target-mae 34",
        "evaluate --dataset {dataset} --out {out} --method diameter --sigma 0.05",
        # --nu, even the default 3, with a predictor that has no Student-t tail.
        "evaluate --dataset {dataset} --out {out} --predictor gaussian --sigma 5 --nu 1.5",
        "evaluate --dataset {dataset} --out {out} --predictor gaussian --target-mae 34 --nu 3",
        "evaluate --dataset {dataset} --out {out} --nu 3",
        "evaluate --dataset {dataset} --out {out} --predictor heavy_tailed --sigma 5 --nu inf",
        "evaluate --dataset {dataset} --out {out} --predictor gaussian --sigma nan",
        "evaluate --dataset {dataset} --out {out} --predictor gaussian --sigma inf",
        "evaluate --dataset {dataset} --out {out} --predictor gaussian --target-mae inf",
        "evaluate --dataset {dataset} --out {out} --method diameter --ball-diameter 0",
        "evaluate --dataset {dataset} --out {out} --method diameter --ball-diameter -1",
        "evaluate --dataset {dataset} --out {out} --method diameter --ball-diameter nan",
        "evaluate --dataset {dataset} --out {out} --method diameter --ball-diameter inf",
        "sweep --dataset {dataset} --grid 0,nan --out {out}",
        "sweep --dataset {dataset} --grid 0,inf --out {out}",
        "sweep --dataset {dataset} --grid 0,1e400 --out {out}",
        "synth --n 10 --arenas 3 --n-folds 0 --out {out}",
        "synth --n 5 --arenas 20000 --out {out}",
        f"synth --n {MOST_SAMPLES + 1} --arenas 1 --out {{out}}",
    ],
)
def test_bad_flag_values_are_usage_errors(argv, dataset_file, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv.format(dataset=dataset_file, out=out).split())
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "evaluate --dataset {dataset} --out {out} --predictor oracle --target-mae 34",
            "the oracle adds no noise",
        ),
        (
            "evaluate --dataset {dataset} --out {out} --predictor gaussian --sigma 5 --target-mae 34",
            "target_mae sets the noise scale: it takes no sigma",
        ),
        (
            "evaluate --dataset {dataset} --out {out} --predictor gaussian --sigma 5 --nu 1.5",
            "--nu applies only to --predictor heavy_tailed, not gaussian",
        ),
        ("sweep --dataset {dataset} --grid , --out {out}", "--grid must contain at least one"),
        ("synth --n 0 --out {out}", "--n must be >= 1"),
        (
            f"synth --n {MOST_SAMPLES + 1} --out {{out}}",
            f"--n must be <= {MOST_SAMPLES}, got {MOST_SAMPLES + 1}",
        ),
        (
            "synth --n 5 --arenas 20000 --out {out}",
            "--arenas must be in [1, --n], got 20000 for --n 5",
        ),
        ("synth --n 5 --arenas 0 --out {out}", "--arenas must be in [1, --n], got 0 for --n 5"),
        (
            "synth --n 5 --arenas 1 --out {out} --seed -1",
            "seed must be an int in [0, 2**64), got -1",
        ),
        (
            "synth --n 5 --arenas 1 --out {out} --seed 18446744073709551616",
            "seed must be an int in [0, 2**64), got 18446744073709551616",
        ),
        # rng.check_seed is both commands' seed rule, with one message.
        (
            "evaluate --dataset {dataset} --out {out} --seed -1",
            "seed must be an int in [0, 2**64), got -1",
        ),
        (
            "evaluate --dataset {dataset} --out {out} --seed 18446744073709551616",
            "seed must be an int in [0, 2**64), got 18446744073709551616",
        ),
        (
            "synth --n 5 --arenas 1 --out {out} --p-above-3m 2",
            "p_above_3m must be in [0, 1], got 2.0",
        ),
        (
            "synth --n 5 --arenas 1 --out {out} --dist uniform --p-above-3m 0.5",
            "p_above_3m does not apply to kind 'uniform'",
        ),
        (
            "synth --n 5 --arenas 1 --out {out} --max-height 2",
            "max_height must be finite and exceed 3 m, got 2.0",
        ),
        (
            "synth --n 5 --arenas 1 --out {out} --max-height inf",
            "max_height must be finite and exceed 3 m, got inf",
        ),
    ],
)
def test_usage_error_prints_the_commands_own_usage(argv, message, dataset_file, tmp_path, capsys):
    command = argv.split()[0]
    with pytest.raises(SystemExit) as exc:
        main(argv.format(dataset=dataset_file, out=tmp_path / "out").split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: courtlift {command} [-h] ")
    assert f"\ncourtlift {command}: error: {message}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, nu",
    [
        ("--predictor heavy_tailed --sigma 5 --nu 1.5", 1.5),
        ("--predictor heavy_tailed --sigma 5", 3.0),
        ("--predictor oracle", 3.0),
    ],
)
def test_report_records_the_nu_a_run_used(flags, nu, dataset_file, tmp_path):
    out = tmp_path / "r"
    argv = ["evaluate", "--dataset", str(dataset_file), "--out", str(out), *flags.split()]
    assert main(argv) == 0
    assert json.loads((tmp_path / "r.json").read_text())["config"]["predictor"]["nu"] == nu


@pytest.mark.parametrize(
    "argv",
    [
        "evaluate --dataset {missing} --out {out}",
        "sweep --dataset {missing} --grid 0 --out {out}",
        "synth --n 5 --arenas 1 --arena-json {missing} --out {out}",
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
        assert payload["config"]["noise_stream"] == 4

    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize(
        "flags", [["--sigma", "2"], ["--method", "diameter", "--sigma", "0.05"]],
        ids=["height", "diameter"],
    )
    def test_csv_and_printed_lines_are_the_aggregate(
        self, flags, repeats, dataset_file, tmp_path, capsys
    ):
        # The CSV holds each aggregate mean and std by repr, empty where the
        # method has no value; the printed lines round them to 6 digits.
        out = tmp_path / "agg"
        argv = ["evaluate", "--dataset", str(dataset_file), "--predictor", "gaussian", *flags]
        assert main([*argv, "--repeats", str(repeats), "--out", str(out)]) == 0
        agg = json.loads((tmp_path / "agg.json").read_text())["aggregate"]
        assert agg["k"] == repeats
        with open(tmp_path / "agg.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["metric", "mean", "std"]
        assert [row[0] for row in rows] == list(METRIC_NAMES)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"wrote {out}.json and {out}.csv"
        for (name, mean, std), line in zip(rows, lines[:-1], strict=True):
            m, s = agg["mean"][name], agg["std"][name]
            if m is None:
                assert (name, mean, std, line) == ("mae_px", "", "", "mae_px: n/a")
                assert "diameter" in flags
            else:
                assert (mean, std) == (repr(m), repr(s))
                assert float(mean) == m and float(std) == s
                assert line == f"{name}: {m:.6g} +/- {s:.6g}"
                assert (s == 0.0) == (repeats == 1)

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--predictor", "gaussian", "--target-mae", "34"],
            ["--method", "diameter", "--predictor", "heavy_tailed", "--target-mae", "0.1"],
        ],
        ids=["height", "diameter"],
    )
    def test_fold_selects_its_rows_and_nothing_else(self, dataset_file, tmp_path, flags):
        # evaluate --fold A reports, outside its config, what evaluate
        # reports on a dataset written with only fold A's rows.
        ds = read_dataset(dataset_file)
        only_a = tmp_path / "only_a.dat"
        write_dataset(Dataset(samples=ds.fold("A"), folds={"A": ds.folds["A"]}), only_a)
        assert 0 < len(ds.fold("A")) < len(ds.samples)
        outs = tmp_path / "fold", tmp_path / "only"
        for dataset, fold, out in zip((dataset_file, only_a), (["--fold", "A"], []), outs):
            argv = ["evaluate", *flags, "--dataset", str(dataset), *fold, "--out", str(out)]
            assert main(argv) == 0
        fold_json, only_json = (json.loads(out.with_suffix(".json").read_text()) for out in outs)
        assert fold_json.pop("config")["fold"] == "A" and only_json.pop("config")["fold"] is None
        assert fold_json == only_json
        assert outs[0].with_suffix(".csv").read_bytes() == outs[1].with_suffix(".csv").read_bytes()

    def test_unknown_fold_is_runtime_error(self, dataset_file, tmp_path, capsys):
        rc = main(
            ["evaluate", "--dataset", str(dataset_file), "--fold", "Z", "--out", str(tmp_path / "x")]
        )
        assert rc == 1
        assert "UnknownFold" in capsys.readouterr().err

    def test_empty_fold_name_is_an_unknown_fold(self, tmp_path, capsys):
        # An empty name is falsy, but it names no fold: it must not select
        # the whole dataset.
        path = tmp_path / "three.dat"
        assert main(["synth", "--n", "60", "--arenas", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--dataset", str(path), "--fold", "", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert capsys.readouterr().err == "error: UnknownFold: fold '' not in ['A', 'B', 'C']\n"
        assert not list(tmp_path.glob("r.*"))

    def test_empty_fold_is_empty_input(self, dataset_file, tmp_path, capsys):
        line, body = dataset_file.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["folds"]["Z"] = [99]
        path = tmp_path / "empty_fold.dat"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        out = tmp_path / "x"
        rc = main(["evaluate", "--dataset", str(path), "--fold", "Z", "--out", str(out)])
        assert rc == 1
        assert "error: EmptyInput: no samples in fold 'Z'" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_header_only_dataset_is_empty_input(self, dataset_file, tmp_path, capsys):
        header = json.loads(dataset_file.read_bytes().split(b"\n", 1)[0])
        path = tmp_path / "header_only.dat"
        path.write_bytes(json.dumps({**header, "n_samples": 0}).encode() + b"\n")
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

    @pytest.mark.parametrize(
        "method, kind, sigma", [("height", "gaussian", 30.0), ("diameter", "heavy_tailed", 0.1)]
    )
    def test_repeats_are_predicted_at_most_8_at_a_time(
        self, method, kind, sigma, dataset_file, monkeypatch
    ):
        # A run holds predictions for 8 repeats at most, whatever
        # --repeats is, and each repeat's report is that of its noise alone.
        samples = read_dataset(dataset_file).samples
        spec = PredictorSpec(kind=kind, sigma=sigma, seed=2)
        name = f"predict_{method}s"
        predict, truth = getattr(cli, name), getattr(samples, method[0] + "_true")
        asked = []

        def recording(spec, ids, truth, repeats):
            asked.append(repeats)
            return predict(spec, ids, truth, repeats)

        monkeypatch.setattr(cli, name, recording)
        reports, failed = cli.run_evaluation(samples, spec, method=method, repeats=20)
        assert asked == [range(0, 8), range(8, 16), range(16, 20)]
        for r in range(20):
            preds = predict(spec, samples.ids, truth, range(r, r + 1))[0]
            passes = [(f"repeat {r}", preds)]
            expected = cli._run_passes(samples, method, passes, cli.BALL_DIAMETER_M)
            assert ([reports[r]], [failed[r]]) == expected

    def test_unknown_method_raises_before_any_ray_is_built(self, dataset_file, monkeypatch):
        samples = read_dataset(dataset_file).samples
        monkeypatch.setattr(cli, "_sample_arrays", lambda samples: pytest.fail("rays built"))
        with pytest.raises(ValueError, match="unknown method 'depth'"):
            cli.run_evaluation(samples, PredictorSpec(kind="oracle"), method="depth")


class TestReconstruct:
    def test_readme_example_prints_pinned_json(self, tmp_path, capsys):
        # The README's `courtlift reconstruct` example, output pinned to the
        # last digit: every float is printed by repr, so any numeric change
        # to the height lift or the undistortion shows here.
        cal = make_camera((0, -20, 6), (0, 0, 0), 2000, 4500, 1500)
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(calibration_to_json_dict(cal)))
        argv = ["reconstruct", "--cal", str(path), "--x", "1712.4", "--y", "903.1"]
        assert main([*argv, "--height", "86.5"]) == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "ball_3d": [\n'
            "    -3.959284673353995,\n"
            "    -6.215712045589253,\n"
            "    0.6875253913796673\n"
            "  ],\n"
            '  "foot_pixel": [\n'
            "    1719.5151210402482,\n"
            "    989.3068735808382\n"
            "  ],\n"
            '  "ground_projection": [\n'
            "    -3.959284673353995,\n"
            "    -6.215712045589253,\n"
            "    0.0\n"
            "  ],\n"
            '  "vertical_angle": 0.08234877526037443\n'
            "}\n"
        )

    def test_prints_the_one_ball_lift_as_lists(self, tmp_path, capsys):
        # The command writes reconstruct_from_height's tuples as lists, and
        # the ball's floor projection (x, y, 0) as ground_projection.
        cal = make_camera((0, -20, 6), (0, 0, 0), 2000, 4500, 1500)
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(calibration_to_json_dict(cal)))
        argv = ["reconstruct", "--cal", str(path), "--x", "2300", "--y", "700"]
        assert main([*argv, "--height", "40"]) == 0
        (x, y, z), foot_pixel, vertical_angle = reconstruct_from_height(cal, (2300, 700), 40)
        assert json.loads(capsys.readouterr().out) == {
            "ball_3d": [x, y, z],
            "ground_projection": [x, y, 0.0],
            "foot_pixel": [*foot_pixel],
            "vertical_angle": vertical_angle,
        }

    def test_lens_pixel_lifts_through_the_undistortion(self, tmp_path, capsys):
        # The README camera with every lens term set, so the command runs
        # the Newton undistortion: the ball it prints projects back onto
        # the raw pixel, and a pixel past the lens model's domain exits 1.
        d = calibration_to_json_dict(
            make_camera((0, -20, 6), (0, 0, 0), 2000, 4500, 1500, k1=-0.1, k2=0.01)
        )
        d["dist"].update(k3=-0.005, p1=1e-3, p2=-5e-4)
        d["skew"] = 0.5
        path = tmp_path / "lens.json"
        path.write_text(json.dumps(d))
        argv = ["reconstruct", "--cal", str(path), "--y", "903.1", "--height", "86.5"]
        assert main([*argv, "--x", "1712.4"]) == 0
        ball = json.loads(capsys.readouterr().out)["ball_3d"]
        px = project(load_calibration("lens", d), ball)
        np.testing.assert_allclose(px, [1712.4, 903.1], rtol=0, atol=1e-6)
        assert main([*argv, "--x", "90000"]) == 1
        assert capsys.readouterr().err == "error: NoConvergence: height reconstruction failed\n"

    def test_ground_pixel_has_zero_height_solution(self, side_cal_file, capsys):
        path, cal = side_cal_file
        px = project(cal, (1.0, 2.0, 0.0))
        rc = main(
            [
                "reconstruct",
                "--cal",
                str(path),
                "--x",
                str(px[0]),
                "--y",
                str(px[1]),
                "--height",
                "0",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["ball_3d"], [1.0, 2.0, 0.0], atol=1e-9)
        assert out["ground_projection"][2] == 0.0

    def test_horizon_pixel_lifts_but_foot_above_it_exits_nonzero(self, side_cal_file, capsys):
        # A ball pixel on the horizon row is a ball at camera height: 10 px
        # below it the foot ray meets the floor 2000 * 1.5 / 10 = 300 m
        # ahead. A foot 10 px above the horizon meets it behind the camera.
        path, cal = side_cal_file
        argv = ["reconstruct", "--cal", str(path), "--x", "2250", "--y", str(cal.cy)]
        assert main([*argv, "--height", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ball_3d"] == [0.0, 280.0, 1.5]
        assert main([*argv, "--height", "-10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IntersectionBehindCamera")

    def test_foot_past_the_vanishing_point_names_the_error(self, tmp_path, capsys):
        # The steep camera of test_reconstruct's vanishing-point test: a
        # 1500 px height walks the foot past the vertical vanishing point.
        cal = make_camera((0.0, -3.0, 10.0), (0.0, 0.0, 0.0), 1000.0, 2000.0, 2000.0)
        px = project(cal, (0.0, 0.5, 1.0))
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(calibration_to_json_dict(cal)))
        argv = ["reconstruct", "--cal", str(path), "--x", str(px[0]), "--y", str(px[1])]
        assert main([*argv, "--height", "1500"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: VerticalBehindCamera")

    @pytest.mark.parametrize(
        "edit, violation",
        [
            ({"fx": -2000.0}, "FocalNonPositive"),
            # json.dumps writes a NaN token, which the decoder refuses.
            ({"cx": float("nan")}, "non-finite number NaN"),
            # A string is the whole file.
            ("{not json", "Expecting property name"),
            ("[1, 2]", "unreadable: TypeError"),
            ('{"fx": 1}', "unreadable: KeyError('dist')"),
            ({"fx": "2000.0"}, "unreadable: TypeError(\"fx must be a number, got '2000.0'\")"),
            # A function edits the file's text: 1e999 reads as inf, which
            # validate reports.
            (lambda text: text.replace('"cx": 2250.0', '"cx": 1e999'), "is invalid: NonFinite"),
        ],
    )
    def test_invalid_calibration_exits_1_with_typed_error(
        self, side_cal_file, tmp_path, capsys, edit, violation
    ):
        path, _ = side_cal_file
        bad = tmp_path / "bad.json"
        if isinstance(edit, str):
            bad.write_text(edit)
        elif callable(edit):
            text = path.read_text()
            assert edit(text) != text
            bad.write_text(edit(text))
        else:
            bad.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        rc = main(["reconstruct", "--cal", str(bad), "--x", "2250", "--y", "900", "--height", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidCalibration: {bad}: ") and violation in err


def test_reports_refuse_non_finite_numbers(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(NonFiniteReport, match="cannot write .*r.json: mape_m: .*nan"):
        _write_json(str(path), {"mape_m": float("nan")})
    # The path names the first entry in the file's (sorted-key) order.
    inf = float("inf")
    report = {"z": inf, "levels": [{"n": 3, "b": 1.0}, {"b": 2.0, "a": -inf}]}
    with pytest.raises(NonFiniteReport, match=r"r.json: levels\[1\]\.a: .*-inf"):
        _write_json(str(path), report)
    assert not path.exists()  # no partial report is left behind


MEAN_MA3DE = "aggregate.mean.ma3de_m"


@pytest.mark.parametrize(
    "position, value, argv, entry",
    [
        (2, 1e160, ["evaluate", "--repeats", "2"], MEAN_MA3DE),
        (2, 1e160, ["evaluate", "--repeats", "2", "--method", "diameter"], MEAN_MA3DE),
        (2, 1e160, ["sweep", "--grid", "0,10"], "levels[0].ma3de_m"),
        (10, 1e-300, ["evaluate", "--repeats", "2", "--method", "diameter"], MEAN_MA3DE),
    ],
    ids=["bx-height", "bx-diameter", "bx-sweep", "d_true-diameter"],
)
def test_overflowing_error_exits_1_with_typed_error(
    dataset_file, tmp_path, capsys, position, value, argv, entry
):
    # A finite true bx of 1e160, or an image diameter of 1e-300 (a depth
    # near 1e300 m), gives a 3D error whose square passes the largest
    # double: the metrics and their spread over repeats are inf or NaN.
    line, body = dataset_file.read_bytes().split(b"\n", 1)
    table = np.frombuffer(body, RECORD_DTYPE).copy()
    table.view("<f8").reshape(-1, 11)[3, position] = value  # the record's 8-byte words
    probe = tmp_path / "probe.dat"
    probe.write_bytes(line + b"\n" + table.tobytes())
    out = tmp_path / "report"
    assert main([*argv, "--dataset", str(probe), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: NonFiniteReport: cannot write {out}.json: {entry}: ")
    assert list(tmp_path.iterdir()) == [probe]  # neither report file is written


@pytest.mark.parametrize("noise", [["--target-mae", "1e308"], ["--sigma", "1e308"]])
@pytest.mark.parametrize("method", ["height", "diameter"])
def test_noise_past_the_float_range_fails_rows_typed(
    dataset_file, tmp_path, capsys, method, noise
):
    # Noise scaled near the largest double overflows on some rows, with no
    # RuntimeWarning: those predictions are infinite, and the lift fails
    # them as NonFiniteInput. No height row survives such noise; a few
    # diameter rows do, and their report is written.
    out = tmp_path / "report"
    argv = ["evaluate", "--dataset", str(dataset_file), "--method", method]
    argv += ["--predictor", "gaussian", *noise, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    err = capsys.readouterr().err
    if method == "height":
        assert code == 1
        assert err == "error: EmptyInput: repeat 0: all 300 samples failed to reconstruct\n"
        assert list(tmp_path.iterdir()) == []
    else:
        assert code == 0 and err == ""
        n_failed = json.loads(out.with_suffix(".json").read_text())["repeats"][0]["n_failed"]
        assert 0 < n_failed < 300


@pytest.mark.parametrize(
    "argv, label",
    [
        ("sweep --grid=0,-100000", "level -100000 px"),
        ("sweep --grid=0,10,-100000", "level -100000 px"),
        ("evaluate --method diameter --ball-diameter 1e308", "repeat 0"),
    ],
    ids=["sweep-level-2", "sweep-level-3", "evaluate-diameter"],
)
def test_a_pass_where_every_sample_fails_is_empty_input(
    argv, label, dataset_file, tmp_path, capsys
):
    # The error names the pass: a sweep level that puts every foot past
    # the horizon, or a ball so large that every depth overflows. The
    # passes before it do not get a report either.
    out = tmp_path / "s"
    assert main([*argv.split(), "--dataset", str(dataset_file), "--out", str(out)]) == 1
    message = f"{label}: all 300 samples failed to reconstruct"
    assert capsys.readouterr().err == f"error: EmptyInput: {message}\n"
    assert list(tmp_path.iterdir()) == []


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

    def test_csv_rows_are_the_json_levels_by_repr(self, dataset_file, tmp_path, capsys):
        # Each level's row holds the level and its three mean metrics by
        # repr; the JSON level (keys sorted) has no medians.
        out = tmp_path / "sweep"
        argv = ["sweep", "--dataset", str(dataset_file), "--grid", "0,7.5,30"]
        assert main([*argv, "--out", str(out)]) == 0
        levels = json.loads((tmp_path / "sweep.json").read_text())["levels"]
        assert [list(level) for level in levels] == [
            ["level_px", "ma3de_m", "mae_px", "mape_m", "n_failed", "n_samples"]
        ] * 3
        with open(tmp_path / "sweep.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        keys = ["level_px", "mae_px", "mape_m", "ma3de_m"]
        assert header == keys
        assert rows == [[repr(level[k]) for k in keys] for level in levels]
        assert capsys.readouterr().out.splitlines() == [
            f"level {lv['level_px']:g} px -> MAPE {lv['mape_m']:.6g} m, "
            f"MA3DE {lv['ma3de_m']:.6g} m"
            for lv in levels
        ] + [f"wrote {out}.json and {out}.csv"]

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


def _loaded_before_and_after(modules, commands):
    """Which of ``modules`` are in sys.modules of a fresh interpreter after
    importing courtlift.cli, and after running each argv of ``commands``
    through cli.main there, as two sets."""
    code = (
        "import json, sys\n"
        "from courtlift.cli import main\n"
        f"loaded = lambda: [m for m in {list(modules)!r} if m in sys.modules]\n"
        "before = loaded()\n"
        f"assert all(main(argv) == 0 for argv in {commands!r})\n"
        "print(json.dumps([before, loaded()]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    before, after = json.loads(result.stdout.splitlines()[-1])
    return set(before), set(after)


# The modules that only some commands run: the sampler, and the predictors
# with the Philox streams and elementary functions they draw noise from.
ONE_COMMAND_MODULES = (
    "courtlift.synth", "courtlift.predictors", "courtlift._libm", "courtlift.rng"
)


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("sweep", set()),
        ("reconstruct", set()),
        ("evaluate", {"courtlift.predictors", "courtlift._libm", "courtlift.rng"}),
        ("synth", {"courtlift.synth", "courtlift.rng"}),
    ],
)
def test_a_command_imports_only_the_modules_it_runs(
    command, loaded, dataset_file, side_cal_file, tmp_path
):
    # Run without bytecode, a command compiles every module it imports.
    # pytest's own process has imported them all, so each run is a fresh one.
    data, out = str(dataset_file), str(tmp_path / "out")
    commands = {
        "sweep": [["sweep", "--dataset", data, "--grid", "0,10", "--out", out]],
        "reconstruct": [
            ["reconstruct", "--cal", str(side_cal_file[0]), "--x", "2250", "--y", "750"]
            + ["--height", "10"]
        ],
        "evaluate": [
            ["evaluate", "--dataset", data, "--predictor", "gaussian", "--target-mae", "34"]
            + ["--out", out],
            ["evaluate", "--dataset", data, "--method", "diameter", "--predictor"]
            + ["heavy_tailed", "--target-mae", "0.1", "--out", out],
        ],
        "synth": [["synth", "--n", "50", "--arenas", "3", "--seed", "1", "--out", out]],
    }[command]
    before, after = _loaded_before_and_after(ONE_COMMAND_MODULES, commands)
    assert before == set()
    assert after == loaded


def test_evaluate_and_sweep_do_not_import_numpy_ma(dataset_file, tmp_path):
    # The first np.median call in a process imports numpy.ma, about 15 ms.
    # numpy 1.x imports numpy.ma with numpy itself; there is nothing to save.
    commands = [
        ["evaluate", "--dataset", str(dataset_file), "--out", str(tmp_path / "e")],
        ["sweep", "--dataset", str(dataset_file), "--grid", "0,10", "--out", str(tmp_path / "s")],
    ]
    before, after = _loaded_before_and_after(("numpy.ma",), commands)
    if before:
        pytest.skip("numpy.ma is loaded with numpy itself (numpy < 2)")
    assert not after


def test_synth_does_not_import_numpy_random(tmp_path):
    # synth computes its Philox words in numpy arithmetic; importing
    # numpy.random costs 10-14 ms. numpy 1.x imports it with numpy itself.
    out = str(tmp_path / "d.dat")
    argv = ["synth", "--n", "50", "--arenas", "3", "--seed", "1", "--out", out]
    before, after = _loaded_before_and_after(("numpy.random",), [argv])
    if before:
        pytest.skip("numpy.random is loaded with numpy itself (numpy < 2)")
    assert not after


def test_evaluate_does_not_import_numpy_random(dataset_file, tmp_path):
    # The predictors turn rng.words into noise with their own transforms,
    # so neither noise law loads numpy.random.
    commands = [
        [
            "evaluate", "--dataset", str(dataset_file), "--predictor", "gaussian",
            "--target-mae", "34", "--repeats", "2", "--out", str(tmp_path / "h"),
        ],
        [
            "evaluate", "--dataset", str(dataset_file), "--method", "diameter",
            "--predictor", "heavy_tailed", "--target-mae", "0.1", "--out", str(tmp_path / "d"),
        ],
    ]
    before, after = _loaded_before_and_after(("numpy.random",), commands)
    if before:
        pytest.skip("numpy.random is loaded with numpy itself (numpy < 2)")
    assert not after


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


def test_readme_library_examples_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    blocks = [block.split("```", 1)[0] for block in section.split("```python\n")[1:]]
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_batch_example_scores_each_ok_row():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    after = readme.split("Batch reconstruction takes two steps", 1)[1]
    block = after.split("```python\n", 1)[1].split("```", 1)[0]
    samples = generate_dataset(seed=2, n=60, n_arenas=3)
    namespace = {"samples": samples, "noisy": samples.h_true + 1.0}
    exec(compile(block, "README.md", "exec"), namespace)
    err, ok = namespace["err"], namespace["ok"]
    assert ok.shape == (len(samples),) and ok.any()
    assert err.shape == (int(ok.sum()),)
    assert np.isfinite(err).all()


# ---------------------------------------------------------------------------
# The entry point: the `courtlift` script and `python -m courtlift.cli`
# import with the collector off and run cli.entrypoint, which freezes the
# import-time heap and switches the collector back on before calling main.


@pytest.mark.parametrize(
    "argv, code",
    [
        ("synth --n 0 --out x.dat", 2),
        ("evaluate --dataset nope.dat --out out", 1),
    ],
)
def test_entrypoint_exit_codes(argv, code, tmp_path, capsys, monkeypatch):
    # `python -m courtlift.cli` exits with main's code and prints what
    # main prints in-process.
    monkeypatch.chdir(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "courtlift.cli", *argv.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        in_process = main(argv.split())
    except SystemExit as exc:
        in_process = exc.code
    assert result.returncode == in_process == code
    assert (result.stdout, result.stderr) == capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


def _entrypoint(argv, cwd, stdout=subprocess.PIPE, **env):
    """`python -m courtlift.cli argv` with float warnings as errors, its
    environment's PYTHONUNBUFFERED replaced by ``env``'s."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    flags = ["-X", "dev", "-W", "error::RuntimeWarning"]
    return subprocess.run(
        [sys.executable, *flags, "-m", "courtlift.cli", *argv],
        cwd=cwd,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**base, "PYTHONPATH": SRC, **env},
        timeout=30,
    )


@pytest.mark.parametrize("env", [{"PYTHONUNBUFFERED": "1"}, {}], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["reconstruct", "synth", "help", "evaluate-help"])
def test_a_reader_that_closes_stdout_ends_the_command_quietly(command, env, tmp_path):
    # Unbuffered, the command's own print (or argparse's help) meets the
    # closed pipe inside main; buffered, the entrypoint's flush does.
    # Either way nothing is printed, the status is 1 and synth's dataset
    # is whole.
    cal = make_camera((0, -20, 6), (0, 0, 0), 2000, 4500, 1500)
    (tmp_path / "cal.json").write_text(json.dumps(calibration_to_json_dict(cal)))
    argv = {
        "reconstruct": "reconstruct --cal cal.json --x 1712.4 --y 903.1 --height 86.5",
        "synth": "synth --n 50 --arenas 2 --seed 3 --out d.dat",
        "help": "--help",
        "evaluate-help": "evaluate --help",
    }[command]
    read, write = os.pipe()
    os.close(read)
    try:
        result = _entrypoint(argv.split(), tmp_path, stdout=write, **env)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"")
    if command == "synth":
        assert read_dataset(tmp_path / "d.dat").samples.ids.tolist() == list(range(50))


@pytest.mark.parametrize(
    "n, arenas", [(10**15, 1), (10**15, 10**15), (MOST_SAMPLES, 1)], ids=["n", "n-arenas", "most"]
)
def test_synth_n_too_large_to_hold_fails_at_once_typed(n, arenas, tmp_path):
    # 10**15 sample ids take 7.1 PiB, past a 64-bit process's address
    # space, so the allocation fails without reserving a page. The table
    # is allocated before any camera is drawn: with 10**15 arenas the
    # draws alone would run for days.
    result = _entrypoint(
        ["synth", "--n", str(n), "--arenas", str(arenas), "--out", "d.dat"], tmp_path
    )
    assert result.returncode == 1
    assert result.stderr.decode().startswith("error: MemoryError: Unable to allocate ")
    assert result.stdout == b""
    assert list(tmp_path.iterdir()) == []


def test_main_leaves_the_collector_alone(tmp_path):
    before = gc.get_freeze_count(), gc.isenabled()
    argv = ["synth", "--n", "20", "--arenas", "2", "--out", str(tmp_path / "d.dat")]
    assert main(argv) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_only_the_entrypoint_freezes_the_heap(tmp_path):
    # Importing the package has no collector side effect; entrypoint
    # freezes what the imports built and leaves the collector enabled.
    code = (
        "import gc, sys\n"
        "import courtlift, courtlift.cli\n"
        "print(gc.get_freeze_count(), gc.isenabled())\n"
        "sys.argv = ['courtlift', 'synth', '--n', '20', '--arenas', '2', '--out', 'd.dat']\n"
        "try:\n"
        "    courtlift.cli.entrypoint()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0, gc.isenabled())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    lines = result.stdout.splitlines()
    assert lines[0] == "0 True"
    assert lines[-1] == "0 True True"


@pytest.mark.parametrize("launcher", ["module", "script"])
def test_a_program_imports_with_the_collector_off(launcher, tmp_path, capsys, monkeypatch):
    # Run as a program, through `python -m courtlift.cli` or the target
    # pyproject.toml names for the `courtlift` script, a command imports
    # numpy and its own modules with the collector off: no collection
    # starts from numpy's import to the freeze. Then the collector is
    # back on, and the command prints and writes what main does.
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
    module, func = re.search(r'^courtlift = "(.+):(.+)"$', pyproject, re.M).groups()
    launch = {
        "module": "import runpy; runpy.run_module("
        "'courtlift.cli', run_name='__main__', alter_sys=True)",
        "script": f"from {module} import {func}; {func}()",
    }[launcher]
    argv = ["synth", "--n", "20", "--arenas", "2", "--seed", "3", "--out", "d.dat"]
    seen = tmp_path / "seen.json"
    code = (
        "import gc, json, sys\n"
        "starts = []\n"
        "def count(phase, info):\n"
        "    if phase == 'start' and 'numpy' in sys.modules and not gc.get_freeze_count():\n"
        "        starts.append(info['generation'])\n"
        "gc.callbacks.append(count)\n"
        f"sys.argv = ['courtlift', *{argv!r}]\n"
        "try:\n"
        f"    {launch}\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        f"with open({str(seen)!r}, 'w') as f:\n"
        "    json.dump([status, starts, gc.isenabled()], f)\n"
    )
    (tmp_path / "program").mkdir()
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path / "program",
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    (tmp_path / "main").mkdir()
    monkeypatch.chdir(tmp_path / "main")
    status = main(argv)
    status_seen, starts, enabled = json.loads(seen.read_text())
    assert starts == []
    assert status_seen == status == 0
    assert (result.stdout, result.stderr) == capsys.readouterr()
    assert (tmp_path / "program/d.dat").read_bytes() == (tmp_path / "main/d.dat").read_bytes()
    assert enabled


def test_outputs_do_not_depend_on_numpys_simd_dispatch(tmp_path):
    # NPY_DISABLE_CPU_FEATURES=X86_V4 sends numpy's math loops down
    # other SIMD code, which rounds np.log differently on some inputs.
    # The noise kernels use basic arithmetic only, so synth, both noisy
    # evaluations and the unit noise of 200 000 ids, repeats 0 and 1 (a
    # Box-Muller sine and a second counter lane), must come out the
    # same either way. The reports alone would miss a rare last-bit change.
    off = {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    probe = (
        "import hashlib, numpy as np\n"
        "x = (np.arange(1, 200_001) * 0.6180339887498949) % 1.0 + 1e-9\n"
        "print(hashlib.sha256(np.log(x).tobytes()).hexdigest())\n"
    )
    noise = (
        "import hashlib, numpy as np\n"
        "from courtlift.predictors import PredictorSpec, predict_diameters, predict_heights\n"
        "ids = np.arange(200_000)\n"
        "for kind in ('gaussian', 'heavy_tailed'):\n"
        "    spec = PredictorSpec(kind=kind, sigma=1.0, seed=3)\n"
        "    for predict in (predict_heights, predict_diameters):\n"
        "        z = predict(spec, ids, np.ones(len(ids)), range(2))\n"
        "        print(kind, hashlib.sha256(z.tobytes()).hexdigest())\n"
    )

    def run(argv, cwd, env):
        return subprocess.run(
            [sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC, **env},
        )

    digests = [run(["-c", probe], tmp_path, env) for env in ({}, off)]
    if digests[1].returncode:
        pytest.skip(f"numpy does not start with X86_V4 disabled: {digests[1].stderr[-200:]}")
    if digests[0].stdout == digests[1].stdout:
        pytest.skip("disabling X86_V4 does not change np.log's output on this host")
    commands = [
        "synth --n 400 --arenas 4 --seed 5 --out d.dat",
        "evaluate --dataset d.dat --predictor gaussian --target-mae 34 --repeats 2 --out g",
        "evaluate --dataset d.dat --method diameter --predictor heavy_tailed"
        " --target-mae 0.10 --out t",
    ]
    written = []
    for name, env in (("default", {}), ("x86_v4_off", off)):
        run_dir = tmp_path / name
        run_dir.mkdir()
        for argv in commands:
            result = run(["-m", "courtlift.cli", *argv.split()], run_dir, env)
            assert result.returncode == 0, (argv, result.stderr)
        result = run(["-c", noise], run_dir, env)
        assert result.returncode == 0, result.stderr
        (run_dir / "noise.txt").write_text(result.stdout)
        written.append({path.name: path.read_bytes() for path in run_dir.iterdir()})
    assert sorted(written[0]) == ["d.dat", "g.csv", "g.json", "noise.txt", "t.csv", "t.json"]
    assert written[0] == written[1]
