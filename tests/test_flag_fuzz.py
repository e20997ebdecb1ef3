"""Seeded fuzz of the numeric flags of ``synth``, ``evaluate``, ``sweep``
and ``reconstruct``.

Each case draws a value for every numeric flag of one command, from
extremes, NaN and infinities, negatives and 2**64 +- 1, and runs
``cli.main`` in-process on a small dataset with RuntimeWarning as an
error. Whatever the flags, the command must exit 0, 1 or 2 without
raising; a nonzero exit prints an ``error:`` line; a usage error (exit
2) writes no file; and every report written is strict JSON. A
``reconstruct`` that exits 0 prints strict JSON with finite numbers
whose ground projection is the ball's x and y on the floor; one that
fails prints nothing on stdout. Its ``--cal`` is a plain calibration, a
distorting one (k3, p1, p2 and skew), or, in one case in five, a file
the reader refuses.

``--n`` and ``--repeats`` are drawn small, or from values that a check
refuses before any allocation: a huge ``--repeats`` is a long run, not
an error. The cases come from a fixed seed, and their number keeps the
run to a few seconds.
"""

import json
import math
import random
import sys
import warnings

import pytest

from courtlift.cli import main
from courtlift.dataio import RECORD_DTYPE, calibration_to_json_dict
from courtlift.synth import make_camera

SEED = 2031

U64 = 2**64
# The most records a table can hold: more would pass sys.maxsize bytes.
MOST_SAMPLES = sys.maxsize // RECORD_DTYPE.itemsize

FLOATS = (
    "0", "-0.0", "1", "-1", "0.05", "0.5", "1.5", "3", "4.5", "34", "1e-300", "5e-324",
    "1e160", "1e308", "-1e308", "1.7976931348623157e308", "1e400", "nan", "-nan", "inf",
    "-inf", "1.0000000001", str(U64 - 1), str(U64 + 1),
)  # fmt: skip
FINITE = tuple(x for x in FLOATS if math.isfinite(float(x)))
INTS = (0, -1, -(2**63), U64 - 1, U64, U64 + 1, -(U64 + 1), 10**12)
# Hostile --n and --repeats, each refused before anything is allocated.
HOSTILE_N = (0, -1, -(2**63), MOST_SAMPLES + 1, U64 - 1, U64 + 1)
HOSTILE_REPEATS = (0, -1, -(2**63), -(U64 + 1))
# The share of flags that take a hostile value; the rest take one a
# run accepts, so that most cases get past the usage checks.
HOSTILE = 0.2


def _flags(rng, pools):
    """``--flag=value`` for each flag, from its (accepted, hostile) pools."""
    return [
        f"{flag}={rng.choice(hostile if rng.random() < HOSTILE else accepted)}"
        for flag, (accepted, hostile) in pools.items()
    ]


def _synth(rng, dataset):
    pools = {
        "--n": ((1, 2, 7, 40), HOSTILE_N),
        "--arenas": ((1, 2), INTS),
        "--seed": ((0, 1, U64 - 1), INTS),
        "--n-folds": ((1, 2, 5, 10**12), INTS),
        "--max-height": (("3.5", "12", "1e308"), FLOATS),
    }
    if rng.random() < 0.5:
        pools["--p-above-3m"] = (("0", "0.3", "1"), FLOATS)
    dist = rng.choice(("deepsport_like", "ballistic_like", "uniform"))
    return ["synth", f"--dist={dist}", "--out=d.dat", *_flags(rng, pools)]


def _evaluate(rng, dataset):
    kind = rng.choice(("oracle", "gaussian", "heavy_tailed"))
    pools = {
        "--repeats": ((1, 2, 8), HOSTILE_REPEATS),
        "--seed": ((0, 3, U64 - 1), INTS),
        "--ball-diameter": (("0.24", "5e-324", "1e308"), FLOATS),
        "--threads": ((1, 2), INTS),
    }
    scales = ("0.05", "0.5", "34", "1e160", "1e308")
    if kind != "oracle" or rng.random() < HOSTILE:
        pools[rng.choice(("--sigma", "--target-mae"))] = (scales, FLOATS)
    if kind == "heavy_tailed" or rng.random() < HOSTILE:
        pools["--nu"] = (("1.0000000001", "3", "1e16", "1.7976931348623157e308"), FLOATS)
    method = rng.choice(("height", "diameter"))
    argv = ["evaluate", f"--dataset={dataset}", f"--predictor={kind}", f"--method={method}"]
    return [*argv, "--out=r", *_flags(rng, pools)]


def _sweep(rng, dataset):
    levels = [rng.choice(FINITE) for _ in range(rng.randint(1, 3))]
    if rng.random() < HOSTILE:
        levels.append(rng.choice(FLOATS))
    threads = _flags(rng, {"--threads": ((1, 2), INTS)})
    return ["sweep", f"--dataset={dataset}", f"--grid={','.join(levels)}", "--out=s", *threads]


def _reconstruct(rng, dataset):
    cal = rng.choice(BAD_CALIBRATIONS if rng.random() < HOSTILE else CALIBRATIONS)
    pools = {
        "--x": (("1712.4", "2250", "0", "4499", "-300", "9000"), FLOATS),
        "--y": (("903.1", "750", "1400", "1499", "-50"), FLOATS),
        "--height": (("0", "10", "86.5", "-10", "400", "3000"), FLOATS),
    }
    return ["reconstruct", f"--cal={dataset.with_name(cal)}", *_flags(rng, pools)]


# Each command's draw, its number of cases and the exit codes it must reach.
COMMANDS = {
    "synth": (_synth, 70, {0, 2}),
    "evaluate": (_evaluate, 80, {0, 2}),
    "sweep": (_sweep, 50, {0, 2}),
    "reconstruct": (_reconstruct, 50, {0, 1}),
}
CALIBRATIONS = ("plain.json", "lens.json")
BAD_CALIBRATIONS = ("nan.json", "deep.json", "no_r.json", "list.json")


def _calibration_files() -> dict:
    """The text of each calibration file ``reconstruct`` draws: the
    README camera, with and without every lens term, and four files the
    reader refuses: a NaN token, nesting past the recursion limit, no
    ``R``, and JSON that is not an object."""
    plain = calibration_to_json_dict(make_camera((0, -20, 6), (0, 0, 0), 2000, 4500, 1500))
    lens = calibration_to_json_dict(
        make_camera((0, -20, 6), (0, 0, 0), 2000, 4500, 1500, k1=-0.1, k2=0.01)
    )
    lens["dist"].update(k3=-0.005, p1=1e-3, p2=-5e-4)
    lens["skew"] = 0.5
    return {
        "plain.json": json.dumps(plain),
        "lens.json": json.dumps(lens),
        "nan.json": json.dumps({**plain, "cx": math.nan}),
        "deep.json": "[" * 100_000 + "]" * 100_000,
        "no_r.json": json.dumps({k: v for k, v in plain.items() if k != "R"}),
        "list.json": json.dumps([plain]),
    }


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """The dataset the commands read, with the calibration files next to it."""
    path = tmp_path_factory.mktemp("flag_fuzz") / "d.dat"
    assert main(["synth", "--n", "30", "--arenas", "3", "--seed", "5", "--out", str(path)]) == 0
    for name, text in _calibration_files().items():
        path.with_name(name).write_text(text, encoding="utf-8")
    return path


def _refuse(token):
    raise ValueError(f"non-finite {token} in a report")


def _run(argv, directory, capsys, monkeypatch):
    """Run one case in its own directory and check the contract."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    if code:
        assert "error: " in err, (argv, code, err)
    if argv[0] == "reconstruct":
        _check_printed_ball(argv, code, out)
    written = sorted(path.name for path in directory.iterdir())
    if code == 2:
        assert written == [], (argv, written)
    for path in directory.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
    return code


def _check_printed_ball(argv, code, out):
    if code:
        assert out == "", (argv, code, out)
        return
    result = json.loads(out, parse_constant=_refuse)
    values = [x for v in result.values() for x in (v if isinstance(v, list) else [v])]
    assert all(math.isfinite(x) for x in values), (argv, result)
    assert result["ground_projection"] == [*result["ball_3d"][:2], 0.0], (argv, result)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flag_values_end_typed(command, dataset, tmp_path, capsys, monkeypatch):
    draw, count, reached = COMMANDS[command]
    rng = random.Random(f"{SEED}-{command}")
    codes = [
        _run(draw(rng, dataset), tmp_path / str(k), capsys, monkeypatch) for k in range(count)
    ]
    # The draws reach the work itself, not only the checks that refuse it.
    assert reached <= set(codes), sorted(set(codes))


def test_the_largest_seed_takes_any_repeats(dataset, tmp_path, capsys, monkeypatch):
    # Every repeat reads the key (seed, id), so only the seed must fit in
    # uint64, however many repeats follow it.
    argv = ["evaluate", f"--dataset={dataset}", "--predictor=gaussian", "--sigma=5"]
    argv += [f"--seed={U64 - 1}", "--repeats=8", "--out=r"]
    assert _run(argv, tmp_path / "run", capsys, monkeypatch) == 0
