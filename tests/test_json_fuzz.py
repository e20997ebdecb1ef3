"""Seeded mutation fuzz of the inputs a command reads.

The inputs are a small synth dataset's header and its 88-byte records,
a ``reconstruct --cal`` file and a ``synth --arena-json`` file. Each
header, calibration or arena case replaces one number token of one input
with a hostile token; each record case writes a hostile float word or
id, an arena with no camera or one flipped bit into the records, or cuts
or extends the body. Every case runs ``cli.main`` in-process. Whatever
the input, the command must exit 0, 1 or 2 without raising; an exit 1
prints ``error: <CourtliftError subclass>: ...``; and every report
written is strict JSON. The cases come from a fixed seed, and their
number keeps the run to a few seconds.
"""

import json
import random
import re
import struct

import pytest

from courtlift import calibration_to_json_dict, errors, make_camera, read_dataset
from courtlift.cli import main

SEED = 2029

# Replacement tokens, as JSON text.
TOKENS = (
    "NaN", "Infinity", "-Infinity", "1e308", "-1e308", "1e160", "1e-300", "2e-320", "-1",
    str(2**63), str(2**64), "1e999", '"1.0"', '"x"', "true", "false", "null", "[]", "{}",
)

# Random cases per input, on top of every token at n_samples and
# schema_version.
CASES = {"header": 360, "cal": 240, "arena": 120, "records": 600}

RECORD_SIZE = 88

# Hostile float words; a NaN's sign and payload are drawn per case.
FLOATS = (float("inf"), float("-inf"), 1e308, -1e308, 1e160, 1e-300, 2e-320)

# Hostile ids, as int64: -1 and the bits of 2**63.
IDS = (-1, -(2**63))

# Arenas without a camera in a two-arena dataset.
NO_CAMERA = (2, 7, -1, 2**62, 2**63 - 1, -(2**63))

COURTLIFT_ERRORS = {
    cls.__name__
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.CourtliftError)
}

_MARK = "@@fuzz@@"


def _number_paths(value, path=()):
    """The path of every number in a decoded JSON value."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _number_paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _number_paths(item, (*path, index))


def _mutated(value, path, token: str, indent=None) -> str:
    """The JSON text of ``value`` with the number at ``path`` replaced by ``token``."""
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _MARK
    return json.dumps(value, indent=indent).replace(json.dumps(_MARK), token)


def _cases(value, name: str, always=()):
    """Every token at each path in ``always``, then CASES[name] random
    (path, token) pairs, from the fixed seed."""
    rng = random.Random(f"{SEED}-{name}")
    paths = list(_number_paths(value))
    fixed = [(path, token) for path in always for token in TOKENS]
    return fixed + [(rng.choice(paths), rng.choice(TOKENS)) for _ in range(CASES[name])]


def _strict(text: str):
    def refuse(token):
        raise AssertionError(f"non-finite {token} in a report")

    return json.loads(text, parse_constant=refuse)


def _run(argv: list[str], case, capsys) -> tuple[int, str]:
    """Run one command; check its exit code and error line. Returns the
    exit code and stdout."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    except Exception as exc:
        pytest.fail(f"{case}: {' '.join(argv[:1])} raised {type(exc).__name__}: {exc}")
    captured = capsys.readouterr()
    assert code in (0, 1, 2), case
    if code == 1:
        match = re.match(r"error: (\w+): ", captured.err)
        assert match and match.group(1) in COURTLIFT_ERRORS, (case, captured.err)
    return code, captured.out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.dat"
    argv = ["synth", "--n", "24", "--arenas", "2", "--n-folds", "2", "--seed", "3"]
    assert main([*argv, "--out", str(path)]) == 0
    header, body = path.read_bytes().split(b"\n", 1)
    return json.loads(header), body


COMMANDS = (
    ["evaluate"],
    ["evaluate", "--method", "diameter", "--predictor", "gaussian", "--target-mae", "0.1"],
    ["sweep", "--grid", "0,40"],
)


def _run_dataset(k: int, data: bytes, case, tmp_path, capsys) -> None:
    """Run the k-th command, cycling through COMMANDS, on a dataset file
    of ``data``, as `_run` does; a report written is strict JSON."""
    path = tmp_path / f"{k}.dat"
    path.write_bytes(data)
    out = tmp_path / f"r{k}"
    command = COMMANDS[k % len(COMMANDS)]
    code, _ = _run([*command, "--dataset", str(path), "--out", str(out)], case, capsys)
    if code == 0:
        _strict(out.with_suffix(".json").read_text())


@pytest.mark.filterwarnings("ignore:camera center z")
def test_mutated_dataset_header(dataset, tmp_path, capsys):
    header, body = dataset
    for k, (path, token) in enumerate(
        _cases(header, "header", always=[("n_samples",), ("schema_version",)])
    ):
        data = _mutated(header, path, token).encode() + b"\n" + body
        _run_dataset(k, data, ("header", path, token), tmp_path, capsys)


def _record_cases(body: bytes):
    """CASES["records"] mutated record bodies, each with its case, from
    the fixed seed."""
    rng = random.Random(f"{SEED}-records")
    n = len(body) // RECORD_SIZE
    kinds = ("float", "nan", "id", "repeat", "arena", "bit", "cut", "extend")
    for _ in range(CASES["records"]):
        data = bytearray(body)
        kind, row = rng.choice(kinds), rng.randrange(n)
        at = row * RECORD_SIZE
        if kind == "float":
            detail = (rng.randrange(2, 11), rng.choice(FLOATS))
            struct.pack_into("<d", data, at + 8 * detail[0], detail[1])
        elif kind == "nan":
            bits = rng.getrandbits(1) << 63 | 0x7FF << 52 | (rng.getrandbits(52) or 1)
            detail = (rng.randrange(2, 11), hex(bits))
            struct.pack_into("<Q", data, at + 8 * detail[0], bits)
        elif kind == "id":
            detail = rng.choice(IDS)
            struct.pack_into("<q", data, at, detail)
        elif kind == "repeat":
            detail = rng.choice([k for k in range(n) if k != row])
            data[at : at + 8] = body[detail * RECORD_SIZE : detail * RECORD_SIZE + 8]
        elif kind == "arena":
            detail = rng.choice(NO_CAMERA)
            struct.pack_into("<q", data, at + 8, detail)
        elif kind == "bit":
            detail = rng.randrange(len(data) * 8)
            data[detail // 8] ^= 1 << detail % 8
        elif kind == "cut":
            detail = rng.randint(1, RECORD_SIZE)
            del data[len(data) - detail :]
        else:
            detail = rng.randint(1, RECORD_SIZE)
            data += rng.randbytes(detail)
        yield (kind, row, detail), bytes(data)


def test_mutated_records(dataset, tmp_path, capsys):
    header, body = dataset
    prefix = json.dumps(header).encode() + b"\n"
    for k, (case, records) in enumerate(_record_cases(body)):
        _run_dataset(k, prefix + records, case, tmp_path, capsys)


@pytest.mark.filterwarnings("ignore:camera center z")
def test_mutated_calibration_file(tmp_path, capsys):
    cal = calibration_to_json_dict(make_camera((0, -20, 6), (0, 0, 0), 2000, 4500, 1500))
    for k, (path, token) in enumerate(_cases(cal, "cal")):
        case = ("cal", path, token)
        cal_file = tmp_path / f"{k}.json"
        cal_file.write_text(_mutated(cal, path, token))
        argv = ["reconstruct", "--cal", str(cal_file), "--x", "1712.4", "--y", "903.1"]
        code, out = _run([*argv, "--height", "86.5"], case, capsys)
        if code == 0:
            _strict(out)


def test_mutated_arena_json(tmp_path, capsys):
    spec = {
        "court_half_length": 14.0,
        "court_half_width": 7.5,
        "camera_height_range": [3.0, 8.0],
        "camera_distance_range": [15.0, 30.0],
        "focal_range": [1500.0, 3000.0],
        "image_width": 4500.0,
        "image_height": 1500.0,
        "k1_range": [-0.15, 0.0],
        "k2_range": [0.0, 0.03],
        "ball_diameter_m": 0.24,
    }
    for k, (path, token) in enumerate(_cases(spec, "arena")):
        case = ("arena", path, token)
        arena_file = tmp_path / f"{k}.json"
        arena_file.write_text(_mutated(spec, path, token))
        out = tmp_path / f"{k}.dat"
        argv = ["synth", "--n", "6", "--arenas", "2", "--arena-json", str(arena_file)]
        code, _ = _run([*argv, "--out", str(out)], case, capsys)
        # A written dataset reads back; a refused spec writes none.
        if code == 0:
            read_dataset(out)
        else:
            assert not out.exists(), case



# A value nested past the decoder's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "name, code, error",
    [("header", 1, "SchemaVersionMismatch"), ("cal", 1, "InvalidCalibration"), ("arena", 2, None)],
)
def test_deep_nesting_fails_typed(dataset, tmp_path, capsys, name, code, error):
    # The header's folds, or a whole --cal or --arena-json file, nests
    # 100 000 arrays deep: the command refuses it like any other value
    # it cannot read, and raises no RecursionError.
    header, body = dataset
    data = tmp_path / "deep.dat"
    data.write_bytes(_mutated(header, ("folds",), DEEP).encode() + b"\n" + body)
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    argv = {
        "header": ["evaluate", "--dataset", str(data), "--out", str(tmp_path / "r")],
        "cal": ["reconstruct", "--cal", str(deep), "--x", "1", "--y", "1", "--height", "1"],
        "arena": ["synth", "--n", "6", "--arena-json", str(deep), "--out", str(data)],
    }[name]
    try:
        assert main(argv) == code
    except SystemExit as exc:  # argparse's usage errors
        assert exc.code == code
    err = capsys.readouterr().err
    if error:
        assert err.startswith(f"error: {error}: ") and "nests too deep" in err, err
    else:
        assert "nests too deep" in err, err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "name, code, error",
    [("header", 1, "SchemaVersionMismatch"), ("cal", 1, "InvalidCalibration"), ("arena", 2, None)],
)
def test_non_finite_token_error_names_its_position(
    dataset, tmp_path, capsys, name, code, error, token
):
    # The header is one line; the --cal and --arena-json files are
    # indented, so their token sits past line 1.
    header, body = dataset
    cal = calibration_to_json_dict(make_camera((0, -20, 6), (0, 0, 0), 2000, 4500, 1500))
    spec = {"ball_diameter_m": 0.24, "focal_range": [1500.0, 3000.0]}
    value, at, indent = {
        "header": (header, ("cameras", 1, "cal", "R", 4), None),
        "cal": (cal, ("dist", "k2"), 2),
        "arena": (spec, ("focal_range", 1), 2),
    }[name]
    text = _mutated(value, at, token, indent)
    pos = _mutated(value, at, "@", indent).index("@")
    line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    assert (line == 1) == (name == "header")
    data = tmp_path / "in.dat"
    data.write_bytes(text.encode() + b"\n" + body)
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = {
        "header": ["evaluate", "--dataset", str(data), "--out", str(tmp_path / "r")],
        "cal": ["reconstruct", "--cal", str(path), "--x", "1", "--y", "1", "--height", "1"],
        "arena": ["synth", "--n", "6", "--arena-json", str(path), "--out", str(data)],
    }[name]
    try:
        assert main(argv) == code
    except SystemExit as exc:  # argparse's usage errors
        assert exc.code == code
    err = capsys.readouterr().err
    message = f"non-finite number {token}: line {line} column {column} (char {pos})"
    assert message in err, err
    if error:
        assert err.startswith(f"error: {error}: "), err
