"""The `Samples` table, dataset serialization, arena folds and every
JSON input.

`Samples` lives here, with the format that stores it, so that reading a
dataset imports no sampler: `synth` fills the table, and
`load_arena_spec` imports `synth.ArenaSpec` only when it is called.

The dataset header, ``reconstruct --cal`` (`load_calibration`) and
``synth --arena-json`` (`load_arena_spec`) share one JSON decoder, which
refuses NaN and Infinity tokens; a number must be a JSON number, and an
integer (arena id, n_samples, schema_version) an int or integral float.

File format (schema version 3): one JSON header line

    {"cameras": [{"arena": a, "cal": {...}}, ...], "folds": {...},
     "n_samples": n, "schema_version": 3}

that carries the calibration of each arena with records once, as the
`Samples` table does, and the record count. Right after the header's
newline come exactly ``n`` packed records of `RECORD_DTYPE`, 88 bytes
each, little-endian, in this field order:

    ids <i8, arena <i8, ball_3d <f8 x3, ball_px <f8 x2, foot_px <f8 x2,
    h_true <f8, d_true <f8

the sample id, its arena, the ball's world position (m), its raw pixel,
its foot pixel, the undistorted pixel height and the true image
diameter. The records are the raw bits of the table's columns, as in
NumPy's ``.npy`` format, so read(write(ds)) is bit-exact and neither
side formats or parses a float. Each record's own rules are checked
where a `Samples` table is built, so the writer checks only the header's
cameras. Version 1 and 2 files, which held text records, are no longer
read: `courtlift synth` run again with the flags that wrote one writes
the same samples.
"""

from __future__ import annotations

import json
import re
from dataclasses import field, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ._record import Record, ValueRecord, record
from .camera import CameraCalibration, validate
from .errors import (
    FoldViolation,
    MalformedRecord,
    SchemaVersionMismatch,
    UnknownFold,
)

SCHEMA_VERSION = 3

# One record of a version 3 body; its field names are the Samples columns.
RECORD_DTYPE = np.dtype(
    [
        ("ids", "<i8"),
        ("arena", "<i8"),
        ("ball_3d", "<f8", (3,)),
        ("ball_px", "<f8", (2,)),
        ("foot_px", "<f8", (2,)),
        ("h_true", "<f8"),
        ("d_true", "<f8"),
    ]
)


# The float columns of a `Samples` table: every record field after the ids.
_FLOAT_COLUMNS = RECORD_DTYPE.names[2:]


def check_ids(values) -> tuple[np.ndarray | None, tuple[int, str] | None]:
    """The sample-id rule: an id keys noise streams and is stored as int64,
    so it is a whole number in [0, 2**63). A 1-D integer or float array
    gives (its int64 ids, None), never truncated or wrapped; else (None,
    (i, message)) for its first bad id i, 0 for bool, string or object data."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        return None, (0, f"ids must be integers or whole-number floats, got {values.dtype} data")
    ids = values if values.dtype.kind == "f" else values.astype(np.int64, copy=False)
    ok = ids >= 0  # a uint64 id of 2**63 or more has wrapped to a negative one
    if values.dtype.kind == "f":
        ok &= (np.floor(ids) == ids) & (ids < 2.0**63)  # NaN is no whole number
    if ok.all():
        return ids.astype(np.int64, copy=False), None
    i = int(np.argmin(ok))
    return None, (i, f"id {values[i].item()!r} is not a whole number in [0, 2**63)")


@record
class Samples(Record):
    """Annotated samples as columns: row i of every array is sample i.
    A table is read by its columns; courtlift has no row type.

    ``ball_px`` and ``foot_px`` are raw (distorted) pixels, as annotations
    made on original frames are; ``h_true`` is the undistorted pixel
    height, the predictors' target. ``d_true`` is mean(fx, fy) * D /
    camera depth, for the arena's ball diameter D: the model the diameter
    baseline inverts (``_kernels.similar_triangles``).

    ``cameras`` maps each arena id to its one calibration, so a row's
    camera is always ``cameras[arena[i]]``. ``cal_index[i]`` is the
    position of row i's camera in ``cameras``, the index ``ball_rays``
    takes. A slice, boolean mask or index array gives the table of those
    rows, with the same cameras.

    A column not of its field's shape for the n ids, such as ``(n, 3)``
    for ``ball_3d``, raises ValueError naming it. Then each row's rules
    are checked in this order, the first row i that breaks one raising
    MalformedRecord(i): every float is finite (naming row i's first
    non-finite field), every id keeps `check_ids`' rule and every arena
    has a camera.
    """

    ids: np.ndarray  # (n,) int64
    arena: np.ndarray  # (n,) int64
    cameras: dict[int, CameraCalibration]
    ball_3d: np.ndarray  # (n, 3) world metres
    ball_px: np.ndarray  # (n, 2) raw pixels
    foot_px: np.ndarray  # (n, 2) raw pixels
    h_true: np.ndarray  # (n,) undistorted pixel height
    d_true: np.ndarray  # (n,) true image diameter, pixels
    cal_index: np.ndarray = field(init=False, repr=False, compare=False)  # (n,) int64

    def __post_init__(self):
        n = np.size(self.ids)
        for name in RECORD_DTYPE.names:
            shape, want = np.shape(getattr(self, name)), (n, *RECORD_DTYPE[name].shape)
            if shape != want:
                raise ValueError(f"{name} has shape {shape}, not {want}")
        # (first faulty row, field) per column; min names a row's first field.
        faults = []
        for name in _FLOAT_COLUMNS:
            finite = np.isfinite(getattr(self, name))
            if not finite.all():
                rows = finite.reshape(n, -1).all(axis=1)
                faults.append((int(np.argmin(rows)), name))
        if faults:
            i, name = min(faults, key=lambda fault: fault[0])
            raise MalformedRecord(i, f"{name} is not a finite number")
        ids, fault = check_ids(self.ids)
        if fault:
            raise MalformedRecord(*fault)
        cameras = dict(self.cameras)
        # Binary search of the camera keys; a key past int64 names no row.
        # An arena past the last key has slot len(keys), read as the pad 0.
        pairs = [(a, j) for j, a in enumerate(cameras) if -(2**63) <= a < 2**63]
        keys, position = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        order = np.argsort(keys)
        slot = np.searchsorted(keys, self.arena, sorter=order)
        unknown = (slot == len(keys)) | (np.append(keys[order], 0)[slot] != self.arena)
        if unknown.any():
            i = int(np.argmax(unknown))
            raise MalformedRecord(i, f"arena {self.arena[i]} has no camera")
        cal_index = position[order][slot]
        self.__dict__.update(ids=ids, cameras=cameras, cal_index=cal_index)

    def __len__(self) -> int:
        return len(self.ids)

    # Only perfbench/run.py's check_synth iterates a table, for each
    # row's ids; this goes once that check reads the columns (ROADMAP
    # item 1).
    def __iter__(self):
        for i, a in zip(self.ids.tolist(), self.arena.tolist()):
            yield SimpleNamespace(sample_id=i, arena_id=a)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise TypeError("index a Samples table with a slice, mask or index array")
        return replace(self, **{name: getattr(self, name)[key] for name in RECORD_DTYPE.names})


@record
class Dataset(ValueRecord):
    """A `Samples` table plus a partition of arena ids into named folds.

    The table already holds one camera per arena; a dataset adds that
    sample ids are unique and every sample's arena is in exactly one fold.
    """

    samples: Samples
    folds: dict[str, frozenset[int]]

    def __post_init__(self):
        if not isinstance(self.samples, Samples):
            raise TypeError(f"samples must be a Samples table, got {type(self.samples).__name__}")
        self.__dict__["folds"] = {name: frozenset(ids) for name, ids in self.folds.items()}
        seen_arenas: dict[int, str] = {}
        for name, ids in self.folds.items():
            for arena in ids:
                if arena in seen_arenas:
                    raise FoldViolation(
                        f"arena {arena} appears in folds {seen_arenas[arena]!r} and {name!r}"
                    )
                seen_arenas[arena] = name
        ids = self.samples.ids
        order = np.argsort(ids, kind="stable")
        repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
        if len(repeats):
            index = int(repeats.min())
            raise MalformedRecord(index, f"duplicate sample id {ids[index]}")
        unfolded = ~_rows_in(self.samples, seen_arenas)
        if unfolded.any():
            index = int(np.argmax(unfolded))
            arena = self.samples.arena[index]
            raise FoldViolation(f"sample {ids[index]}: arena {arena} is in no fold")

    def fold(self, name: str) -> Samples:
        """The rows of fold ``name``'s arenas; UnknownFold for an unknown name."""
        if name not in self.folds:
            raise UnknownFold(f"fold {name!r} not in {sorted(self.folds)}")
        return self.samples[_rows_in(self.samples, self.folds[name])]


def _rows_in(samples: Samples, arenas) -> np.ndarray:
    """Mask of the rows whose arena is in ``arenas``: one lookup per
    camera, gathered through each row's camera index."""
    return np.array([a in arenas for a in samples.cameras], dtype=bool)[samples.cal_index]


def assign_folds(arena_ids: Sequence[int], n_folds: int) -> dict[str, set[int]]:
    """Round-robin arenas into n_folds named A, B, C, ...; fewer folds
    when there are fewer arenas, since a fold needs an arena of its own."""
    if n_folds < 1:
        raise ValueError(f"n_folds must be >= 1, got {n_folds}")
    arenas = sorted(set(arena_ids))
    n_folds = max(1, min(n_folds, len(arenas)))
    names = [_fold_name(i) for i in range(n_folds)]
    folds: dict[str, set[int]] = {name: set() for name in names}
    for i, arena in enumerate(arenas):
        folds[names[i % n_folds]].add(arena)
    return folds


def _fold_name(i: int) -> str:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return letters[i] if i < len(letters) else f"F{i}"


# ---------------------------------------------------------------------------
# Writing.


def calibration_to_json_dict(cal: CameraCalibration) -> dict:
    """Calibration as the JSON object used by dataset files."""
    return {
        "fx": cal.fx,
        "fy": cal.fy,
        "cx": cal.cx,
        "cy": cal.cy,
        "skew": cal.skew,
        "R": [float(x) for x in cal.rotation.ravel()],
        "t": [float(x) for x in cal.translation],
        "dist": {"k1": cal.k1, "k2": cal.k2, "k3": cal.k3, "p1": cal.p1, "p2": cal.p2},
        "width": cal.image_width,
        "height": cal.image_height,
    }


def _cameras(samples: Samples) -> list[dict]:
    """One header camera entry per arena that has records, in the order
    of each arena's first record. A calibration that `validate` refuses
    raises MalformedRecord naming its arena's first record and violations."""
    arena = samples.arena.tolist()
    entries = []
    for a in dict.fromkeys(arena):
        cal = samples.cameras[a]
        violations = ", ".join(validate(cal))
        if violations:
            raise MalformedRecord(arena.index(a), f"calibration is invalid: {violations}")
        entries.append({"arena": a, "cal": calibration_to_json_dict(cal)})
    return entries


def write_dataset(ds: Dataset, sink) -> None:
    """Write a dataset as schema version 3 to a path or binary file object.

    Every camera is checked with `validate` before anything is written,
    and for a path before the file is opened; an invalid one raises
    MalformedRecord with the index of its arena's first record.
    """
    s = ds.samples
    header = {
        "cameras": _cameras(s),
        "folds": {name: sorted(ids) for name, ids in sorted(ds.folds.items())},
        "n_samples": len(s),
        "schema_version": SCHEMA_VERSION,
    }
    table = np.empty(len(s), RECORD_DTYPE)
    for name in RECORD_DTYPE.names:
        table[name] = getattr(s, name)
    data = (json.dumps(header, sort_keys=True) + "\n").encode() + table.tobytes()
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as f:
            f.write(data)
    else:
        sink.write(data)


# ---------------------------------------------------------------------------
# Reading.


class _NonFinite(Exception):
    """The decoder met a NaN, Infinity or -Infinity token."""


def _reject_constant(token: str):
    raise _NonFinite(token)


# The one decoder of every JSON input; it refuses NaN and Infinity tokens.
# A literal past float range, 1e999, still reads as inf: finite checks stay.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)

# A JSON string, or a non-finite token outside one (group 1).
_STRING_OR_NON_FINITE = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')


def _decode(text: str) -> object:
    """``text``'s JSON value; ValueError if not JSON, on NaN or Infinity, or on
    deep nesting. A NaN or Infinity raises json.JSONDecodeError at its position."""
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError("JSON nests too deep") from exc
    except _NonFinite:
        # Every byte before the refused token decoded: it is the first
        # such token outside a string.
        token = next(m for m in _STRING_OR_NON_FINITE.finditer(text) if m.group(1))
        message = f"non-finite number {token.group(1)}"
        raise json.JSONDecodeError(message, text, token.start(1)) from None


def read_json(path) -> object:
    """A UTF-8 JSON file's value; ValueError as `_decode` raises it."""
    with open(path, "r", encoding="utf-8") as f:
        return _decode(f.read())


def _json_number(name: str, value) -> float:
    """A JSON number as a float; TypeError for a string, boolean or other value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_array(name: str, value, n: int) -> list[float]:
    """A JSON array of n numbers, as floats."""
    if type(value) is not list or len(value) != n:
        raise ValueError(f"{name} must be an array of {n} numbers, got {value!r}")
    return [_json_number(name, x) for x in value]


def _integer(value) -> int | None:
    """An int, or an integral float (2.0 reads as 2), in float range; else None."""
    try:
        return int(value) if type(value) in (int, float) and float(value).is_integer() else None
    except OverflowError:  # an int past float range
        return None


def load_calibration(label: str, obj) -> CameraCalibration:
    """The calibration of a JSON object in `calibration_to_json_dict`'s
    form, ``R`` flat or 3 rows of 3, checked with `validate`. ValueError,
    its message starting with ``label``, when it is unreadable or invalid."""
    try:
        dist, rotation = obj["dist"], obj["R"]
        if type(rotation) is list and len(rotation) == 3:
            rotation = [x for row in rotation for x in _json_array("R", row, 3)]
        cal = CameraCalibration(
            **{key: _json_number(key, obj[key]) for key in ("fx", "fy", "cx", "cy", "skew")},
            rotation=_json_array("R", rotation, 9),
            translation=_json_array("t", obj["t"], 3),
            **{key: _json_number(key, dist[key]) for key in ("k1", "k2", "k3", "p1", "p2")},
            image_width=_json_number("width", obj["width"]),
            image_height=_json_number("height", obj["height"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{label} is unreadable: {exc!r}") from exc
    violations = validate(cal)
    if violations:
        raise ValueError(f"{label} is invalid: {', '.join(violations)}")
    return cal


def load_arena_spec(obj) -> ArenaSpec:
    """The default `ArenaSpec` with the fields a JSON object names set to
    a number, or a [min, max] array for a range; ValueError on an unknown
    key, any other value, or a value `ArenaSpec` refuses."""
    from .synth import ArenaSpec  # only `synth --arena-json` needs the sampler

    if not isinstance(obj, dict):
        raise ValueError(f"arena spec must be a JSON object, got {obj!r}")
    defaults = {f.name: f.default for f in fields(ArenaSpec)}
    unknown = sorted(set(obj) - set(defaults))
    if unknown:
        raise ValueError(f"unknown arena spec keys {unknown}")
    kwargs = {}
    for name, value in obj.items():
        try:
            pair = isinstance(defaults[name], tuple)
            kwargs[name] = tuple(_json_array(name, value, 2)) if pair else _json_number(name, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"arena spec {name}: {exc}") from exc
    return ArenaSpec(**kwargs)


def _folds_from_header(folds) -> dict[str, frozenset[int]]:
    """The header's fold map: each fold names a list of integral arena ids."""
    if not isinstance(folds, dict):
        raise SchemaVersionMismatch(f"folds must be a JSON object, got {folds!r}")
    parsed = {}
    for name, ids in folds.items():
        if not isinstance(ids, list):
            raise SchemaVersionMismatch(f"fold {name!r}: arena ids must be a list, got {ids!r}")
        arenas = [_integer(a) for a in ids]
        if None in arenas:
            bad = ids[arenas.index(None)]
            raise SchemaVersionMismatch(f"fold {name!r}: arena {bad!r} is not an integer")
        parsed[str(name)] = frozenset(arenas)
    return parsed


def _cameras_from_header(cameras) -> dict:
    """Each header camera's calibration, keyed by arena, in file order."""
    if not isinstance(cameras, list):
        raise SchemaVersionMismatch(f"cameras must be a list, got {cameras!r}")
    cals = {}
    for k, entry in enumerate(cameras):
        try:
            if not isinstance(entry, dict) or set(entry) != {"arena", "cal"}:
                raise ValueError(f"expected an object with keys arena and cal, got {entry!r}")
            arena = _integer(entry["arena"])
            if arena is None:
                raise ValueError(f"arena {entry['arena']!r} is not an integer")
            if arena in cals:
                raise ValueError(f"arena {arena} has a second camera")
            cals[arena] = load_calibration(f"arena {arena} calibration", entry["cal"])
        except ValueError as exc:
            raise SchemaVersionMismatch(f"camera {k}: {exc}") from exc
    return cals


def _header(line: bytes) -> dict:
    """The header line's JSON object, of schema version 3."""
    if not line:
        raise SchemaVersionMismatch("empty dataset file")
    try:
        header = _decode(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise SchemaVersionMismatch(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaVersionMismatch(f"header must be a JSON object, got {header!r}")
    version = header.get("schema_version")
    if _integer(version) in (1, 2):
        raise SchemaVersionMismatch(
            f"schema_version {version} files are no longer read; run `courtlift synth` again "
            "with the flags that wrote this file for the same samples as a version 3 file"
        )
    if _integer(version) != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected schema_version {SCHEMA_VERSION}, got {version!r}")
    if not line.endswith(b"\n"):
        raise SchemaVersionMismatch("the file ends inside its header line")
    return header


def _record_table(body: memoryview, n: int) -> np.ndarray:
    """The body's record table; MalformedRecord naming the first
    incomplete record when it is short, or record ``n`` when it runs on."""
    size = RECORD_DTYPE.itemsize
    if len(body) != n * size:
        index = min(len(body) // size, n)
        if index < n:
            message = f"the file ends {len(body) - index * size} bytes into this record"
        else:
            message = f"{len(body) - n * size} bytes follow the last of {n} records"
        raise MalformedRecord(index, message)
    return np.frombuffer(body, RECORD_DTYPE)


def read_dataset(source) -> Dataset:
    """Read a dataset from a path or binary file object, validating it.

    A bad header raises SchemaVersionMismatch, and a bad record, or a
    body that is not exactly the header's n_samples records,
    MalformedRecord with its index among the records.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            return read_dataset(f)
    # One read of the whole file: after a readline(), reading the rest of
    # a 5000-record file took 15 times as long (0.3 ms against 0.02).
    data = source.read()
    end = data.find(b"\n") + 1 or len(data)
    header = _header(data[:end])
    folds = _folds_from_header(header.get("folds", {}))
    cals = _cameras_from_header(header.get("cameras"))
    count = header.get("n_samples")
    n = _integer(count)
    if n is None or n < 0:
        raise SchemaVersionMismatch(f"n_samples must be an integer >= 0, got {count!r}")
    table = _record_table(memoryview(data)[end:], n)
    # Copies, so that each column is contiguous.
    columns = {name: table[name].copy() for name in RECORD_DTYPE.names}
    return Dataset(samples=Samples(cameras=cals, **columns), folds=folds)

