"""Dataset serialization, arena folds and every JSON input.

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
side formats or parses a float. Version 1 and 2 files, which held text
records, are no longer read: `courtlift synth` run again with the flags
that wrote one writes the same samples.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path
from typing import Sequence

import numpy as np

from ._record import ValueRecord, record
from .camera import CameraCalibration, validate
from .errors import (
    FoldViolation,
    MalformedRecord,
    SchemaVersionMismatch,
    UnknownFold,
)
from .synth import ArenaSpec, Samples

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

# The field each of a record's eleven 8-byte words holds.
_WORDS = tuple(
    name for name in RECORD_DTYPE.names for _ in range(RECORD_DTYPE[name].itemsize // 8)
)


def _check_finite(table: np.ndarray) -> None:
    """MalformedRecord naming the first record with a non-finite float
    word, ball_3d to d_true, and that word's field."""
    bad = ~np.isfinite(table.view("<f8").reshape(-1, len(_WORDS))[:, 2:])
    if bad.any():
        index, position = np.argwhere(bad)[0].tolist()
        raise MalformedRecord(index, f"{_WORDS[position + 2]} is not a finite number")


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
        arena = self.samples.arena
        unfolded = ~_rows_in(arena, seen_arenas)
        if unfolded.any():
            index = int(np.argmax(unfolded))
            raise FoldViolation(f"sample {ids[index]}: arena {arena[index]} is in no fold")

    def fold(self, name: str) -> Samples:
        """The rows of fold ``name``'s arenas; UnknownFold for an unknown name."""
        if name not in self.folds:
            raise UnknownFold(f"fold {name!r} not in {sorted(self.folds)}")
        return self.samples[_rows_in(self.samples.arena, self.folds[name])]


def _rows_in(arena: np.ndarray, arenas) -> np.ndarray:
    """Mask of the rows whose arena is in ``arenas``; an int past int64 names none."""
    return np.isin(arena, [a for a in arenas if -(2**63) <= a < 2**63])


def assign_folds(arena_ids: Sequence[int], n_folds: int) -> dict[str, set[int]]:
    """Round-robin arenas into n_folds named A, B, C, ..."""
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

    Every number is checked finite, every camera valid, and every id
    checked to lie in [0, 2**63), before anything is written, and for a
    path before the file is opened; a failure raises MalformedRecord with
    the sample's index.
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
    _check_finite(table)
    ids = s.ids.tolist()
    if ids and not 0 <= min(ids) <= max(ids) < 2**63:
        index = next(i for i, v in enumerate(ids) if not 0 <= v < 2**63)
        raise MalformedRecord(index, f"id {ids[index]} is outside [0, 2**63)")
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


def _samples(table: np.ndarray, cals: dict) -> Samples:
    """The table of version 3 records, checked column by column: every
    float finite and ids in [0, 2**63); `Samples` checks the arenas."""
    _check_finite(table)
    ids = table["ids"].astype(np.int64)
    arena = table["arena"].astype(np.int64)
    # An id keys the predictors' per-sample streams and is packed as int64.
    negative = ids < 0
    if negative.any():
        index = int(np.argmax(negative))
        raise MalformedRecord(index, f"id {ids[index]} is outside [0, 2**63)")
    floats = {name: table[name].astype(np.float64) for name in RECORD_DTYPE.names[2:]}
    return Samples(ids=ids, arena=arena, cameras=cals, **floats)


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
    return Dataset(samples=_samples(table, cals), folds=folds)

