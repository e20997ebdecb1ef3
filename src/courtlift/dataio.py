"""Dataset serialization (JSON Lines) and arena-fold splitting.

File format (schema version 2): a header line

    {"cameras": [{"arena": a, "cal": {...}}, ...], "folds": {...}, "schema_version": 2}

that carries the calibration of each arena with records once, as the
`Samples` table does, followed by one JSON array of 11 numbers per
sample:

    [id, arena, bx, by, bz, u, v, foot_u, foot_v, h_true, diam_px]

the sample id, its arena, the ball's world position (m), its raw pixel,
its foot pixel, the undistorted pixel height and the true image
diameter. A record takes about 186 bytes, against 766 for version 1,
which is no longer read: `courtlift synth` run again with the flags that
wrote a version 1 file writes the same samples. Floats are written with
Python's round-trip-exact repr, so read(write(ds)) is bit-exact.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from ._record import ValueRecord, record
from .camera import calibration_to_json_dict, load_calibration
from .errors import (
    FoldViolation,
    MalformedRecord,
    SchemaVersionMismatch,
    UnknownFold,
)
from .synth import Samples

SCHEMA_VERSION = 2

# The field each position of a version 2 record holds.
_RECORD_FIELDS = (
    "id", "arena", "ball_3d", "ball_3d", "ball_3d", "ball_px", "ball_px",
    "foot_px", "foot_px", "h_true", "diam_px",
)
_RECORD_LEN = len(_RECORD_FIELDS)
_RECORD_LINE = "[%d, %d, %r, %r, %r, %r, %r, %r, %r, %r, %r]\n"

# The Python types json decodes a number to; a boolean's is bool, not int.
_NUMBER_TYPES = {int, float}

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


def _rows_in(arena: np.ndarray, arenas) -> np.ndarray:
    """Mask of the rows whose arena is in ``arenas``, a set of ints."""
    mask = np.zeros(len(arena), dtype=bool)
    for a in set(arena.tolist()).intersection(arenas):
        mask |= arena == a
    return mask


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


def _cameras(samples: Samples) -> list[dict]:
    """One header camera entry per arena that has records, in the order
    of each arena's first record. A calibration that is not finite raises
    MalformedRecord with the index of its arena's first record."""
    arena = samples.arena.tolist()
    entries = []
    for a in dict.fromkeys(arena):
        cal = samples.cameras[a]
        if not np.isfinite(cal.as_array()).all():
            raise MalformedRecord(arena.index(a), "calibration is not finite")
        entries.append({"arena": a, "cal": calibration_to_json_dict(cal)})
    return entries


def write_dataset(ds: Dataset, sink) -> None:
    """Write a dataset as JSON Lines to a path or text file object.

    Every number is checked finite, and every id checked to lie in
    [0, 2**63), before anything is written, and for a path before the
    file is opened; a failure raises MalformedRecord with the sample's
    index.
    """
    s = ds.samples
    header = {
        "cameras": _cameras(s),
        "folds": {name: sorted(ids) for name, ids in sorted(ds.folds.items())},
        "schema_version": SCHEMA_VERSION,
    }
    values = np.column_stack([s.ball_3d, s.ball_px, s.foot_px, s.h_true, s.d_true])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise MalformedRecord(int(np.argmin(finite)), "a value is not a finite number")
    ids = s.ids.tolist()
    if ids and not 0 <= min(ids) <= max(ids) < 2**63:
        index = next(i for i, v in enumerate(ids) if not 0 <= v < 2**63)
        raise MalformedRecord(index, f"id {ids[index]} is outside [0, 2**63)")
    lines = (_RECORD_LINE % row for row in zip(ids, s.arena.tolist(), *values.T.tolist()))
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as f:
            _write_lines(f, header, lines)
    else:
        _write_lines(sink, header, lines)


def _write_lines(sink, header: dict, lines) -> None:
    sink.write(json.dumps(header, sort_keys=True) + "\n")
    sink.writelines(lines)


# ---------------------------------------------------------------------------
# Reading.


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


# One decoder for every line: json.loads with a keyword argument would
# build a new one per call. It rejects the NaN, Infinity and -Infinity tokens.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _integer(value, key: str) -> int:
    if not float(value).is_integer() or type(value) not in _NUMBER_TYPES:
        raise ValueError(f"{key} {value!r} is not an integer")
    return int(value)


def _folds_from_header(folds) -> dict[str, frozenset[int]]:
    """The header's fold map: each fold names a list of integral arena ids."""
    if not isinstance(folds, dict):
        raise SchemaVersionMismatch(f"folds must be a JSON object, got {folds!r}")
    parsed = {}
    for name, ids in folds.items():
        if not isinstance(ids, list):
            raise SchemaVersionMismatch(f"fold {name!r}: arena ids must be a list, got {ids!r}")
        try:
            parsed[str(name)] = frozenset(_integer(a, "arena") for a in ids)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaVersionMismatch(f"fold {name!r}: {exc}") from exc
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
            arena = _integer(entry["arena"], "arena")
            if arena in cals:
                raise ValueError(f"arena {arena} has a second camera")
            cals[arena] = load_calibration(f"arena {arena} calibration", entry["cal"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaVersionMismatch(f"camera {k}: {exc}") from exc
    return cals


def _decode(line: str, index: int):
    """The JSON value of a stripped record line."""
    try:
        value, end = _DECODER.raw_decode(line)
    except ValueError as exc:
        raise MalformedRecord(index, f"invalid JSON: {exc}") from exc
    if end != len(line):
        raise MalformedRecord(index, f"invalid JSON: extra data at column {end + 1}")
    return value


def _records(lines) -> list[list]:
    records = []
    for index, line in enumerate(lines):
        record = _decode(line, index)
        if type(record) is not list or len(record) != _RECORD_LEN:
            raise MalformedRecord(index, f"expected a list of {_RECORD_LEN} numbers")
        records.append(record)
    return records


def _reject_non_numbers(records: list[list]) -> None:
    """Raise MalformedRecord at the first record value that is not a JSON
    number (a string or a boolean is not), or for id and arena not an
    int64."""
    for index, record in enumerate(records):
        for position, value in enumerate(record):
            name = _RECORD_FIELDS[position]
            try:
                if type(value) not in _NUMBER_TYPES:
                    raise TypeError(f"{type(value).__name__} is not a number type")
                float(value)
            except (TypeError, OverflowError) as exc:
                raise MalformedRecord(index, f"{name} {value!r} is not a number") from exc
            if position < 2:
                try:
                    np.array([value], dtype=np.int64)
                except (TypeError, ValueError, OverflowError) as exc:
                    message = f"{name} {value!r} is outside the int64 range"
                    raise MalformedRecord(index, message) from exc


def _samples(records: list[list], cals: dict) -> Samples:
    """The table of version 2 records, checked column by column: every
    value a finite number, id and arena integral, ids in [0, 2**63), and
    every arena with a camera in ``cals``."""
    # np.array would parse a string holding a number, and take a boolean as 0 or 1.
    if not set(map(type, chain.from_iterable(records))) <= _NUMBER_TYPES:
        _reject_non_numbers(records)
    try:
        values = np.array(records, dtype=np.float64).reshape(-1, _RECORD_LEN)
        keys = np.array([r[:2] for r in records], dtype=np.int64).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        _reject_non_numbers(records)
        raise
    bad = ~np.isfinite(values)
    if bad.any():
        index, position = np.argwhere(bad)[0].tolist()
        raise MalformedRecord(index, f"{_RECORD_FIELDS[position]} is not a finite number")
    fractional = keys != values[:, :2]
    if fractional.any():
        index, position = np.argwhere(fractional)[0].tolist()
        value = records[index][position]
        raise MalformedRecord(index, f"{_RECORD_FIELDS[position]} {value!r} is not an integer")
    ids, arena = keys.T
    # An id keys the predictors' per-sample streams and is packed as int64.
    negative = ids < 0
    if negative.any():
        index = int(np.argmax(negative))
        raise MalformedRecord(index, f"id {ids[index]} is outside [0, 2**63)")
    unknown = ~_rows_in(arena, cals)
    if unknown.any():
        index = int(np.argmax(unknown))
        raise MalformedRecord(index, f"arena {arena[index]} has no camera in the header")
    return Samples(
        ids=np.ascontiguousarray(ids),
        arena=np.ascontiguousarray(arena),
        cameras=cals,
        ball_3d=np.ascontiguousarray(values[:, 2:5]),
        ball_px=np.ascontiguousarray(values[:, 5:7]),
        foot_px=np.ascontiguousarray(values[:, 7:9]),
        h_true=np.ascontiguousarray(values[:, 9]),
        d_true=np.ascontiguousarray(values[:, 10]),
    )


def read_dataset(source) -> Dataset:
    """Read a dataset from a path or text file object, validating it.

    The file is read a line at a time; blank lines are skipped. A bad
    header raises SchemaVersionMismatch, and a bad record MalformedRecord
    with its index among the records.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as f:
            return read_dataset(f)
    lines = filter(None, map(str.strip, source))
    first = next(lines, None)
    if first is None:
        raise SchemaVersionMismatch("empty dataset file")
    try:
        header = _DECODER.decode(first)
    except ValueError as exc:
        raise SchemaVersionMismatch(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaVersionMismatch(f"header must be a JSON object, got {header!r}")
    version = header.get("schema_version")
    if version == 1:
        raise SchemaVersionMismatch(
            "schema_version 1 files are no longer read; run `courtlift synth` again "
            "with the flags that wrote this file for the same samples as a version 2 file"
        )
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected schema_version {SCHEMA_VERSION}, got {version!r}")
    folds = _folds_from_header(header.get("folds", {}))
    cals = _cameras_from_header(header.get("cameras"))
    return Dataset(samples=_samples(_records(lines), cals), folds=folds)


def split(ds: Dataset, test_fold: str) -> tuple[Dataset, Dataset]:
    """Partition by arena membership of the named fold; arenas never leak."""
    if test_fold not in ds.folds:
        raise UnknownFold(f"fold {test_fold!r} not in {sorted(ds.folds)}")
    test_arenas = ds.folds[test_fold]
    in_test = _rows_in(ds.samples.arena, test_arenas)
    train_folds = {name: ids for name, ids in ds.folds.items() if name != test_fold}
    train = Dataset(samples=ds.samples[~in_test], folds=train_folds)
    test = Dataset(samples=ds.samples[in_test], folds={test_fold: test_arenas})
    return train, test

