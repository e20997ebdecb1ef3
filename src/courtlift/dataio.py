"""Dataset serialization and arena-fold splitting.

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


def _float_words(table: np.ndarray) -> np.ndarray:
    """The (n, 9) view of a record table's float words, ball_3d to d_true."""
    return table.view("<f8").reshape(-1, len(_WORDS))[:, 2:]


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
    """Write a dataset as schema version 3 to a path or binary file object.

    Every number is checked finite, and every id checked to lie in
    [0, 2**63), before anything is written, and for a path before the
    file is opened; a failure raises MalformedRecord with the sample's
    index.
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
    finite = np.isfinite(_float_words(table)).all(axis=1)
    if not finite.all():
        raise MalformedRecord(int(np.argmin(finite)), "a value is not a finite number")
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


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


# The header's decoder rejects the NaN, Infinity and -Infinity tokens.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _integer(value, key: str) -> int:
    # A boolean's type is bool, not int: JSON true is not an integer.
    if not float(value).is_integer() or type(value) not in (int, float):
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


def _header(line: bytes) -> dict:
    """The header line's JSON object, of schema version 3."""
    if not line:
        raise SchemaVersionMismatch("empty dataset file")
    try:
        header = _DECODER.decode(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise SchemaVersionMismatch(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaVersionMismatch(f"header must be a JSON object, got {header!r}")
    version = header.get("schema_version")
    if version in (1, 2):
        raise SchemaVersionMismatch(
            f"schema_version {version} files are no longer read; run `courtlift synth` again "
            "with the flags that wrote this file for the same samples as a version 3 file"
        )
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected schema_version {SCHEMA_VERSION}, got {version!r}")
    if not line.endswith(b"\n"):
        raise SchemaVersionMismatch("the file ends inside its header line")
    return header


def _n_samples(value) -> int:
    if type(value) is not int or value < 0:
        raise SchemaVersionMismatch(f"n_samples must be an integer >= 0, got {value!r}")
    return value


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
    float finite, ids in [0, 2**63), and every arena with a camera in
    ``cals``."""
    bad = ~np.isfinite(_float_words(table))
    if bad.any():
        index, position = np.argwhere(bad)[0].tolist()
        raise MalformedRecord(index, f"{_WORDS[position + 2]} is not a finite number")
    ids = table["ids"].astype(np.int64)
    arena = table["arena"].astype(np.int64)
    # An id keys the predictors' per-sample streams and is packed as int64.
    negative = ids < 0
    if negative.any():
        index = int(np.argmax(negative))
        raise MalformedRecord(index, f"id {ids[index]} is outside [0, 2**63)")
    unknown = ~_rows_in(arena, cals)
    if unknown.any():
        index = int(np.argmax(unknown))
        raise MalformedRecord(index, f"arena {arena[index]} has no camera in the header")
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
    table = _record_table(memoryview(data)[end:], _n_samples(header.get("n_samples")))
    return Dataset(samples=_samples(table, cals), folds=folds)


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

