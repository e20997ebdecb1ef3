"""Dataset serialization (JSON Lines), arena-fold splitting, rebalancing.

File format (schema version 2): a header line

    {"cameras": [{"arena": a, "cal": {...}}, ...], "folds": {...}, "schema_version": 2}

that carries each arena's calibration once, followed by one JSON array
of 11 numbers per sample:

    [id, arena, bx, by, bz, u, v, foot_u, foot_v, h_true, diam_px]

the sample id, its arena, the ball's world position (m), its raw pixel,
its foot pixel, the undistorted pixel height and the true image
diameter. A record takes about 186 bytes; a version 1 record, which
copied the calibration into every record, took 766. Version 1 files
(one JSON object per sample with keys id, arena, cal, ball_3d, ball_px,
foot_px, h_true, diam_px) still read. Floats are written with Python's
round-trip-exact repr, so read(write(ds)) is bit-exact.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .camera import calibration_to_json_dict, load_calibration
from .errors import (
    FoldViolation,
    MalformedRecord,
    OneSidedDataset,
    SchemaVersionMismatch,
    UnknownFold,
)
from .rng import PURPOSE_REBALANCE, stream
from .synth import BallSample, Samples

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

_V1_KEYS = ("id", "arena", "cal", "ball_3d", "ball_px", "foot_px", "h_true", "diam_px")


@dataclass(frozen=True)
class Dataset:
    """Samples plus a partition of arena ids into named folds.

    ``samples`` may be given as `BallSample` rows; it is stored as a
    `Samples` table."""

    samples: Samples
    folds: dict[str, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "samples", Samples.from_rows(self.samples))
        object.__setattr__(
            self, "folds", {name: frozenset(ids) for name, ids in self.folds.items()}
        )
        self._check_invariants()

    def _check_invariants(self) -> None:
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

    @property
    def arena_ids(self) -> set[int]:
        return set(self.samples.arena.tolist())


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
    """One header camera entry per arena, in the order of each arena's
    first record. A calibration that is not finite, or an arena whose
    records carry calibrations that differ, raises MalformedRecord with
    the index of the first record concerned."""
    first: dict[tuple[int, int], int] = {}  # (arena, cal_index) -> first record
    for index, pair in enumerate(zip(samples.arena.tolist(), samples.cal_index.tolist())):
        first.setdefault(pair, index)
    texts: dict[int, str] = {}  # cal_index -> JSON text
    arena_cal: dict[int, int] = {}  # arena -> cal_index of its first record
    for (arena, j), index in first.items():
        if j not in texts:
            cal = calibration_to_json_dict(samples.cals[j])
            try:
                texts[j] = json.dumps(cal, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                raise MalformedRecord(index, "calibration is not finite") from exc
        if texts[arena_cal.setdefault(arena, j)] != texts[j]:
            message = f"arena {arena} calibration differs from its first record's"
            raise MalformedRecord(index, message)
    cals = samples.cals
    return [{"arena": a, "cal": calibration_to_json_dict(cals[j])} for a, j in arena_cal.items()]


def write_dataset(ds: Dataset, sink) -> None:
    """Write a dataset as JSON Lines to a path or text file object.

    Every number is checked finite, and every arena's records checked to
    carry one calibration, before anything is written, and for a path
    before the file is opened; a failure raises MalformedRecord with the
    sample's index.
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
    lines = (
        _RECORD_LINE % row
        for row in zip(s.ids.tolist(), s.arena.tolist(), *values.T.tolist())
    )
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


def _v2_records(lines) -> list[list]:
    records = []
    for index, line in enumerate(lines):
        record = _decode(line, index)
        if type(record) is not list or len(record) != _RECORD_LEN:
            raise MalformedRecord(index, f"expected a list of {_RECORD_LEN} numbers")
        records.append(record)
    return records


def _v1_records(lines) -> tuple[dict, list[list]]:
    """Version 1 records as version 2 ones, and the calibration of each
    arena. An arena's first record supplies its calibration, and every
    later record of the arena must carry the same one."""
    cals, cal_json, records = {}, {}, []
    for index, line in enumerate(lines):
        obj = _decode(line, index)
        if not isinstance(obj, dict):
            raise MalformedRecord(index, "expected a JSON object")
        missing = [k for k in _V1_KEYS if k not in obj]
        if missing:
            raise MalformedRecord(index, f"missing keys {missing}")
        try:
            arena = _integer(obj["arena"], "arena")
            if arena not in cals:
                cals[arena] = load_calibration(f"arena {arena} calibration", obj["cal"])
                cal_json[arena] = obj["cal"]
            elif obj["cal"] != cal_json[arena]:
                raise ValueError(f"arena {arena} calibration differs from its first record's")
            lists = [obj[k] for k in ("ball_3d", "ball_px", "foot_px")]
            if [len(x) if isinstance(x, list) else None for x in lists] != [3, 2, 2]:
                raise ValueError("ball_3d, ball_px and foot_px must be lists of 3, 2 and 2")
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedRecord(index, str(exc)) from exc
        ball_3d, ball_px, foot_px = lists
        records.append(
            [obj["id"], obj["arena"], *ball_3d, *ball_px, *foot_px, obj["h_true"], obj["diam_px"]]
        )
    return cals, records


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
    position = {a: j for j, a in enumerate(cals)}
    cal_index = np.array([position.get(a, -1) for a in arena.tolist()], dtype=np.int64)
    unknown = cal_index < 0
    if unknown.any():
        index = int(np.argmax(unknown))
        raise MalformedRecord(index, f"arena {arena[index]} has no camera in the header")
    return Samples(
        ids=np.ascontiguousarray(ids),
        arena=np.ascontiguousarray(arena),
        cals=tuple(cals.values()),
        cal_index=cal_index,
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
    if version not in (1, SCHEMA_VERSION):
        raise SchemaVersionMismatch(
            f"expected schema_version 1 or {SCHEMA_VERSION}, got {version!r}"
        )
    folds = _folds_from_header(header.get("folds", {}))
    if version == 1:
        cals, records = _v1_records(lines)
    else:
        cals = _cameras_from_header(header.get("cameras"))
        records = _v2_records(lines)
    return Dataset(samples=_samples(records, cals), folds=folds)


def dataset_to_string(ds: Dataset) -> str:
    buf = io.StringIO()
    write_dataset(ds, buf)
    return buf.getvalue()


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


def rebalance(
    samples: Sequence[BallSample] | Samples, threshold_m: float, seed: int
) -> list[BallSample]:
    """Equalize counts above/below a height threshold by oversampling.

    The minority side is duplicated (sampling with replacement, seeded)
    until both sides match; all original samples are retained in order,
    duplicates are appended. "Above" means ball z >= threshold.
    Idempotent on balanced input and deterministic under a fixed seed.
    """
    samples = list(samples)
    above = [s for s in samples if s.ball_3d.z >= threshold_m]
    below = [s for s in samples if s.ball_3d.z < threshold_m]
    if not above or not below:
        raise OneSidedDataset(
            f"{len(above)} samples above and {len(below)} below {threshold_m} m"
        )
    need = len(above) - len(below)
    if need == 0:
        return samples
    minority = below if need > 0 else above
    rng = stream(seed, 0, PURPOSE_REBALANCE)
    picks = rng.integers(0, len(minority), size=abs(need))
    return samples + [minority[int(j)] for j in picks]
