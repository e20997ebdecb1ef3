"""Dataset serialization (JSON Lines), arena-fold splitting, rebalancing.

File format: a header line ``{"schema_version": 1, "folds": {...}}``
followed by one JSON object per sample. Floats are serialized with
round-trip-exact decimal formatting (Python's repr), so read(write(ds))
is bit-exact.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .camera import (
    ImagePoint,
    WorldPoint,
    calibration_from_json_dict,
    calibration_to_json_dict,
    validate,
)
from .errors import (
    FoldViolation,
    MalformedRecord,
    OneSidedDataset,
    SchemaVersionMismatch,
    UnknownFold,
)
from .rng import PURPOSE_REBALANCE, stream
from .synth import BallSample

SCHEMA_VERSION = 1

_RECORD_KEYS = ("id", "arena", "cal", "ball_3d", "ball_px", "foot_px", "h_true", "diam_px")


@dataclass(frozen=True)
class Dataset:
    """Samples plus a partition of arena ids into named folds."""

    samples: list[BallSample]
    folds: dict[str, frozenset[int]]

    def __post_init__(self):
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
        seen_ids = set()
        for i, s in enumerate(self.samples):
            if s.sample_id in seen_ids:
                raise MalformedRecord(i, f"duplicate sample id {s.sample_id}")
            seen_ids.add(s.sample_id)
            if s.arena_id not in seen_arenas:
                raise FoldViolation(f"sample {s.sample_id}: arena {s.arena_id} is in no fold")

    @property
    def arena_ids(self) -> set[int]:
        return {s.arena_id for s in self.samples}


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


def _sample_to_record(s: BallSample) -> dict:
    return {
        "id": s.sample_id,
        "arena": s.arena_id,
        "cal": calibration_to_json_dict(s.cal),
        "ball_3d": [s.ball_3d.x, s.ball_3d.y, s.ball_3d.z],
        "ball_px": [s.ball_px.x, s.ball_px.y],
        "foot_px": [s.foot_px.x, s.foot_px.y],
        "h_true": s.h_true,
        "diam_px": s.diameter_px_true,
    }


def _record_values(s: BallSample) -> tuple:
    """A record's numbers other than its calibration's, in key order."""
    b, p, f = s.ball_3d, s.ball_px, s.foot_px
    return (
        s.arena_id, b.x, b.y, b.z, p.x, p.y, s.diameter_px_true, f.x, f.y, s.h_true, s.sample_id
    )


# json.dumps(record, sort_keys=True) with the calibration's text at %s.
# %r writes an exact int or float as json does: int.__repr__, float.__repr__.
_RECORD_LINE = (
    '{"arena": %r, "ball_3d": [%r, %r, %r], "ball_px": [%r, %r], "cal": %s, '
    '"diam_px": %r, "foot_px": [%r, %r], "h_true": %r, "id": %r}\n'
)
_PLAIN_NUMBERS = frozenset((int, float))


def _checked_calibration_texts(samples: Sequence[BallSample]) -> dict[int, str]:
    """Each distinct calibration's JSON text, keyed by the object's id.

    Every number of every record is checked on the way: a non-finite one
    raises MalformedRecord with the sample's index."""
    texts: dict[int, str] = {}
    for index, s in enumerate(samples):
        if id(s.cal) not in texts:
            try:
                text = json.dumps(calibration_to_json_dict(s.cal), sort_keys=True, allow_nan=False)
            except ValueError as exc:
                raise MalformedRecord(index, "calibration is not finite") from exc
            texts[id(s.cal)] = text
        try:
            finite = all(map(math.isfinite, _record_values(s)))
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise MalformedRecord(index, "a value is not a finite number")
    return texts


def _record_line(s: BallSample, cal_text: str) -> str:
    """The record's line, byte for byte json.dumps(record, sort_keys=True)."""
    values = _record_values(s)
    if not _PLAIN_NUMBERS.issuperset(map(type, values)):
        # bool, numpy scalars and other subclasses: json's own formatting.
        return json.dumps(_sample_to_record(s), sort_keys=True) + "\n"
    return _RECORD_LINE % (*values[:6], cal_text, *values[6:])


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


# One decoder for every line: json.loads with a keyword argument would
# build a new one per call. It rejects the NaN, Infinity and -Infinity tokens.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _integer(value, key: str) -> int:
    if not float(value).is_integer():
        raise ValueError(f"{key} {value!r} is not an integer")
    return int(value)


def _sample_from_record(obj: dict, index: int, arena_cals: dict) -> BallSample:
    """Parse one record. ``arena_cals`` maps each arena seen so far to its
    first record's calibration JSON and object; the first calibration must
    be valid, and later records of the arena must carry the same one and
    share that object."""
    missing = [k for k in _RECORD_KEYS if k not in obj]
    if missing:
        raise MalformedRecord(index, f"missing keys {missing}")
    try:
        arena_id = _integer(obj["arena"], "arena")
        if arena_id not in arena_cals:
            cal = calibration_from_json_dict(obj["cal"])
            violations = validate(cal)
            if violations:
                raise MalformedRecord(
                    index, f"arena {arena_id} calibration is invalid: {', '.join(violations)}"
                )
            arena_cals[arena_id] = (obj["cal"], cal)
        first_json, cal = arena_cals[arena_id]
        if obj["cal"] != first_json:
            raise MalformedRecord(
                index, f"arena {arena_id} calibration differs from its first record's"
            )
        # An id keys the predictors' per-sample streams and is packed as int64.
        sample_id = _integer(obj["id"], "id")
        if not 0 <= sample_id < 2**63:
            raise ValueError(f"id {sample_id} is outside [0, 2**63)")
        ball_3d = [float(x) for x in obj["ball_3d"]]
        ball_px = [float(x) for x in obj["ball_px"]]
        foot_px = [float(x) for x in obj["foot_px"]]
        h_true, diam_px = float(obj["h_true"]), float(obj["diam_px"])
        # One check per record: json parses an overflowing literal such as
        # 1e999 to infinity without a constant token.
        if not all(map(math.isfinite, (*ball_3d, *ball_px, *foot_px, h_true, diam_px))):
            raise ValueError("ball_3d, ball_px, foot_px, h_true or diam_px is not finite")
        return BallSample(
            sample_id=sample_id,
            arena_id=arena_id,
            cal=cal,
            ball_3d=WorldPoint(*ball_3d),
            ball_px=ImagePoint(*ball_px),
            foot_px=ImagePoint(*foot_px),
            h_true=h_true,
            diameter_px_true=diam_px,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecord(index, str(exc)) from exc


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


def write_dataset(ds: Dataset, sink) -> None:
    """Write a dataset as JSON Lines to a path or text file object.

    Every number is checked finite before anything is written, and for a
    path before the file is opened; a non-finite one raises
    MalformedRecord with the sample's index. Each distinct calibration is
    serialized once, and records go to the sink one line at a time.
    """
    cal_texts = _checked_calibration_texts(ds.samples)
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as f:
            _write_lines(ds, cal_texts, f)
    else:
        _write_lines(ds, cal_texts, sink)


def _write_lines(ds: Dataset, cal_texts: dict[int, str], sink) -> None:
    header = {
        "schema_version": SCHEMA_VERSION,
        "folds": {name: sorted(ids) for name, ids in sorted(ds.folds.items())},
    }
    sink.write(json.dumps(header, sort_keys=True) + "\n")
    for s in ds.samples:
        sink.write(_record_line(s, cal_texts[id(s.cal)]))


def read_dataset(source) -> Dataset:
    """Read a dataset from a path or text file object, validating as it goes."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as f:
            return read_dataset(f)
    lines = [line for line in source.read().splitlines() if line.strip()]
    if not lines:
        raise SchemaVersionMismatch("empty dataset file")
    try:
        header = _DECODER.decode(lines[0])
    except ValueError as exc:
        raise SchemaVersionMismatch(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaVersionMismatch(f"header must be a JSON object, got {header!r}")
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"expected schema_version {SCHEMA_VERSION}, got {version!r}"
        )
    folds = _folds_from_header(header.get("folds", {}))
    samples = []
    arena_cals: dict = {}
    for index, line in enumerate(lines[1:]):
        try:
            obj = _DECODER.decode(line)
        except ValueError as exc:
            raise MalformedRecord(index, f"invalid JSON: {exc}") from exc
        samples.append(_sample_from_record(obj, index, arena_cals))
    return Dataset(samples=samples, folds=folds)


def dataset_to_string(ds: Dataset) -> str:
    buf = io.StringIO()
    write_dataset(ds, buf)
    return buf.getvalue()


def split(ds: Dataset, test_fold: str) -> tuple[Dataset, Dataset]:
    """Partition by arena membership of the named fold; arenas never leak."""
    if test_fold not in ds.folds:
        raise UnknownFold(f"fold {test_fold!r} not in {sorted(ds.folds)}")
    test_arenas = ds.folds[test_fold]
    train_samples = [s for s in ds.samples if s.arena_id not in test_arenas]
    test_samples = [s for s in ds.samples if s.arena_id in test_arenas]
    train_folds = {name: ids for name, ids in ds.folds.items() if name != test_fold}
    train = Dataset(samples=train_samples, folds=train_folds)
    test = Dataset(samples=test_samples, folds={test_fold: test_arenas})
    return train, test


def rebalance(
    samples: Sequence[BallSample], threshold_m: float, seed: int
) -> list[BallSample]:
    """Equalize counts above/below a height threshold by oversampling.

    The minority side is duplicated (sampling with replacement, seeded)
    until both sides match; all original samples are retained in order,
    duplicates are appended. "Above" means ball z >= threshold.
    Idempotent on balanced input and deterministic under a fixed seed.
    """
    above = [s for s in samples if s.ball_3d.z >= threshold_m]
    below = [s for s in samples if s.ball_3d.z < threshold_m]
    if not above or not below:
        raise OneSidedDataset(
            f"{len(above)} samples above and {len(below)} below {threshold_m} m"
        )
    need = len(above) - len(below)
    if need == 0:
        return list(samples)
    minority = below if need > 0 else above
    rng = stream(seed, 0, PURPOSE_REBALANCE)
    picks = rng.integers(0, len(minority), size=abs(need))
    return list(samples) + [minority[int(j)] for j in picks]
