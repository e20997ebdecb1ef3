"""Dataset I/O tests: bit-exact round trips, fold discipline, rebalancing."""

import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from courtlift import (
    CameraCalibration,
    calibration_to_json_dict,
    Dataset,
    ImagePoint,
    WorldPoint,
    assign_folds,
    generate_dataset,
    read_dataset,
    rebalance,
    split,
    write_dataset,
)
from courtlift.cli import main
from courtlift.dataio import dataset_to_string
from courtlift.errors import (
    FoldViolation,
    MalformedRecord,
    OneSidedDataset,
    SchemaVersionMismatch,
    UnknownFold,
)
from courtlift.reconstruct import pack_calibrations
from courtlift.synth import BallSample

DATASET_V1 = Path(__file__).parent / "data" / "dataset_v1.jsonl"


def _dummy_cal() -> CameraCalibration:
    return CameraCalibration(
        fx=1000.0,
        fy=1000.0,
        cx=960.0,
        cy=540.0,
        rotation=np.eye(3),
        translation=np.zeros(3),
        image_width=1920.0,
        image_height=1080.0,
    )


def _sample(sample_id: int, arena_id: int = 0, z: float = 1.0) -> BallSample:
    return BallSample(
        sample_id=sample_id,
        arena_id=arena_id,
        cal=_dummy_cal(),
        ball_3d=WorldPoint(0.1 * sample_id, -0.2, z),
        ball_px=ImagePoint(100.0 + sample_id, 200.0),
        foot_px=ImagePoint(100.0 + sample_id, 260.0),
        h_true=60.0,
        diameter_px_true=48.0,
    )


class TestRoundTrip:
    def test_empty_dataset(self):
        ds = Dataset(samples=[], folds={})
        text = dataset_to_string(ds)
        rec = read_dataset(io.StringIO(text))
        assert len(rec.samples) == 0 and rec.folds == {}
        assert dataset_to_string(rec) == text

    def test_synthetic_dataset_is_bit_exact(self):
        samples = generate_dataset(seed=13, n=10_000, n_arenas=10)
        ds = Dataset(samples=samples, folds=assign_folds(range(10), 5))
        text = dataset_to_string(ds)
        rec = read_dataset(io.StringIO(text))
        assert dataset_to_string(rec) == text
        for a, b in zip(ds.samples, rec.samples):
            assert a.ball_3d == b.ball_3d  # float fields compare bit-exact
            assert a.ball_px == b.ball_px
            assert a.h_true == b.h_true and a.diameter_px_true == b.diameter_px_true
            np.testing.assert_array_equal(a.cal.rotation, b.cal.rotation)

    def test_file_round_trip(self, tmp_path):
        samples = generate_dataset(seed=14, n=20, n_arenas=2)
        ds = Dataset(samples=samples, folds={"A": {0}, "B": {1}})
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        rec = read_dataset(path)
        assert len(rec.samples) == 20
        assert rec.folds == {"A": frozenset({0}), "B": frozenset({1})}

    def test_version_1_file_reads_as_the_version_2_file_synth_writes(self, tmp_path):
        # dataset_v1.jsonl was written by `courtlift synth` with these flags
        # before the format changed.
        path = tmp_path / "v2.jsonl"
        argv = ["synth", "--n", "300", "--arenas", "3", "--seed", "1", "--out", str(path)]
        assert main(argv) == 0
        assert json.loads(path.read_text().splitlines()[0])["schema_version"] == 2
        old, new = read_dataset(DATASET_V1), read_dataset(path)
        assert old.folds == new.folds
        assert len(new.samples) == 300
        columns = ("ids", "arena", "cal_index", "ball_3d", "ball_px", "foot_px", "h_true", "d_true")
        for name in columns:
            a, b = getattr(old.samples, name), getattr(new.samples, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        old_cals, new_cals = (pack_calibrations(d.samples.cals) for d in (old, new))
        assert old_cals.tobytes() == new_cals.tobytes()


def _record(s: BallSample) -> list:
    return [
        s.sample_id,
        s.arena_id,
        *map(float, (s.ball_3d.x, s.ball_3d.y, s.ball_3d.z, s.ball_px.x, s.ball_px.y)),
        *map(float, (s.foot_px.x, s.foot_px.y, s.h_true, s.diameter_px_true)),
    ]


def _v1_record(s: BallSample) -> dict:
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


def _v1_text(samples, folds) -> str:
    """A version 1 file: the calibration in every record."""
    header = {"folds": {name: sorted(ids) for name, ids in folds.items()}, "schema_version": 1}
    lines = [header, *(_v1_record(s) for s in samples)]
    return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in lines)


EDGE_FLOATS = (-0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2, -1.7976931348623157e308, 123456.789)


class TestWrite:
    def test_every_line_is_json_dumps_of_its_record(self):
        shared = _dummy_cal()  # arenas 0 and 1 share this object
        equal = _dummy_cal()  # arena 2: a distinct object with equal values
        other = replace(_dummy_cal(), fx=1234.5, k1=-0.0, p2=1e-05, cx=5e-324)
        cals = [shared, shared, equal, other]
        samples = []
        for i in range(len(EDGE_FLOATS)):
            x = EDGE_FLOATS[i:] + EDGE_FLOATS[:i]
            samples.append(
                BallSample(
                    sample_id=i,
                    arena_id=i % 4,
                    cal=cals[i % 4],
                    ball_3d=WorldPoint(x[0], x[1], x[2]),
                    ball_px=ImagePoint(x[3], x[4]),
                    foot_px=ImagePoint(x[5], x[6]),
                    h_true=x[0],
                    diameter_px_true=x[1],
                )
            )
        # Numbers that are not exact floats: ints and numpy floats.
        samples.append(
            replace(samples[0], sample_id=7, h_true=60, ball_px=ImagePoint(np.float64(0.1), 2))
        )
        samples.append(replace(samples[1], sample_id=8, diameter_px_true=np.float64(1e16)))
        # A record of arena 2 with a distinct calibration object of equal value.
        samples.append(replace(samples[2], sample_id=9, cal=_dummy_cal()))
        ds = Dataset(samples=samples, folds={"A": {0, 1}, "B": {2, 3}})
        header, *lines = dataset_to_string(ds).split("\n")
        assert lines.pop() == ""
        cameras = [{"arena": a, "cal": calibration_to_json_dict(cals[a])} for a in range(4)]
        assert header == json.dumps(
            {"cameras": cameras, "folds": {"A": [0, 1], "B": [2, 3]}, "schema_version": 2},
            sort_keys=True,
        )
        assert len(lines) == len(samples)
        for line, s in zip(lines, samples):
            assert line == json.dumps(_record(s))

    def test_nan_is_rejected_before_the_file_is_opened(self, tmp_path):
        samples = [_sample(0), replace(_sample(1), h_true=float("nan")), _sample(2)]
        ds = Dataset(samples=samples, folds={"A": {0}})
        path = tmp_path / "ds.jsonl"
        with pytest.raises(MalformedRecord, match="record 1: .*not a finite number"):
            write_dataset(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "broken",
        [
            {"ball_3d": WorldPoint(0.0, float("inf"), 1.0)},
            {"foot_px": ImagePoint(float("-inf"), 1.0)},
            {"diameter_px_true": float("nan")},
            {"cal": replace(_dummy_cal(), k2=float("nan"))},
            # Finite, but not the calibration of the arena's first record.
            {"cal": replace(_dummy_cal(), fx=1001.0)},
        ],
    )
    def test_non_finite_number_is_rejected_before_any_line(self, broken):
        samples = [_sample(0), _sample(1), replace(_sample(2), **broken)]
        ds = Dataset(samples=samples, folds={"A": {0}})
        sink = io.StringIO()
        with pytest.raises(MalformedRecord, match="record 2: "):
            write_dataset(ds, sink)
        assert sink.getvalue() == ""


# Positions of the record fields in a version 2 record.
FIELD_POSITION = {
    "id": 0, "arena": 1, "ball_3d": 2, "ball_px": 5, "foot_px": 7, "h_true": 9, "diam_px": 10
}
CAL_JSON = json.dumps(calibration_to_json_dict(_dummy_cal()))


class TestReadValidation:
    def _text(self, ds: Dataset) -> list[str]:
        return dataset_to_string(ds).splitlines()

    def _two_records(self) -> tuple[str, list[list]]:
        header, *records = self._text(Dataset(samples=[_sample(0), _sample(1)], folds={"A": {0}}))
        return header, [json.loads(r) for r in records]

    def test_missing_key_is_malformed_with_index(self):
        text = _v1_text([_sample(0)], {"A": {0}})
        header, record = text.splitlines()
        broken = json.loads(record)
        del broken["cal"]
        text = header + "\n" + json.dumps(broken) + "\n"
        with pytest.raises(MalformedRecord, match="record 0"):
            read_dataset(io.StringIO(text))

    def test_wrong_schema_version(self):
        text = '{"schema_version": 99, "folds": {}}\n'
        with pytest.raises(SchemaVersionMismatch):
            read_dataset(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(SchemaVersionMismatch):
            read_dataset(io.StringIO(""))

    @pytest.mark.parametrize("record", ["{not json}", "[1, 0" + ", 1.0" * 9 + "] 5"])
    def test_invalid_record_json(self, record):
        ds = Dataset(samples=[], folds={"A": {0}})
        text = dataset_to_string(ds) + record + "\n"
        with pytest.raises(MalformedRecord, match="record 0: invalid JSON"):
            read_dataset(io.StringIO(text))

    def test_arena_with_two_calibrations_is_malformed_with_index(self):
        header, *records = _v1_text([_sample(0), _sample(1), _sample(2)], {"A": {0}}).splitlines()
        moved = json.loads(records[2])
        moved["cal"]["fx"] += 1.0
        records[2] = json.dumps(moved)
        with pytest.raises(MalformedRecord, match="record 2: arena 0 calibration"):
            read_dataset(io.StringIO("\n".join([header, *records]) + "\n"))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_infinity_in_record_is_malformed_with_index(self, token):
        header, records = self._two_records()
        records[1][4] = "SLOT"
        lines = [header, *(json.dumps(r).replace('"SLOT"', token) for r in records)]
        with pytest.raises(MalformedRecord, match=f"record 1: .*non-finite number {token}"):
            read_dataset(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize(
        "key, literal",
        [
            ("ball_3d", "1e999"),
            ("ball_px", "-1e999"),
            ("foot_px", "1e999"),
            ("h_true", "1e999"),
            ("diam_px", "-1e999"),
            ("id", "1e999"),
            ("arena", "1e999"),
            ("id", "3.7"),
            ("arena", "0.5"),
            ("id", "-1"),
            ("id", "9223372036854775808"),
            ("id", "1e19"),
            ("h_true", '"x"'),
            ("ball_px", "[1.0]"),
            ("h_true", '"276.15"'),
            ("ball_3d", "true"),
            ("id", "false"),
        ],
    )
    def test_overflowing_or_non_integral_number_is_malformed_with_index(self, key, literal):
        header, records = self._two_records()
        records[1][FIELD_POSITION[key]] = "SLOT"
        lines = [header, *(json.dumps(r).replace('"SLOT"', literal) for r in records)]
        with pytest.raises(MalformedRecord, match=f"record 1: {key} "):
            read_dataset(io.StringIO("\n".join(lines) + "\n"))

    def test_v1_number_as_string_is_malformed_with_index(self):
        header, *records = _v1_text([_sample(0), _sample(1)], {"A": {0}}).splitlines()
        broken = json.loads(records[1])
        broken["h_true"] = str(broken["h_true"])
        records[1] = json.dumps(broken)
        with pytest.raises(MalformedRecord, match="record 1: h_true '.*' is not a number"):
            read_dataset(io.StringIO("\n".join([header, *records]) + "\n"))

    @pytest.mark.parametrize(
        "record",
        ['{"id": 1}', "7", "[1, 0" + ", 1.0" * 8 + "]", "[1, 0" + ", 1.0" * 10 + "]"],
    )
    def test_record_that_is_not_a_list_of_eleven_is_malformed(self, record):
        header, records = self._two_records()
        lines = [header, json.dumps(records[0]), record]
        with pytest.raises(MalformedRecord, match="record 1: expected a list of 11 numbers"):
            read_dataset(io.StringIO("\n".join(lines) + "\n"))

    def test_blank_lines_are_skipped(self):
        text = dataset_to_string(Dataset(samples=[_sample(0), _sample(1)], folds={"A": {0}}))
        header, first, second = text.splitlines()
        spaced = "\n".join(["", header, "  ", first, "", "\t", second, ""]) + "\n"
        assert dataset_to_string(read_dataset(io.StringIO(spaced))) == text
        broken = spaced.replace(second, second.replace("[1, 0,", "[1, 5,"))
        with pytest.raises(MalformedRecord, match="record 1: arena 5 has no camera"):
            read_dataset(io.StringIO(broken))

    def test_nan_in_header_is_schema_mismatch(self):
        text = '{"schema_version": 1, "folds": {"A": [NaN]}}\n'
        with pytest.raises(SchemaVersionMismatch, match="non-finite number NaN"):
            read_dataset(io.StringIO(text))

    @pytest.mark.parametrize(
        "header, match",
        [
            ('{"schema_version": 1, "folds": {"A": [1e999]}}', "fold 'A': arena inf"),
            ('{"schema_version": 1, "folds": {"A": ["x"]}}', "fold 'A': could not convert"),
            ('{"schema_version": 1, "folds": {"A": ["0"]}}', "fold 'A': arena '0' is not an"),
            ('{"schema_version": 1, "folds": {"A": [true]}}', "fold 'A': arena True is not an"),
            ('{"schema_version": 1, "folds": {"A": 3}}', "fold 'A': arena ids must be a list"),
            ('{"schema_version": 1, "folds": [1]}', "folds must be a JSON object"),
            ("[1]", "header must be a JSON object"),
            ('{"schema_version": 2, "folds": {"A": [0]}}', "cameras must be a list, got None"),
            ('{"schema_version": 2, "folds": {}, "cameras": [{"arena": 0}]}', "camera 0: expected"),
            ('{"schema_version": 2, "folds": {}, "cameras": [7]}', "camera 0: expected"),
            (
                '{"schema_version": 2, "folds": {}, "cameras": '
                f'[{{"arena": 0, "cal": {CAL_JSON}}}, {{"arena": 0, "cal": {CAL_JSON}}}]}}',
                "camera 1: arena 0 has a second camera",
            ),
            (
                '{"schema_version": 2, "folds": {}, "cameras": [{"arena": 0, "cal": '
                + CAL_JSON.replace('"fx": 1000.0', '"fx": -1000.0')
                + "}]}",
                "camera 0: arena 0 calibration is invalid: FocalNonPositive",
            ),
            (
                '{"schema_version": 2, "folds": {}, "cameras": [{"arena": 0, "cal": {"fx": 1}}]}',
                "camera 0: arena 0 calibration is unreadable",
            ),
            (
                '{"schema_version": 2, "folds": {}, "cameras": '
                f'[{{"arena": 0.5, "cal": {CAL_JSON}}}]}}',
                "camera 0: arena 0.5 is not an integer",
            ),
            (
                '{"schema_version": 2, "folds": {}, "cameras": '
                f'[{{"arena": "0", "cal": {CAL_JSON}}}]}}',
                "camera 0: arena '0' is not an integer",
            ),
        ],
    )
    def test_malformed_header_is_schema_mismatch(self, header, match):
        with pytest.raises(SchemaVersionMismatch, match=match):
            read_dataset(io.StringIO(header + "\n"))

    def test_invalid_calibration_is_malformed_naming_arena(self):
        header, *records = _v1_text([_sample(0), _sample(1)], {"A": {0}}).splitlines()
        for i, record in enumerate(records):
            broken = json.loads(record)
            broken["cal"]["fx"] = -1000.0
            records[i] = json.dumps(broken)
        with pytest.raises(
            MalformedRecord, match="record 0: arena 0 calibration is invalid: FocalNonPositive"
        ):
            read_dataset(io.StringIO("\n".join([header, *records]) + "\n"))

    def test_arena_without_camera_is_malformed_with_index(self):
        header, records = self._two_records()
        records[1][FIELD_POSITION["arena"]] = 3
        header = header.replace('"A": [0]', '"A": [0, 3]')
        lines = [header, *map(json.dumps, records)]
        with pytest.raises(MalformedRecord, match="record 1: arena 3 has no camera"):
            read_dataset(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("version", [1, 2])
    def test_records_of_one_arena_share_one_calibration(self, version):
        samples, folds = [_sample(0), _sample(1), _sample(2, arena_id=1)], {"A": {0, 1}}
        ds = Dataset(samples=samples, folds=folds)
        text = _v1_text(samples, folds) if version == 1 else dataset_to_string(ds)
        first, second, other = read_dataset(io.StringIO(text)).samples
        assert second.cal is first.cal
        assert other.cal is not first.cal


class TestDatasetInvariants:
    def test_arena_in_two_folds(self):
        with pytest.raises(FoldViolation):
            Dataset(samples=[_sample(0)], folds={"A": {0}, "B": {0}})

    def test_sample_arena_not_in_any_fold(self):
        with pytest.raises(FoldViolation):
            Dataset(samples=[_sample(0, arena_id=7)], folds={"A": {0}})

    def test_duplicate_sample_ids(self):
        with pytest.raises(MalformedRecord):
            Dataset(samples=[_sample(3), _sample(3)], folds={"A": {0}})


class TestSplit:
    def test_single_fold_gives_empty_train(self):
        ds = Dataset(samples=[_sample(i) for i in range(4)], folds={"A": {0}})
        train, test = split(ds, "A")
        assert len(train.samples) == 0
        assert [s.sample_id for s in test.samples] == [0, 1, 2, 3]

    def test_fifteen_arena_split_is_disjoint(self):
        samples = generate_dataset(seed=15, n=150, n_arenas=15)
        ds = Dataset(samples=samples, folds=assign_folds(range(15), 5))
        for fold in ds.folds:
            train, test = split(ds, fold)
            assert train.arena_ids.isdisjoint(test.arena_ids)
            assert len(train.samples) + len(test.samples) == 150
            assert test.arena_ids <= ds.folds[fold]

    def test_unknown_fold(self):
        ds = Dataset(samples=[_sample(0)], folds={"A": {0}})
        with pytest.raises(UnknownFold):
            split(ds, "Z")


class TestRebalance:
    def test_balanced_input_is_unchanged_and_stable(self):
        samples = [_sample(0, z=0.5), _sample(1, z=3.0), _sample(2, z=1.0), _sample(3, z=2.5)]
        out = rebalance(samples, 2.0, seed=1)
        assert out == samples

    def test_oversamples_minority_to_equal_counts(self):
        samples = [_sample(i, z=0.5) for i in range(741)] + [
            _sample(741 + i, z=3.5) for i in range(60)
        ]
        out = rebalance(samples, 2.0, seed=3)
        above = sum(1 for s in out if s.ball_3d.z >= 2.0)
        below = sum(1 for s in out if s.ball_3d.z < 2.0)
        assert above == below == 741
        assert out[: len(samples)] == samples  # originals retained in order

    def test_threshold_is_inclusive_above(self):
        # A ball at exactly 2 m counts as "above".
        samples = [_sample(0, z=2.0), _sample(1, z=1.0)]
        out = rebalance(samples, 2.0, seed=0)
        assert len(out) == 2

    def test_deterministic_and_idempotent(self):
        samples = [_sample(i, z=0.5 if i % 5 else 4.0) for i in range(50)]
        once = rebalance(samples, 2.0, seed=9)
        again = rebalance(samples, 2.0, seed=9)
        assert [s.sample_id for s in once] == [s.sample_id for s in again]
        rebalanced_twice = rebalance(once, 2.0, seed=9)
        assert [s.sample_id for s in rebalanced_twice] == [s.sample_id for s in once]

    def test_one_sided_raises(self):
        with pytest.raises(OneSidedDataset):
            rebalance([_sample(0, z=0.5), _sample(1, z=1.0)], 2.0, seed=0)
