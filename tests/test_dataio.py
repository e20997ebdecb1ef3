"""Dataset I/O tests: bit-exact round trips, fold discipline, one camera per arena."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from courtlift import (
    CameraCalibration,
    calibration_to_json_dict,
    Dataset,
    assign_folds,
    generate_dataset,
    read_dataset,
    split,
    write_dataset,
)
from courtlift.errors import (
    FoldViolation,
    MalformedRecord,
    SchemaVersionMismatch,
    UnknownFold,
)
from courtlift.reconstruct import ball_rays
from courtlift.synth import Samples

def _dummy_cal() -> CameraCalibration:
    return CameraCalibration(
        fx=1000.0,
        fy=1000.0,
        cx=960.0,
        cy=540.0,
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, -5.0]),  # centre 5 m above the ground
        image_width=1920.0,
        image_height=1080.0,
    )


def dataset_to_string(ds: Dataset) -> str:
    buf = io.StringIO()
    write_dataset(ds, buf)
    return buf.getvalue()


CAL = _dummy_cal()


def _table(records: list[list], cameras: dict) -> Samples:
    """The table of version 2 records,
    [id, arena, bx, by, bz, u, v, foot_u, foot_v, h_true, diam_px]."""
    values = np.array(records, dtype=np.float64).reshape(-1, 11)
    ids, arena = np.array([r[:2] for r in records], dtype=np.int64).reshape(-1, 2).T
    return Samples(
        ids, arena, cameras, values[:, 2:5], values[:, 5:7], values[:, 7:9], values[:, 9],
        values[:, 10],
    )


def _samples(ids, arena=0, z=1.0, cameras=None) -> Samples:
    """Samples with the given ids: sample i's ball at (0.1 i, -0.2, z),
    its pixel at (100 + i, 200) and its foot at (100 + i, 260). ``arena``
    and ``z`` are one value for all or one per sample; every arena's
    camera is CAL unless ``cameras`` is given."""
    ids = list(ids)
    arena = np.broadcast_to(arena, len(ids)).tolist()
    z = np.broadcast_to(z, len(ids)).tolist()
    records = [
        [i, a, 0.1 * i, -0.2, h, 100.0 + i, 200.0, 100.0 + i, 260.0, 60.0, 48.0]
        for i, a, h in zip(ids, arena, z)
    ]
    return _table(records, dict.fromkeys(arena, CAL) if cameras is None else cameras)


def _set(samples: Samples, name: str, value, row: int = 2) -> Samples:
    """The table with column ``name`` of row ``row`` set to ``value``."""
    column = getattr(samples, name).copy()
    column[row] = value
    return replace(samples, **{name: column})


class TestRoundTrip:
    def test_empty_dataset(self):
        ds = Dataset(samples=_samples([]), folds={})
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

EDGE_FLOATS = (-0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2, -1.7976931348623157e308, 123456.789)


class TestWrite:
    def test_every_line_is_json_dumps_of_its_record(self):
        shared = _dummy_cal()  # arenas 0 and 1 share this object
        equal = _dummy_cal()  # arena 2: a distinct object with equal values
        other = replace(_dummy_cal(), fx=1234.5, k1=-0.0, p2=1e-05, cx=5e-324)
        cameras = {0: shared, 1: shared, 2: equal, 3: other}
        records = []
        for i in range(len(EDGE_FLOATS)):
            x = EDGE_FLOATS[i:] + EDGE_FLOATS[:i]
            records.append([i, i % 4, *x, x[0], x[1]])
        # Numbers that are not exact floats: ints and numpy floats.
        records.append([7, 0, *records[0][2:5], np.float64(0.1), 2, *records[0][7:9], 60, 1e-05])
        records.append([8, 1, *records[1][2:10], np.float64(1e16)])
        ds = Dataset(samples=_table(records, cameras), folds={"A": {0, 1}, "B": {2, 3}})
        header, *lines = dataset_to_string(ds).split("\n")
        assert lines.pop() == ""
        entries = [{"arena": a, "cal": calibration_to_json_dict(cameras[a])} for a in range(4)]
        assert header == json.dumps(
            {"cameras": entries, "folds": {"A": [0, 1], "B": [2, 3]}, "schema_version": 2},
            sort_keys=True,
        )
        assert len(lines) == len(records)
        for line, record in zip(lines, records):
            assert line == json.dumps([*record[:2], *map(float, record[2:])])

    def test_nan_is_rejected_before_the_file_is_opened(self, tmp_path):
        samples = _set(_samples([0, 1, 2]), "h_true", np.nan, row=1)
        ds = Dataset(samples=samples, folds={"A": {0}})
        path = tmp_path / "ds.jsonl"
        with pytest.raises(MalformedRecord, match="record 1: .*not a finite number"):
            write_dataset(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "broken",
        [
            lambda s: _set(s, "ball_3d", [0.0, np.inf, 1.0]),
            lambda s: _set(s, "foot_px", [-np.inf, 1.0]),
            lambda s: _set(s, "d_true", np.nan),
            # Record 2 is the first of arena 1.
            lambda s: replace(s, cameras={0: CAL, 1: replace(CAL, k2=np.nan)}),
        ],
        ids=["ball_3d", "foot_px", "d_true", "camera"],
    )
    def test_non_finite_number_is_rejected_before_any_line(self, broken):
        samples = broken(_samples([0, 1, 2], arena=[0, 0, 1]))
        ds = Dataset(samples=samples, folds={"A": {0, 1}})
        sink = io.StringIO()
        with pytest.raises(MalformedRecord, match="record 2: "):
            write_dataset(ds, sink)
        assert sink.getvalue() == ""

    @pytest.mark.parametrize(
        "ids, message",
        [
            (np.array([0, -1, 2]), "record 1: id -1 is outside"),
            (np.array([0, 1, 2**63], dtype=np.uint64), "record 2: id 9223372036854775808 is"),
        ],
        ids=["negative", "past_int64"],
    )
    def test_id_outside_int64_range_is_rejected_before_the_file_is_opened(
        self, tmp_path, ids, message
    ):
        # read_dataset refuses such an id, so writing it would give a
        # file that cannot be read back.
        ds = Dataset(samples=replace(_samples([0, 1, 2]), ids=ids), folds={"A": {0}})
        path = tmp_path / "ds.jsonl"
        with pytest.raises(MalformedRecord, match=message):
            write_dataset(ds, path)
        assert not path.exists()


# Positions of the record fields in a version 2 record.
FIELD_POSITION = {
    "id": 0, "arena": 1, "ball_3d": 2, "ball_px": 5, "foot_px": 7, "h_true": 9, "diam_px": 10
}
CAL_JSON = json.dumps(calibration_to_json_dict(_dummy_cal()))


class TestReadValidation:
    def _text(self, ds: Dataset) -> list[str]:
        return dataset_to_string(ds).splitlines()

    def _two_records(self) -> tuple[str, list[list]]:
        header, *records = self._text(Dataset(samples=_samples([0, 1]), folds={"A": {0}}))
        return header, [json.loads(r) for r in records]

    def test_wrong_schema_version(self):
        text = '{"schema_version": 99, "folds": {}}\n'
        with pytest.raises(SchemaVersionMismatch):
            read_dataset(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(SchemaVersionMismatch):
            read_dataset(io.StringIO(""))

    @pytest.mark.parametrize("record", ["{not json}", "[1, 0" + ", 1.0" * 9 + "] 5"])
    def test_invalid_record_json(self, record):
        ds = Dataset(samples=_samples([]), folds={"A": {0}})
        text = dataset_to_string(ds) + record + "\n"
        with pytest.raises(MalformedRecord, match="record 0: invalid JSON"):
            read_dataset(io.StringIO(text))

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
        text = dataset_to_string(Dataset(samples=_samples([0, 1]), folds={"A": {0}}))
        header, first, second = text.splitlines()
        spaced = "\n".join(["", header, "  ", first, "", "\t", second, ""]) + "\n"
        assert dataset_to_string(read_dataset(io.StringIO(spaced))) == text
        broken = spaced.replace(second, second.replace("[1, 0,", "[1, 5,"))
        with pytest.raises(MalformedRecord, match="record 1: arena 5 has no camera"):
            read_dataset(io.StringIO(broken))

    def test_nan_in_header_is_schema_mismatch(self):
        text = '{"schema_version": 2, "folds": {"A": [NaN]}}\n'
        with pytest.raises(SchemaVersionMismatch, match="non-finite number NaN"):
            read_dataset(io.StringIO(text))

    @pytest.mark.parametrize(
        "header, match",
        [
            ('{"schema_version": 2, "folds": {"A": [1e999]}}', "fold 'A': arena inf"),
            ('{"schema_version": 2, "folds": {"A": ["x"]}}', "fold 'A': could not convert"),
            ('{"schema_version": 2, "folds": {"A": ["0"]}}', "fold 'A': arena '0' is not an"),
            ('{"schema_version": 2, "folds": {"A": [true]}}', "fold 'A': arena True is not an"),
            ('{"schema_version": 2, "folds": {"A": 3}}', "fold 'A': arena ids must be a list"),
            ('{"schema_version": 2, "folds": [1]}', "folds must be a JSON object"),
            (
                '{"schema_version": 1, "folds": {"A": [0]}}',
                "schema_version 1 files are no longer read; run `courtlift synth` again",
            ),
            ("[1]", "header must be a JSON object"),
            ('{"folds": {"A": [0]}, "cameras": []}', "expected schema_version 2, got None"),
            ('{"schema_version": 2, "folds": {"A": [0]}}', "cameras must be a list, got None"),
            ('{"schema_version": 2, "folds": {}, "cameras": [{"arena": 0}]}', "camera 0: expected"),
            ('{"schema_version": 2, "folds": {}, "cameras": [7]}', "camera 0: expected"),
            (
                '{"schema_version": 2, "folds": {}, "cameras": '
                f'[{{"arena": 0, "cal": {CAL_JSON}, "name": "court"}}]}}',
                "camera 0: expected an object with keys arena and cal",
            ),
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
            # float() and numpy convert numeric strings and booleans; a
            # header, like a record, must hold numbers.
            (
                '{"schema_version": 2, "folds": {}, "cameras": [{"arena": 0, "cal": '
                + CAL_JSON.replace('"fx": 1000.0', '"fx": "1000.0"')
                + "}]}",
                "camera 0: arena 0 calibration is unreadable: TypeError.*fx must be a number, got '1000.0'",
            ),
            (
                '{"schema_version": 2, "folds": {}, "cameras": [{"arena": 0, "cal": '
                + CAL_JSON.replace('"R": [1.0', '"R": ["1.0"')
                + "}]}",
                "camera 0: arena 0 calibration is unreadable: TypeError.*R must be a number, got '1.0'",
            ),
            (
                '{"schema_version": 2, "folds": {}, "cameras": [{"arena": 0, "cal": '
                + CAL_JSON.replace('"k3": 0.0', '"k3": false')
                + "}]}",
                "camera 0: arena 0 calibration is unreadable: TypeError.*k3 must be a number, got False",
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

    def test_arena_without_camera_is_malformed_with_index(self):
        header, records = self._two_records()
        records[1][FIELD_POSITION["arena"]] = 3
        header = header.replace('"A": [0]', '"A": [0, 3]')
        lines = [header, *map(json.dumps, records)]
        with pytest.raises(MalformedRecord, match="record 1: arena 3 has no camera"):
            read_dataset(io.StringIO("\n".join(lines) + "\n"))

    def test_records_of_one_arena_share_one_calibration(self):
        samples = _samples([0, 1, 2], arena=[0, 0, 1])
        text = dataset_to_string(Dataset(samples=samples, folds={"A": {0, 1}}))
        rec = read_dataset(io.StringIO(text)).samples
        assert list(rec.cameras) == [0, 1] and rec.cal_index.tolist() == [0, 0, 1]
        assert rec.cameras[1] is not rec.cameras[0]

    def test_cameras_listed_out_of_record_order_keep_their_arenas(self):
        far = replace(_dummy_cal(), fx=1200.0, fy=1200.0)
        samples = _samples([0, 1], arena=[0, 1], cameras={0: CAL, 1: far})
        header, *records = self._text(Dataset(samples=samples, folds={"A": {0, 1}}))
        obj = json.loads(header)
        obj["cameras"].reverse()
        assert [c["arena"] for c in obj["cameras"]] == [1, 0]
        text = "\n".join([json.dumps(obj), *records]) + "\n"
        rec = read_dataset(io.StringIO(text)).samples
        assert rec.arena.tolist() == [0, 1] and rec.cal_index.tolist() == [1, 0]
        assert [rec.cameras[a].fx for a in (0, 1)] == [1000.0, 1200.0]


class TestDatasetInvariants:
    def test_arena_in_two_folds(self):
        with pytest.raises(FoldViolation):
            Dataset(samples=_samples([0]), folds={"A": {0}, "B": {0}})

    def test_sample_arena_not_in_any_fold(self):
        with pytest.raises(FoldViolation):
            Dataset(samples=_samples([0], arena=7), folds={"A": {0}})

    def test_duplicate_sample_ids(self):
        with pytest.raises(MalformedRecord):
            Dataset(samples=_samples([3, 3]), folds={"A": {0}})


class TestOneCameraPerArena:
    """A row's camera is its arena's by construction: a table with a row
    whose arena has no camera cannot be built, and every table made from
    another keeps each row's camera."""

    def test_row_whose_arena_has_no_camera_raises(self):
        with pytest.raises(ValueError, match="arena 7 has no camera"):
            _samples([0, 1, 2], arena=[0, 7, 0], cameras={0: CAL})
        samples = generate_dataset(seed=18, n=8, n_arenas=4)
        cameras = dict(samples.cameras)
        del cameras[3]
        with pytest.raises(ValueError, match="arena 3 has no camera"):
            replace(samples, cameras=cameras)

    def test_split_reorder_and_round_trip_keep_each_rows_camera(self):
        samples = generate_dataset(seed=18, n=120, n_arenas=5)
        truth = {a: cal.as_array() for a, cal in samples.cameras.items()}
        # Reversed, the records list the arenas' cameras in another order;
        # repeated rows take fresh ids, non-contiguous and up to 2**63 - 1.
        repeats = np.arange(0, 120, 7)
        rows = np.concatenate([np.arange(120)[::-1], repeats])
        fresh = 2**63 - 1 - np.arange(len(repeats))
        reordered = replace(samples[rows], ids=np.concatenate([samples.ids[::-1], fresh]))
        assert len(reordered) > len(samples)
        ds = Dataset(samples=reordered, folds=assign_folds(range(5), 3))
        rec = read_dataset(io.StringIO(dataset_to_string(ds)))
        assert list(rec.samples.cameras) != list(samples.cameras)
        for name in ("ids", "arena", "ball_3d", "ball_px", "foot_px", "h_true", "d_true"):
            np.testing.assert_array_equal(getattr(rec.samples, name), getattr(reordered, name))
        tables = [reordered, rec.samples]
        for fold in ds.folds:
            parts = [part.samples for d in (ds, rec) for part in split(d, fold)]
            assert len(parts[0]) + len(parts[1]) == len(reordered)
            tables += parts
        for table in tables:
            rays = ball_rays(table.cameras.values(), table.cal_index, table.ball_px)
            expected = np.array([truth[a] for a in table.arena.tolist()]).reshape(-1, 24).T
            np.testing.assert_array_equal(rays.cal, expected)
            assert all(row.cal is table.cameras[row.arena_id] for row in table)


class TestSplit:
    def test_single_fold_gives_empty_train(self):
        ds = Dataset(samples=_samples(range(4)), folds={"A": {0}})
        train, test = split(ds, "A")
        assert len(train.samples) == 0
        assert test.samples.ids.tolist() == [0, 1, 2, 3]

    def test_fifteen_arena_split_is_disjoint(self):
        samples = generate_dataset(seed=15, n=150, n_arenas=15)
        ds = Dataset(samples=samples, folds=assign_folds(range(15), 5))
        for fold in ds.folds:
            train, test = split(ds, fold)
            test_arenas = set(test.samples.arena.tolist())
            assert set(train.samples.arena.tolist()).isdisjoint(test_arenas)
            assert len(train.samples) + len(test.samples) == 150
            assert test_arenas <= ds.folds[fold]

    def test_unknown_fold(self):
        ds = Dataset(samples=_samples([0]), folds={"A": {0}})
        with pytest.raises(UnknownFold):
            split(ds, "Z")

