"""Dataset I/O tests: bit-exact round trips, fold discipline, one camera per arena."""

import io
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from courtlift import (
    CameraCalibration,
    calibration_to_json_dict,
    Dataset,
    assign_folds,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from courtlift.dataio import RECORD_DTYPE
from courtlift.errors import (
    FoldViolation,
    MalformedRecord,
    SchemaVersionMismatch,
    UnknownFold,
)
from courtlift.reconstruct import ball_rays
from courtlift.synth import Samples

COLUMNS = ("ids", "arena", "ball_3d", "ball_px", "foot_px", "h_true", "d_true")


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


def dataset_to_bytes(ds: Dataset) -> bytes:
    buf = io.BytesIO()
    write_dataset(ds, buf)
    return buf.getvalue()


def _parts(data: bytes) -> tuple[dict, np.ndarray]:
    """A dataset file's header object and a writable copy of its records."""
    header, body = data.split(b"\n", 1)
    return json.loads(header), np.frombuffer(body, RECORD_DTYPE).copy()


def _file(header: dict, body) -> io.BytesIO:
    """A dataset file of ``header`` followed by ``body``'s bytes."""
    return io.BytesIO((json.dumps(header, sort_keys=True) + "\n").encode() + bytes(body))


CAL = _dummy_cal()


def _table(records: list[list], cameras: dict) -> Samples:
    """The table of records in the file's field order,
    [id, arena, bx, by, bz, u, v, foot_u, foot_v, h_true, d_true]."""
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


def _camera(samples: Samples, **changes) -> Samples:
    """The table with arena 1's camera replaced by CAL with ``changes``."""
    return replace(samples, cameras={0: CAL, 1: replace(CAL, **changes)})


def _assert_same_bits(a: Samples, b: Samples) -> None:
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


# Finite doubles whose bits a text round trip could lose: signed zero,
# subnormals, the largest magnitudes and sums with no short decimal.
EDGE_FLOATS = (-0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2, -1.7976931348623157e308, 123456.789)
# Nine record words: those, the largest subnormal and the largest double.
EDGE_WORDS = [*EDGE_FLOATS, 2.2250738585072009e-308, 1.7976931348623157e308]
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_WORDS)
)


class TestRoundTrip:
    def test_empty_dataset(self):
        ds = Dataset(samples=_samples([]), folds={})
        data = dataset_to_bytes(ds)
        rec = read_dataset(io.BytesIO(data))
        assert len(rec.samples) == 0 and rec.folds == {}
        assert dataset_to_bytes(rec) == data

    def test_synthetic_dataset_is_bit_exact(self):
        samples = generate_dataset(seed=13, n=10_000, n_arenas=10)
        ds = Dataset(samples=samples, folds=assign_folds(range(10), 5))
        data = dataset_to_bytes(ds)
        rec = read_dataset(io.BytesIO(data))
        assert dataset_to_bytes(rec) == data
        _assert_same_bits(ds.samples, rec.samples)
        for a, b in zip(ds.samples.cameras.values(), rec.samples.cameras.values()):
            assert a.as_array().tobytes() == b.as_array().tobytes()

    def test_file_round_trip(self, tmp_path):
        samples = generate_dataset(seed=14, n=20, n_arenas=2)
        ds = Dataset(samples=samples, folds={"A": {0}, "B": {1}})
        path = tmp_path / "ds.dat"
        write_dataset(ds, path)
        rec = read_dataset(path)
        _assert_same_bits(samples, rec.samples)
        assert rec.folds == {"A": frozenset({0}), "B": frozenset({1})}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @example(ids=[0, 2**63 - 1], values=[EDGE_WORDS, EDGE_WORDS[::-1]] * 3, arenas=[0, 2] * 3)
    @given(
        ids=st.lists(
            st.one_of(st.sampled_from([0, 2**63 - 1]), st.integers(0, 2**63 - 1)),
            max_size=6,
            unique=True,
        ),
        values=st.lists(st.lists(finite_floats, min_size=9, max_size=9), min_size=6, max_size=6),
        arenas=st.lists(st.integers(0, 2), min_size=6, max_size=6),
    )
    def test_any_finite_table_round_trips_bit_for_bit(self, ids, values, arenas):
        records = [[i, a, *v] for i, a, v in zip(ids, arenas, values)]
        samples = _table(records, dict.fromkeys(arenas[: len(ids)], CAL))
        ds = Dataset(samples=samples, folds={"A": {0, 1, 2}})
        _assert_same_bits(samples, read_dataset(io.BytesIO(dataset_to_bytes(ds))).samples)


class TestWrite:
    def test_header_and_records_hold_the_tables_bits(self):
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
        header, body = dataset_to_bytes(ds).split(b"\n", 1)
        entries = [{"arena": a, "cal": calibration_to_json_dict(cameras[a])} for a in range(4)]
        assert header.decode() == json.dumps(
            {
                "cameras": entries,
                "folds": {"A": [0, 1], "B": [2, 3]},
                "n_samples": len(records),
                "schema_version": 3,
            },
            sort_keys=True,
        )
        assert len(body) == 88 * len(records)
        for k, record in enumerate(records):
            packed = struct.pack("<2q9d", *record[:2], *map(float, record[2:]))
            assert body[88 * k : 88 * (k + 1)] == packed

    def test_nan_is_rejected_before_the_file_is_opened(self, tmp_path):
        samples = _set(_samples([0, 1, 2]), "h_true", np.nan, row=1)
        ds = Dataset(samples=samples, folds={"A": {0}})
        path = tmp_path / "ds.dat"
        with pytest.raises(MalformedRecord, match="record 1: .*not a finite number"):
            write_dataset(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "broken, match",
        [
            (lambda s: _set(s, "ball_3d", [0.0, np.inf, 1.0]), "ball_3d is not a finite number"),
            (lambda s: _set(s, "foot_px", [-np.inf, 1.0]), "foot_px is not a finite number"),
            (lambda s: _set(s, "d_true", np.nan), "d_true is not a finite number"),
            # Record 2 is the first of arena 1. read_dataset refuses a
            # camera that validate refuses, so the writer refuses it too.
            (lambda s: _camera(s, k2=np.nan), "calibration is invalid: NonFinite"),
            (lambda s: _camera(s, fx=-1.0), "calibration is invalid: FocalNonPositive"),
            (
                lambda s: _camera(s, rotation=np.diag([1.0, 1.0, 2.0])),
                "calibration is invalid: RotationNotOrthonormal",
            ),
        ],
        ids=["ball_3d", "foot_px", "d_true", "camera", "camera_fx", "camera_R"],
    )
    def test_non_finite_number_is_rejected_before_any_byte(self, broken, match):
        samples = broken(_samples([0, 1, 2], arena=[0, 0, 1]))
        ds = Dataset(samples=samples, folds={"A": {0, 1}})
        sink = io.BytesIO()
        with pytest.raises(MalformedRecord, match=f"record 2: {match}"):
            write_dataset(ds, sink)
        assert sink.getvalue() == b""

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
        path = tmp_path / "ds.dat"
        with pytest.raises(MalformedRecord, match=message):
            write_dataset(ds, path)
        assert not path.exists()


CAL_JSON = json.dumps(calibration_to_json_dict(_dummy_cal()))


class TestReadValidation:
    def _three_records(self) -> tuple[dict, np.ndarray]:
        return _parts(dataset_to_bytes(Dataset(samples=_samples([0, 1, 2]), folds={"A": {0}})))

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaVersionMismatch):
            read_dataset(io.BytesIO(b'{"schema_version": 99, "folds": {}}\n'))

    def test_empty_file(self):
        with pytest.raises(SchemaVersionMismatch, match="empty dataset file"):
            read_dataset(io.BytesIO(b""))

    def test_schema_2_file_is_refused(self):
        # A version 2 file as its writer left it: the header, then one
        # JSON array of 11 numbers per record.
        header = {"cameras": [{"arena": 0, "cal": json.loads(CAL_JSON)}], "folds": {"A": [0]}}
        text = json.dumps({**header, "schema_version": 2}) + "\n"
        text += "[0, 0, 0.0, -0.2, 1.0, 100.0, 200.0, 100.0, 260.0, 60.0, 48.0]\n"
        message = (
            "schema_version 2 files are no longer read; run `courtlift synth` again with the "
            "flags that wrote this file for the same samples as a version 3 file"
        )
        with pytest.raises(SchemaVersionMismatch, match=message.replace("(", r"\(")):
            read_dataset(io.BytesIO(text.encode()))

    @pytest.mark.parametrize(
        "cut, index, message",
        [
            (5, 2, "record 2: the file ends 83 bytes into this record"),
            (87, 2, "record 2: the file ends 1 bytes into this record"),
            (88, 2, "record 2: the file ends 0 bytes into this record"),
            (88 + 40, 1, "record 1: the file ends 48 bytes into this record"),
            (88 * 3, 0, "record 0: the file ends 0 bytes into this record"),
        ],
        ids=["mid_last", "one_byte", "boundary", "mid_second", "whole_body"],
    )
    def test_truncated_body_names_the_first_incomplete_record(self, cut, index, message):
        header, table = self._three_records()
        with pytest.raises(MalformedRecord, match=message) as exc:
            read_dataset(_file(header, table.tobytes()[: len(table.tobytes()) - cut]))
        assert exc.value.index == index

    @pytest.mark.parametrize("extra", [b"\n", b"\0" * 88, bytes(range(200))])
    def test_bytes_after_the_last_record_name_record_n(self, extra):
        header, table = self._three_records()
        with pytest.raises(MalformedRecord, match=f"record 3: {len(extra)} bytes follow") as exc:
            read_dataset(_file(header, table.tobytes() + extra))
        assert exc.value.index == 3

    @pytest.mark.parametrize(
        "field, word, bits",
        [
            ("ball_3d", 2, 0x7FF0_0000_0000_0000),  # inf
            ("ball_3d", 4, 0xFFF0_0000_0000_0000),  # -inf
            ("ball_px", 5, 0x7FF8_0000_0000_0000),  # the quiet NaN numpy writes
            ("foot_px", 8, 0x7FF0_0000_0000_0000),
            ("h_true", 9, 0x7FF0_0000_0000_0001),  # signalling NaN
            ("h_true", 9, 0xFFF8_0000_DEAD_BEEF),  # negative NaN with a payload
            ("d_true", 10, 0xFFF0_0000_0000_0000),
        ],
    )
    def test_non_finite_bits_are_malformed_with_index(self, field, word, bits):
        # Any exponent-all-ones pattern is refused, whatever its sign and payload.
        header, table = self._three_records()
        table.view("<u8").reshape(-1, 11)[1, word] = bits
        with pytest.raises(MalformedRecord, match=f"record 1: {field} is not a finite number"):
            read_dataset(_file(header, table))

    @pytest.mark.parametrize(
        "bits, shown",
        # The bits of 2**63 read as an int64 are -2**63.
        [(-1, "-1"), (-(2**63), "-9223372036854775808")],
        ids=["minus_one", "bits_of_2_63"],
    )
    def test_negative_id_is_malformed_with_index(self, bits, shown):
        header, table = self._three_records()
        table["ids"][2] = bits
        message = rf"record 2: id {shown} is outside \[0, 2\*\*63\)"
        with pytest.raises(MalformedRecord, match=message):
            read_dataset(_file(header, table))

    def test_repeated_id_is_malformed_with_index(self):
        header, table = self._three_records()
        table["ids"][2] = 0
        with pytest.raises(MalformedRecord, match="record 2: duplicate sample id 0"):
            read_dataset(_file(header, table))

    def test_nan_in_header_is_schema_mismatch(self):
        text = b'{"schema_version": 3, "folds": {"A": [NaN]}}\n'
        with pytest.raises(SchemaVersionMismatch, match="non-finite number NaN"):
            read_dataset(io.BytesIO(text))

    def test_header_without_its_newline_is_schema_mismatch(self):
        header, _ = _parts(dataset_to_bytes(Dataset(samples=_samples([]), folds={})))
        with pytest.raises(SchemaVersionMismatch, match="the file ends inside its header line"):
            read_dataset(io.BytesIO(json.dumps(header).encode()))

    @pytest.mark.parametrize(
        "header, match",
        [
            ('{"schema_version": 3, "folds": {"A": [1e999]}}', "fold 'A': arena inf"),
            ('{"schema_version": 3, "folds": {"A": ["x"]}}', "fold 'A': arena 'x' is not an"),
            ('{"schema_version": 3, "folds": {"A": ["0"]}}', "fold 'A': arena '0' is not an"),
            ('{"schema_version": 3, "folds": {"A": [true]}}', "fold 'A': arena True is not an"),
            ('{"schema_version": 3, "folds": {"A": 3}}', "fold 'A': arena ids must be a list"),
            ('{"schema_version": 3, "folds": [1]}', "folds must be a JSON object"),
            (
                '{"schema_version": 1, "folds": {"A": [0]}}',
                "schema_version 1 files are no longer read; run `courtlift synth` again",
            ),
            ("[1]", "header must be a JSON object"),
            ('{"folds": {"A": [0]}, "cameras": []}', "expected schema_version 3, got None"),
            ('{"schema_version": "3", "cameras": []}', "expected schema_version 3, got '3'"),
            ('{"schema_version": true, "cameras": []}', "expected schema_version 3, got True"),
            ('{"schema_version": 2.5, "cameras": []}', "expected schema_version 3, got 2.5"),
            ('{"schema_version": 1.0}', "schema_version 1.0 files are no longer read"),
            # 3.0 is version 3: the reader goes on to the missing n_samples.
            ('{"schema_version": 3.0, "cameras": []}', "n_samples must be an integer >= 0, got None"),
            ("\xff", "unreadable header"),
            ('{"schema_version": 3, "folds": {"A": [0]}}', "cameras must be a list, got None"),
            ('{"schema_version": 3, "folds": {}, "cameras": [{"arena": 0}]}', "camera 0: expected"),
            ('{"schema_version": 3, "folds": {}, "cameras": [7]}', "camera 0: expected"),
            (
                '{"schema_version": 3, "folds": {}, "cameras": '
                f'[{{"arena": 0, "cal": {CAL_JSON}, "name": "court"}}]}}',
                "camera 0: expected an object with keys arena and cal",
            ),
            (
                '{"schema_version": 3, "folds": {}, "cameras": '
                f'[{{"arena": 0, "cal": {CAL_JSON}}}, {{"arena": 0, "cal": {CAL_JSON}}}]}}',
                "camera 1: arena 0 has a second camera",
            ),
            (
                '{"schema_version": 3, "folds": {}, "cameras": [{"arena": 0, "cal": '
                + CAL_JSON.replace('"fx": 1000.0', '"fx": -1000.0')
                + "}]}",
                "camera 0: arena 0 calibration is invalid: FocalNonPositive",
            ),
            (
                '{"schema_version": 3, "folds": {}, "cameras": [{"arena": 0, "cal": {"fx": 1}}]}',
                "camera 0: arena 0 calibration is unreadable",
            ),
            # float() and numpy convert numeric strings and booleans; a
            # header must hold numbers.
            (
                '{"schema_version": 3, "folds": {}, "cameras": [{"arena": 0, "cal": '
                + CAL_JSON.replace('"fx": 1000.0', '"fx": "1000.0"')
                + "}]}",
                "camera 0: arena 0 calibration is unreadable: TypeError.*fx must be a number, got '1000.0'",
            ),
            (
                '{"schema_version": 3, "folds": {}, "cameras": [{"arena": 0, "cal": '
                + CAL_JSON.replace('"R": [1.0', '"R": ["1.0"')
                + "}]}",
                "camera 0: arena 0 calibration is unreadable: TypeError.*R must be a number, got '1.0'",
            ),
            (
                '{"schema_version": 3, "folds": {}, "cameras": [{"arena": 0, "cal": '
                + CAL_JSON.replace('"k3": 0.0', '"k3": false')
                + "}]}",
                "camera 0: arena 0 calibration is unreadable: TypeError.*k3 must be a number, got False",
            ),
            (
                '{"schema_version": 3, "folds": {}, "cameras": '
                f'[{{"arena": 0.5, "cal": {CAL_JSON}}}]}}',
                "camera 0: arena 0.5 is not an integer",
            ),
            (
                '{"schema_version": 3, "folds": {}, "cameras": '
                f'[{{"arena": "0", "cal": {CAL_JSON}}}]}}',
                "camera 0: arena '0' is not an integer",
            ),
            ('{"schema_version": 3, "cameras": []}', "n_samples must be an integer >= 0, got None"),
            (
                '{"schema_version": 3, "cameras": [], "n_samples": -1}',
                "n_samples must be an integer >= 0, got -1",
            ),
            (
                '{"schema_version": 3, "cameras": [], "n_samples": 2.5}',
                "n_samples must be an integer >= 0, got 2.5",
            ),
            (
                '{"schema_version": 3, "cameras": [], "n_samples": 1e999}',
                "n_samples must be an integer >= 0, got inf",
            ),
            (
                '{"schema_version": 3, "cameras": [], "n_samples": true}',
                "n_samples must be an integer >= 0, got True",
            ),
        ],
    )
    def test_malformed_header_is_schema_mismatch(self, header, match):
        data = header.encode("latin-1") + b"\n"
        with pytest.raises(SchemaVersionMismatch, match=match):
            read_dataset(io.BytesIO(data))

    def test_integral_floats_read_as_integers(self):
        # One integer rule for every integer field: 3.0 reads as 3.
        header, table = self._three_records()
        header.update(schema_version=3.0, n_samples=3.0, folds={"A": [0.0]})
        header["cameras"][0]["arena"] = 0.0
        rec = read_dataset(_file(header, table))
        assert rec.folds == {"A": frozenset({0})} and list(rec.samples.cameras) == [0]
        _assert_same_bits(rec.samples, _samples([0, 1, 2]))

    def test_arena_without_camera_is_malformed_with_index(self):
        header, table = self._three_records()
        table["arena"][1] = 3
        header["folds"]["A"] = [0, 3]
        with pytest.raises(MalformedRecord, match="record 1: arena 3 has no camera"):
            read_dataset(_file(header, table))

    def test_records_of_one_arena_share_one_calibration(self):
        samples = _samples([0, 1, 2], arena=[0, 0, 1])
        data = dataset_to_bytes(Dataset(samples=samples, folds={"A": {0, 1}}))
        rec = read_dataset(io.BytesIO(data)).samples
        assert list(rec.cameras) == [0, 1] and rec.cal_index.tolist() == [0, 0, 1]
        assert rec.cameras[1] is not rec.cameras[0]

    def test_cameras_listed_out_of_record_order_keep_their_arenas(self):
        far = replace(_dummy_cal(), fx=1200.0, fy=1200.0)
        samples = _samples([0, 1], arena=[0, 1], cameras={0: CAL, 1: far})
        header, table = _parts(dataset_to_bytes(Dataset(samples=samples, folds={"A": {0, 1}})))
        header["cameras"].reverse()
        assert [c["arena"] for c in header["cameras"]] == [1, 0]
        rec = read_dataset(_file(header, table)).samples
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
        with pytest.raises(MalformedRecord, match="record 1: arena 7 has no camera"):
            _samples([0, 1, 2], arena=[0, 7, 0], cameras={0: CAL})
        with pytest.raises(MalformedRecord, match="record 0: arena 0 has no camera"):
            _samples([0, 1], arena=[0, 0], cameras={})
        assert len(_samples([], arena=[], cameras={})) == 0
        samples = generate_dataset(seed=18, n=8, n_arenas=4)
        cameras = dict(samples.cameras)
        del cameras[3]
        first = samples.arena.tolist().index(3)
        with pytest.raises(MalformedRecord, match=f"record {first}: arena 3 has no camera"):
            replace(samples, cameras=cameras)

    def test_camera_keys_in_any_order(self):
        # cal_index is each row's position in `cameras`, whatever the keys'
        # order; a key past int64 names no row, and the first row in row
        # order whose arena has no camera is named.
        far = replace(CAL, fx=1200.0)
        cameras = {5: far, 2**64: CAL, -3: CAL, 2: CAL}
        samples = _samples(range(5), arena=[2, 5, -3, 5, 2], cameras=cameras)
        assert samples.cal_index.tolist() == [3, 0, 2, 0, 3]
        assert samples[1:3].cal_index.tolist() == [0, 2]
        with pytest.raises(MalformedRecord, match="record 1: arena 7 has no camera"):
            _samples(range(4), arena=[5, 7, 3, 2], cameras=cameras)
        # An arena past every key, and one below every key.
        with pytest.raises(MalformedRecord, match="record 2: arena 6 has no camera"):
            _samples(range(3), arena=[5, 2, 6], cameras=cameras)
        with pytest.raises(MalformedRecord, match="record 0: arena -4 has no camera"):
            _samples(range(2), arena=[-4, 2], cameras=cameras)
        ds = Dataset(samples=samples, folds={"A": {2, 2**64}, "B": {5, -3}})
        assert ds.fold("A").arena.tolist() == [2, 2]

    def test_fold_reorder_and_round_trip_keep_each_rows_camera(self):
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
        rec = read_dataset(io.BytesIO(dataset_to_bytes(ds)))
        assert list(rec.samples.cameras) != list(samples.cameras)
        for name in ("ids", "arena", "ball_3d", "ball_px", "foot_px", "h_true", "d_true"):
            np.testing.assert_array_equal(getattr(rec.samples, name), getattr(reordered, name))
        tables = [reordered, rec.samples]
        for d in (ds, rec):
            parts = [d.fold(fold) for fold in d.folds]
            assert sum(map(len, parts)) == len(reordered)
            tables += parts
        for table in tables:
            rays = ball_rays(table.cameras.values(), table.cal_index, table.ball_px)
            expected = np.array([truth[a] for a in table.arena.tolist()]).reshape(-1, 24).T
            np.testing.assert_array_equal(rays.cal, expected)
            assert all(row.cal is table.cameras[row.arena_id] for row in table)


class TestFold:
    def test_single_fold_gives_every_row(self):
        ds = Dataset(samples=_samples(range(4)), folds={"A": {0}})
        assert ds.fold("A").ids.tolist() == [0, 1, 2, 3]

    def test_fifteen_arena_folds_partition_the_rows(self):
        samples = generate_dataset(seed=15, n=150, n_arenas=15)
        ds = Dataset(samples=samples, folds=assign_folds(range(15), 5))
        total = 0
        for fold in ds.folds:
            rows = ds.fold(fold)
            assert set(rows.arena.tolist()) <= ds.folds[fold]
            in_fold = np.isin(samples.arena, list(ds.folds[fold]))
            np.testing.assert_array_equal(rows.ids, samples.ids[in_fold])
            total += len(rows)
        assert total == 150

    def test_unknown_fold(self):
        ds = Dataset(samples=_samples([0]), folds={"A": {0}})
        with pytest.raises(UnknownFold, match="fold 'Z' not in \\['A'\\]"):
            ds.fold("Z")

