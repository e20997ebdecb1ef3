"""The record contract of courtlift's 7 frozen dataclass types.

Each record keeps what callers rely on: frozen fields, ``fields()`` order,
``replace()`` with validation, positional and keyword construction with
the same signature, value or identity equality, and the dataclass repr.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import pydoc
import sys
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import courtlift
from courtlift import (
    ArenaSpec,
    BallRays,
    CameraCalibration,
    Dataset,
    HeightDistSpec,
    PredictorSpec,
    Samples,
    assign_folds,
    generate_dataset,
)
from courtlift.errors import FoldViolation, MalformedRecord
from courtlift.synth import make_camera

CAL = make_camera((0.0, -20.0, 3.0), (0.0, 0.0, 0.0), 2000.0, 4500.0, 1500.0, k1=-0.1)
SAMPLES = generate_dataset(seed=3, n=12, n_arenas=2)
FOLDS = assign_folds(SAMPLES.arena.tolist(), 2)


def _cal_kwargs():
    return {
        "fx": 2000.0, "fy": 2100.0, "cx": 2250.0, "cy": 750.0,
        "rotation": np.eye(3), "translation": np.array([0.0, 1.0, 20.0]),
        "image_width": 4500.0, "image_height": 1500.0,
        "skew": 0.5, "k1": -0.1, "k2": 0.01, "k3": 0.0, "p1": 0.001, "p2": -0.002,
    }


# Each record type: its field names in order, the parameters of its
# constructor as (name, default or EMPTY), and keyword arguments of an
# example in parameter order. Examples built twice share every object
# that compares by identity, so value records built twice are equal.
EMPTY = inspect.Parameter.empty
RECORDS = {
    CameraCalibration: (
        ("fx", "fy", "cx", "cy", "rotation", "translation", "image_width", "image_height",
         "skew", "k1", "k2", "k3", "p1", "p2", "_packed"),
        [("fx", EMPTY), ("fy", EMPTY), ("cx", EMPTY), ("cy", EMPTY), ("rotation", EMPTY),
         ("translation", EMPTY), ("image_width", EMPTY), ("image_height", EMPTY),
         ("skew", 0.0), ("k1", 0.0), ("k2", 0.0), ("k3", 0.0), ("p1", 0.0), ("p2", 0.0)],
        _cal_kwargs,
    ),
    Dataset: (
        ("samples", "folds"),
        [("samples", EMPTY), ("folds", EMPTY)],
        lambda: {"samples": SAMPLES, "folds": FOLDS},
    ),
    PredictorSpec: (
        ("kind", "sigma", "nu", "target_mae", "seed"),
        [("kind", EMPTY), ("sigma", 0.0), ("nu", 3.0), ("target_mae", None), ("seed", 0)],
        lambda: {"kind": "heavy_tailed", "sigma": 0.0, "nu": 4.0, "target_mae": 34.0, "seed": 7},
    ),
    BallRays: (
        ("cal", "u", "v", "status", "terms"),
        [("cal", EMPTY), ("u", EMPTY), ("v", EMPTY), ("status", EMPTY)],
        lambda: {"cal": CAL.as_array()[:, None], "u": np.ones(1), "v": np.ones(1),
                 "status": np.zeros(1, dtype=np.int64)},
    ),
    ArenaSpec: (
        ("court_half_length", "court_half_width", "camera_height_range", "camera_distance_range",
         "focal_range", "image_width", "image_height", "k1_range", "k2_range", "ball_diameter_m"),
        [("court_half_length", 14.0), ("court_half_width", 7.5),
         ("camera_height_range", (3.0, 8.0)), ("camera_distance_range", (15.0, 30.0)),
         ("focal_range", (1500.0, 3000.0)), ("image_width", 4500.0), ("image_height", 1500.0),
         ("k1_range", (-0.15, 0.0)), ("k2_range", (0.0, 0.03)), ("ball_diameter_m", 0.24)],
        lambda: {"court_half_length": 10.0, "court_half_width": 5.0,
                 "camera_height_range": (2.0, 4.0), "camera_distance_range": (12.0, 20.0),
                 "focal_range": (1000.0, 2000.0), "image_width": 1920.0, "image_height": 1080.0,
                 "k1_range": (-0.1, 0.0), "k2_range": (0.0, 0.01), "ball_diameter_m": 0.22},
    ),
    HeightDistSpec: (
        ("kind", "p_above_3m", "max_height"),
        [("kind", "deepsport_like"), ("p_above_3m", None), ("max_height", 6.0)],
        lambda: {"kind": "ballistic_like", "p_above_3m": 0.25, "max_height": 7.0},
    ),
    Samples: (
        ("ids", "arena", "cameras", "ball_3d", "ball_px", "foot_px", "h_true", "d_true",
         "cal_index"),
        [("ids", EMPTY), ("arena", EMPTY), ("cameras", EMPTY), ("ball_3d", EMPTY),
         ("ball_px", EMPTY), ("foot_px", EMPTY), ("h_true", EMPTY), ("d_true", EMPTY)],
        lambda: {name: getattr(SAMPLES, name) for name in (
            "ids", "arena", "cameras", "ball_3d", "ball_px", "foot_px", "h_true", "d_true")},
    ),
}
IDENTITY = {CameraCalibration, BallRays, Samples}
# Fields derived in __post_init__: left out of the signature and the repr.
DERIVED = {"_packed", "cal_index", "terms"}
# A field change per record that its validation rejects, and the error.
INVALID = {
    CameraCalibration: ({"rotation": np.eye(2)}, ValueError),
    Samples: ({"cameras": {0: CAL}}, MalformedRecord),
    Dataset: ({"folds": {"A": {0}}}, FoldViolation),
    PredictorSpec: ({"sigma": -1.0}, ValueError),
    ArenaSpec: ({"court_half_length": -1.0}, ValueError),
    HeightDistSpec: ({"max_height": math.inf}, ValueError),
}

# A field change per value record that makes it unequal to the example.
DIFFERENT = {
    Dataset: {"samples": SAMPLES[:4]},
    PredictorSpec: {"seed": 8},
    ArenaSpec: {"ball_diameter_m": 0.24},
    HeightDistSpec: {"p_above_3m": 0.5},
}

by_name = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def example(cls):
    return cls(**RECORDS[cls][2]())


def same_fields(a, b) -> bool:
    """Field by field equality, arrays by value."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif not (x is y or x == y):
            return False
    return True


def test_the_table_covers_every_record_type():
    assert len(RECORDS) == 7
    assert {cls.__name__ for cls in RECORDS} <= set(courtlift.__all__)
    assert all(dataclasses.is_dataclass(cls) for cls in RECORDS)


def test_public_api_names():
    assert courtlift.__all__ == [
        "ArenaSpec", "BALL_DIAMETER_M", "BallRays", "CameraCalibration", "Dataset",
        "HeightDistSpec", "METRIC_NAMES", "PredictorSpec", "Samples", "aggregate_repeats",
        "assign_folds", "ball_rays",
        "errors", "evaluate_arrays", "generate_dataset", "height_histogram",
        "predict_diameters", "predict_heights", "project", "read_dataset",
        "reconstruct_from_diameter_batch", "reconstruct_from_height",
        "reconstruct_from_height_batch", "validate", "write_dataset",
    ]
    assert courtlift.__all__ == sorted(courtlift.__all__) and len(courtlift.__all__) == 25
    assert all(hasattr(courtlift, name) for name in courtlift.__all__)


# The package imports a public name's module when the name is first
# looked up (PEP 562), so `import courtlift` compiles no module.


@pytest.mark.parametrize("name", courtlift.__all__)
def test_a_public_name_is_its_home_modules_object(name):
    module = courtlift._HOMES[name]
    home = importlib.import_module(f"courtlift.{module}")
    value = home if name == module else getattr(home, name)
    assert courtlift.__getattr__(name) is value
    assert getattr(courtlift, name) is value
    # The table names the module that defines the name, not one that imports it.
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from courtlift import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == courtlift.__all__
    assert set(courtlift.__all__) <= set(dir(courtlift))


def test_an_unknown_name_is_an_attribute_error():
    # perfbench's environment probe reads getattr(courtlift, "NUMBA_ENABLED", None).
    with pytest.raises(AttributeError, match="module 'courtlift' has no attribute 'NUMBA_ENABLED'"):
        courtlift.NUMBA_ENABLED
    assert getattr(courtlift, "NUMBA_ENABLED", None) is None
    assert not hasattr(courtlift, "make_camera")


@by_name
def test_fields_are_frozen(cls):
    record = example(cls)
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)
    with pytest.raises(FrozenInstanceError):
        record.not_a_field = 1


@by_name
def test_field_names_and_order(cls):
    assert tuple(f.name for f in fields(cls)) == RECORDS[cls][0]


@by_name
def test_signature_names_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == RECORDS[cls][1]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)


@by_name
def test_help_shows_the_signature(cls):
    text = pydoc.render_doc(cls, renderer=pydoc.plaintext)
    assert f"{cls.__name__}{inspect.signature(cls)}" in text


@by_name
def test_field_defaults_match_the_signature(cls):
    declared = {f.name: f.default for f in fields(cls) if f.init}
    expected = {name: (dataclasses.MISSING if d is EMPTY else d) for name, d in RECORDS[cls][1]}
    assert declared == expected


@by_name
def test_positional_and_keyword_construction_agree(cls):
    kwargs = RECORDS[cls][2]()
    by_keyword, by_position = cls(**kwargs), cls(*kwargs.values())
    assert same_fields(by_keyword, by_position)
    for name, value in kwargs.items():
        if not isinstance(value, np.ndarray):
            assert getattr(by_keyword, name) == value
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(**kwargs, not_a_field=None)
    first = next(iter(kwargs))
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(kwargs[first], **kwargs)
    required = [name for name, default in RECORDS[cls][1] if default is EMPTY]
    if required:
        with pytest.raises(TypeError, match=f"missing 1 required .*'{required[-1]}'"):
            cls(**{name: v for name, v in kwargs.items() if name != required[-1]})


@by_name
def test_replace_round_trips(cls):
    record = example(cls)
    copy = replace(record)
    assert copy is not record and type(copy) is cls
    assert same_fields(copy, record)
    if cls not in IDENTITY:
        assert copy == record


@pytest.mark.parametrize("cls", list(INVALID), ids=lambda cls: cls.__name__)
def test_replace_runs_the_validation(cls):
    changes, error = INVALID[cls]
    with pytest.raises(error):
        replace(example(cls), **changes)


def test_replace_recomputes_derived_fields():
    cal = replace(example(CameraCalibration), fx=1234.0, k1=0.0)
    assert cal.as_array()[0] == 1234.0 and not cal.as_array().flags.writeable
    built = CameraCalibration(**{**_cal_kwargs(), "fx": 1234.0, "k1": 0.0})
    np.testing.assert_array_equal(cal.as_array(), built.as_array())
    # dataclasses.replace rejects an init=False field with ValueError
    # before Python 3.13 and with TypeError from 3.13 on.
    error = TypeError if sys.version_info >= (3, 13) else ValueError
    with pytest.raises(error, match="_packed"):
        replace(cal, _packed=None)
    # A kind's default p_above_3m is resolved where heights are drawn,
    # so replace() can change the kind either way.
    dist = HeightDistSpec(kind="uniform")
    assert dist.p_above_3m is None
    assert replace(dist, kind="ballistic_like").p_above_3m is None
    assert replace(HeightDistSpec(kind="ballistic_like"), kind="uniform").kind == "uniform"
    with pytest.raises(error, match="cal_index"):
        replace(SAMPLES, cal_index=None)
    with pytest.raises(error, match="terms"):
        replace(example(BallRays), terms=None)
    moved = replace(SAMPLES, cameras={1: CAL, 0: CAL, 5: CAL})
    assert moved.cal_index.tolist() == [1 if a == 0 else 0 for a in SAMPLES.arena.tolist()]
    ds = Dataset(SAMPLES, {name: set(ids) for name, ids in FOLDS.items()})
    assert all(isinstance(ids, frozenset) for ids in ds.folds.values())
    with pytest.raises(TypeError, match="samples must be a Samples table, got list"):
        Dataset(list(SAMPLES), FOLDS)


def test_iterating_a_table_gives_each_rows_ids_in_row_order():
    # perfbench/run.py's check_synth reads sample_id and arena_id off a
    # dataset's rows; nothing else iterates a table.
    ds = Dataset(SAMPLES, FOLDS)
    folds = [ds.fold(name) for name in sorted(ds.folds)]
    assert 0 < len(folds[0]) < len(SAMPLES)
    for table in (SAMPLES, SAMPLES[::-1], ds.samples, *folds):
        rows = [(row.sample_id, row.arena_id) for row in table]
        assert rows == list(zip(table.ids.tolist(), table.arena.tolist()))
        assert all(type(value) is int for row in rows for value in row)


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if c not in IDENTITY], ids=lambda c: c.__name__
)
def test_value_records_compare_by_value(cls):
    a, b = example(cls), example(cls)
    assert a is not b and a == b and not a != b
    try:
        hash(a)
    except TypeError:
        # A dict field makes the record unhashable, as a dataclass would.
        assert any(isinstance(getattr(a, f.name), dict) for f in fields(a))
        assert cls.__hash__ is not None
    else:
        assert hash(a) == hash(b)
    other = replace(a, **DIFFERENT[cls])
    assert a != other and not a == other
    assert a != RECORDS[cls][2]()
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize(
    "cls", sorted(IDENTITY, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_array_holders_compare_by_identity(cls):
    a, b = example(cls), example(cls)
    assert a == a and hash(a) == hash(a)
    assert a != b and not a == b
    assert len({a, b, a}) == 2


@by_name
def test_repr_is_the_dataclass_form(cls):
    record = example(cls)
    shown = [name for name in RECORDS[cls][0] if name not in DERIVED]
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in shown)
    assert repr(record) == f"{cls.__name__}({body})"


def test_repr_literals():
    assert repr(HeightDistSpec("uniform")) == (
        "HeightDistSpec(kind='uniform', p_above_3m=None, max_height=6.0)"
    )
    assert repr(PredictorSpec("gaussian", seed=3)) == (
        "PredictorSpec(kind='gaussian', sigma=0.0, nu=3.0, target_mae=None, seed=3)"
    )
    assert "_packed" not in repr(CAL)


def test_dataclass_helpers_keep_working():
    spec = PredictorSpec("gaussian", sigma=2.0)
    assert dataclasses.asdict(spec) == {
        "kind": "gaussian", "sigma": 2.0, "nu": 3.0, "target_mae": None, "seed": 0,
    }
    assert dataclasses.astuple(HeightDistSpec("ballistic_like", 0.25, 7.0)) == ("ballistic_like", 0.25, 7.0)
    assert dataclasses.is_dataclass(spec) and not dataclasses.is_dataclass(1.0)


def _courtlift_classes():
    import courtlift.cli  # noqa: F401  (the command line imports every module)

    for info in pkgutil.iter_modules(courtlift.__path__, "courtlift."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_every_record_checks_or_derives_its_fields():
    # A record type exists only where it checks or derives something in
    # __post_init__; a result that does neither is a plain dict or tuple.
    records = [cls for cls in _courtlift_classes() if dataclasses.is_dataclass(cls)]
    assert set(records) == set(RECORDS)
    assert [cls.__name__ for cls in records if "__post_init__" not in vars(cls)] == []


def test_no_class_holds_exec_generated_code():
    # dataclasses builds its generated methods by exec of source text, so
    # their code objects name "<string>" as their file; courtlift's records
    # declare theirs, because generating them costs every command's import
    # about 1 ms per class.
    classes = set(_courtlift_classes())
    assert set(RECORDS) <= classes
    generated = []
    for cls in classes:
        for name, value in vars(cls).items():
            for candidate in (value, getattr(value, "fget", None)):
                code = getattr(getattr(candidate, "__func__", candidate), "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    generated.append(f"{cls.__qualname__}.{name}")
    assert generated == []
