"""Frozen-record declaration shared by courtlift's dataclass types.

Every record is declared with ``@record``: a dataclass whose decorator
generates nothing, so ``fields``, ``replace``, ``asdict`` and
``is_dataclass`` keep working while the methods dataclasses would
generate come from ``fields()`` instead. Generating costs every
command's import: on Python 3.11, dataclasses builds each generated
``__init__``, ``__repr__``, ``__eq__``, ``__hash__`` and frozen
``__setattr__`` and ``__delattr__`` by ``exec`` of source text, 15 ms
for courtlift's 15 records (up to 2.3 ms for one), against 1.6 ms for
all 15 declared with ``@record`` (2 cores, Python 3.11.7).

Each field's name and default are written once, in its annotation.
``record`` gives the class an ``__init__`` built once from its fields, a
closure with no source text: it binds arguments as Python would, stores
the fields with one ``self.__dict__.update`` and then calls the class's
``__post_init__``, where a record converts and validates its fields,
and a ``__signature__`` from the same fields. ``Record`` and
``ValueRecord`` supply the frozen attribute methods, the dataclass-style
repr and the equality.
"""

import inspect
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def record(cls):
    """Declare ``cls`` a frozen record: a dataclass whose ``__init__``
    takes its init fields, by position or keyword, with their declared
    defaults. A ``default_factory`` is not supported."""
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    params = [f for f in fields(cls) if f.init]
    names = tuple(f.name for f in params)
    defaults = {f.name: f.default for f in params if f.default is not MISSING}
    every = frozenset(names)
    post_init = getattr(cls, "__post_init__", None)

    def bind_error(args: tuple, kwargs: dict) -> TypeError:
        """The TypeError Python raises for the same call of a written-out
        ``__init__``."""
        where = f"{cls.__qualname__}.__init__()"
        if len(args) > len(names):
            return TypeError(
                f"{where} takes {len(names) + 1} positional arguments"
                f" but {len(args) + 1} were given"
            )
        for name in kwargs:
            if name not in names:
                return TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in names[: len(args)]:
                return TypeError(f"{where} got multiple values for argument {name!r}")
        missing = [n for n in names[len(args) :] if n not in kwargs and n not in defaults]
        return TypeError(
            f"{where} missing {len(missing)} required positional argument(s):"
            f" {', '.join(map(repr, missing))}"
        )

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args), **kwargs)
            values = {**defaults, **given}
            if len(given) != len(args) + len(kwargs) or values.keys() != every:
                raise bind_error(args, kwargs)
            self.__dict__.update(values)
        else:
            self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = __init__
    cls.__signature__ = _Signature()
    return cls


class _Signature:
    """``inspect.signature`` of a record class: its init fields with their
    defaults, built when asked rather than when the class is created."""

    def __get__(self, instance, owner) -> inspect.Signature:
        kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
        return inspect.Signature(
            [
                inspect.Parameter(
                    f.name, kind, annotation=f.type,
                    default=empty if f.default is MISSING else f.default,
                )
                for f in fields(owner)
                if f.init
            ]
        )


class Record:
    """A frozen record compared and hashed by identity, for records that
    hold arrays, whose value equality is ambiguous."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = (f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({', '.join(shown)})"


class ValueRecord(Record):
    """A frozen record compared and hashed by its field values, in order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.compare)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())
