"""Frozen-record methods shared by courtlift's dataclass types.

Every record is declared ``@dataclass(init=False, repr=False, eq=False)``
with an explicit ``__init__``, so the decorator only collects its fields,
and ``fields``, ``replace``, ``asdict`` and ``is_dataclass`` keep working.
The decorator generates nothing because generating costs every command's
import: on Python 3.11, dataclasses builds each generated ``__init__``,
``__repr__``, ``__eq__``, ``__hash__`` and frozen ``__setattr__`` and
``__delattr__`` by ``exec`` of source text: 15 ms for courtlift's 15
records (up to 2.3 ms for one), against 1.3 ms for all 15 in this form
(2 cores, Python 3.11.7).

These bases supply those methods from ``fields()``. An ``__init__``
stores its fields with one ``self.__dict__.update`` and then validates;
written out, it is also faster than the generated frozen one.
"""

from dataclasses import FrozenInstanceError, fields


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
