"""Bases for value classes that generate no code when defined.

A ``@dataclass`` writes each class's methods as source text and compiles
it when the class is defined, about 0.6 ms a class, paid by every command
at import.  These bases give the same methods once, read from the class's
``_fields``: its constructor's parameters, in order.
"""

from __future__ import annotations


class Record:
    """A class whose ``_fields`` make its repr."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A ``Record`` that refuses assignment once built, compares and hashes by
    its fields, and pickles through its constructor, with what its instance
    dict holds besides (``cached_property`` values).  ``__init__`` sets the
    fields with ``_set``."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values(), getattr(self, "__dict__", None)
