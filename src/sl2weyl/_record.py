"""Plain value records: frozen `__slots__` classes with field-wise equality,
hash and repr.

A record's fields are the names in its own `__slots__` that do not start
with an underscore, in order; underscored slots hold private state that
equality, hash and repr ignore.  Two records are equal when they are of the
same class and their fields are equal, and a record hashes its fields, so
one holding a dict is unhashable.  A record refuses assignment and
deletion, so its constructor sets slots with `_set`.  Records pickle and
copy through the constructor, called with the fields in order, so every
class's `__init__` takes its fields positionally in slot order.  What a
record derives from its fields is a property, outside equality, hash, repr
and pickling.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__dict__.get("__slots__", ()) if n[0] != "_")
        if cls._fields:
            # the field tuple, read in C; a bare value for one field
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
