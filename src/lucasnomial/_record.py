"""The base of the package's frozen records.

A record is a plain class with __slots__.  It names its fields, in
constructor order, in `_fields`, and its own __init__ checks the arguments
and stores each one with object.__setattr__.  The base gives what a frozen
dataclass would: equality only between instances of the same class, hashing
and a repr over the field values, pickling and copying through the
constructor, and an AttributeError on assignment or deletion.  A slot that
is not a field, such as a stored weight, is left out of all of these.

This module imports nothing, so a record costs its module no import.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, which also restores any derived slot;
        # the default reduction would set the slots and meet __setattr__
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
