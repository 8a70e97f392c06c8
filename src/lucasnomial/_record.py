"""The base of the package's frozen records.

A record is a plain class with __slots__ that declares only its data.
`_fields` names its fields in constructor order, and `_defaults` holds the
values of its last few fields, used when a caller leaves them out.  The one
constructor, Record.__init__, binds its arguments to the fields by position
and then by name, raises TypeError for a missing, unknown, repeated or
surplus argument, stores each field and calls `_check`.  A record with
invariants overrides `_check` to read its fields and raise ValueError.

The base gives what a frozen dataclass would: equality only between instances
of the same class, hashing and a repr over the field values, pickling and
copying through the constructor, and an AttributeError on assignment or
deletion.  A slot that is not a field, such as a stored weight, is left out
of all of these; `_check` may set it.  Importing dataclasses would cost every
CLI path about 1 MB and 5 ms, and this module imports nothing.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        cls, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} arguments, not {len(args)}")
        # the trailing defaults, overridden by position and then by name
        values = dict(zip(fields[len(fields) - len(self._defaults) :], self._defaults))
        values.update(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                raise TypeError(f"{cls}() missing argument {name!r}")
            object.__setattr__(self, name, values[name])
        self._check()

    def _check(self) -> None:
        """Raise ValueError if the stored fields break an invariant."""

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
        # rebuilt through __init__, whose _check also restores any derived
        # slot; the default reduction would set the slots and meet __setattr__
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
