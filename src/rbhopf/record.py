"""Frozen value records: the base class of every result and payload record.

A subclass lists its fields as class annotations, in order, and a default
as the annotated name's value in the class body:

    class RBVerdict(Record):
        passed: bool
        weight: object
        defect: DefectReport | None = None

Instances are built positionally or by keyword, run the class's
`__post_init__` (validation) once every field is set, compare equal only to
an instance of the same class with equal fields, hash as the tuple of their
fields, and refuse to set or delete attributes.  `replace(**changes)` gives
a copy with some fields changed, validated again.

This is the `dataclasses.dataclass(frozen=True)` behaviour the package
relies on, without that module's import (which pulls in `inspect`) or the
methods it generates by `exec` for every class; both are paid at the
start-up of every process.
"""

from __future__ import annotations


class Record:
    """Base class of frozen records; see the module docstring.

    A record class takes its fields from its own annotations only, so
    records do not subclass one another.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _tail: tuple = ()  # the defaults, in field order; they end the fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}
        cls._tail = tuple(cls._defaults.values())
        if tuple(cls._defaults) != cls._fields[len(cls._fields) - len(cls._tail):]:
            raise TypeError(f"{cls.__qualname__}: a field without a default "
                            "follows one with a default")

    def __init__(self, *args, **kwargs):
        # Positional arguments only, the form every hot caller uses (the
        # search builds a verdict per candidate), skip the general binding.
        fields, n = self._fields, len(args)
        if kwargs or not len(fields) - len(self._tail) <= n <= len(fields):
            args = self._bind(args, kwargs)
        elif n < len(fields):
            args += self._tail[n - len(fields):]
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """Field values from constructor arguments, as a function binds them."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword "
                                f"argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for "
                                f"argument {key!r}")
            given[key] = value
        missing = [f for f in fields
                   if f not in given and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            f"{', '.join(map(repr, missing))}")
        return tuple(given[f] if f in given else cls._defaults[f]
                     for f in fields)

    def __post_init__(self):
        pass

    @property
    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def replace(self, **changes):
        """A copy with the given fields changed, built (and validated) anew."""
        return type(self)(**dict(zip(self._fields, self._values), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
