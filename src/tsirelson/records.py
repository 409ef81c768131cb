"""Immutable records: the common base of the package's value types.

A record class lists its fields as class annotations, in order, and gives a
field a default by a class attribute of the same name; fields with defaults
come last.  A record is built from positional or keyword arguments, after
which ``__post_init__`` runs (validation, and normalization through
``object.__setattr__``).  Records are equal only to records of the same
class with equal fields, hash as the tuple of their fields (computed once
and kept on the instance, so a nested family is not rehashed on every dict
lookup), print as ``Name(field=value, ...)`` and refuse assignment.
``replace(**changes)`` builds a copy through ``__init__``, so the copy is
validated again.

Each class gets its own ``__init__`` with one parameter per field, compiled
from a few lines of source when the class is defined, so that arguments are
bound by the interpreter and construction costs what a dataclass's does.
The rest is shared or built from closures.  A ``dataclasses`` import (with
``inspect``, ``ast`` and ``dis``) and its code generation for six methods
per class cost a command-line process more than most commands do.
"""

from operator import attrgetter


def _no_fields(record) -> tuple:
    return ()


def _make_init(fields: tuple, post_init: bool):
    # object.__setattr__ keeps the values inline in the instance, where
    # attribute reads are faster than from a materialized ``__dict__``
    body = [f"    _setattr(self, {name!r}, {name})" for name in fields]
    if post_init:
        body.append("    self.__post_init__()")
    source = "\n".join([f"def __init__({', '.join(('self',) + fields)}):"] + (body or ["    pass"]))
    namespace: dict = {}
    exec(source, {"_setattr": object.__setattr__}, namespace)
    return namespace["__init__"]


def _make_eq(key):
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    return __eq__


class Record:
    __slots__ = ()

    _fields = ()
    _hash = None  # the cached hash, set on the instance by the first __hash__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        fields = tuple(own.get("__annotations__", ()))
        defaults = tuple(own[name] for name in fields if name in own)
        if any(name not in own for name in fields[len(fields) - len(defaults) :]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        # the field values as a tuple, and the key that equality compares
        # (the bare value of a single field)
        if len(fields) == 1:
            key = attrgetter(fields[0])
            astuple = lambda record: (key(record),)  # noqa: E731
        else:
            key = astuple = attrgetter(*fields) if fields else _no_fields
        cls._fields = fields
        cls._astuple = staticmethod(astuple)
        cls.__eq__ = _make_eq(key)
        init = _make_init(fields, cls.__post_init__ is not Record.__post_init__)
        init.__defaults__ = defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __post_init__(self):
        pass

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._astuple(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._astuple(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the given fields changed, validated like a new record."""
        values = dict(zip(self._fields, self._astuple(self)))
        values.update(changes)
        return self.__class__(**values)
