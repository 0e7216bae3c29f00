"""Frozen records: the part of ``dataclasses.dataclass(frozen=True)`` this
package uses, built from closures.  ``dataclasses`` imports ``inspect``,
``ast`` and ``dis`` and compiles each class's methods with ``exec``, a large
share of the start-up of a short p-adic command.

``@record`` reads the fields from the class annotations in order (``ClassVar``
ones excluded; a class attribute of the same name is the default) and adds
what the dataclass would: an ``__init__`` taking the fields by position or by
keyword and then calling ``__post_init__``, a ``__repr__`` (unless the class
defines one), an ``__eq__`` true only between instances of the same class with
equal fields, a ``__hash__`` of the field values, and attribute assignment
and deletion that raise.  The field names are kept in the class's ``_fields``.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


def record(cls):
    """Make ``cls`` a frozen record (see the module docstring)."""
    names = tuple(name for name, annotation in getattr(cls, "__annotations__", {}).items()
                  if not str(annotation).startswith(("ClassVar", "typing.ClassVar")))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    values = _values(names)
    methods = {
        "_fields": names,
        "__init__": _init(cls.__qualname__, names, defaults, hasattr(cls, "__post_init__")),
        "__eq__": _eq(values),
        "__hash__": lambda self: hash(values(self)),
        "__setattr__": _frozen("assign to"),
        "__delattr__": _frozen("delete"),
    }
    if "__repr__" not in cls.__dict__:
        methods["__repr__"] = _repr(names)
    for key, value in methods.items():
        setattr(cls, key, value)
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with the given fields changed; the class's
    ``__post_init__`` checks the new values."""
    unknown = set(changes) - set(obj._fields)
    if unknown:
        raise TypeError(f"{type(obj).__qualname__} has no field {sorted(unknown)[0]!r}")
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in obj._fields})


def _values(names):
    """self -> the tuple of its field values."""
    if not names:
        return lambda self: ()
    if len(names) == 1:
        one = attrgetter(names[0])
        return lambda self: (one(self),)
    return attrgetter(*names)


def _init(qualname: str, names: tuple, defaults: dict, post_init: bool):
    n = len(names)
    put = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
            values.append(value)
        for name in kwargs:
            how = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{qualname}() got {how} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)
        if post_init:
            self.__post_init__()

    return __init__


def _repr(names: tuple):
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    return __repr__


def _eq(values):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    return __eq__


def _frozen(verb: str):
    def refuse(self, name, *value):
        raise AttributeError(f"cannot {verb} field {name!r}")

    return refuse
