"""Frozen records: the part of ``dataclasses.dataclass(frozen=True)`` phl uses.

``@record`` takes a class's own annotations, in order, as its fields
and adds an ``__init__`` taking them positionally or by keyword (no
defaults), a call to ``__post_init__`` when the class defines one,
``__eq__`` against the same class only, ``__hash__`` of the field
tuple, ``__repr__`` as ``QualName(field=value, ...)``, ``__match_args__``,
and ``__setattr__``/``__delattr__`` that raise ``AttributeError``.  The
fields live in the instance ``__dict__``, so pickling and copying work
as for any plain object.

Building a dataclass imports ``inspect`` and compiles its methods with
``exec``; this decorator does neither, which keeps a cold CLI start
short.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls: type) -> type:
    fields = tuple(cls.__annotations__)
    count = len(fields)
    post_init = hasattr(cls, "__post_init__")
    getter = attrgetter(*fields)
    values = getter if count > 1 else lambda self: (getter(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__qualname__, fields, args, kwargs)
        self.__dict__.update(zip(fields, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls


def _bind(name: str, fields: tuple[str, ...], args: tuple, kwargs: dict) -> list:
    """Field values in order from positional and keyword arguments."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    out = list(args)
    for field in fields[len(args):]:
        if field not in kwargs:
            raise TypeError(f"{name}() missing required argument: {field!r}")
        out.append(kwargs.pop(field))
    if kwargs:
        key = next(iter(kwargs))
        why = "multiple values for" if key in fields else "an unexpected keyword"
        raise TypeError(f"{name}() got {why} argument {key!r}")
    return out
