"""Immutable records, one JSON form for records that list their fields in
declaration order, and the readers of parsed JSON: each checks one value's
JSON type once and names the value's path when it is wrong, as
:func:`read_record` makes a record's own checks do."""

from __future__ import annotations

import sys
from enum import Enum


def record(cls):
    """Class decorator: an immutable record of the fields ``cls`` annotates.

    Fields are in declaration order; a class attribute of a field's name is
    its default.  ``__init__`` takes them by position or keyword and then runs
    ``__post_init__``, which may set a field with ``object.__setattr__``.
    Equality holds between records of one class with equal fields, the hash
    is the field tuple's, and the repr is ``Name(field=value, ...)``, all as a
    frozen dataclass has them; ``_fields``, ``_field_defaults`` and
    ``_replace`` are named as a ``NamedTuple``'s, and ``to_dict`` is
    :func:`record_dict` unless the class defines one.  No code is generated,
    so decorating costs microseconds.  Instances keep a ``__dict__``, which a
    ``cached_property`` needs.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    where = f"{cls.__qualname__}.__init__()"
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        # one field at a time in declaration order, as a dataclass sets them: every
        # instance then shares one key layout, which attribute and method lookups rely on
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names)} arguments but {len(args)} were given")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                set_field(self, name, kwargs.pop(name))
            elif name in defaults:
                set_field(self, name, defaults[name])
            else:
                raise TypeError(f"{where} missing argument {name!r}")
        for name in kwargs:  # a keyword left over names a field given by position, or none
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{where} got {problem} argument {name!r}")
        if post_init is not None:
            post_init(self)

    def astuple(self):
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        return astuple(self) == astuple(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(astuple(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return type(self)(**{**{name: getattr(self, name) for name in names}, **changes})

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__, _replace):
        setattr(cls, method.__name__, method)
    cls._fields, cls._field_defaults = names, defaults
    if not hasattr(cls, "to_dict"):
        cls.to_dict = record_dict
    return cls


def plain(value):
    """JSON-ready value: nested records by ``to_dict``, enums by value, tuples as lists."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    return value


def record_dict(record) -> dict:
    """Each name in ``_fields`` of a :func:`record` or a ``NamedTuple`` mapped to its
    plain value, in declaration order; a ``NamedTuple`` record takes it as ``to_dict``."""
    return {name: plain(getattr(record, name)) for name in record._fields}


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "true or false", int: "an integer"}


def json_typed(value, kind: type, path: str):
    """``value`` if its JSON type is ``kind``, one of ``_JSON_TYPES``; a boolean
    is no integer.  A missing field reads as ``None`` and fails here too."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{path} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def json_number(value, path: str) -> float:
    """A finite JSON number as a float.  A string, a boolean, NaN, an infinity
    or an integer past the float range is an error naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # false for NaN; exact for any integer
        raise ValueError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def json_integer(value, path: str) -> int:
    """A JSON integer, within the float range like every number read."""
    json_number(json_typed(value, int, path), path)
    return value


def json_numbers(values, path: str, length: int | None = None) -> tuple[float, ...]:
    """A JSON array of numbers, of ``length`` entries when given, as a tuple of floats."""
    json_typed(values, list, path)
    if length is not None and len(values) != length:
        raise ValueError(f"{path} must hold {length} numbers, got {values!r}")
    return tuple(json_number(v, f"{path}[{i}]") for i, v in enumerate(values))


def read_record(cls, doc: dict, path: str, **readers):
    """A :func:`record` ``cls`` from its JSON object ``doc`` at ``path``: each
    field read at ``path.name`` (``name`` at an empty ``path``) by
    ``readers[name](value, path)`` or :func:`json_number`, a field absent from
    ``doc`` at its default.  The constructor's ``ValueError`` begins with a
    field's name and gains the same prefix: a range error names its path."""
    json_typed(doc, dict, path)
    prefix, defaults = path and f"{path}.", cls._field_defaults
    read = (name for name in cls._fields if name in doc or name not in defaults)
    fields = {name: readers.get(name, json_number)(doc.get(name), prefix + name) for name in read}
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None
