"""One JSON form for records that list their fields in declaration order, and
the readers of parsed JSON: each checks one value's JSON type once and names
the value's path when it is wrong."""

from __future__ import annotations

import sys
from dataclasses import fields
from enum import Enum


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
    """Each field name of a dataclass or a ``NamedTuple`` mapped to its plain value,
    in declaration order; a ``NamedTuple`` record takes it as ``to_dict``."""
    names = record._fields if isinstance(record, tuple) else [f.name for f in fields(record)]
    return {name: plain(getattr(record, name)) for name in names}


class Serializable:
    """Dataclass mixin: ``to_dict`` is :func:`record_dict`."""

    to_dict = record_dict


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


def read_numbers(cls, doc: dict, path: str):
    """A dataclass whose fields are all numbers, from its ``to_dict`` form at ``path``."""
    json_typed(doc, dict, path)
    return cls(**{f.name: json_number(doc.get(f.name), f"{path}.{f.name}") for f in fields(cls)})
