"""One JSON form for records that list their fields in declaration order, and
one reader of JSON numbers that takes no string or boolean for a number."""

from __future__ import annotations

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


class Serializable:
    """Dataclass mixin: ``to_dict`` maps each field name to its plain value."""

    def to_dict(self) -> dict:
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


def json_number(value, path: str) -> float:
    """A JSON number as a float; a string or a boolean is an error naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be a number, got {value!r}")
    return float(value)


def json_numbers(values, path: str) -> tuple[float, ...]:
    """A JSON array of numbers as a tuple of floats."""
    return tuple(json_number(v, f"{path}[{i}]") for i, v in enumerate(values))


def read_numbers(cls, doc: dict, path: str):
    """A dataclass whose fields are all numbers, from its ``to_dict`` form at ``path``."""
    return cls(**{f.name: json_number(doc[f.name], f"{path}.{f.name}") for f in fields(cls)})
