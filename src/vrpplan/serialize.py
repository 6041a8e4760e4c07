"""One JSON form for records that list their fields in declaration order."""

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
