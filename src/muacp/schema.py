"""JSON in and out of the frozen config dataclasses, by field type.

Handles int, float, str, Fraction, `X | None`, `tuple[X, ...]`, fixed
`tuple[X, Y]` and nested configs.  Values are never coerced (an int in
a float field stays an int; a Fraction field passes a number or a
string like "2/3" on for the config's `__post_init__` to convert),
bools are not numbers and floats must be finite.  Each problem, a
failing `__post_init__` check included, is a ConfigError naming the
field path, e.g. `base.sim.fault_schedule[0]: expected 2 items, got 1`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import MISSING
from fractions import Fraction


class ConfigError(ValueError):
    """A config document does not match its dataclass."""


def _fail(path: str, msg: str) -> typing.NoReturn:
    raise ConfigError(f"{path}: {msg}" if path else msg)


_hints = functools.cache(typing.get_type_hints)
_ACCEPTS = {int: int, float: (int, float), str: str,
            Fraction: (int, float, str, Fraction)}


def read(tp, value, path: str):
    """Check `value` against the type hint `tp`; `path` names it in errors."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else read(args[0], value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            _fail(path, f"expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            _fail(path, f"expected {len(args)} items, got {len(value)}")
        return tuple(
            read(t, v, f"{path}[{i}]")
            for i, (t, v) in enumerate(zip(args, value))
        )
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, path)
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[tp]):
        _fail(path, f"expected {tp.__name__}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value}")
    return value


def from_json(cls, obj, path: str = ""):
    """Build the config dataclass `cls` from a parsed JSON value."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    at = f"{path}." if path else ""
    hints = _hints(cls)
    for f in dataclasses.fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in obj:
            _fail(at + f.name, "missing")
    kwargs = {}
    for key, value in obj.items():
        if key not in hints:
            _fail(f"{at}{key}", "unknown field")
        kwargs[key] = read(hints[key], value, at + key)
    try:
        return cls(**kwargs)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        _fail(path, str(e))


def to_json(value):
    """The JSON form of a config; Fractions become strings like "2/3"."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: to_json(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


class Config:
    """Base of the config dataclasses: `to_json` and `from_json`."""

    def to_json(self) -> dict:
        return to_json(self)

    @classmethod
    def from_json(cls, obj):
        return from_json(cls, obj)
