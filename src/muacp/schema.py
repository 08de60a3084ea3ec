"""JSON in and out of the frozen config dataclasses, by field type.

Handles int, float, str, bytes (a hex string), Fraction, enums,
`X | None`, `tuple[X, ...]`, fixed `tuple[X, Y]`, `dict[str, X]` and
nested dataclasses.  Values are never coerced (an int in a float field
stays an int; a Fraction field passes a number or a string like "2/3"
on for the config's `__post_init__` to convert), bools are not numbers,
floats must be finite and strings must be valid Unicode.  An enum is
spelled by its value, an IntEnum, whose values are bare numbers, by
its name.  A field's JSON key is its name unless `metadata["json"]`
gives the file's own spelling (a keyword such as "from", say).  Each
problem, a failing `__post_init__` check included, is a ConfigError
naming the field path, e.g.
`base.sim.fault_schedule[0]: expected 2 items, got 1`.  `load` reads a
config file; its errors also name the file.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import typing
from dataclasses import MISSING
from fractions import Fraction


class ConfigError(ValueError):
    """A config document does not match its dataclass."""


def _fail(path: str, msg: str) -> typing.NoReturn:
    raise ConfigError(f"{path}: {msg}" if path else msg)


def path_key(key: str) -> str:
    """A JSON key as a path step, quoted unless it prints as one line."""
    return key if key.isprintable() else repr(key)


_hints = functools.cache(typing.get_type_hints)
_ACCEPTS = {int: int, float: (int, float), str: str,
            Fraction: (int, float, str, Fraction)}


@functools.cache
def _keys(cls) -> dict[str, dataclasses.Field]:
    """The JSON key of each field of the dataclass `cls`."""
    return {f.metadata.get("json", f.name): f for f in dataclasses.fields(cls)}


def read(tp, value, path: str):
    """Check `value` against the type hint `tp`; `path` names it in errors."""
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if type(None) in args:  # X | None
        return None if value is None else read(args[0], value, path)
    if origin is tuple:
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
    if origin is dict:
        if not isinstance(value, dict):
            _fail(path, f"expected an object, got {type(value).__name__}")
        return {k: read(args[1], v, f"{path}.{path_key(k)}")
                for k, v in value.items()}
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, path)
    if isinstance(tp, enum.EnumMeta):
        by_name = issubclass(tp, int)
        try:
            return tp[value] if by_name else tp(value)
        except (KeyError, TypeError, ValueError):
            names = ", ".join(repr(m.name if by_name else m.value) for m in tp)
            _fail(path, f"expected one of {names}, got {value!r}")
    if tp is bytes:
        try:
            return bytes.fromhex(value)
        except (TypeError, ValueError) as e:
            _fail(path, f"expected a hex string: {e}")
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[tp]):
        _fail(path, f"expected {tp.__name__}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value}")
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as e:
            _fail(path, f"expected valid Unicode, got {e.object[e.start]!r} "
                        f"at {e.start}")
    return value


def from_json(cls, obj, path: str = ""):
    """Build the config dataclass `cls` from a parsed JSON value."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    at = f"{path}." if path else ""
    keys = _keys(cls)
    for key, f in keys.items():
        required = f.default is MISSING and f.default_factory is MISSING
        if required and key not in obj:
            _fail(at + key, "missing")
    hints = _hints(cls)
    kwargs = {}
    for key, value in obj.items():
        if key not in keys:
            _fail(at + path_key(key), "unknown field")
        name = keys[key].name
        kwargs[name] = read(hints[name], value, at + key)
    try:
        return cls(**kwargs)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        _fail(path, str(e))


def write(tp, value):
    """The JSON form of `value` as the type hint `tp`: `read`'s inverse."""
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if type(None) in args:
        return None if value is None else write(args[0], value)
    if origin is tuple:
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return [write(t, v) for t, v in zip(args, value)]
    if origin is dict:
        return {k: write(args[1], v) for k, v in value.items()}
    if dataclasses.is_dataclass(tp):
        return to_json(value)
    if isinstance(tp, enum.EnumMeta):
        return tp(value).name if issubclass(tp, int) else tp(value).value
    if tp is bytes:
        return value.hex()
    if tp is Fraction:
        return str(value)
    return value


def to_json(value) -> dict:
    """The JSON form of a config; Fractions become strings like "2/3"."""
    hints = _hints(type(value))
    return {
        key: write(hints[f.name], getattr(value, f.name))
        for key, f in _keys(type(value)).items()
    }


class Config:
    """Base of the config dataclasses: JSON both ways and the seed rule."""

    def to_json(self) -> dict:
        return to_json(self)

    @classmethod
    def from_json(cls, obj):
        return from_json(cls, obj)

    @staticmethod
    def check_seed(seed: int) -> None:
        """`random.Random(n)` seeds from `abs(n)`, so a negative seed
        would silently repeat the run of its positive twin."""
        if seed < 0:
            raise ValueError(f"seed must not be negative, got {seed}")


def load(path: str, cls):
    """Read the UTF-8 JSON file `path` as the config class `cls` (through
    `cls.from_json`).  A file that cannot be read or parsed, or that
    does not match `cls`, is a ConfigError naming `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            obj = json.load(fp)
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    try:
        return cls.from_json(obj)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
