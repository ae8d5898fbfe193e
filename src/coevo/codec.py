"""One typed decoder for everything a run persists.

A record goes out as ``dataclasses.asdict`` and comes back through
``decode``, which checks every nested value against the declared types and
rebuilds the dataclasses. A value of the wrong shape is one ConfigError
naming its JSON path, such as ``experience/records/0/child_error``.
"""

from __future__ import annotations

import functools
import types
import typing

from .errors import ConfigError

EXPECTED = {bool: "true/false", int: "an integer", float: "a number", str: "a string"}
_hints = functools.cache(typing.get_type_hints)


def decode(tp, obj, path: str):
    """``obj``, as JSON or ``asdict`` output holds it, checked against ``tp`` and built as one.

    ``tp`` is a dataclass, ``list[T]``, ``dict[str, T]``, ``tuple[T, ...]``, a
    fixed tuple, ``T | None``, or bool/int/float/str. A tuple is accepted
    wherever a list is. An int is a float, but a bool is never an int.
    """
    if tp in EXPECTED:
        allowed = (int, float) if tp is float else tp
        if isinstance(obj, allowed) and (tp is bool or not isinstance(obj, bool)):
            return obj
        raise ConfigError(f"{path} must be {EXPECTED[tp]}")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # T | None
        if obj is None:
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return decode(inner, obj, path)
    if origin in (list, tuple):
        if not isinstance(obj, (list, tuple)):
            raise ConfigError(f"{path} must be a list")
        if origin is list or args[1:] == (...,):
            items = [decode(args[0], v, f"{path}/{i}") for i, v in enumerate(obj)]
        elif len(obj) == len(args):
            items = [decode(t, v, f"{path}/{i}") for i, (t, v) in enumerate(zip(args, obj))]
        else:
            raise ConfigError(f"{path} must hold {len(args)} items")
        return items if origin is list else tuple(items)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    if origin is dict:
        return {key: decode(args[1], value, f"{path}/{key}") for key, value in obj.items()}
    kinds = _hints(tp)
    unknown = [key for key in obj if key not in kinds]
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
    try:
        return tp(**{key: decode(kinds[key], value, f"{path}/{key}") for key, value in obj.items()})
    except (TypeError, ValueError) as exc:  # a missing key, or the record's own checks
        raise ConfigError(f"{path}: {exc}") from None
