"""The JSON form of the program's dataclasses, derived from their fields.

One rule covers every file the program writes and reads (``db.json``,
``spec.json`` and the stage artifacts): a dataclass is an object with its
fields in declaration order, an enum is its value, a numpy array or scalar
is a list or a number, a tuple is a list, and dict keys are strings.
``decode`` reverses the rule from the field annotations and calls each
constructor, so the classes' own checks run.
"""

import dataclasses
import functools
import types
import typing
from enum import Enum

import numpy as np


class DecodeError(ValueError):
    """A missing or ill-typed value; ``path`` locates it from the top."""

    def __init__(self, reason, path=()):
        super().__init__(reason)
        self.reason, self.path = reason, path

    def __str__(self):
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in self.path)
        return f"{where.lstrip('.')}: {self.reason}" if where else self.reason


def encode(obj):
    """``obj`` as dicts, lists, strings, numbers, booleans and None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


def decode(cls, data):
    """The value of annotation ``cls`` whose encoded form is ``data``: a
    dataclass, ``Optional[X]``, ``list[X]``, ``dict[K, V]``, ``tuple``,
    ``np.ndarray``, an enum, a JSON scalar type or ``object`` (any value).
    Every field must be present, defaults included; keys that name no field
    are ignored. Raises DecodeError naming the first missing or ill-typed
    field."""
    if cls is np.ndarray:
        _expect(data, list)
        try:
            if (arr := np.array(data)).dtype.kind in "iuf":
                return arr
        except ValueError:  # ragged nesting
            pass
        raise DecodeError("expected a numeric array")
    if cls is float:
        return float(_expect(data, (int, float)))
    if cls in (int, str, bool):
        return _expect(data, cls)
    if cls is object:
        return data
    if dataclasses.is_dataclass(cls):
        _expect(data, dict)
        kwargs = {}
        for name, annotation in _fields(cls):
            if name not in data:
                raise DecodeError("field missing", (name,))
            kwargs[name] = _at(name, annotation, data[name])
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin in (typing.Union, types.UnionType):
        (inner,) = set(args) - {type(None)}
        return None if data is None else decode(inner, data)
    if isinstance(cls, type) and issubclass(cls, Enum):
        try:
            return cls(data)
        except ValueError:
            raise DecodeError(f"{data!r} is not a {cls.__name__}") from None
    if (origin or cls) is tuple:
        return tuple(_expect(data, list))
    if (origin or cls) is list:
        items = _expect(data, list)
        return [_at(i, args[0], v) for i, v in enumerate(items)] if args else items
    if (origin or cls) is dict:
        items = _expect(data, dict)
        if not args:
            return items
        return {_key(args[0], k): _at(k, args[1], v) for k, v in items.items()}
    raise TypeError(f"no JSON form for {cls!r}")


def check_shapes(obj, **shapes):
    """Raise ValueError unless each named array field of ``obj`` has the
    given shape; for the constructors of classes with fixed-size arrays."""
    for name, shape in shapes.items():
        got = np.shape(getattr(obj, name))
        if got != shape:
            raise ValueError(f"{name} must be {shape}, got {got}")


def _expect(data, kinds):
    # bool is an int in Python, but never a number in these files
    if not isinstance(data, kinds) or (isinstance(data, bool) and kinds is not bool):
        name = kinds.__name__ if isinstance(kinds, type) else "number"
        raise DecodeError(f"expected {name}, got {type(data).__name__}")
    return data


def _at(where, cls, data):
    try:
        return decode(cls, data)
    except DecodeError as exc:
        exc.path = (where,) + exc.path
        raise


def _key(cls, key):
    try:
        return cls(key)
    except ValueError:
        raise DecodeError(f"key {key!r} is not {cls.__name__}") from None


@functools.cache
def _fields(cls):
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]
