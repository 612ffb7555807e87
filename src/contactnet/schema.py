"""The package's one type rule for declared fields (`admit`, `Declared`) and for
integers (`integer`, `read_array`), and one reader and one writer for JSON
documents declared as dataclasses.

A dataclass's fields, in declared order, are the keys of its JSON object.
Nested dataclasses are objects, `tuple[X, ...]` fields are arrays of X, and
`np.ndarray` fields are (possibly nested) arrays whose element types the
dataclass itself checks (`read_array`). Every `from_json` error is a
ConfigError naming the key path.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import MISSING, fields, is_dataclass
from functools import cache, partial
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError


def _admits(kind, t: type) -> bool:
    """Whether values of type `t` are of the numeric `kind`; booleans never are."""
    return issubclass(t, kind) and not issubclass(t, bool)


def integer(value, name: str, minimum: int | None = None) -> int:
    """`value` as an int, by the package's one integer rule: a `numbers.Integral`
    (numpy's included) that is not a boolean, and not below `minimum` if given.
    Anything else (1.9, True, np.bool_(True), "1", None) is a ValueError naming
    `name`; nothing is rounded or cast."""
    if not _admits(numbers.Integral, type(value)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}")
    return int(value)


def read_array(value, message: str, integer: bool = False, copy: bool = True) -> np.ndarray:
    """A read-only int64 (with `integer`) or float copy of the array `value`, or
    ValueError(`message`) unless every element is an integer (else a finite real).
    A numpy array is judged by its dtype alone, and an empty one passes; lists
    and tuples element by element, so booleans, strings, nulls and ragged
    nesting are refused. `copy=False` returns an array of the right dtype as
    it is, for callers that only read it to build their own."""
    kind = numbers.Integral if integer else numbers.Real
    try:
        if isinstance(value, np.ndarray):
            ok = value.size == 0 or value.dtype.kind in ("iu" if integer else "iuf")
        else:
            value = np.array(value, dtype=object)
            ok = all(_admits(kind, t) for t in set(map(type, value.flat)))
        if ok:
            out = value.astype(np.int64 if integer else float, copy=copy)
            if integer or np.all(np.isfinite(out)):
                if copy:
                    out.setflags(write=False)
                return out
    except (ValueError, OverflowError):
        pass
    raise ValueError(message)


_SCALARS = {
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    float: (lambda v: isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                               and abs(v) <= sys.float_info.max), "a number"),
}


# the declared field types of a dataclass, `Annotated` bounds kept, read once per class
declared_types = cache(partial(get_type_hints, include_extras=True))


def admit(hint, value, name: str):
    """`value` as a field of declared type `hint`, or a one-line ValueError naming `name`.
    `int` is read by `integer` (`Annotated[int, m]` with the minimum m), a `Literal`
    admits its strings, `X | None` None, and `tuple[X, ...]` a tuple or list of X,
    as a tuple. `str`, `bool` and `float` admit their JSON kinds (a float field takes
    an int that a float can hold, as given, but no boolean), and any other class its instances."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is int or origin is Annotated:
        return integer(value, name, *args[1:])
    if origin is Literal:
        if isinstance(value, str) and value in args:
            return value
        raise ValueError(f"{name} must be one of {', '.join(args)}, got {value!r}")
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be a tuple or a list, got {value!r}")
        # an item of exactly the declared class passes as it is, with no name built for it
        return tuple(item if type(item) is args[0] else admit(args[0], item, f"{name}[{i}]")
                     for i, item in enumerate(value))
    if type(None) in args:  # `X | None` gives (X, NoneType)
        return None if value is None else admit(args[0], value, name)
    check, expected = _SCALARS.get(hint) or (lambda v: isinstance(v, hint), f"a {hint.__name__}")
    if not check(value):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


class Declared:
    """Base of the frozen dataclasses whose fields hold to their declared types:
    each field is read by `admit` when the object is built, except `np.ndarray`
    fields, which the class reads itself (`read_array`)."""

    def __post_init__(self):
        for name, hint in declared_types(type(self)).items():
            if hint is not np.ndarray:
                object.__setattr__(self, name, admit(hint, getattr(self, name), name))


def from_json(hint, value, context: str):
    """Read the JSON `value` as type `hint`; errors name the key path `context`."""
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{context} must be a JSON object")
        declared = fields(hint)
        unknown = set(value) - {f.name for f in declared}
        if unknown:
            raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")
        for f in declared:
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{context}.{f.name} is required")
        hints = declared_types(hint)
        kwargs = {name: from_json(hints[name], item, f"{context}.{name}")
                  for name, item in value.items()}
        try:
            return hint(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {context}: {exc}") from exc
    if get_origin(hint) is tuple or hint is np.ndarray:
        if not isinstance(value, list):
            raise ConfigError(f"{context} must be a JSON array")
        if hint is np.ndarray:
            return value
        return tuple(from_json(get_args(hint)[0], item, f"{context}[{i}]")
                     for i, item in enumerate(value))
    try:
        return admit(hint, value, context)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_json(doc, stream) -> None:
    """Write the JSON document `doc` to `stream`: two-space indent, then a newline."""
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def to_json(value):
    """The JSON form of a declared dataclass (or of one of its field values)."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_json(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
