"""One reader and one writer for JSON documents declared as dataclasses.

A dataclass's fields, in declared order, are the keys of its JSON object.
Nested dataclasses are objects, `tuple[X, ...]` fields are arrays of X, and
`np.ndarray` fields are (possibly nested) arrays whose element types the
dataclass itself checks. Every error is a ConfigError naming the key path.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError

_SCALARS = {
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
}


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
        hints = get_type_hints(hint)
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
    kind, *rest = get_args(hint) or (hint,)  # `X | None` gives (X, NoneType)
    if value is None and type(None) in rest:
        return None
    check, expected = _SCALARS[kind]
    if not check(value):
        raise ConfigError(f"{context} must be {expected}, got {value!r}")
    return value


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
