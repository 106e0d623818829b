"""Rules shared by the config dataclasses (SynthSpec, LossConfig, TrainConfig).

A field's declaration is the one source of its rule: its annotation gives
the type (:func:`field_types`) and its :func:`flag` metadata the help
text, allowed values and bounds. :func:`check` enforces the rule on every
value, whether from a flag, a config file or :func:`from_dict` (the one
unknown-key rule; it builds nested configs); each field with help text is
a command-line flag.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
import typing
from collections.abc import Mapping
from dataclasses import field, fields, is_dataclass

# bound keyword -> (symbol, test the value must pass)
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
           "le": ("<=", operator.le), "lt": ("<", operator.lt)}


def flag(default, help: typing.Optional[str] = None, choices=None, *,
         ge=None, gt=None, le=None, lt=None):
    """A config field with its rule; with ``help`` also a ``--field-name`` flag."""
    metadata = {key: value for key, value in (
        ("help", help), ("ge", ge), ("gt", gt), ("le", le), ("lt", lt))
        if value is not None}
    if choices is not None:
        metadata["choices"] = tuple(choices)
    return field(default=default, metadata=metadata)


@functools.cache
def field_types(cls) -> dict[str, tuple[type, bool]]:
    """Field name -> (type, whether None is allowed), ``Optional`` unwrapped."""
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:  # Optional[X] -> X
            hint = next(a for a in args if a is not type(None))
        types[name] = (hint, optional)
    return types


def bounds(f) -> str:
    """A field's bounds as text, e.g. ``>= 0, < 1``; empty without bounds."""
    return ", ".join(f"{symbol} {f.metadata[key]}"
                     for key, (symbol, _) in _BOUNDS.items() if key in f.metadata)


def _has_type(value, kind) -> bool:
    if isinstance(value, bool) and kind is not bool:
        return False
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        # not math.isfinite, which raises OverflowError on an int past the range
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check(cfg, error=ValueError) -> None:
    """Raise ``error`` for the first field of ``cfg`` that breaks its rule.

    In order: None only for an ``Optional`` field; an ``int`` field takes
    an integral number, a ``float`` field a finite real one (neither takes
    a bool), any other field an instance of its type; then the allowed
    values, then the bounds.
    """
    types = field_types(type(cfg))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind, optional = types[f.name]
        if value is None and optional:
            continue
        if not _has_type(value, kind):
            what = "a finite float" if kind is float else kind.__name__
            raise error(f"{f.name} must be {what}, got {value!r}")
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise error(f"{f.name} must be one of {choices}, got {value!r}")
        for key, (_, holds) in _BOUNDS.items():
            if key in f.metadata and not holds(value, f.metadata[key]):
                raise error(f"{f.name} must be {bounds(f)}, got {value!r}")


def from_dict(cls, d: dict, error=ValueError):
    """``cls(**d)``, raising ``error`` first for a ``d`` that is not a
    mapping and for keys that are not fields. A mapping for a field whose
    type is a config dataclass is built first, by that class's ``from_dict``."""
    if not isinstance(d, Mapping):
        raise error(f"{cls.__name__} must be a mapping, got {type(d).__name__}")
    kinds = {name: kind for name, (kind, _) in field_types(cls).items()}
    d = {k: kinds[k].from_dict(v) if isinstance(v, Mapping) and is_dataclass(kinds.get(k))
         else v for k, v in d.items()}
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**d)
