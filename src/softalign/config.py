"""Rules shared by the config dataclasses (SynthSpec, LossConfig, TrainConfig).

A field made with :func:`flag` carries its help text (and allowed values)
in its metadata; the command line derives one flag per such field, and
:func:`check_choices` enforces the allowed values. :func:`from_dict` is the
one unknown-key rule for building a config from a mapping.
"""

from __future__ import annotations

from dataclasses import field, fields


def flag(default, help: str, choices=None):
    """A config field exposed as ``--field-name`` on the command line."""
    metadata = {"help": help}
    if choices is not None:
        metadata["choices"] = tuple(choices)
    return field(default=default, metadata=metadata)


def check_choices(cfg) -> None:
    """Raise ValueError for a field whose value is not among its choices."""
    for f in fields(cfg):
        choices = f.metadata.get("choices")
        if choices is not None and getattr(cfg, f.name) not in choices:
            raise ValueError(
                f"{f.name} must be one of {choices}, got {getattr(cfg, f.name)!r}"
            )


def from_dict(cls, d: dict, error=ValueError):
    """``cls(**d)``, raising ``error`` first for keys that are not fields."""
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**d)
