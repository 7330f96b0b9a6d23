"""Experiment configuration: canonical JSON, validation, hashing.

Configs serialize canonically (sorted keys, fixed separators) so that a
config hash is stable across runs and the same config always produces
byte-identical reports.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_number(cfg: dict, key: str, default=None, integer: bool = False):
    """cfg[key], or default when key is absent and a default is given, as
    a float, or as an int if integer: a finite JSON number, never a list,
    an object, a string, a bool, NaN or Infinity."""
    if default is None and key not in cfg:
        raise ConfigError(f'"{key}" is missing')
    value = cfg.get(key, default)
    if not _is_number(value) or integer and isinstance(value, float) and not value.is_integer():
        kind = "an integer" if integer else "a number"
        raise ConfigError(f'"{key}" is {kind}, got {json.dumps(value)}')
    if not math.isfinite(value):  # json.loads parses NaN and Infinity
        raise ConfigError(f'"{key}" is a finite number, got {json.dumps(value)}')
    return int(value) if integer else float(value)


def json_array(value, what: str, ndim: int) -> np.ndarray:
    """value as a float array: a rectangular JSON array nested ndim deep
    (flat at ndim 1) whose leaves are finite numbers, never bools, strings,
    objects, nulls, NaN or Infinity; anything else is a ConfigError naming
    what, and a missing value (None) is named as missing."""
    if value is None:
        raise ConfigError(f"{what} is missing")

    def numbers(v, depth):
        if depth == 0:
            return _is_number(v)
        return isinstance(v, list) and all(numbers(u, depth - 1) for u in v)

    kind = "a flat JSON array of" if ndim == 1 else "a JSON array of" + " arrays of" * (ndim - 1)
    if numbers(value, ndim):
        try:
            array = np.array(value, dtype=float)
        except ValueError:  # ragged rows
            pass
        else:
            if np.all(np.isfinite(array)):
                return array
            kind += " finite"
    raise ConfigError(f"{what} is {kind} numbers, got {json.dumps(value)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """What a verb ran: the space, the wind, and the arguments the verb
    reads in `params` (seed, tol and format among them where it reads
    them); output locations are not part of it."""

    space: dict | None = None
    wind: object = None  # field spec dict, list of per-factor specs, or None
    params: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]
