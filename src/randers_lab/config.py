"""Experiment configuration: canonical JSON, validation, hashing.

Configs serialize canonically (sorted keys, fixed separators) so that a
config hash is stable across runs and the same config always produces
byte-identical reports.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


class ConfigError(ValueError):
    pass


def json_number(cfg: dict, key: str, default=None, integer: bool = False):
    """cfg[key], or default when key is absent and a default is given, as
    a float, or as an int if integer: a JSON number, never a list, an
    object, a string or a bool."""
    value = cfg[key] if default is None else cfg.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integer and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f'"{key}" is {kind}, got {json.dumps(value)}')
    return int(value) if integer else float(value)


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
