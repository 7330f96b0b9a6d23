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


@dataclass(frozen=True)
class ExperimentConfig:
    """What a verb ran: the space, the wind, and the verb's own arguments
    in `params`; output locations are not part of it."""

    space: dict | None = None
    wind: object = None  # field spec dict, list of per-factor specs, or None
    seed: int = 0
    tol: float = 1e-6
    fmt: str = "json"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        if self.tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.fmt not in ("json", "csv", "svg"):
            raise ConfigError(f"unknown format {self.fmt!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]
