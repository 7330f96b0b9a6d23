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
