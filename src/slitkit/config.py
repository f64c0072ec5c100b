"""Experiment configuration: YAML-backed, schema-versioned, hashable.

Every CLI subcommand is driven by an ExperimentConfig; defaults mirror
the package's verification thresholds so each check is runnable with an
empty config.  Configs round-trip through serialization unchanged and
hash stably for the run manifest.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import yaml

from .errors import ConfigInvalid

SCHEMA_VERSION = 2

_KINDS = ("solve", "expand", "rates", "whitney", "neumann", "freeboundary",
          "barrier", "energy")


@dataclass
class ExperimentConfig:
    kind: str = "solve"
    schema_version: int = SCHEMA_VERSION
    geometry: str = "flat"          # "flat" | "parabola:<a>"
    n: int = 1
    phi: str = "u0-trace"           # data descriptor understood by the CLI
    h: float = 2.0**-6
    grading_p: float = 0.0          # 0 disables grading
    split: bool = True
    k: int = 0
    scales: list = field(default_factory=lambda: [2.0**-j for j in range(1, 6)])
    target: float = 1.5
    min_exponent: float = 1.3
    residual_limit: float = 0.3
    min_cos: float = 0.5
    bracket: list = field(default_factory=lambda: [-0.9, 0.9])
    G: float = 1.0
    series_terms: int = 64
    output_dir: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigInvalid("kind", f"{self.kind!r} not one of {_KINDS}")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigInvalid("schema_version", f"{self.schema_version} != {SCHEMA_VERSION}")
        if self.n not in (1, 2):
            raise ConfigInvalid("n", f"must be 1 or 2, got {self.n}")
        if not 0 < self.h <= 0.25:
            raise ConfigInvalid("h", f"out of range (0, 0.25]: {self.h}")
        if self.k < 0 or self.k > 4:
            raise ConfigInvalid("k", f"out of range [0, 4]: {self.k}")
        if len(self.scales) >= 2 and not all(
                a > b for a, b in zip(self.scales, self.scales[1:])):
            raise ConfigInvalid("scales", "must be strictly decreasing")
        if self.geometry != "flat":
            kind, _, a = str(self.geometry).partition(":")
            try:
                float(Fraction(a))
            except (ValueError, OverflowError):
                kind = None
            if kind != "parabola":
                raise ConfigInvalid("geometry", f"unrecognized descriptor {self.geometry!r}")
            if self.n != 2:
                raise ConfigInvalid("geometry", f"a curved edge needs n = 2, got n = {self.n}")

    def to_yaml(self) -> str:
        return yaml.safe_dump(asdict(self), sort_keys=True)

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentConfig":
        data = yaml.safe_load(text) or {}
        if not isinstance(data, dict):
            raise ConfigInvalid("root", "config root must be a mapping")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigInvalid("fields", f"unknown fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigInvalid("fields", str(exc)) from exc

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
