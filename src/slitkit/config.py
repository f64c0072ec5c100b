"""Experiment configuration: YAML-backed, schema-versioned, hashable.

Every CLI subcommand is driven by an ExperimentConfig (schema 5, 12
fields), the one parser of a run.  Pass rules stay in the library
(``rates`` passes on ``RateReport.passed``); every field is checked
before a run starts: ``n`` and ``k`` as ints (not bools), ``scales``
against that report's minimum of 4 strictly decreasing values,
``bracket`` and ``G`` against ``TipProblem``'s rules, ``geometry`` by
``slit_geometry``.  Configs round-trip through serialization unchanged
and hash stably.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import yaml

from .errors import ConfigInvalid
from .geometry import SlitGeometry, flat_geometry, parabola_geometry

SCHEMA_VERSION = 5

_KINDS = ("solve", "expand", "rates", "whitney", "neumann", "freeboundary",
          "barrier", "energy")


@dataclass
class ExperimentConfig:
    kind: str = "solve"
    schema_version: int = SCHEMA_VERSION
    geometry: str = "flat"          # "flat" | "parabola:<a>"
    n: int = 1
    h: float = 2.0**-6
    grading_p: float = 0.0          # 0 disables grading
    k: int = 0
    scales: list = field(default_factory=lambda: [2.0**-j for j in range(1, 6)])
    target: float = 1.5
    bracket: list = field(default_factory=lambda: [-0.9, 0.9])
    G: float = 1.0
    output_dir: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigInvalid("kind", f"{self.kind!r} not one of {_KINDS}")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigInvalid("schema_version", f"{self.schema_version} != {SCHEMA_VERSION}")
        for name in ("n", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigInvalid(name, f"must be an integer, got {value!r}")
        if self.n not in (1, 2):
            raise ConfigInvalid("n", f"must be 1 or 2, got {self.n}")
        if not 0 < self.h <= 0.25:
            raise ConfigInvalid("h", f"out of range (0, 0.25]: {self.h}")
        if self.k < 0 or self.k > 4:
            raise ConfigInvalid("k", f"out of range [0, 4]: {self.k}")
        if len(self.scales) < 4 or not all(a > b for a, b in zip(self.scales, self.scales[1:])):
            raise ConfigInvalid("scales", f"need at least 4 strictly decreasing, got {self.scales}")
        b = self.bracket
        if not (isinstance(b, (list, tuple)) and len(b) == 2
                and all(isinstance(x, (int, float)) for x in b) and -1 < b[0] < b[1] < 1):
            raise ConfigInvalid("bracket", f"need [lo, hi] with -1 < lo < hi < 1, got {b!r}")
        if not (isinstance(self.G, (int, float)) and self.G > 0):
            raise ConfigInvalid("G", f"must be a number > 0, got {self.G!r}")
        self.slit_geometry()

    def slit_geometry(self) -> SlitGeometry:
        """``flat_geometry(n)``, or ``parabola_geometry(Fraction(a))`` for parabola:<a>."""
        if self.geometry == "flat":
            return flat_geometry(self.n)
        kind, _, a = str(self.geometry).partition(":")
        try:
            float(Fraction(a))
        except (ValueError, OverflowError):
            kind = None
        if kind != "parabola":
            raise ConfigInvalid("geometry", f"unrecognized descriptor {self.geometry!r}")
        if self.n != 2:
            raise ConfigInvalid("geometry", f"a curved edge needs n = 2, got n = {self.n}")
        return parabola_geometry(Fraction(a))

    def to_yaml(self) -> str:
        return yaml.safe_dump(asdict(self), sort_keys=True)

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentConfig":
        try:
            data = yaml.safe_load(text) or {}
            if not isinstance(data, dict):
                raise ConfigInvalid("root", "config root must be a mapping")
            unknown = set(data) - set(cls.__dataclass_fields__)
            if unknown:
                raise ConfigInvalid("fields", f"unknown fields: {sorted(unknown)}")
            return cls(**data)
        except (yaml.YAMLError, TypeError) as exc:
            raise ConfigInvalid("yaml", str(exc)) from exc

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
