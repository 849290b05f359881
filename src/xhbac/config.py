"""Experiment configuration: a flat dataclass loaded from JSON with flag overrides.

Unknown keys are rejected so a typo cannot silently fall back to a default.
NaN anywhere, an infinite scalar, and an angle window that no scan can cover
are rejected on construction; inf inside `ratios` and `t_th_grid` means full
reset.  Flag overrides always win over the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields


def _parse_like(template, raw: str):
    """Coerce the string `raw` to the type of the template value."""
    if isinstance(template, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(template, int) and not isinstance(template, bool):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    if isinstance(template, tuple):
        if raw.strip() == "":
            return ()
        return tuple(float(x) for x in raw.split(","))
    return raw


@dataclass(frozen=True)
class ExperimentConfig:
    # spectrum: levels of the target system and the bath inverse temperature;
    # beta_grid (if set) sweeps beta for multi-temperature figures
    levels: tuple[float, ...] = (0.0, 1.0)
    beta: float = 1.0
    beta_grid: tuple[float, ...] = ()
    # ancillas of the sort-and-rethermalize baseline
    n_ancillas: int = 2
    # exchange-coupling parameters: coupling, interaction time, angle window
    g: float = 1.0
    t_int: float = 98.92
    s_lo: float = 0.0
    s_hi: float = 5000.0
    s_grid: float = 1e-3
    s_star: float = 7.87
    s_errors: tuple[float, ...] = (0.1, 0.2, 0.3)
    # cavity parameters: loss rate, re-thermalization ratios / times, cutoff
    loss_rate: float = 1.0
    ratios: tuple[float, ...] = (math.inf, 10.0, 1.0, 0.1)
    t_th_grid: tuple[float, ...] = (math.inf, 5.0, 1.0, 0.5, 0.0)
    n_atoms: int = 50
    n_max: int = 0  # 0 means: choose automatically from beta and rounds
    # protocol length, initial ground population (None -> thermal), output
    rounds: int = 30
    p0: float = -1.0  # negative means: start thermal
    out: str = ""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if isinstance(value, tuple) and any(math.isnan(x) for x in value):
                raise ValueError(f"{f.name} must not contain nan, got {value}")
        if not self.s_lo < self.s_hi:
            raise ValueError(f"need s_lo < s_hi, got [{self.s_lo}, {self.s_hi}]")
        if not self.s_grid > 0.0:
            raise ValueError(f"s_grid must be positive, got {self.s_grid}")

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - cls.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for f in fields(cls):
            if f.name in coerced and isinstance(getattr(cls, f.name), tuple):
                coerced[f.name] = tuple(coerced[f.name])
        return cls(**coerced)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def with_overrides(self, overrides: dict[str, str]) -> "ExperimentConfig":
        unknown = set(overrides) - self.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        updates = {}
        for key, raw in overrides.items():
            template = getattr(self, key)
            updates[key] = _parse_like(template, raw) if isinstance(raw, str) else raw
        return dataclasses.replace(self, **updates)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out
