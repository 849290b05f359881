"""Experiment configuration: a flat dataclass loaded from JSON with flag overrides.

Unknown keys are rejected so a typo cannot silently fall back to a default,
and a file that is not a JSON object, or a JSON value of the wrong type, is
rejected rather than passed on.  NaN anywhere, an infinite scalar, an angle
window that no scan can cover, a negative or infinite timing error and the
other rules of `__post_init__` are rejected on construction; inf inside
`ratios` and `t_th_grid` means full reset.  A value outside one figure's
domain, such as `n_ancillas=5` (fig3), `g=-1` (fig5, fig8) or `beta=-1`, is
refused only when that figure runs; either way `xhbac figure` exits 2.  Flag
overrides always win over the file.  Only model settings live here: where a
table goes is the `--out` flag of `xhbac figure`, not a config field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, fields


def _parse_like(template, raw: str):
    """Coerce the string `raw` to the type of the template value."""
    if isinstance(template, tuple):
        return tuple(float(x) for x in raw.split(",")) if raw.strip() else ()
    return type(template)(raw)


def _is_number(x) -> bool:
    # a JSON bool is no number, and an integer must fit a float
    return type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max)


# per field type: what its JSON value must be, a test for that, and the conversion
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int, int),
    float: ("a number", _is_number, float),
    tuple: ("a list of numbers", lambda v: type(v) is list and all(map(_is_number, v)),
            lambda v: tuple(map(float, v))),
}


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
    # protocol length, initial ground population (negative -> thermal)
    rounds: int = 30
    p0: float = -1.0  # negative means: start thermal

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if isinstance(value, tuple) and any(math.isnan(x) for x in value):
                raise ValueError(f"{f.name} must not contain nan, got {value}")
        rules = [
            (self.s_lo < self.s_hi, f"need s_lo < s_hi, got [{self.s_lo}, {self.s_hi}]"),
            (self.s_grid > 0.0, f"s_grid must be positive, got {self.s_grid}"),
            (all(0.0 <= d < math.inf for d in self.s_errors),
             f"s_errors must be finite and non-negative, got {self.s_errors}"),
            (all(r > 0.0 for r in self.ratios), f"ratios must be positive, got {self.ratios}"),
            (all(t >= 0.0 for t in self.t_th_grid),
             f"t_th_grid must be non-negative, got {self.t_th_grid}"),
            (self.loss_rate >= 0.0, f"loss_rate must be non-negative, got {self.loss_rate}"),
            (self.n_atoms >= 1, f"n_atoms must be at least 1, got {self.n_atoms}"),
            (self.rounds >= 0, f"rounds must be non-negative, got {self.rounds}"),
            (self.n_max >= 0, f"n_max must be non-negative, got {self.n_max}"),
            (self.p0 <= 1.0, f"p0 must be at most 1, got {self.p0}"),
        ]
        broken = [rule for ok, rule in rules if not ok]
        if broken:
            raise ValueError("; ".join(broken))

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {data!r}")
        unknown = set(data) - cls.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        coerced = {}
        for key, value in data.items():
            kind, accepts, convert = _JSON_TYPES[type(getattr(cls, key))]
            if not accepts(value):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
            coerced[key] = convert(value)
        return cls(**coerced)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def with_overrides(self, overrides: dict[str, str]) -> "ExperimentConfig":
        unknown = set(overrides) - self.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        updates = {key: _parse_like(getattr(self, key), raw) for key, raw in overrides.items()}
        return dataclasses.replace(self, **updates)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out
