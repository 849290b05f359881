"""Figure reproductions as tabular data.

Each runner emits one row per (series, x) point.  Supported ids:

  fig3  ground population vs round for the ideal protocol, upper and lower
        bounds on its exchange-coupling realization, and the two-ancilla
        sort-and-rethermalize baseline (one block per beta value).  The
        one-ancilla non-local-thermalization baseline from the literature is
        not reproducible from the material implemented here and is omitted;
        the metadata records that.
  fig5  per-atom cooling of a thermal atom stream through two lossy cavities,
        one series per loss-to-firing-rate ratio.
  fig7  time-limited protocol at a fixed angle with worst-case timing errors.
  fig8  one qubit reusing a single cavity, one series per re-thermalization
        time (including full reset and none).
  fig9  fig5 with the stream parameters pinned to g=1, t=98.92, beta E=1.

Row order in the emitted table is always (series, x).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import __version__
from .bosonic_sim import (
    CavityParams,
    FockTruncation,
    atom_stream_sim,
    jc_deexcitation,
    jc_reuse_trace,
    optimize_interaction_time,
    upper_bound_G,
)
from .config import ExperimentConfig
from .protocols import noisy_ground_population, ppa_trace
from .results import ResultTable
from .thermal_core import EnergySpectrum, gibbs_state


def _qubit_spectrum(config: ExperimentConfig, beta: float | None = None) -> EnergySpectrum:
    if len(config.levels) != 2:
        raise ValueError("figure runners expect a two-level target system")
    return EnergySpectrum(tuple(config.levels), config.beta if beta is None else beta)


def _truncation(config: ExperimentConfig, beta_e: float, rounds: int) -> FockTruncation:
    if config.n_max > 0:
        return FockTruncation.thermal(beta_e, config.n_max)
    auto = FockTruncation.for_rounds(beta_e, max(rounds, 2))
    return auto if auto.n_max >= 60 else FockTruncation.thermal(beta_e, 60)

def _initial_ground(config: ExperimentConfig, spectrum: EnergySpectrum) -> float:
    if config.p0 >= 0.0:
        return config.p0
    return float(gibbs_state(spectrum)[0])


def _fig3(config: ExperimentConfig) -> ResultTable:
    betas = config.beta_grid or (config.beta,)
    rounds = config.rounds
    table = ResultTable(columns=["beta_e", "series", "k", "p0"])
    diagnostics = {}
    for beta in betas:
        spectrum = _qubit_spectrum(config, beta)
        beta_e = beta * spectrum.gap
        trunc = _truncation(config, beta_e, rounds)
        diagnostics[f"{beta_e:g}"] = {"n_max": trunc.n_max, "tail_bound": trunc.tail_bound}
        p0 = _initial_ground(config, spectrum)

        def noisy(eps: float):
            return [noisy_ground_population(k, eps, beta_e, p0) for k in range(rounds + 1)]

        best = optimize_interaction_time(spectrum, config.s_lo, config.s_hi, trunc,
                                         grid_step=config.s_grid)
        baseline = ppa_trace([p0, 1.0 - p0], config.n_ancillas, spectrum, rounds)
        series = [("ideal", noisy(0.0)), ("jc_upper", noisy(1.0 - upper_bound_G(beta_e))),
                  ("jc_lower", noisy(1.0 - best.probability)),
                  (f"ppa{config.n_ancillas}", baseline.ground)]
        for name, values in series:
            for k, value in enumerate(values):
                table.append(beta_e, name, k, float(value))
    table.metadata["truncation"] = diagnostics
    table.metadata["note"] = (
        "one-ancilla non-local-thermalization baseline omitted: "
        "not constructible from the implemented material"
    )
    return table


def _fig5(config: ExperimentConfig) -> ResultTable:
    spectrum = _qubit_spectrum(config)
    beta_e = spectrum.beta * spectrum.gap
    trunc = _truncation(config, beta_e, 2)
    table = ResultTable(columns=["ratio", "atom", "p0"])
    for ratio in config.ratios:
        firing = None if math.isinf(ratio) else config.loss_rate / ratio
        params = CavityParams.resonant(g=config.g, loss_rate=config.loss_rate,
                                       beta_e=beta_e, firing_rate=firing)
        finals = atom_stream_sim(params, config.n_atoms, config.t_int, trunc, spectrum)
        for atom, value in enumerate(finals):
            table.append(float(ratio), atom, float(value))
    table.metadata["truncation"] = {"n_max": trunc.n_max, "tail_bound": trunc.tail_bound}
    return table


def _fig7(config: ExperimentConfig) -> ResultTable:
    spectrum = _qubit_spectrum(config)
    beta_e = spectrum.beta * spectrum.gap
    trunc = _truncation(config, beta_e, config.rounds)
    p0 = _initial_ground(config, spectrum)
    table = ResultTable(columns=["series", "k", "p0"])

    def trace_for(eps: float):
        return [noisy_ground_population(k, eps, beta_e, p0) for k in range(config.rounds + 1)]

    series = [("exact", 1.0 - jc_deexcitation(config.s_star, spectrum, trunc))]
    for delta in config.s_errors:
        grid_n = max(2, int(math.ceil(2.0 * delta / config.s_grid)) + 1)
        window = np.linspace(config.s_star - delta, config.s_star + delta, grid_n)
        worst = float(np.min(jc_deexcitation(window, spectrum, trunc)))
        series.append((f"err{delta:g}", 1.0 - worst))
    for name, eps in series:
        for k, value in enumerate(trace_for(eps)):
            table.append(name, k, float(value))
    table.metadata["truncation"] = {"n_max": trunc.n_max, "tail_bound": trunc.tail_bound}
    table.metadata["epsilons"] = {name: eps for name, eps in series}
    return table


def _fig8(config: ExperimentConfig) -> ResultTable:
    spectrum = _qubit_spectrum(config)
    beta_e = spectrum.beta * spectrum.gap
    trunc = _truncation(config, beta_e, config.rounds)
    p0 = _initial_ground(config, spectrum)
    params = CavityParams.resonant(g=config.g, loss_rate=config.loss_rate, beta_e=beta_e)
    s = config.g * config.t_int
    table = ResultTable(columns=["t_th", "k", "p0"])
    for t_th in config.t_th_grid:
        trace = jc_reuse_trace(p0, s, t_th, params, trunc, spectrum, config.rounds)
        for k, value in enumerate(trace):
            table.append(float(t_th), k, float(value))
    table.metadata["truncation"] = {"n_max": trunc.n_max, "tail_bound": trunc.tail_bound}
    return table


# figure id -> (runner, config values the figure pins over the caller's)
FIGURES = {
    "fig3": (_fig3, {}),
    "fig5": (_fig5, {}),
    "fig7": (_fig7, {}),
    "fig8": (_fig8, {}),
    "fig9": (_fig5, {"g": 1.0, "t_int": 98.92, "beta": 1.0, "levels": (0.0, 1.0)}),
}
FIGURE_IDS = tuple(FIGURES)


def run_figure(fig_id: str, config: ExperimentConfig | None = None) -> ResultTable:
    """Produce the data table for one figure id."""
    if config is None:
        config = ExperimentConfig()
    if fig_id not in FIGURES:
        raise KeyError(f"unknown figure id {fig_id!r}; expected one of {FIGURE_IDS}")
    runner, pinned = FIGURES[fig_id]
    table = runner(dataclasses.replace(config, **pinned))
    table.metadata["figure"] = fig_id
    table.metadata["config"] = config.to_dict()
    table.metadata["version"] = __version__
    return table
