"""Numerical laboratory for heat-bath algorithmic cooling with optimal thermalization.

Each public name lives in one layer module.  `_LAYERS` is the one list of
public names: it builds `__all__`, `__dir__` and the lazy import, and no
layer module declares an `__all__` of its own.  A layer is imported the
first time one of its names is read (PEP 562), so a caller of `thermal_core`
or `protocols` alone never loads the Fock-space simulator or the experiment
layer.
"""

import importlib

__version__ = "0.1.0"

# layer module -> the public names it defines
_LAYERS = {
    "thermal_core": (
        "CompositeSpec", "EnergySpectrum", "ExtremalPointSet", "GibbsStochasticCheck",
        "ThermoCurve", "as_population", "beta_opt_alpha", "beta_order", "beta_permutation",
        "extremal_points", "gibbs_state", "maximally_active", "thermo_curve",
        "thermo_majorizes", "verify_gibbs_stochastic",
    ),
    "protocols": (
        "DeterminantScan", "OracleRound", "ProtocolTrace", "beta_swap_matrix",
        "epsilon_noisy_trace", "epsilon_threshold", "ideal_ground_population",
        "ladder_ground_population", "markovian_best", "noisy_fixed_point",
        "noisy_ground_population", "optimal_round", "oracle_optimal_round", "ppa_trace",
        "qudit_ladder_round", "run_ladder_protocol", "run_optimal_protocol",
        "thermal_contact_determinant", "to_determinant_scan",
    ),
    "bosonic_sim": (
        "CavityParams", "FockTruncation", "InteractionTime", "JointDiagState",
        "ModePopulations", "anharmonic_cooling_sums", "anharmonic_level_table",
        "asymptotic_upper_bound", "atom_stream_sim", "intensity_dependent_jc_round",
        "jc_deexcitation", "jc_reuse_trace", "jc_round", "optimize_interaction_time",
        "pauli_x", "rethermalize_mode", "reuse_protocol_trace", "u_beta_apply",
        "upper_bound_G",
    ),
    # experiment layer
    "config": ("ExperimentConfig",),
    "results": ("ResultTable",),
    "figures": ("run_figure",),
    "acceptance": ("run_acceptance",),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        # an unknown name, or a submodule not yet imported: `from xhbac import cli` then imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__():
    return [*__all__, "__version__"]
