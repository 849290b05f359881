"""The declared public surface: adding or removing a name is a deliberate edit here."""

import inspect

import xhbac
from xhbac import cli

PUBLIC_NAMES = {
    # thermal_core
    "CompositeSpec", "EnergySpectrum", "ExtremalPointSet", "GibbsStochasticCheck",
    "ThermoCurve", "as_population", "beta_opt_alpha", "beta_order", "beta_permutation",
    "default_tolerance", "extremal_points", "gibbs_state", "maximally_active",
    "thermo_curve", "thermo_majorizes", "verify_gibbs_stochastic",
    # protocols
    "DeterminantScan", "OracleRound", "ProtocolTrace", "beta_swap_matrix",
    "epsilon_noisy_trace", "epsilon_threshold", "ideal_ground_population",
    "ladder_ground_population", "markovian_best", "markovian_scan", "noisy_fixed_point",
    "noisy_ground_population", "optimal_round", "oracle_optimal_round", "ppa_trace",
    "qudit_ladder_round", "run_ladder_protocol", "run_optimal_protocol",
    "thermal_contact_determinant", "to_determinant_scan",
    # bosonic_sim
    "CavityParams", "FockTruncation", "InteractionTime", "JointDiagState", "ModePopulations",
    "anharmonic_cooling_sums", "anharmonic_level_table", "asymptotic_upper_bound",
    "atom_stream_sim", "intensity_dependent_jc_round", "jc_deexcitation", "jc_reuse_trace",
    "jc_round", "optimize_interaction_time", "pauli_x", "rethermalize_mode",
    "reuse_protocol_trace", "u_beta_apply", "upper_bound_G",
    # experiment layer
    "ExperimentConfig", "ResultTable", "run_acceptance", "run_figure",
}

QUERY_OPS = {
    "alpha-opt", "asymptotic-bound", "beta-order", "beta-swap-matrix", "curve-height",
    "gibbs", "ideal-ground", "jc-deexcitation", "ladder-ground", "markovian-best",
    "noisy-asymptote", "noisy-ground", "optimal-round", "optimal-s", "thermo-majorizes",
    "upper-bound",
}


def test_public_surface_is_the_declared_one():
    exported = {name for name, value in vars(xhbac).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES
    assert set(cli.QUERY_OPS) == QUERY_OPS
