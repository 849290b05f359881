"""The declared public surface: adding or removing a name is a deliberate edit here."""

import inspect
import os

import pytest

import xhbac
from xhbac import cli

PUBLIC_NAMES = {
    # thermal_core
    "CompositeSpec", "EnergySpectrum", "ExtremalPointSet", "GibbsStochasticCheck",
    "ThermoCurve", "as_population", "beta_opt_alpha", "beta_order", "beta_permutation",
    "extremal_points", "gibbs_state", "maximally_active",
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


# Each value has one way in; a new global flag or config field is a deliberate edit here.
GLOBAL_OPTIONS = {"-h", "--version", "--seed"}

CONFIG_FIELDS = {
    "levels", "beta", "beta_grid", "n_ancillas", "g", "t_int", "s_lo", "s_hi", "s_grid",
    "s_star", "s_errors", "loss_rate", "ratios", "t_th_grid", "n_atoms", "n_max", "rounds",
    "p0",
}


def test_knobs_are_the_declared_ones():
    parser = cli._build_parser()
    assert {a.option_strings[0] for a in parser._actions if a.option_strings} == GLOBAL_OPTIONS
    assert xhbac.ExperimentConfig.field_names() == CONFIG_FIELDS


def test_main_leaves_the_environment_alone(tmp_path, capsys):
    before = dict(os.environ)
    assert cli.main(["figure", "fig8", "--out", str(tmp_path / "fig8.csv"),
                     "--set", "rounds=2", "--set", "t_th_grid=inf"]) == 0
    assert cli.main(["accept", "closed-forms"]) == 0
    assert cli.main(["query", "gibbs", "--betaE", "1"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--tol", "1e-3", "query", "gibbs", "--betaE", "1"])
    assert dict(os.environ) == before
