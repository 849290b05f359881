"""The declared public surface: adding or removing a name is a deliberate edit here."""

import importlib
import inspect
import os
from pathlib import Path

import pytest

import xhbac
from xhbac import acceptance, cli

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

# Acceptance criterion id -> key: the key names it in `xhbac accept <key>` and in its verdict line.
CRITERION_KEYS = {
    1: "qubit-closed-form", 2: "ladder-closed-form", 3: "beta-permutation",
    4: "oracle-equivalence", 5: "mode-reuse", 6: "jc-window", 7: "bound-consistency",
    8: "anharmonic", 9: "master-equation", 10: "markovian-ceiling", 11: "noise-robustness",
    12: "baseline-separation", 13: "atom-stream",
}


def test_public_surface_is_the_declared_one():
    exported = {name for name, value in vars(xhbac).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES
    assert set(cli.QUERY_OPS) == QUERY_OPS


def test_criterion_keys_are_the_declared_ones(monkeypatch):
    assert list(acceptance.CRITERIA) == list(CRITERION_KEYS)
    assert {ident: key for key, ident in acceptance._IDENTS.items()} == CRITERION_KEYS
    # the benchmark parses verdict lines against its own copy of the pairs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert {ident: key for ident, (key, _) in workloads.SEED_VERDICTS.items()} == CRITERION_KEYS


def test_each_key_runs_exactly_its_own_criterion(monkeypatch, capsys):
    calls = []

    def stub(ident):
        def criterion(seed=0):
            calls.append(ident)
            return acceptance.CriterionResult(ident, CRITERION_KEYS[ident], True, 0.0, 1.0, "")
        return criterion

    monkeypatch.setattr(acceptance, "CRITERIA", {i: stub(i) for i in CRITERION_KEYS})
    for ident, key in CRITERION_KEYS.items():
        calls.clear()
        assert cli.main(["accept", key]) == 0
        assert calls == [ident]
    calls.clear()
    assert cli.main(["accept", "all"]) == 0
    assert calls == list(CRITERION_KEYS)


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
    assert cli.main(["accept", "qubit-closed-form"]) == 0
    assert cli.main(["query", "gibbs", "--betaE", "1"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--tol", "1e-3", "query", "gibbs", "--betaE", "1"])
    assert dict(os.environ) == before
