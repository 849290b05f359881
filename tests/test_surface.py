"""The declared public surface: adding or removing a name is a deliberate edit here."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from functools import cached_property
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
    "ladder_ground_population", "markovian_best", "noisy_fixed_point",
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
    # the package binds a name only once it is read, so the surface is what dir() lists
    exported = [name for name in dir(xhbac) if not name.startswith("_")]
    assert not any(inspect.ismodule(getattr(xhbac, name)) for name in exported)
    assert set(exported) == PUBLIC_NAMES
    assert set(xhbac.__all__) == PUBLIC_NAMES
    assert set(cli.QUERY_OPS) == QUERY_OPS


def test_layers_are_the_one_list_of_public_names():
    for info in pkgutil.iter_modules(xhbac.__path__):
        assert "__all__" not in vars(importlib.import_module(f"xhbac.{info.name}")), info.name
    for layer, names in xhbac._LAYERS.items():
        for name in names:
            assert getattr(xhbac, name).__module__ == f"xhbac.{layer}", name


_LOADED_LAYERS = (
    "import sys; {statement}; "
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('xhbac.'))))"
)


@pytest.mark.parametrize("statement, loaded", [
    ("import xhbac", set()),
    ("from xhbac import thermal_core, protocols", {"thermal_core", "protocols"}),
    ("from xhbac import EnergySpectrum, optimal_round", {"thermal_core", "protocols"}),
    ("from xhbac import run_figure", {"thermal_core", "protocols", "bosonic_sim", "config",
                                      "results", "figures"}),
])
def test_layers_load_on_first_use(statement, loaded):
    env = {**os.environ, "PYTHONPATH": str(Path(xhbac.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", _LOADED_LAYERS.format(statement=statement)],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert set(out.split()) == {f"xhbac.{name}" for name in loaded}


def test_submodules_still_import_by_name():
    from xhbac import bosonic_sim, figures
    assert inspect.ismodule(bosonic_sim) and inspect.ismodule(figures)
    assert xhbac.bosonic_sim is bosonic_sim
    assert xhbac.run_figure is figures.run_figure
    with pytest.raises(AttributeError):
        xhbac.no_such_name


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


# Module-level lru_caches and their sizes; adding, resizing or dropping one is an edit here.
LRU_CACHES = {
    "acceptance._wide_window_optimum": 4,
    "bosonic_sim._relaxation_propagator": 16,
    "thermal_core._permutation_table": 8,
}


def test_module_caches_are_the_declared_ones():
    caches = {}
    for info in pkgutil.iter_modules(xhbac.__path__):
        module = importlib.import_module(f"xhbac.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert caches == LRU_CACHES


# Per-spectrum cached properties, the weights among them; adding or dropping one is an edit here.
SPECTRUM_CACHES = {
    "EnergySpectrum": {"_boltzmann", "_boltzmann_floats", "_energy_rank"},
    "CompositeSpec": {"_boltzmann", "_boltzmann_floats", "_energy_rank", "levels",
                      "_ancilla_start", "_cooling_rank", "_cooling_targets"},
}


def test_spectrum_caches_are_the_declared_ones():
    for name, names in SPECTRUM_CACHES.items():
        cls = getattr(xhbac, name)
        found = {attr for klass in cls.__mro__ for attr, value in vars(klass).items()
                 if isinstance(value, cached_property)}
        assert found == names, name


def test_main_leaves_the_environment_alone(tmp_path, capsys):
    before = dict(os.environ)
    assert cli.main(["figure", "fig8", "--out", str(tmp_path / "fig8.csv"),
                     "--set", "rounds=2", "--set", "t_th_grid=inf"]) == 0
    assert cli.main(["accept", "qubit-closed-form"]) == 0
    assert cli.main(["query", "gibbs", "--betaE", "1"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--tol", "1e-3", "query", "gibbs", "--betaE", "1"])
    assert dict(os.environ) == before
