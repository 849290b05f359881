"""Config handling, result tables, figure runners, and the command line."""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from xhbac import (
    EnergySpectrum,
    FockTruncation,
    gibbs_state,
    ideal_ground_population,
    jc_deexcitation,
    noisy_ground_population,
    upper_bound_G,
)
from xhbac.cli import main
from xhbac.config import ExperimentConfig
from xhbac.figures import FIGURE_IDS, run_figure
from xhbac.results import ResultTable, format_cell

QUBIT = EnergySpectrum((0.0, 1.0), 1.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"rounds": 5, "bogus": 1})
    for dropped in ("threads", "seed"):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({dropped: 1})
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig().with_overrides({"nope": "1"})


def test_config_json_round_trip(tmp_path):
    config = ExperimentConfig(rounds=7, beta=0.5, ratios=(math.inf, 2.0))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    again = ExperimentConfig.from_json(path)
    assert again == config


@pytest.mark.parametrize("bad", [{"s_lo": "nan"}, {"s_hi": "inf"}, {"s_lo": "10", "s_hi": "10"},
                                 {"s_lo": "20", "s_hi": "10"}, {"s_grid": "0"},
                                 {"s_grid": "-1e-3"}, {"s_grid": "nan"}, {"s_grid": "inf"},
                                 {"t_int": "nan"}, {"g": "nan"}, {"s_star": "nan"},
                                 {"beta": "nan"}, {"loss_rate": "nan"}, {"p0": "nan"},
                                 {"t_int": "inf"}, {"beta": "-inf"}, {"loss_rate": "inf"},
                                 {"ratios": "inf,nan"}, {"t_th_grid": "nan"},
                                 {"levels": "0,nan"}, {"s_errors": "0.1,nan"},
                                 {"ratios": "0"}, {"ratios": "inf,-1"}, {"rounds": "-1"},
                                 {"p0": "1.5"}, {"t_th_grid": "inf,-0.5"}, {"n_max": "-1"},
                                 {"n_atoms": "0"}, {"loss_rate": "-1"}, {"s_errors": "-3"},
                                 {"s_errors": "0.1,-0.2"}, {"s_errors": "inf"}])
def test_config_rejects_bad_angle_windows(bad, tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig().with_overrides(bad)

    def json_value(key, raw):
        template = getattr(ExperimentConfig, key)
        if isinstance(template, tuple):
            return [float(x) for x in raw.split(",")]
        return int(raw) if isinstance(template, int) else float(raw)

    data = {key: json_value(key, value) for key, value in bad.items()}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize("bad", [{"ratios": 5}, {"rounds": 2.5}, {"n_atoms": "3"},
                                 {"rounds": True}, {"beta": "1"}, {"beta": False},
                                 {"levels": [0, "1"]}, {"t_th_grid": [True]},
                                 {"s_errors": None}])
def test_config_rejects_wrong_json_types(bad):
    with pytest.raises(ValueError, match="must be"):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("text", ["5", "null", '"ab"', "[1]"])
def test_cli_refuses_a_config_that_is_not_a_json_object(text, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["figure", "fig7", "--config", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_config_reads_json_integers_as_numbers():
    config = ExperimentConfig.from_dict({"beta": 2, "ratios": [1, 10], "rounds": 4})
    assert config == ExperimentConfig(beta=2.0, ratios=(1.0, 10.0), rounds=4)
    assert isinstance(config.beta, float) and isinstance(config.ratios[0], float)


def test_config_override_coercion():
    config = ExperimentConfig().with_overrides(
        {"rounds": "12", "beta": "0.25", "t_th_grid": "inf,1,0"}
    )
    assert config.rounds == 12
    assert config.beta == 0.25
    assert config.t_th_grid == (math.inf, 1.0, 0.0)


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def test_cell_formatting_uses_twelve_significant_digits():
    assert format_cell(math.pi) == "3.14159265359"
    assert format_cell(1.0) == "1"
    assert format_cell(True) == "true"
    assert format_cell(math.inf) == "inf"
    assert format_cell(3) == "3"


def test_table_rejects_ragged_rows_and_parses_metadata():
    table = ResultTable(columns=["a", "b"], metadata={"x": 1})
    table.append(1, 2.5)
    with pytest.raises(ValueError):
        table.append(1)
    text = table.to_csv()
    assert text.splitlines()[0].startswith("# ")
    assert ResultTable.parse_metadata(text) == {"x": 1}
    assert text.splitlines()[1] == "a,b"


# ---------------------------------------------------------------------------
# figure runners
# ---------------------------------------------------------------------------

FAST_FIG3 = {"rounds": 4, "s_hi": 20.0}


def test_fig3_series_and_values():
    config = ExperimentConfig.from_dict(FAST_FIG3)
    table = run_figure("fig3", config)
    assert table.columns == ["beta_e", "series", "k", "p0"]
    series = {row[1] for row in table.rows}
    assert series == {"ideal", "jc_upper", "jc_lower", "ppa2"}
    thermal_ground = float(gibbs_state(QUBIT)[0])
    by_key = {(row[1], row[2]): row[3] for row in table.rows}
    assert by_key[("ideal", 3)] == pytest.approx(ideal_ground_population(3, 1.0, thermal_ground))
    eps_ub = 1.0 - upper_bound_G(1.0)
    assert by_key[("jc_upper", 3)] == pytest.approx(
        noisy_ground_population(3, eps_ub, 1.0, thermal_ground)
    )
    # realized series sits between the baseline and the ceiling by round 4
    assert by_key[("ppa2", 4)] < by_key[("jc_lower", 4)] < by_key[("jc_upper", 4)]
    assert "omitted" in table.metadata["note"]


def test_fig3_ideal_series_approaches_one():
    config = ExperimentConfig.from_dict(dict(FAST_FIG3, rounds=60))
    table = run_figure("fig3", config)
    ideal_tail = max(row[3] for row in table.rows if row[1] == "ideal")
    assert ideal_tail == pytest.approx(1.0, abs=1e-12)


def test_fig3_is_deterministic_and_reproducible_from_its_echo():
    config = ExperimentConfig.from_dict(FAST_FIG3)
    first = run_figure("fig3", config)
    second = run_figure("fig3", config)
    assert first.body_csv() == second.body_csv()
    echoed = ExperimentConfig.from_dict(first.metadata["config"])
    third = run_figure(first.metadata["figure"], echoed)
    assert third.body_csv() == first.body_csv()


def test_fig3_keys_its_truncation_diagnostics_like_its_body():
    config = ExperimentConfig.from_dict(dict(FAST_FIG3, beta_grid=[1.0000001, 1.0000002]))
    table = run_figure("fig3", config)
    blocks = {format_cell(row[0]) for row in table.rows}
    assert len(blocks) == 2 and set(table.metadata["truncation"]) == blocks


def test_series_looped_figures_repeat_their_bytes():
    config = ExperimentConfig.from_dict({"n_atoms": 3, "rounds": 4,
                                         "t_th_grid": [math.inf, 1.0, 0.0]})
    for fig_id in ("fig5", "fig8", "fig9"):
        assert run_figure(fig_id, config).body_csv() == run_figure(fig_id, config).body_csv()


def test_fig5_full_reset_series_matches_the_two_round_law():
    config = ExperimentConfig.from_dict({"ratios": [math.inf], "n_atoms": 3})
    table = run_figure("fig5", config)
    trunc = FockTruncation.thermal(1.0, table.metadata["truncation"]["n_max"])
    eps = 1.0 - jc_deexcitation(98.92, QUBIT, trunc)
    thermal_ground = float(gibbs_state(QUBIT)[0])
    target = noisy_ground_population(2, eps, 1.0, thermal_ground)
    assert [row[2] for row in table.rows] == pytest.approx([target] * 3, abs=1e-10)


def test_fig7_error_bands_are_ordered():
    config = ExperimentConfig.from_dict({"rounds": 6})
    table = run_figure("fig7", config)
    eps = table.metadata["epsilons"]
    assert eps["exact"] <= eps["err0.1"] <= eps["err0.2"] <= eps["err0.3"]
    final = {row[0]: row[2] for row in table.rows if row[1] == 6}
    assert final["exact"] >= final["err0.1"] >= final["err0.2"] >= final["err0.3"]


def test_fig8_full_reset_series_equals_the_closed_form():
    config = ExperimentConfig.from_dict({"rounds": 5, "t_th_grid": [math.inf, 0.0]})
    table = run_figure("fig8", config)
    trunc = FockTruncation.thermal(1.0, table.metadata["truncation"]["n_max"])
    eps = 1.0 - jc_deexcitation(98.92, QUBIT, trunc)
    thermal_ground = float(gibbs_state(QUBIT)[0])
    inf_series = [row[2] for row in table.rows if math.isinf(row[0])]
    closed = [noisy_ground_population(k, eps, 1.0, thermal_ground) for k in range(6)]
    assert inf_series == pytest.approx(closed, abs=1e-12)


def test_fig9_pins_the_stream_parameters():
    config = ExperimentConfig.from_dict(
        {"ratios": [math.inf], "n_atoms": 2, "g": 3.0, "t_int": 1.0, "beta": 0.2}
    )
    table = run_figure("fig9", config)
    trunc = FockTruncation.thermal(1.0, table.metadata["truncation"]["n_max"])
    eps = 1.0 - jc_deexcitation(98.92, QUBIT, trunc)
    thermal_ground = float(gibbs_state(QUBIT)[0])
    target = noisy_ground_population(2, eps, 1.0, thermal_ground)
    assert [row[2] for row in table.rows] == pytest.approx([target] * 2, abs=1e-10)


def test_default_bodies_stay_within_the_benchmark_references(monkeypatch):
    # the benchmark judges each default table body against its stored reference;
    # its body check is imported read-only, as the benchmark runs it
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    checks = importlib.import_module("checks")
    results = [checks.compare_body(fig_id, run_figure(fig_id).body_csv(),
                                   (perfbench / "reference" / f"{fig_id}.csv").read_text(),
                                   checks.BODY_TOL)
               for fig_id in FIGURE_IDS]
    assert [(r["name"], r["ok"]) for r in results] == [(f, True) for f in FIGURE_IDS], results


def test_unknown_figure_id_raises():
    with pytest.raises(KeyError):
        run_figure("fig1")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_query_gibbs(capsys):
    assert main(["query", "gibbs", "--E", "0,1", "--beta", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "0.5,0.5"


def test_cli_query_ideal_ground_after_zero_rounds_at_zero_temperature(capsys):
    assert main(["query", "ideal-ground", "--k", "0", "--betaE", "inf", "--p0", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0.5"


def test_cli_query_alpha_opt(capsys):
    assert main(["query", "alpha-opt", "--d", "2", "--r", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "(0,1),(0,0),(1,1),(1,0)"


def test_cli_query_beta_swap(capsys):
    assert main(["query", "beta-swap-matrix", "--betaE", "1"]) == 0
    cells = capsys.readouterr().out.splitlines()[-1].split(",")
    values = list(map(float, cells))
    q = math.exp(-1)
    assert values == pytest.approx([1 - q, 1.0, q, 0.0], abs=1e-12)


def test_cli_query_optimal_round_with_ancilla(capsys):
    rc = main(["query", "optimal-round", "--p", "0.5,0.5",
               "--E", "0,1", "--beta", "1", "--ancE", "0,0.5"])
    assert rc == 0
    cells = capsys.readouterr().out.splitlines()[-1].split(",")
    values = list(map(float, cells))
    assert sum(values) == pytest.approx(1.0, abs=1e-9)
    # an ancilla can only help relative to the bare qubit round
    assert values[0] >= 1.0 - 0.5 * math.exp(-1) - 1e-12


@pytest.mark.parametrize("far,near", [
    (["--E", "0,1", "--ancE", "740,741"], ["--E", "0,1", "--ancE", "0,1"]),
    (["--E", "-720,-708"], ["--E", "0,12"]),
])
def test_cli_query_optimal_round_reads_only_level_differences(far, near, capsys):
    bodies = []
    for levels in (far, near):
        assert main(["query", "optimal-round", "--p", "0.5,0.5", *levels]) == 0
        bodies.append(capsys.readouterr().out.splitlines()[1:])
    assert bodies[0] == bodies[1]


def test_cli_curve_height_abscissa_is_relative_to_the_lowest_level(capsys):
    # x = 1 is a sum of weights e^{-beta (E_i - E_min)}: on levels (5, 6) it lies inside
    # the curve, one unit past the elbow at e^{-1}, exactly as on levels (0, 1)
    bodies = []
    for levels in ("5,6", "0,1"):
        assert main(["query", "curve-height", "--E", levels, "--p", "0.7,0.3", "--x", "1"]) == 0
        bodies.append(capsys.readouterr().out.splitlines()[1:])
    assert bodies[0] == bodies[1]
    assert float(bodies[0][1]) == pytest.approx(0.3 + 0.7 * (1.0 - math.exp(-1.0)), abs=1e-10)


def test_cli_usage_errors(capsys, tmp_path):
    assert main(["query", "not-an-op"]) == 2
    assert main(["accept", "not-a-suite"]) == 2
    assert main(["accept", "noise"]) == 2
    assert main(["accept", "closed-forms"]) == 2
    assert main(["query", "gibbs", "--E"]) == 2  # missing value
    assert main(["query", "optimal-s", "--betaE", "1", "--hi", "inf"]) == 2
    assert main(["query", "optimal-s", "--betaE", "0"]) == 2
    assert main(["query", "optimal-round", "--p", "nan,1"]) == 2
    assert main(["figure", "fig3", "--set", "s_grid=0"]) == 2
    assert main(["figure", "fig3", "--set", "s_hi=nan"]) == 2
    assert main(["figure", "fig3", "--set", "s_grid=1e-20"]) == 2  # more points than int64
    # a grid that int64 indexes, with scan blocks that it cannot
    assert main(["figure", "fig3", "--set", "s_hi=0.0001", "--set", "s_grid=1e-22"]) == 2
    for bad in ("fig8 t_int=nan", "fig5 g=nan", "fig7 s_star=nan", "fig5 beta=nan",
                "fig8 loss_rate=nan", "fig5 ratios=inf,nan", "fig5 ratios=0",
                "fig8 rounds=-1", "fig3 rounds=-1", "fig7 p0=1.5", "fig8 t_th_grid=-1",
                "fig7 n_max=-1", "fig5 n_atoms=0", "fig5 loss_rate=-1", "fig5 loss_rate=0",
                "fig9 loss_rate=0",
                "fig3 n_ancillas=4", "fig3 levels=0,1,2", "fig3 levels=1,0",
                "fig3 levels=0,0", "fig3 beta=-1", "fig3 beta=0", "fig3 beta_grid=-1",
                "fig5 g=-1", "fig7 s_errors=-3", "fig7 s_errors=inf"):
        fig_id, setting = bad.split()
        assert main(["figure", fig_id, "--set", setting]) == 2
    # a cutoff headroom, a reservoir occupation and an RK4 step that overflow or underflow
    for settings in ("fig5 beta=1e-310", "fig5 beta=1e-310 n_max=60", "fig8 beta=1e-310 n_max=60",
                     "fig5 loss_rate=1e308 n_max=20 n_atoms=1"):
        fig_id, *sets = settings.split()
        assert main(["figure", fig_id, *(arg for s in sets for arg in ("--set", s))]) == 2
    assert main(["query", "jc-deexcitation", "--s", "nan"]) == 2
    assert main(["query", "curve-height", "--p", "0.7,0.3", "--x", "nan"]) == 2
    assert main(["query", "ideal-ground", "--k", "-1", "--betaE", "1", "--p0", "0.5"]) == 2
    assert main(["query", "noisy-asymptote", "--eps", "-0.5", "--betaE", "1"]) == 2
    assert main(["query", "noisy-asymptote", "--eps", "0", "--betaE", "1e-17"]) == 2
    assert "e^-beta_e rounds to 1" in capsys.readouterr().err
    for atol in ("nan", "inf", "-1"):
        assert main(["query", "thermo-majorizes", "--E", "0,1", "--p", "0.7,0.3",
                     "--q", "0.6,0.4", "--atol", atol]) == 2
    assert main(["figure", "fig7", "--config", "no/such/config.json"]) == 2
    wrong_type = tmp_path / "config.json"
    wrong_type.write_text('{"ratios": 5}')
    assert main(["figure", "fig5", "--config", str(wrong_type)]) == 2
    assert main(["figure", "fig7", "--out", str(tmp_path / "no" / "such" / "x.csv")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-5", "-1", "1.5"])
@pytest.mark.parametrize("name", ["all", "beta-permutation"])
def test_cli_refuses_a_seed_that_is_not_a_non_negative_integer(seed, name, capsys):
    # numpy seeds a criterion with the seed plus an offset, and refuses a negative one
    with pytest.raises(SystemExit) as exc:
        main(["--seed", seed, "accept", name])
    assert exc.value.code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "markovian-best --betaE 1 --p0 nan",
    "markovian-best --betaE 1 --p0 1.5",
    "noisy-ground --k 2 --eps 0.1 --betaE 1 --p0 1.5",
    "ideal-ground --k 2 --betaE 1 --p0 -2",
    "ladder-ground --E 0,1,2 --blocks 2 --p0 1.5",
])
def test_cli_queries_refuse_ground_populations_outside_the_unit_interval(argv, capsys):
    assert main(["query", *argv.split()]) == 2
    assert "ground population" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unread", [
    ("optimal-s --betaE 1 --Hi 100", "--Hi"),
    ("gibbs --E 0,1 --betaE 5", "--betaE"),
    ("gibbs --E 0,1 --bogus 1", "--bogus"),
])
def test_cli_queries_refuse_keys_they_do_not_read(argv, unread, capsys):
    assert main(["query", *argv.split()]) == 2
    assert f"does not read {unread}" in capsys.readouterr().err


def test_cli_query_header_echoes_the_arguments(capsys):
    assert main(["query", "jc-deexcitation", "--s", "1", "--nmax", "20"]) == 0
    meta = ResultTable.parse_metadata(capsys.readouterr().out)
    assert meta["args"] == {"s": "1", "nmax": "20"}


def test_cli_figure_writes_csv(tmp_path, capsys):
    out = tmp_path / "fig8.csv"
    rc = main(["figure", "fig8", "--out", str(out),
               "--set", "rounds=3", "--set", "t_th_grid=inf"])
    assert rc == 0
    text = out.read_text()
    meta = ResultTable.parse_metadata(text)
    assert meta["figure"] == "fig8"
    assert meta["config"]["rounds"] == 3
    assert text.splitlines()[1] == "t_th,k,p0"


def test_cli_figure_refused_input_is_a_usage_error(capsys):
    rc = main(["figure", "fig3", "--set", "levels=0,0.5,1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "query gibbs --E 0,nan --beta 1",
    "query gibbs --E 0,inf --beta 1",
    "figure fig5 --set levels=0,inf",
])
def test_cli_refuses_non_finite_levels(argv, capsys):
    assert main(argv.split()) == 2
    assert "energy levels must be finite" in capsys.readouterr().err


def test_cli_figure_bad_override(capsys):
    assert main(["figure", "fig3", "--set", "nonsense=1"]) == 2
    assert main(["figure", "fig3", "--set", "rounds"]) == 2


def test_cli_accept_suite_passes(capsys):
    assert main(["accept", "qubit-closed-form"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1


def test_polytope_suite_catches_an_injected_sign_error(monkeypatch):
    # flip the sign of one entry in every extremal map the suite builds; the
    # criterion must fail and its verdict line must carry the violation
    import xhbac.acceptance as acc

    real = acc.beta_permutation

    def corrupted(pi, alpha, spectrum):
        matrix = real(pi, alpha, spectrum).copy()
        row = matrix[0]
        row[np.argmax(row)] *= -1.0
        return matrix

    monkeypatch.setattr(acc, "beta_permutation", corrupted)
    result = acc.criterion_beta_permutation_validity(seed=0)
    assert not result.passed
    assert "violation" in result.detail


def test_cli_thermo_majorizes_takes_its_own_atol(capsys):
    argv = ["query", "thermo-majorizes", "--p", "0.700001,0.299999", "--q", "0.7,0.3",
            "--E", "0,1", "--beta", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "false"
    assert main([*argv, "--atol", "1e-3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "true"
