"""Cooling rounds, closed forms, noise robustness, and baselines."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from xhbac import (
    CompositeSpec,
    EnergySpectrum,
    NoiseSpec,
    QubitThermalOp,
    beta_opt_alpha,
    beta_order,
    beta_permutation,
    beta_swap_matrix,
    epsilon_noisy_trace,
    epsilon_threshold,
    gibbs_state,
    ideal_ground_population,
    maximally_active,
    ladder_ground_population,
    markovian_best,
    markovian_scan,
    noisy_fixed_point,
    noisy_ground_population,
    optimal_round,
    oracle_optimal_round,
    ppa_trace,
    qudit_ladder_round,
    run_ladder_protocol,
    run_optimal_protocol,
    thermal_contact_determinant,
    to_determinant_scan,
    verify_gibbs_stochastic,
)
from xhbac.protocols import _stacked_curve_heights
from xhbac.thermal_core import _curve_elbows
from conftest import random_spectrum

Q = math.exp(-1.0)


# ---------------------------------------------------------------------------
# target order for the optimal round
# ---------------------------------------------------------------------------

def test_beta_opt_alpha_examples():
    assert beta_opt_alpha(2, 1).tolist() == [0, 1]
    assert beta_opt_alpha(3, 1).tolist() == [0, 1, 2]
    # pair sequence (0,1),(0,0),(1,1),(1,0) in joint indices
    assert beta_opt_alpha(2, 2).tolist() == [1, 0, 3, 2]


# ---------------------------------------------------------------------------
# optimal round and its oracle
# ---------------------------------------------------------------------------

def test_optimal_round_qubit_value():
    spec = CompositeSpec(system=EnergySpectrum((0.0, 1.0), 1.0))
    out = optimal_round([0.5, 0.5], spec)
    assert out[0] == pytest.approx(0.8160602794142788, abs=1e-15)


def test_optimal_round_fixes_the_ground_state():
    spec = CompositeSpec(system=EnergySpectrum((0.0, 1.0, 2.0), 1.0))
    out = optimal_round([1.0, 0.0, 0.0], spec)
    assert out == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
    oracle = oracle_optimal_round([1.0, 0.0, 0.0], spec)
    assert oracle.ground == pytest.approx(1.0, abs=1e-14)


def _brute_force_marginals(p, spec):
    """Every unitary arrangement composed with every extremal map, via matrices."""
    joint = spec.joint_population(p)
    n = joint.size
    marginals = []
    for perm in itertools.permutations(range(n)):
        v = joint[list(perm)]
        pi = beta_order(v, spec)
        for alpha in itertools.permutations(range(n)):
            out = beta_permutation(pi, np.array(alpha), spec) @ v
            marginals.append(spec.system_marginal(out))
    return np.array(marginals)


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (2, 2), (4, 1)])
def test_oracle_matches_literal_matrix_enumeration(d, r, rng):
    system = random_spectrum(rng, d)
    ancilla = None
    if r > 1:
        ancilla = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, r))), system.beta)
    spec = CompositeSpec(system=system, ancilla=ancilla)
    p = rng.dirichlet(np.ones(d))

    marginals = _brute_force_marginals(p, spec)
    literal_ground = marginals[:, 0].max()
    literal_partials = np.sort(marginals, axis=1)[:, ::-1].cumsum(axis=1).max(axis=0)

    oracle = oracle_optimal_round(p, spec)
    assert oracle.ground == pytest.approx(literal_ground, abs=1e-12)
    assert oracle.partial_sums == pytest.approx(literal_partials, abs=1e-12)


def test_stacked_curve_heights_match_np_interp(rng):
    levels = np.sort(rng.uniform(0.0, 2.5, 5))
    levels[2] = levels[1]  # a degenerate pair
    spectrum = EnergySpectrum(tuple(levels), 0.8)
    rows = rng.dirichlet(np.ones(5), size=40)
    rows[0] = gibbs_state(spectrum)
    X, Y = _curve_elbows(rows, spectrum)
    for x in (0.0, 0.3, X[0, 2], X[0, -1], X[0, -1] * (1 + 1e-15), -1e-300):
        single = [np.interp(x, X[i], Y[i]) for i in range(len(rows))]
        assert _stacked_curve_heights(X, Y, x) == pytest.approx(single, abs=1e-15)


def _row_major_oracle(p, spec):
    """Oracle partial sums from row-major (n!, n+1) elbows with per-row gathers."""
    rows = spec.joint_population(p)[np.array(list(itertools.permutations(range(spec.dim))))]
    order = np.argsort(-(rows * spec._order_scale), axis=1, kind="stable")
    X = np.zeros((len(rows), spec.dim + 1))
    Y = np.zeros_like(X)
    np.cumsum(spec._boltzmann[order], axis=1, out=X[:, 1:])
    np.cumsum(np.take_along_axis(rows, order, axis=1), axis=1, out=Y[:, 1:])
    partial = []
    for x in np.cumsum(spec._boltzmann.reshape(spec.d, spec.r).sum(axis=1)):
        k = np.sum(X[:, 1:-1] < x, axis=1, keepdims=True)
        x0, x1 = np.take_along_axis(X, k, 1), np.take_along_axis(X, k + 1, 1)
        y0, y1 = np.take_along_axis(Y, k, 1), np.take_along_axis(Y, k + 1, 1)
        width = x1 - x0
        t = np.divide(x - x0, width, out=np.ones_like(width), where=width > 0.0)
        partial.append(np.minimum((y0 + (y1 - y0) * np.clip(t, 0.0, 1.0))[:, 0], 1.0).max())
    return np.array(partial)


@pytest.mark.parametrize("d,r", [(d, r) for d in range(2, 9) for r in range(1, 5) if d * r <= 8])
def test_oracle_equals_the_row_major_oracle_exactly(d, r, rng):
    for kind in ("random", "degenerate", "thermal", "top"):
        system = random_spectrum(rng, d)
        if kind == "degenerate":
            levels = list(system.levels)
            levels[d - 1] = levels[d - 2]
            system = EnergySpectrum(tuple(levels), system.beta)
        ancilla = None
        if r > 1:
            ancilla = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, r))), system.beta)
        spec = CompositeSpec(system=system, ancilla=ancilla)
        p = {"thermal": gibbs_state(system), "top": np.eye(d)[d - 1]}.get(
            kind, rng.dirichlet(np.ones(d)))
        want = _row_major_oracle(p, spec)
        oracle = oracle_optimal_round(p, spec)
        assert oracle.ground == want[0]
        assert (oracle.partial_sums == want).all()


def test_oracle_equals_optimal_round_for_a_thermal_qubit():
    spec = CompositeSpec(system=EnergySpectrum((0.0, 1.0), 1.0))
    p = gibbs_state(spec.system)
    oracle = oracle_optimal_round(p, spec)
    out = optimal_round(p, spec)
    assert oracle.ground == pytest.approx(out[0], abs=1e-12)
    assert oracle.best_sorted == pytest.approx(np.sort(out)[::-1], abs=1e-12)


def _matrix_round(p, spec):
    """The optimal round built from the explicit extremal matrix."""
    active = maximally_active(spec.joint_population(p), spec)
    matrix = beta_permutation(beta_order(active, spec), beta_opt_alpha(spec.d, spec.r), spec)
    return spec.system_marginal(matrix @ active)


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (5, 1), (8, 1), (2, 2), (2, 3), (3, 2),
                                 (2, 4), (4, 2)])
def test_optimal_round_matches_the_matrix_round(d, r, rng):
    for _ in range(10):
        system = random_spectrum(rng, d)
        ancilla = None
        if r > 1:
            ancilla = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.5, r))), system.beta)
        spec = CompositeSpec(system=system, ancilla=ancilla)
        for p in (rng.dirichlet(np.ones(d)), gibbs_state(system), np.eye(d)[d - 1]):
            assert np.max(np.abs(optimal_round(p, spec) - _matrix_round(p, spec))) <= 1e-14


@pytest.mark.parametrize("bad", [[math.nan, 1.0], [math.inf, 0.0], [0.5, -math.inf]])
def test_optimal_round_rejects_non_finite_populations(bad):
    spec = CompositeSpec(system=EnergySpectrum((0.0, 1.0), 1.0))
    with pytest.raises(ValueError):
        optimal_round(bad, spec)
    with pytest.raises(ValueError):
        oracle_optimal_round(bad, spec)


def test_optimal_round_has_no_dimension_guard():
    # joint dimension 9 exceeds the enumeration guard, but a single extremal
    # map needs no factorial scan
    system = EnergySpectrum((0.0, 1.0, 2.0), 1.0)
    ancilla = EnergySpectrum((0.0, 0.5, 1.5), 1.0)
    spec = CompositeSpec(system=system, ancilla=ancilla)
    out = optimal_round([0.5, 0.3, 0.2], spec)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert out[0] > 0.5


def test_optimal_round_accepts_a_precooled_ancilla(rng):
    system = random_spectrum(rng, 2)
    ancilla = EnergySpectrum(tuple(np.sort(rng.uniform(0, 2, 2))), system.beta)
    cold = (0.95, 0.05)
    spec = CompositeSpec(system=system, ancilla=ancilla, ancilla_population=cold)
    p = rng.dirichlet(np.ones(2))
    out = optimal_round(p, spec)
    oracle = oracle_optimal_round(p, spec)
    assert out[0] == pytest.approx(oracle.ground, abs=1e-10)
    # a colder-than-thermal ancilla should not do worse than the thermal one
    thermal_spec = CompositeSpec(system=system, ancilla=ancilla)
    assert out[0] >= optimal_round(p, thermal_spec)[0] - 1e-12


def test_oracle_at_infinite_temperature_is_plain_sorting(rng):
    spectrum = EnergySpectrum((0.0, 0.5, 1.5), 0.0)
    spec = CompositeSpec(system=spectrum)
    p = rng.dirichlet(np.ones(3))
    oracle = oracle_optimal_round(p, spec)
    assert oracle.ground == pytest.approx(np.max(p), abs=1e-12)
    assert oracle.partial_sums == pytest.approx(np.cumsum(np.sort(p)[::-1]), abs=1e-12)


def test_optimal_round_achieves_the_oracle(rng):
    for _ in range(30):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, 3))
        if d * r > 8:
            continue
        system = random_spectrum(rng, d)
        ancilla = EnergySpectrum(tuple(np.sort(rng.uniform(0, 2, r))), system.beta) if r > 1 else None
        spec = CompositeSpec(system=system, ancilla=ancilla)
        p = rng.dirichlet(np.ones(d))
        out = optimal_round(p, spec)
        oracle = oracle_optimal_round(p, spec)
        assert out[0] == pytest.approx(oracle.ground, abs=1e-10)
        partial = np.cumsum(np.sort(out)[::-1])
        assert np.all(partial >= oracle.partial_sums - 1e-10)


def test_oracle_dimension_guard():
    spec = CompositeSpec(
        system=EnergySpectrum((0.0, 1.0, 2.0), 1.0),
        ancilla=EnergySpectrum((0.0, 0.5, 1.0), 1.0),
    )
    with pytest.raises(ValueError):
        oracle_optimal_round(np.full(3, 1 / 3), spec)


def test_optimal_protocol_trace_structure():
    spec = CompositeSpec(system=EnergySpectrum((0.0, 1.0), 1.0))
    trace = run_optimal_protocol([0.6, 0.4], spec, 0)
    assert trace.rounds == 0
    assert trace.populations.shape == (1, 2)
    trace = run_optimal_protocol([0.6, 0.4], spec, 7)
    assert np.all(np.diff(trace.ground) >= -1e-15)
    assert trace.populations[:, 0] == pytest.approx(trace.ground)


def test_qubit_protocol_matches_closed_form():
    for beta_e in (0.1, 1.0, 10.0):
        spec = CompositeSpec(system=EnergySpectrum((0.0, 1.0), beta_e))
        for p0 in (0.5, 0.7, 0.9):
            trace = run_optimal_protocol([p0, 1 - p0], spec, 50)
            closed = [ideal_ground_population(k, beta_e, p0) for k in range(51)]
            assert trace.ground == pytest.approx(closed, abs=1e-12)


def test_optimal_round_is_monotone_in_ground_population(rng):
    spec = CompositeSpec(system=EnergySpectrum((0.0, 1.0), 0.8))
    for _ in range(50):
        hi = rng.uniform(0.5, 1.0)
        lo = rng.uniform(0.5, hi)
        out_hi = optimal_round([hi, 1 - hi], spec)
        out_lo = optimal_round([lo, 1 - lo], spec)
        assert out_hi[0] >= out_lo[0] - 1e-15


def test_optimal_protocol_dominates_the_ladder():
    spectrum = EnergySpectrum((0.0, 1.0, 2.0), 1.0)
    p0 = gibbs_state(spectrum)
    optimal = run_optimal_protocol(p0, CompositeSpec(system=spectrum), 8)
    ladder = run_ladder_protocol(p0, spectrum, 8)
    assert np.all(optimal.ground >= ladder.ground - 1e-12)


# ---------------------------------------------------------------------------
# two-level swaps and the ladder protocol
# ---------------------------------------------------------------------------

def test_beta_swap_matrix_examples():
    qubit = EnergySpectrum((0.0, 1.0), 1.0)
    assert beta_swap_matrix(0, 1, qubit) == pytest.approx(
        np.array([[1 - Q, 1.0], [Q, 0.0]]), abs=1e-15
    )
    flat = EnergySpectrum((0.0, 1.0, 2.0), 0.0)
    M = beta_swap_matrix(0, 2, flat)
    expected = np.eye(3)[[2, 1, 0]]
    assert np.allclose(M, expected)
    # a huge gap at beta > 0 decays completely and never re-excites
    wide = EnergySpectrum((0.0, 800.0), 1.0)
    assert beta_swap_matrix(0, 1, wide) == pytest.approx(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        beta_swap_matrix(1, 1, qubit)
    with pytest.raises(ValueError):
        beta_swap_matrix(1, 0, qubit)


def test_beta_swap_is_gibbs_stochastic(rng):
    for _ in range(20):
        spectrum = random_spectrum(rng, 4)
        i, j = sorted(rng.choice(4, size=2, replace=False))
        assert verify_gibbs_stochastic(beta_swap_matrix(i, j, spectrum), spectrum).ok


def _ladder_matrix(spectrum) -> np.ndarray:
    d = len(spectrum.levels)
    flip = np.eye(d)
    flip[[0, d - 1]] = flip[[d - 1, 0]]
    C = flip
    for i in range(d - 2, -1, -1):
        C = beta_swap_matrix(i, i + 1, spectrum) @ C
    return C


@pytest.mark.parametrize("d", [3, 4, 5])
def test_ladder_block_matrix_identity(d, rng):
    spectrum = random_spectrum(rng, d)
    C = _ladder_matrix(spectrum)
    decay = math.exp(-spectrum.beta * spectrum.omega)
    block = np.linalg.matrix_power(C, d - 1)
    expected = decay * np.eye(d)
    expected[0] = np.full(d, 1.0 - decay)
    expected[0, 0] = 1.0
    assert block == pytest.approx(expected, abs=1e-12)
    e1 = np.zeros(d)
    e1[1] = 1.0
    image = block @ e1
    assert image[0] == pytest.approx(1.0 - decay, abs=1e-12)
    assert image[1] == pytest.approx(decay, abs=1e-12)
    assert image[2:] == pytest.approx(np.zeros(d - 2), abs=1e-15)


def test_ladder_round_matches_its_matrix(rng):
    spectrum = random_spectrum(rng, 4)
    p = rng.dirichlet(np.ones(4))
    assert qudit_ladder_round(p, spectrum) == pytest.approx(_ladder_matrix(spectrum) @ p)


def test_ladder_qubit_round_is_flip_then_swap():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    p = np.array([0.55, 0.45])
    flip = p[::-1]
    expected = beta_swap_matrix(0, 1, spectrum) @ flip
    assert qudit_ladder_round(p, spectrum) == pytest.approx(expected)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_ladder_protocol_closed_form(d, rng):
    spectrum = random_spectrum(rng, d, 0.3, 2.0)
    p0 = rng.dirichlet(np.ones(d))
    blocks = 6
    trace = run_ladder_protocol(p0, spectrum, blocks * (d - 1))
    for k in range(blocks + 1):
        assert trace.ground[k * (d - 1)] == pytest.approx(
            ladder_ground_population(k, spectrum, float(p0[0])), abs=1e-12
        )


# ---------------------------------------------------------------------------
# noisy swaps
# ---------------------------------------------------------------------------

def test_noise_spec_validity_flag():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    threshold = epsilon_threshold(1.0)
    assert NoiseSpec.for_qubit(threshold * 0.9, spectrum).within_bound
    assert not NoiseSpec.for_qubit(threshold * 1.1, spectrum).within_bound
    with pytest.raises(ValueError):
        NoiseSpec(epsilon=1.5, within_bound=False)


def test_noiseless_trace_reduces_to_the_ideal_closed_form():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    trace = epsilon_noisy_trace(0.6, 0.0, spectrum, 30)
    closed = [ideal_ground_population(k, 1.0, 0.6) for k in range(31)]
    assert trace == pytest.approx(closed, abs=1e-12)


def test_noisy_trace_matches_closed_form_and_asymptote():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    # 0.1 sits just above the optimality threshold at beta E = 1; the
    # recursion itself stays valid and the flag fires
    with pytest.warns(UserWarning):
        trace = epsilon_noisy_trace(0.7311, 0.1, spectrum, 200)
    closed = [noisy_ground_population(k, 0.1, 1.0, 0.7311) for k in range(201)]
    assert trace == pytest.approx(closed, abs=1e-12)
    assert trace[-1] == pytest.approx(noisy_fixed_point(0.1, 1.0), abs=1e-12)
    assert noisy_fixed_point(0.1, 1.0) == pytest.approx(0.8699455141711943, abs=1e-15)


def test_noisy_trace_warns_above_the_optimality_threshold():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    with pytest.warns(UserWarning):
        epsilon_noisy_trace(0.7, 0.5, spectrum, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        epsilon_noisy_trace(0.7, 0.01, spectrum, 3)


@given(
    st.floats(0.5, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([0.3, 0.5, 1.0, 2.0]),
)
@settings(max_examples=80, deadline=None)
def test_noisy_trace_contracts_toward_its_fixed_point(p0, eps_fraction, beta_e):
    spectrum = EnergySpectrum((0.0, 1.0), beta_e)
    eps = eps_fraction * epsilon_threshold(beta_e)
    trace = epsilon_noisy_trace(p0, eps, spectrum, 25)
    assert np.all((trace >= -1e-12) & (trace <= 1.0 + 1e-12))
    gaps = np.abs(trace - noisy_fixed_point(eps, beta_e))
    assert np.all(np.diff(gaps) <= 1e-12)


def test_degenerate_closed_form_is_constant():
    # beta = 0 with a perfect swap keeps the population fixed
    assert noisy_ground_population(5, 0.0, 0.0, 0.62) == pytest.approx(0.62)
    with pytest.raises(ValueError):
        noisy_fixed_point(0.0, 0.0)


def test_qubit_thermal_op_positivity_cap():
    QubitThermalOp(lam=0.5, c=0.3).validate(1.0)
    with pytest.raises(ValueError):
        QubitThermalOp(lam=1.0, c=0.1).validate(1.0)
    op = QubitThermalOp(lam=0.4)
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    assert verify_gibbs_stochastic(op.population_matrix(1.0), spectrum).ok


# ---------------------------------------------------------------------------
# determinant scan
# ---------------------------------------------------------------------------

def test_determinant_scan_finds_the_corner():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    scan = to_determinant_scan(0.7, spectrum, lambda_max=1.0)
    assert scan.q_star == pytest.approx(0.3)
    assert scan.lambda_star == 1.0
    assert scan.above_threshold and not scan.trivial_regime


def test_determinant_without_contact_is_flat_in_q():
    qs = np.linspace(0.3, 0.7, 9)
    values = thermal_contact_determinant(qs, 0.0, 0.7, 1.0)
    assert values == pytest.approx(np.full(9, 0.7 * 0.3), abs=1e-15)


def test_determinant_matches_the_plain_expression_exactly():
    def plain(q, lam, p, beta_e):
        q, lam = np.asarray(q, dtype=float), np.asarray(lam, dtype=float)
        x = math.exp(-beta_e)
        coherence = (lam - 1.0) * (x * lam - 1.0) * (q - p) * (p + q - 1.0)
        u = q * (x * lam + lam - 1.0) - lam
        return coherence - u * (u + 1.0)

    qs = np.linspace(0.25, 0.75, 301)
    lams = np.linspace(0.0, 1.0, 257)
    for q, lam in ((qs[:, None], lams[None, :]), (qs, 0.4), (0.3, lams), (0.35, 0.8)):
        got = thermal_contact_determinant(q, lam, 0.75, 1.3)
        want = plain(q, lam, 0.75, 1.3)
        assert np.shape(got) == np.shape(want)
        assert (got == want).all()


def test_determinant_scan_maximally_mixed_orbit_collapses():
    # at p = 1/2 the unitary orbit is the single point q = 1/2
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    scan = to_determinant_scan(0.5, spectrum, lambda_max=1.0)
    assert scan.q_star == pytest.approx(0.5)
    assert scan.lambda_star == 1.0


def test_determinant_scan_rejects_low_ground_population():
    with pytest.raises(ValueError):
        to_determinant_scan(0.4, EnergySpectrum((0.0, 1.0), 1.0))


def test_determinant_scan_random_corners(rng):
    for _ in range(10):
        beta_e = float(rng.uniform(0.3, 2.0))
        spectrum = EnergySpectrum((0.0, 1.0), beta_e)
        lam_max = float(rng.uniform(1.0 - epsilon_threshold(beta_e) + 1e-9, 1.0))
        star = noisy_fixed_point(1.0 - lam_max, beta_e)
        p = float(rng.uniform(0.55, star - 0.01))
        scan = to_determinant_scan(p, spectrum, lambda_max=lam_max)
        assert scan.q_star == 1.0 - p and scan.lambda_star == lam_max


# ---------------------------------------------------------------------------
# Markovian ceiling
# ---------------------------------------------------------------------------

def test_markovian_best_examples():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    thermal_ground = 1.0 / (1.0 + Q)
    assert markovian_best(0.5, spectrum) == pytest.approx(thermal_ground, abs=1e-15)
    assert markovian_best(0.9, spectrum) == 0.9
    flat = EnergySpectrum((0.0, 1.0), 0.0)
    assert markovian_best(0.5, flat) == 0.5


def test_markovian_scan_never_beats_the_bath(rng):
    for _ in range(20):
        beta_e = float(rng.uniform(0.1, 3.0))
        spectrum = EnergySpectrum((0.0, 1.0), beta_e)
        thermal_ground = 1.0 / (1.0 + math.exp(-beta_e))
        p = float(rng.uniform(0.5, thermal_ground))
        assert markovian_scan(p, spectrum, 10_000) <= thermal_ground + 1e-12
        assert markovian_scan(p, spectrum, 10_000) == pytest.approx(
            markovian_best(p, spectrum), abs=1e-9
        )


# ---------------------------------------------------------------------------
# sort-and-rethermalize baseline
# ---------------------------------------------------------------------------

def test_baseline_without_ancillas_is_constant_after_sorting():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    trace = ppa_trace([0.4, 0.6], 0, spectrum, 5)
    assert trace.ground[0] == pytest.approx(0.4)
    assert trace.ground[1:] == pytest.approx(np.full(5, 0.6))


def test_baseline_at_infinite_temperature_only_sorts():
    spectrum = EnergySpectrum((0.0, 1.0), 0.0)
    trace = ppa_trace([0.35, 0.65], 2, spectrum, 6)
    assert trace.ground[1:] == pytest.approx(np.full(6, 0.65))


def test_baseline_two_ancilla_fixed_point():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    thermal_ground = float(gibbs_state(spectrum)[0])
    trace = ppa_trace([thermal_ground, 1 - thermal_ground], 2, spectrum, 400)
    assert np.all(np.diff(trace.ground) >= -1e-15)
    fixed_point = trace.ground[-1]
    assert fixed_point == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-6)
    assert fixed_point < 1.0  # strictly below the full-swap asymptote


def test_baseline_rejects_unsupported_sizes():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        ppa_trace([0.5, 0.5], 4, spectrum, 1)
    with pytest.raises(ValueError):
        ppa_trace([0.3, 0.3, 0.4], 1, EnergySpectrum((0.0, 1.0, 2.0), 1.0), 1)
