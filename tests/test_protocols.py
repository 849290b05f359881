"""Cooling rounds, closed forms, noise robustness, and baselines."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from xhbac import (
    CavityParams,
    CompositeSpec,
    EnergySpectrum,
    FockTruncation,
    as_population,
    asymptotic_upper_bound,
    beta_opt_alpha,
    beta_order,
    beta_permutation,
    beta_swap_matrix,
    epsilon_noisy_trace,
    epsilon_threshold,
    gibbs_state,
    ideal_ground_population,
    jc_reuse_trace,
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
    reuse_protocol_trace,
    run_ladder_protocol,
    run_optimal_protocol,
    thermal_contact_determinant,
    to_determinant_scan,
    upper_bound_G,
    verify_gibbs_stochastic,
)
from xhbac import protocols
from xhbac.protocols import _stacked_curve_heights
from xhbac.thermal_core import _curve_elbows, _permutation_table
from conftest import random_spectrum, traced_peak_mb

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
    assert oracle.partial_sums == pytest.approx(np.cumsum(np.sort(out)[::-1]), abs=1e-12)


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


def _numpy_optimal_round(p, spec):
    """The optimal round on numpy arrays: one curve, heights by np.interp, a scattered image."""
    joint = spec.joint_population(p)
    active = np.empty_like(joint)
    active[np.argsort(np.asarray(spec.levels), kind="stable")] = np.sort(joint)
    order = np.argsort(-(active * spec._order_scale), kind="stable")
    X = np.zeros(spec.dim + 1)
    Y = np.zeros_like(X)
    np.cumsum(spec._boltzmann[order], out=X[1:])
    np.cumsum(active[order], out=Y[1:])
    alpha = beta_opt_alpha(spec.d, spec.r)
    targets = np.zeros(spec.dim + 1)
    np.cumsum(spec._boltzmann[alpha], out=targets[1:])
    heights = np.interp(targets, X, Y)
    out = np.empty(spec.dim)
    out[alpha] = heights[1:] - heights[:-1]
    return spec.system_marginal(out)


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (5, 1), (8, 1), (2, 2), (2, 3), (3, 2),
                                 (2, 4), (4, 2)])
def test_protocol_trace_equals_the_numpy_round_exactly(d, r, rng):
    for kind in ("random", "degenerate", "thermal", "top", "zeros"):
        system = random_spectrum(rng, d)
        if kind == "degenerate":
            levels = list(system.levels)
            levels[d - 1] = levels[d - 2]
            system = EnergySpectrum(tuple(levels), system.beta)
        ancilla = None
        if r > 1:
            ancilla = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, r))), system.beta)
        spec = CompositeSpec(system=system, ancilla=ancilla)
        p0 = {"thermal": gibbs_state(system), "top": np.eye(d)[d - 1],
              "zeros": np.eye(d)[0] * 0.25 + np.eye(d)[d - 1] * 0.75}.get(
            kind, rng.dirichlet(np.ones(d)))
        history = [as_population(p0)]
        for _ in range(30):
            history.append(_numpy_optimal_round(history[-1], spec))
        trace = run_optimal_protocol(p0, spec, 30)
        assert trace.populations.tobytes() == np.array(history).tobytes()


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


@pytest.mark.parametrize("budget", [300, 5000])
def test_oracle_does_not_depend_on_the_batch_budget(budget, rng, monkeypatch):
    shapes = [(8, 1), (4, 2), (5, 1), (2, 3)]
    cases = []
    for d, r in shapes:
        system = random_spectrum(rng, d)
        ancilla = None if r == 1 else EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, r))),
                                                       system.beta)
        cases.append((rng.dirichlet(np.ones(d)), CompositeSpec(system=system, ancilla=ancilla)))
    want = [oracle_optimal_round(p, spec).partial_sums for p, spec in cases]
    monkeypatch.setattr(protocols, "_BATCH_ELEMENTS", budget)
    for (p, spec), partial in zip(cases, want):
        assert (oracle_optimal_round(p, spec).partial_sums == partial).all()


def test_oracle_memory_is_bounded_at_eight_levels(rng):
    spec = CompositeSpec(system=random_spectrum(rng, 8))
    p = rng.dirichlet(np.ones(8))
    _permutation_table(8)  # cached across calls; the elbows of all 8! rows alone take 5.8 MB
    assert traced_peak_mb(lambda: oracle_optimal_round(p, spec)) < 6.0


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
    decay = math.exp(-spectrum.beta * (spectrum.levels[-1] - spectrum.levels[0]))
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

def test_noisy_trace_warns_exactly_above_the_threshold():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    threshold = epsilon_threshold(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        epsilon_noisy_trace(0.7, threshold, spectrum, 3)
    with pytest.warns(UserWarning):
        epsilon_noisy_trace(0.7, threshold * 1.1, spectrum, 3)


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


def _dense_determinant_scan(p, spectrum, lambda_max=1.0):
    """(q*, lam*, f*) from one array per grid: the coarse-to-fine scan without batches."""
    beta_e = spectrum.beta * spectrum.gap

    def scan(q_lo, q_hi, l_lo, l_hi, step):
        nq = max(2, int(math.ceil((q_hi - q_lo) / step)) + 1) if q_hi > q_lo else 1
        nl = max(2, int(math.ceil((l_hi - l_lo) / step)) + 1)
        qs, ls = np.linspace(q_lo, q_hi, nq), np.linspace(l_lo, l_hi, nl)
        f = thermal_contact_determinant(qs[:, None], ls[None, :], p, beta_e)
        iq, il = np.unravel_index(int(np.argmin(f)), f.shape)
        return float(qs[iq]), float(ls[il]), float(f[iq, il])

    q0, l0, _ = scan(1.0 - p, p, 0.0, lambda_max, 1e-3)
    return scan(max(1.0 - p, q0 - 1e-3), min(p, q0 + 1e-3),
                max(0.0, l0 - 1e-3), min(lambda_max, l0 + 1e-3), 1e-4)


@pytest.mark.parametrize("budget", [None, 1000, 1 << 22])
@pytest.mark.parametrize("p, beta_e, lambda_max", [
    (0.99, 1.0, 1.0),
    (0.7, 1.0, 1.0),
    (0.6, 0.4, 0.95),
    (0.5, 1.0, 1.0),
    (1.0, 2.0, 0.5),
    (0.75, 1.0, 0.3),  # equal minima along lam = 0, in more than one batch
])
def test_determinant_scan_equals_the_dense_scan(p, beta_e, lambda_max, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(protocols, "_BATCH_ELEMENTS", budget)
    spectrum = EnergySpectrum((0.0, 1.0), beta_e)
    scan = to_determinant_scan(p, spectrum, lambda_max=lambda_max)
    want = _dense_determinant_scan(p, spectrum, lambda_max)
    assert (scan.q_star, scan.lambda_star, scan.f_star) == want


def test_determinant_scan_keeps_the_first_of_equal_minima():
    # Without contact the determinant is p(1 - p) for every q, so the coarse
    # grid's minimum at p = 0.75, lam_max = 0.3 is tied along lam = 0 over rows
    # that fall in different batches; the first in C order must win.
    p, lambda_max = 0.75, 0.3
    qs, ls = np.linspace(0.25, 0.75, 501), np.linspace(0.0, lambda_max, 301)
    f = thermal_contact_determinant(qs[:, None], ls[None, :], p, 1.0)
    tied_rows = np.argwhere(f == f.min())[:, 0]
    assert len(set(tied_rows // (protocols._BATCH_ELEMENTS // ls.size))) > 1
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    scan = to_determinant_scan(p, spectrum, lambda_max=lambda_max)
    assert (scan.q_star, scan.lambda_star, scan.f_star) == _dense_determinant_scan(
        p, spectrum, lambda_max)
    assert abs(scan.q_star - qs[tied_rows[0]]) <= 1e-3  # refined around the first tied row


def test_determinant_scan_memory_is_bounded():
    # the single-array coarse grid is 981 x 1001 doubles, 7.5 MB per temporary
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    assert traced_peak_mb(lambda: to_determinant_scan(0.99, spectrum, lambda_max=1.0)) < 4.0


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


_QUBIT = EnergySpectrum((0.0, 1.0), 1.0)
_TRUNC = FockTruncation.thermal(1.0, 40)
_CAVITY = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
GROUND_POPULATION_CALLS = {
    "markovian_best": lambda p: markovian_best(p, _QUBIT),
    "markovian_scan": lambda p: markovian_scan(p, _QUBIT),
    "ideal_ground_population": lambda p: ideal_ground_population(3, 1.0, p),
    "ladder_ground_population": lambda p: ladder_ground_population(
        2, EnergySpectrum((0.0, 1.0, 2.0), 1.0), p),
    "noisy_ground_population": lambda p: noisy_ground_population(3, 0.1, 1.0, p),
    "to_determinant_scan": lambda p: to_determinant_scan(p, _QUBIT),
    "epsilon_noisy_trace": lambda p: epsilon_noisy_trace(p, 0.01, _QUBIT, 2),
    "reuse_protocol_trace": lambda p: reuse_protocol_trace(p, _TRUNC, _QUBIT, 2),
    "jc_reuse_trace": lambda p: jc_reuse_trace(p, 1.0, math.inf, _CAVITY, _TRUNC, _QUBIT, 2),
}


@pytest.mark.parametrize("p", [math.nan, -2.0, 1.5, math.inf], ids=["nan", "-2", "1.5", "inf"])
@pytest.mark.parametrize("name", sorted(GROUND_POPULATION_CALLS))
def test_ground_populations_outside_the_unit_interval_are_refused(name, p):
    with pytest.raises(ValueError, match="ground population"):
        GROUND_POPULATION_CALLS[name](p)


ROUND_COUNT_CALLS = {
    "ideal_ground_population": lambda k: ideal_ground_population(k, 1.0, 0.5),
    "noisy_ground_population": lambda k: noisy_ground_population(k, 0.1, 1.0, 0.5),
    "ladder_ground_population": lambda k: ladder_ground_population(
        k, EnergySpectrum((0.0, 1.0, 2.0), 1.0), 0.5),
    "run_optimal_protocol": lambda k: run_optimal_protocol([0.5, 0.5], _QUBIT, k),
    "run_ladder_protocol": lambda k: run_ladder_protocol([0.5, 0.5], _QUBIT, k),
    "ppa_trace": lambda k: ppa_trace([0.5, 0.5], 1, _QUBIT, k),
    "epsilon_noisy_trace": lambda k: epsilon_noisy_trace(0.5, 0.01, _QUBIT, k),
    "reuse_protocol_trace": lambda k: reuse_protocol_trace(0.5, _TRUNC, _QUBIT, k),
    "jc_reuse_trace": lambda k: jc_reuse_trace(0.5, 1.0, math.inf, _CAVITY, _TRUNC, _QUBIT, k),
}


@pytest.mark.parametrize("k", [-1, -2, math.nan, 1.5, True])
@pytest.mark.parametrize("name", sorted(ROUND_COUNT_CALLS))
def test_negative_or_nan_round_counts_are_refused(name, k):
    with pytest.raises(ValueError, match="round count"):
        ROUND_COUNT_CALLS[name](k)


def test_numpy_integer_round_counts_are_accepted():
    assert ideal_ground_population(np.int64(3), 1.0, 0.5) == ideal_ground_population(3, 1.0, 0.5)


EPSILON_CALLS = {
    "noisy_fixed_point": lambda eps: noisy_fixed_point(eps, 1.0),
    "noisy_ground_population": lambda eps: noisy_ground_population(3, eps, 1.0, 0.5),
    "epsilon_noisy_trace": lambda eps: epsilon_noisy_trace(0.5, eps, _QUBIT, 3),
}


@pytest.mark.parametrize("eps", [math.nan, -0.5, 1.5, math.inf], ids=["nan", "-0.5", "1.5", "inf"])
@pytest.mark.parametrize("name", sorted(EPSILON_CALLS))
def test_epsilons_outside_the_unit_interval_are_refused(name, eps):
    with pytest.raises(ValueError, match="epsilon"):
        EPSILON_CALLS[name](eps)


BETA_E_CALLS = {
    "ideal_ground_population": lambda b: ideal_ground_population(2, b, 0.5),
    "epsilon_threshold": epsilon_threshold,
    "noisy_fixed_point": lambda b: noisy_fixed_point(0.1, b),
    "noisy_ground_population": lambda b: noisy_ground_population(2, 0.1, b, 0.5),
    "upper_bound_G": upper_bound_G,
    "asymptotic_upper_bound": asymptotic_upper_bound,
}


@pytest.mark.parametrize("beta_e", [math.nan, -1.0, -800.0], ids=["nan", "-1", "-800"])
@pytest.mark.parametrize("name", sorted(BETA_E_CALLS))
def test_negative_or_nan_beta_e_is_refused(name, beta_e):
    with pytest.raises(ValueError, match="beta"):
        BETA_E_CALLS[name](beta_e)


def test_markovian_scan_never_beats_the_bath(rng):
    for _ in range(20):
        beta_e = float(rng.uniform(0.1, 3.0))
        spectrum = EnergySpectrum((0.0, 1.0), beta_e)
        thermal_ground = 1.0 / (1.0 + math.exp(-beta_e))
        p = float(rng.uniform(0.5, thermal_ground))
        assert markovian_scan(p, spectrum) <= thermal_ground + 1e-12
        assert markovian_scan(p, spectrum) == pytest.approx(
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
