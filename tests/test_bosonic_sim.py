"""Truncated Fock-space realizations: exact swap, exchange coupling, dissipation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.linalg import expm

from xhbac import (
    CavityParams,
    EnergySpectrum,
    FockTruncation,
    JointDiagState,
    ModePopulations,
    anharmonic_cooling_sums,
    anharmonic_level_table,
    asymptotic_upper_bound,
    atom_stream_sim,
    gibbs_state,
    ideal_ground_population,
    intensity_dependent_jc_round,
    jc_deexcitation,
    jc_reuse_trace,
    jc_round,
    noisy_fixed_point,
    noisy_ground_population,
    optimize_interaction_time,
    pauli_x,
    rethermalize_mode,
    reuse_protocol_trace,
    u_beta_apply,
    upper_bound_G,
)
from xhbac import bosonic_sim
from conftest import traced_peak_mb

QUBIT = EnergySpectrum((0.0, 1.0), 1.0)
TRUNC = FockTruncation.thermal(1.0, 60)


# ---------------------------------------------------------------------------
# truncation bookkeeping
# ---------------------------------------------------------------------------

def test_truncation_tail_and_headroom():
    trunc = FockTruncation.thermal(1.0, 60)
    assert trunc.tail_bound == pytest.approx(math.exp(-61.0))
    auto = FockTruncation.for_rounds(1.0, 20)
    assert math.exp(-(auto.n_max - 20 + 1)) <= 1e-12
    with pytest.raises(ValueError):
        FockTruncation(n_max=0, tail_bound=0.0)


def test_thermal_mode_deficit_matches_the_tail():
    mode = ModePopulations.thermal(1.0, 40)
    assert mode.deficit == pytest.approx(math.exp(-41.0), rel=1e-9)
    assert np.all(mode.t > 0)


# ---------------------------------------------------------------------------
# exact swap unitary on populations
# ---------------------------------------------------------------------------

def test_swap_unitary_population_rules():
    p = np.zeros((2, 5))
    p[0, 0] = 1.0
    out = u_beta_apply(JointDiagState(p=p))
    assert out.p[0, 0] == 1.0 and out.lost == 0.0

    p = np.zeros((2, 5))
    p[1, 0] = 1.0
    out = u_beta_apply(JointDiagState(p=p))
    assert out.p[0, 1] == 1.0


def test_swap_unitary_is_an_involution_on_the_bulk():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0, 1, (2, 8))
    raw[1, -1] = 0.0  # keep the orphaned top entry empty
    raw /= raw.sum()
    state = JointDiagState(p=raw)
    twice = u_beta_apply(u_beta_apply(state))
    assert twice.p == pytest.approx(state.p, abs=1e-15)
    assert twice.lost == 0.0


def test_swap_unitary_tracks_lost_weight():
    p = np.zeros((2, 4))
    p[1, 3] = 0.25
    p[0, 0] = 0.75
    out = u_beta_apply(JointDiagState(p=p))
    assert out.lost == pytest.approx(0.25)
    assert out.total == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# reused-mode protocol
# ---------------------------------------------------------------------------

def test_reuse_protocol_matches_the_closed_form():
    trace = reuse_protocol_trace(0.7, TRUNC, QUBIT, 20)
    closed = [ideal_ground_population(k, 1.0, 0.7) for k in range(21)]
    assert trace == pytest.approx(closed, abs=1e-10)
    assert trace[0] == 0.7


def test_reuse_protocol_zero_rounds():
    assert reuse_protocol_trace(0.55, TRUNC, QUBIT, 0).tolist() == [0.55]


def test_reuse_protocol_cold_mode_finishes_in_one_round():
    cold = EnergySpectrum((0.0, 1.0), 50.0)
    trace = reuse_protocol_trace(0.5, FockTruncation.thermal(50.0, 4), cold, 1)
    assert trace[1] == pytest.approx(1.0, abs=1e-12)


def test_reuse_protocol_rejects_exhausted_truncation():
    with pytest.raises(ValueError):
        reuse_protocol_trace(0.7, FockTruncation.thermal(1.0, 12), QUBIT, 12)


def test_circulation_relations_hold_exactly():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0, 1, (2, 30))
    raw /= raw.sum()
    before = raw.copy()
    after = u_beta_apply(pauli_x(JointDiagState(p=raw))).p
    assert after[0, 0] == before[1, 0]
    assert np.array_equal(after[0, 1:], before[0, :-1])
    assert np.array_equal(after[1, :-1], before[1, 1:])


# ---------------------------------------------------------------------------
# anharmonic ladder
# ---------------------------------------------------------------------------

def test_anharmonic_table_anchors_at_zero_and_guards_gaps():
    table = anharmonic_level_table(1.0, 0.05, 10)
    assert table[0] == 0.0
    gaps = np.diff(table)
    assert gaps == pytest.approx([1.0 - (n + 1) * 0.0025 for n in range(10)])
    with pytest.raises(ValueError):
        anharmonic_level_table(1.0, 0.2, 30)  # gap hits zero at n+1 = 25


def test_anharmonic_sums_degenerate_at_zero_distortion():
    for k in (1, 5, 20):
        an_sum, h_sum = anharmonic_cooling_sums(0.0, TRUNC, QUBIT, k)
        assert an_sum == h_sum


def test_anharmonic_sum_ratio_approaches_one():
    ratios = []
    for k in (1, 3, 10, 30, 61):
        an_sum, h_sum = anharmonic_cooling_sums(0.05, TRUNC, QUBIT, k)
        ratios.append(an_sum / h_sum)
    assert np.all(np.diff(ratios) > -1e-15)
    assert ratios[-1] == pytest.approx(1.0, abs=1e-12)
    assert ratios[0] < 1.0


# ---------------------------------------------------------------------------
# exchange-coupling de-excitation probability
# ---------------------------------------------------------------------------

def test_deexcitation_vanishes_at_zero_angle():
    assert jc_deexcitation(0.0, QUBIT, TRUNC) == 0.0


def test_deexcitation_cold_limit_is_a_plain_rabi_flop():
    cold = EnergySpectrum((0.0, 1.0), 40.0)
    trunc = FockTruncation.thermal(40.0, 10)
    for s in (0.3, 0.7, math.pi / 2):
        assert jc_deexcitation(s, cold, trunc) == pytest.approx(math.sin(s) ** 2, abs=1e-12)
    best = optimize_interaction_time(cold, 0.0, math.pi, trunc)
    assert best.s_star == pytest.approx(math.pi / 2, abs=1e-6)
    assert best.probability == pytest.approx(1.0, abs=1e-9)


def test_best_angle_in_the_short_window():
    best = optimize_interaction_time(QUBIT, 0.0, 10.0, TRUNC)
    assert best.s_star == pytest.approx(7.87, abs=0.05)
    assert best.probability < upper_bound_G(1.0)


def _dense_interaction_time(spectrum, s_lo, s_hi, trunc, grid_step=1e-3):
    """Reference optimizer that evaluates every point of the scan grid."""
    beta_e = spectrum.beta * spectrum.gap
    scan_cap = min(trunc.n_max, max(2, int(math.ceil(17.0 * math.log(10.0) / beta_e)) + 1))
    scan_trunc = FockTruncation.thermal(beta_e, scan_cap)
    count = int(math.ceil((s_hi - s_lo) / grid_step)) + 1
    grid = np.linspace(s_lo, s_hi, count)
    best_s, best_v = s_lo, -1.0
    for start in range(0, count, 20_000):
        block = grid[start : start + 20_000]
        vals = jc_deexcitation(block, spectrum, scan_trunc)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_s = float(vals[i]), float(block[i])
    lo = max(s_lo, best_s - grid_step)
    hi = min(s_hi, best_s + grid_step)
    s_star = bosonic_sim._golden_max(lambda s: jc_deexcitation(s, spectrum, trunc), lo, hi)
    value = jc_deexcitation(s_star, spectrum, trunc)
    grid_value = jc_deexcitation(best_s, spectrum, trunc)
    if value < grid_value:
        s_star, value = best_s, grid_value
    return s_star, value


@pytest.mark.parametrize("beta_e, s_lo, s_hi, grid_step, n_max", [
    (0.2, 0.0, 60.0, 1e-3, 200),
    (1.0, 0.0, 300.0, 1e-3, 60),      # a window a few hundred long
    (3.0, 0.0, 400.0, 1e-3, 60),
    (40.0, 0.0, math.pi, 1e-3, 10),
    (1.0, 2.0, 2.05, 1e-3, 60),       # shorter than one scan block
    (0.2, 123.4, 123.45, 1e-3, 200),
    (1.0, 123.4, 170.0, 1e-3, 60),    # s_lo > 0; 46601 points, a partial last block
    (3.0, 17.0, 17.127, 1e-3, 60),    # exactly one full block
    (1.0, 0.0, 3000.0, 1e-2, 60),     # coarse grid
    (0.5, 40.0, 400.0, 0.3, 80),      # blocks of a single point
    (1.0, 0.0, 400.0, 0.0129, 60),    # blocks of nine points; the step does not divide the width
    (1.0, -37.3, 250.0, 1e-3, 60),    # s_lo < 0
    (1.0, 5.0, 7.5, 1e-3, 60),        # the best grid point is s_hi
    (1.0, 0.0, 5000.0, 1e-3, 60),     # the default window, 5,000,001 points
])
def test_pruned_scan_equals_the_dense_grid_scan(beta_e, s_lo, s_hi, grid_step, n_max):
    spectrum = EnergySpectrum((0.0, 1.0), beta_e)
    trunc = FockTruncation.thermal(beta_e, n_max)
    best = optimize_interaction_time(spectrum, s_lo, s_hi, trunc, grid_step=grid_step)
    assert (best.s_star, best.probability) == _dense_interaction_time(
        spectrum, s_lo, s_hi, trunc, grid_step)


@settings(max_examples=25, deadline=None)
@given(beta_e=st.floats(0.1, 50.0), s_lo=st.floats(0.0, 2000.0),
       length=st.floats(1e-3, 5.0), grid_step=st.sampled_from([1e-3, 3e-3, 1e-2]))
def test_pruned_scan_equals_the_dense_grid_scan_on_random_windows(beta_e, s_lo, length,
                                                                   grid_step):
    spectrum = EnergySpectrum((0.0, 1.0), beta_e)
    trunc = FockTruncation.thermal(beta_e, 60)
    best = optimize_interaction_time(spectrum, s_lo, s_lo + length, trunc, grid_step=grid_step)
    assert (best.s_star, best.probability) == _dense_interaction_time(
        spectrum, s_lo, s_lo + length, trunc, grid_step)


def test_best_grid_point_of_the_short_rising_window_is_s_hi():
    grid = np.linspace(5.0, 7.5, 2501)
    assert int(np.argmax(jc_deexcitation(grid, QUBIT, TRUNC))) == grid.size - 1


@pytest.mark.parametrize("start, stop, count", [
    (0.0, 5000.0, 5_000_001),
    (-37.3, 250.0, 287_301),
    (123.4, 170.0, 46_601),
    (-5000.0, -4000.0, 1_000_001),
    (0.0, 400.0, 31_009),
    (2.0, 2.05, 51),
])
def test_grid_points_are_bitwise_those_of_linspace(start, stop, count):
    at = bosonic_sim._linspace_at(start, stop, count)
    dense = np.linspace(start, stop, count)
    for lo in range(0, count, 1 << 20):
        index = np.arange(lo, min(lo + (1 << 20), count))
        assert at(index).tobytes() == dense[index].tobytes()


def test_grid_step_that_underflows_is_refused():
    with pytest.raises(ValueError, match="underflows"):
        bosonic_sim._linspace_at(0.0, 5e-324, 3)


def test_grid_with_more_points_than_int64_holds_is_refused():
    # 5e23 points: numpy would fall back to object arrays and np.sin would fail
    with pytest.raises(ValueError, match="int64"):
        optimize_interaction_time(QUBIT, 0.0, 5000.0, TRUNC, grid_step=1e-20)


def test_scan_blocks_that_overflow_int64_indices_are_refused():
    # the 1e18 + 1 grid points fit int64, one 0.128-wide block of 1.28e21 points does not
    with pytest.raises(ValueError, match="int64"):
        optimize_interaction_time(QUBIT, 0.0, 1e-4, TRUNC, grid_step=1e-22)


@pytest.mark.parametrize("budget", [7, 1000, 1 << 20])
def test_scan_does_not_depend_on_the_batch_budget(budget, monkeypatch):
    want = optimize_interaction_time(QUBIT, -3.0, 300.0, TRUNC)
    monkeypatch.setattr(bosonic_sim, "_BATCH_ELEMENTS", budget)
    assert optimize_interaction_time(QUBIT, -3.0, 300.0, TRUNC) == want


def test_wide_window_scan_streams_its_grid():
    # the 5,000,001-point grid alone takes 40 MB
    assert traced_peak_mb(lambda: optimize_interaction_time(QUBIT, 0.0, 5000.0, TRUNC)) < 8.0


def test_wide_window_optimum_is_pinned():
    # the dense 5,000,001-point scan gave exactly these values
    best = optimize_interaction_time(QUBIT, 0.0, 5000.0, TRUNC)
    assert best.s_star == 2866.7394085658507
    assert best.probability == 0.9625788816762494


def test_deexcitation_does_not_depend_on_the_call_shape():
    rng = np.random.default_rng(17)
    angles = rng.uniform(0.0, 5000.0, 500)
    whole = jc_deexcitation(angles, QUBIT, TRUNC)
    assert [jc_deexcitation(float(s), QUBIT, TRUNC) for s in angles] == whole.tolist()
    for _ in range(200):
        lo, hi = sorted(rng.integers(0, angles.size + 1, 2))
        assert np.array_equal(jc_deexcitation(angles[lo:hi], QUBIT, TRUNC), whole[lo:hi])
    grid = angles.reshape(20, 25)
    assert np.array_equal(jc_deexcitation(grid, QUBIT, TRUNC), whole.reshape(20, 25))


def test_pruned_scan_evaluates_a_small_share_of_the_grid(monkeypatch):
    angles = []

    def counting(s, spectrum, trunc):
        angles.append(np.size(s))
        return jc_deexcitation(s, spectrum, trunc)

    monkeypatch.setattr(bosonic_sim, "jc_deexcitation", counting)
    optimize_interaction_time(QUBIT, 0.0, 300.0, TRUNC)
    assert sum(angles) < 0.05 * 300_001


@pytest.mark.parametrize("s_lo, s_hi, grid_step", [
    (math.nan, 10.0, 1e-3),
    (0.0, math.inf, 1e-3),
    (-math.inf, 10.0, 1e-3),
    (0.0, 10.0, 0.0),
    (0.0, 10.0, -1e-3),
    (0.0, 10.0, math.nan),
    (0.0, 10.0, math.inf),
    (10.0, 10.0, 1e-3),
])
def test_optimizer_rejects_bad_windows(s_lo, s_hi, grid_step):
    with pytest.raises(ValueError):
        optimize_interaction_time(QUBIT, s_lo, s_hi, TRUNC, grid_step=grid_step)


def test_deexcitation_never_exceeds_the_ceiling(rng):
    s_grid = np.linspace(0.0, 40.0, 400)
    for beta_e in (0.2, 0.7, 1.5, 3.0):
        spectrum = EnergySpectrum((0.0, 1.0), beta_e)
        trunc = FockTruncation.thermal(beta_e, max(60, int(30 / beta_e)))
        values = jc_deexcitation(s_grid, spectrum, trunc)
        assert np.max(values) <= upper_bound_G(beta_e) + 1e-12


# ---------------------------------------------------------------------------
# ceilings
# ---------------------------------------------------------------------------

def test_upper_bound_examples():
    assert upper_bound_G(0.0) == pytest.approx(1.0, abs=1e-15)
    split = math.log(4.0) / 3.0
    low = (8 * math.exp(-split) - math.exp(2 * split) + math.exp(3 * split) + 8) / 16
    high = math.exp(-4 * split) - math.exp(-3 * split) + 1
    assert abs(low - high) <= 1e-12
    assert upper_bound_G(split) == pytest.approx(0.9074901312368591, abs=1e-12)
    assert upper_bound_G(50.0) == pytest.approx(1.0, abs=1e-12)


def test_asymptotic_bound_examples():
    assert asymptotic_upper_bound(50.0) == pytest.approx(1.0, abs=1e-12)
    assert asymptotic_upper_bound(1.0) == pytest.approx(0.9533873774220261, abs=1e-12)


def test_bounds_are_finite_and_silent_at_low_temperature():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bound in (upper_bound_G, asymptotic_upper_bound):
            for beta_bar in (237.0, 710.0, 800.0):
                value = bound(beta_bar)
                assert math.isfinite(value) and abs(value - 1.0) <= 1e-12
            values = bound(np.array([0.1, 800.0]))
            assert np.all(np.isfinite(values)) and abs(values[1] - 1.0) <= 1e-12
            assert values[0] == bound(0.1)


def test_asymptotic_bound_is_the_noisy_fixed_point_of_the_ceiling():
    for beta_bar in (0.05, 0.2, math.log(4) / 3, 0.8, 1.0, 2.5):
        eps = 1.0 - upper_bound_G(beta_bar)
        assert asymptotic_upper_bound(beta_bar) == pytest.approx(
            noisy_fixed_point(eps, beta_bar), abs=1e-12
        )


# ---------------------------------------------------------------------------
# mode dissipation
# ---------------------------------------------------------------------------

def test_thermal_state_is_a_fixed_point():
    mode = ModePopulations.thermal(1.0, 60)
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    out = rethermalize_mode(mode, params, 10.0)
    assert out.t == pytest.approx(mode.t, abs=1e-10)


def test_zero_loss_rate_is_the_identity():
    mode = ModePopulations(np.array([0.2, 0.5, 0.3]))
    params = CavityParams(g=1.0, loss_rate=0.0, nbar=0.58)
    out = rethermalize_mode(mode, params, 5.0)
    assert out.t == pytest.approx(mode.t, abs=0.0)


def test_long_horizon_relaxation_reaches_thermal():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    target = ModePopulations.thermal(1.0, 60)
    start = np.zeros(61)
    start[45] = 1.0
    out = rethermalize_mode(ModePopulations(start), params, 60.0)
    assert 0.5 * np.abs(out.t - target.t / target.t.sum()).sum() < 1e-8


def test_relaxation_contracts_distance_to_thermal():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    thermal = ModePopulations.thermal(1.0, 40)
    target = thermal.t / thermal.t.sum()
    state = np.zeros(41)
    state[7] = 1.0
    distances = []
    mode = ModePopulations(state)
    for _ in range(6):
        distances.append(0.5 * np.abs(mode.t - target).sum())
        mode = rethermalize_mode(mode, params, 0.5)
    assert np.all(np.diff(distances) < 0.0)


def test_probability_is_conserved_by_relaxation():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=0.5)
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 1, 61)
    t /= t.sum()
    out = rethermalize_mode(ModePopulations(t), params, 3.0)
    assert out.t.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf])
def test_relaxation_rejects_bad_durations(duration):
    mode = ModePopulations.thermal(1.0, 60)
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    with pytest.raises(ValueError, match="duration"):
        rethermalize_mode(mode, params, duration)


def test_cavity_params_validation():
    for bad in ({"loss_rate": -1.0}, {"g": math.nan}, {"loss_rate": math.nan},
                {"nbar": math.nan}, {"firing_rate": math.nan}):
        with pytest.raises(ValueError):
            CavityParams(**{"g": 1.0, "loss_rate": 1.0, "nbar": 0.5, **bad})
    for beta_e in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=beta_e)
    params = CavityParams.resonant(g=2.0, loss_rate=0.3, beta_e=1.0)
    assert params.nbar == pytest.approx(1.0 / math.expm1(1.0))


def test_resonant_cavity_is_empty_where_the_bose_factor_overflows():
    for beta_e in (710.0, 800.0, 1e6):
        assert CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=beta_e).nbar == 0.0
    for beta_e in (0.5, 1.0, 700.0, 709.0):
        assert CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=beta_e).nbar == \
            1.0 / math.expm1(beta_e)


def _step_count(n_levels, loss_rate, nbar, duration):
    return math.ceil(duration / (0.05 / (loss_rate * (nbar + 1.0) * (n_levels - 1))))


def _reference_steps(rows, loss_rate, nbar, duration):
    """Every iterate of the relaxation step loop, written with the matmul operator."""
    n_levels = rows.shape[-1]
    steps = _step_count(n_levels, loss_rate, nbar, duration)
    R = bosonic_sim._rk4_propagator(bosonic_sim._rate_generator(n_levels, loss_rate, nbar),
                                    duration / steps)
    out = rows
    for _ in range(steps):
        out = out @ R.T
        yield out


def _stepped_reference(rows, loss_rate, nbar, duration):
    """The relaxation step loop written with the matmul operator."""
    for out in _reference_steps(rows, loss_rate, nbar, duration):
        pass
    return out


def _top_ground_uniform(n_levels):
    """Criterion 9's three starts: all weight on the top level, on the ground level, spread."""
    starts = np.zeros((3, n_levels))
    starts[0, -1] = 1.0
    starts[1, 0] = 1.0
    starts[2] = 1.0 / n_levels
    return starts


def _duration_of(steps, n_levels):
    """A wait that the relaxation splits into exactly `steps` steps (A = 1, beta*E = 1)."""
    nbar = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0).nbar
    duration = (steps - 0.5) * 0.05 / ((nbar + 1.0) * (n_levels - 1))
    assert _step_count(n_levels, 1.0, nbar, duration) == steps
    return duration


@pytest.mark.parametrize("rows, duration", [
    *(pytest.param(np.random.default_rng(11).dirichlet(np.ones(61), size=k), 2.0, id=str(k))
      for k in (1, 2, 3)),
    # on 11 levels the stack stops changing after 11,111 of the 15,820 steps
    pytest.param(_top_ground_uniform(11), 50.0, id="past-the-fixed-point"),
    # the edges of the loop's step pairs and blocks
    *(pytest.param(np.random.default_rng(13).dirichlet(np.ones(11), size=k),
                   _duration_of(steps, 11), id=f"{k}-rows-{steps}-steps")
      for k, steps in ((2, 1), (2, 7), (2, 8), (2, bosonic_sim._BLOCK_STEPS + 1),
                       (2, bosonic_sim._BLOCK_STEPS + 2), (3, 2 * bosonic_sim._BLOCK_STEPS + 3))),
])
def test_relaxation_of_one_or_two_rows_matches_the_matmul_loop_exactly(rows, duration):
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    out = bosonic_sim._rethermalize_array(rows, params.loss_rate, params.nbar, duration)
    assert np.array_equal(out, _stepped_reference(rows, params.loss_rate, params.nbar, duration))


def _stream(wait, n_atoms, n_max=20):
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0, firing_rate=1.0 / wait)
    return atom_stream_sim(params, n_atoms, 1.0, FockTruncation.thermal(1.0, n_max), QUBIT)


def _reuse(wait, rounds, n_max=20):
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    return jc_reuse_trace(0.5, 1.0, wait, params, FockTruncation.thermal(1.0, n_max), QUBIT,
                          rounds)


def test_one_read_only_propagator_is_built_per_wait():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    steps, RT = bosonic_sim._relaxation_step(61, params.loss_rate, params.nbar, 10.0)
    again = bosonic_sim._relaxation_step(61, params.loss_rate, params.nbar, 10.0)
    assert again[0] == steps and again[1] is RT
    P = bosonic_sim._relaxation_propagator(61, params.loss_rate, params.nbar, 10.0)
    assert bosonic_sim._relaxation_propagator(61, params.loss_rate, params.nbar, 10.0) is P
    for matrix in (RT, P):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0

    bosonic_sim._relaxation_propagator.cache_clear()
    bosonic_sim._relaxation_step.cache_clear()
    waits = (0.5, 1.0, 2.5)
    for wait in waits:
        _stream(wait, 4)
        _stream(wait, 5)
        _reuse(wait, 4)
    info = bosonic_sim._relaxation_propagator.cache_info()
    assert (info.misses, info.hits) == (len(waits), 2 * len(waits))
    # each build steps the identity once; a stepped mode reuses that step matrix
    for wait in waits:
        for _ in range(2):
            rethermalize_mode(ModePopulations.thermal(1.0, 20), params, wait)
    info = bosonic_sim._relaxation_step.cache_info()
    assert (info.misses, info.hits) == (len(waits), 2 * len(waits))


@pytest.mark.parametrize("run", [_stream, _reuse], ids=["atom-stream", "reuse-trace"])
def test_relaxed_series_do_not_depend_on_the_propagator_cache(run):
    bosonic_sim._relaxation_propagator.cache_clear()
    cold = run(1.0, 4).tobytes()
    assert run(1.0, 4).tobytes() == cold
    assert bosonic_sim._relaxation_propagator.cache_info().hits == 1


@pytest.mark.parametrize("beta_e", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("duration", [0.1, 1.0, 10.0])
def test_propagator_product_matches_the_stepped_rows(beta_e, duration):
    # Both forms carry the step loop's truncation and rounding, accumulated in
    # a different order; at t = 10 each lies within 2e-13 of scipy's expm. The
    # perturbed rows agree within 7e-14; the thermal row, which stepping holds
    # near its fixed point, differs by up to 2.5e-13 (beta*E = 3, t = 10).
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=beta_e)
    thermal = ModePopulations.thermal(beta_e, 40)
    excited = jc_round(JointDiagState.product(np.array([0.0, 1.0]), thermal), 1.0, 1.0).p
    rows = np.vstack([np.random.default_rng(3).dirichlet(np.ones(41), size=2), excited,
                      _top_ground_uniform(41), thermal.t])
    P = bosonic_sim._relaxation_propagator(41, params.loss_rate, params.nbar, duration)
    stepped = bosonic_sim._rethermalize_array(rows, params.loss_rate, params.nbar, duration)
    assert np.max(np.abs(rows.dot(P) - stepped)) <= 1e-12


class _CountingArray(np.ndarray):
    """An ndarray whose `dot` counts its calls, in the class attribute `dots`.

    A relaxation of such a stack makes every step product through `dot`: the
    first step on the stack itself, the rest on buffers of the same class.
    """

    dots = 0

    def dot(self, *args, **kwargs):
        _CountingArray.dots += 1
        return super().dot(*args, **kwargs)


def test_relaxation_stops_within_one_block_of_a_fixed_point_and_never_before(monkeypatch):
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    steps = _step_count(61, params.loss_rate, params.nbar, 10.0)
    thermal = ModePopulations.thermal(1.0, 60).t[None, :]
    previous = thermal
    for fixed, out in enumerate(_reference_steps(thermal, params.loss_rate, params.nbar, 10.0)):
        if out.tobytes() == previous.tobytes():  # step fixed + 1 returned its input
            break
        previous = out
    # the figures' waits: a thermal mode that has just taken an excitation, t = 10
    excited = JointDiagState.product(np.array([0.0, 1.0]), ModePopulations.thermal(1.0, 60))
    perturbed = jc_round(excited, 1.0, 1.0).mode_marginal[None, :]
    thermal_full = _stepped_reference(thermal, params.loss_rate, params.nbar, 10.0)
    perturbed_full = _stepped_reference(perturbed, params.loss_rate, params.nbar, 10.0)
    monkeypatch.setattr(_CountingArray, "dots", 0)

    out = bosonic_sim._rethermalize_array(thermal.view(_CountingArray), params.loss_rate,
                                          params.nbar, 10.0)
    assert fixed + 1 <= _CountingArray.dots <= fixed + 1 + bosonic_sim._BLOCK_STEPS < steps
    assert np.array_equal(out, previous) and np.array_equal(out, thermal_full)

    _CountingArray.dots = 0
    out = bosonic_sim._rethermalize_array(perturbed.view(_CountingArray), params.loss_rate,
                                          params.nbar, 10.0)
    assert _CountingArray.dots == steps
    assert np.array_equal(out, perturbed_full)


def test_stacked_relaxation_matches_row_by_row():
    params = CavityParams.resonant(g=1.0, loss_rate=0.7, beta_e=0.5)
    rows = np.random.default_rng(12).dirichlet(np.ones(41), size=5)
    stacked = bosonic_sim._rethermalize_array(rows, params.loss_rate, params.nbar, 3.0)
    for row, got in zip(rows, stacked):
        alone = rethermalize_mode(ModePopulations(row), params, 3.0).t
        assert np.max(np.abs(got - alone)) <= 1e-14


# ---------------------------------------------------------------------------
# exchange interaction rounds
# ---------------------------------------------------------------------------

def test_full_rabi_cycle_is_the_identity_on_a_single_sector():
    p = np.zeros((2, 6))
    p[0, 1] = 0.4
    p[1, 0] = 0.6
    out = jc_round(JointDiagState(p=p), g=1.0, t_int=math.pi)  # angle pi at n = 1
    assert out.p == pytest.approx(p, abs=1e-15)


def test_half_cycle_moves_the_excitation_into_the_mode():
    p = np.zeros((2, 6))
    p[1, 0] = 1.0  # excited qubit, vacuum mode
    out = jc_round(JointDiagState(p=p), g=1.0, t_int=math.pi / 2.0)
    assert out.p[0, 1] == pytest.approx(1.0, abs=1e-15)


def test_thermal_mode_deexcitation_matches_the_series():
    mode = ModePopulations.thermal(1.0, 60)
    for s in (0.9, 4.2, 7.87):
        p = np.outer([0.0, 1.0], mode.t)
        out = jc_round(JointDiagState(p=p), g=1.0, t_int=s)
        assert out.qubit_marginal[0] == pytest.approx(
            jc_deexcitation(s, QUBIT, TRUNC), abs=1e-12
        )


def test_rounds_preserve_probability():
    rng = np.random.default_rng(9)
    raw = rng.uniform(0, 1, (2, 20))
    raw /= raw.sum()
    state = JointDiagState(p=raw)
    for out in (jc_round(state, 1.3, 2.1), intensity_dependent_jc_round(state, 1.1)):
        assert out.total == pytest.approx(state.total, abs=1e-10)


def test_intensity_dependent_round_examples():
    rng = np.random.default_rng(13)
    raw = rng.uniform(0, 1, (2, 12))
    raw[1, -1] = 0.0
    raw /= raw.sum()
    state = JointDiagState(p=raw)
    swap = u_beta_apply(state)
    half = intensity_dependent_jc_round(state, math.pi / 2.0)
    assert half.p == pytest.approx(swap.p, abs=1e-15)
    assert intensity_dependent_jc_round(state, 0.0).p == pytest.approx(state.p)
    assert intensity_dependent_jc_round(state, math.pi).p == pytest.approx(state.p, abs=1e-15)


@st.composite
def joint_states(draw, n_levels=10):
    weights = draw(
        st.lists(st.integers(0, 20), min_size=2 * n_levels, max_size=2 * n_levels)
        .filter(lambda v: sum(v) > 0)
    )
    arr = np.array(weights, dtype=float).reshape(2, n_levels)
    return JointDiagState(p=arr / arr.sum())


@given(joint_states())
@settings(max_examples=60, deadline=None)
def test_swap_unitary_books_probability_exactly(state):
    out = u_beta_apply(state)
    assert out.total + out.lost == pytest.approx(state.total, abs=1e-12)
    assert np.all(out.p >= 0.0)


@given(joint_states(), st.floats(0.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_exchange_rounds_conserve_probability(state, s):
    for out in (jc_round(state, 1.0, s), intensity_dependent_jc_round(state, s)):
        assert out.total == pytest.approx(state.total, abs=1e-10)
        assert np.all(out.p >= -1e-15)


# ---------------------------------------------------------------------------
# dense-matrix reference: diagonality closure and population rules
# ---------------------------------------------------------------------------

def _dense_exchange_unitary(n_max: int, s: float) -> np.ndarray:
    """expm of the resonant exchange Hamiltonian, basis |i, n> at i*(n_max+1)+n."""
    size = 2 * (n_max + 1)
    H = np.zeros((size, size))
    for n in range(1, n_max + 1):
        a = n                   # |0, n>
        b = (n_max + 1) + n - 1  # |1, n-1>
        H[a, b] = H[b, a] = math.sqrt(n)
    return expm(-1j * s * H)


def test_dense_reference_confirms_populations_and_diagonality():
    n_max = 10
    rng = np.random.default_rng(21)
    raw = rng.uniform(0, 1, (2, n_max + 1))
    raw /= raw.sum()
    s = 1.234

    U = _dense_exchange_unitary(n_max, s)
    rho = np.diag(raw.reshape(-1).astype(complex))
    rho_out = U @ rho @ U.conj().T

    populations = np.real(np.diag(rho_out)).reshape(2, n_max + 1)
    fast = jc_round(JointDiagState(p=raw), g=1.0, t_int=s)
    assert populations == pytest.approx(fast.p, abs=1e-12)

    full = rho_out.reshape(2, n_max + 1, 2, n_max + 1)
    mode_marginal = full[0, :, 0, :] + full[1, :, 1, :]
    off_diag = mode_marginal - np.diag(np.diag(mode_marginal))
    assert np.max(np.abs(off_diag)) < 1e-12
    atom_marginal = np.trace(full, axis1=1, axis2=3)
    assert abs(atom_marginal[0, 1]) < 1e-12


# ---------------------------------------------------------------------------
# atom stream and reused single cavity
# ---------------------------------------------------------------------------

def test_atom_stream_with_full_reset_hits_the_two_round_law():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0, firing_rate=None)
    finals = atom_stream_sim(params, 6, 98.92, TRUNC, QUBIT)
    thermal_ground = float(gibbs_state(QUBIT)[0])
    eps = 1.0 - jc_deexcitation(98.92, QUBIT, TRUNC)
    target = noisy_ground_population(2, eps, 1.0, thermal_ground)
    assert finals == pytest.approx(np.full(6, target), abs=1e-10)


def test_atom_stream_without_losses_degrades():
    params = CavityParams.resonant(g=1.0, loss_rate=0.0, beta_e=1.0, firing_rate=1.0)
    finals = atom_stream_sim(params, 25, 98.92, TRUNC, QUBIT)
    assert finals[-1] < finals[0] - 0.05


def test_atom_stream_matches_a_per_cavity_loop():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0, firing_rate=1.0)
    thermal = ModePopulations.thermal(1.0, TRUNC.n_max)
    x = math.exp(-1.0)
    cavities = [thermal, thermal]
    expected = []
    for _ in range(6):
        qubit = np.array([1.0, x]) / (1.0 + x)
        for i, cavity in enumerate(cavities):
            joint = jc_round(JointDiagState.product(qubit[::-1], cavity), params.g, 98.92)
            qubit = joint.qubit_marginal
            cavities[i] = rethermalize_mode(ModePopulations(joint.mode_marginal), params, 1.0)
        expected.append(qubit[0])
    finals = atom_stream_sim(params, 6, 98.92, TRUNC, QUBIT)
    assert finals == pytest.approx(expected, abs=1e-12)


def test_atom_stream_with_finite_losses_settles():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0, firing_rate=1.0)
    finals = atom_stream_sim(params, 60, 98.92, TRUNC, QUBIT)
    assert np.max(np.abs(finals[50:] - finals[-1])) < 1e-6
    assert finals[-1] < finals[0]


def test_reused_cavity_with_full_reset_matches_the_noisy_law():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    thermal_ground = float(gibbs_state(QUBIT)[0])
    trace = jc_reuse_trace(thermal_ground, 98.92, math.inf, params, TRUNC, QUBIT, 8)
    eps = 1.0 - jc_deexcitation(98.92, QUBIT, TRUNC)
    closed = [noisy_ground_population(k, eps, 1.0, thermal_ground) for k in range(9)]
    assert trace == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("t_wait", [-1.0, math.nan, -math.inf])
@pytest.mark.parametrize("rounds", [0, 1])
def test_reused_cavity_refuses_a_bad_wait_before_the_first_round(t_wait, rounds):
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    with pytest.raises(ValueError, match="duration"):
        jc_reuse_trace(0.5, 1.0, t_wait, params, TRUNC, QUBIT, rounds)


def test_reused_cavity_without_relaxation_oscillates():
    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=1.0)
    thermal_ground = float(gibbs_state(QUBIT)[0])
    trace = jc_reuse_trace(thermal_ground, 98.92, 0.0, params, TRUNC, QUBIT, 20)
    tail = trace[5:]
    assert tail.max() - tail.min() > 0.3
