"""Core thermo-majorization machinery: curves, orders, extremal maps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.optimize import linprog

from xhbac import (
    CompositeSpec,
    EnergySpectrum,
    beta_order,
    beta_permutation,
    extremal_points,
    gibbs_state,
    maximally_active,
    thermo_curve,
    thermo_majorizes,
    verify_gibbs_stochastic,
)
from xhbac.thermal_core import (BASE_TOLERANCE, _curve_elbows, _merge_images, _permutation_table,
                                _row_elbows, _row_heights)
from conftest import random_spectrum

Q = math.exp(-1.0)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def spectra(draw, d=None):
    if d is None:
        d = draw(st.integers(2, 5))
    steps = draw(st.lists(st.integers(0, 8), min_size=d - 1, max_size=d - 1))
    levels = np.concatenate(([0.0], np.cumsum(steps, dtype=float) / 4.0))
    beta = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    return EnergySpectrum(tuple(levels), beta)


@st.composite
def pop_and_spectrum(draw):
    d = draw(st.integers(2, 5))
    spectrum = draw(spectra(d))
    weights = draw(st.lists(st.integers(1, 50), min_size=d, max_size=d))
    return np.array(weights, dtype=float) / sum(weights), spectrum


# ---------------------------------------------------------------------------
# spectra and populations
# ---------------------------------------------------------------------------

def test_spectrum_validation():
    with pytest.raises(ValueError):
        EnergySpectrum((1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        EnergySpectrum((0.0, 1.0), -0.5)
    with pytest.raises(ValueError):
        EnergySpectrum((0.0, 1.0), math.inf)


def test_composite_levels_put_pair_i_a_at_joint_index_i_r_plus_a():
    system = EnergySpectrum((0.0, 1.0), 1.0)
    ancilla = EnergySpectrum((0.0, 0.3, 0.9), 1.0)
    spec = CompositeSpec(system=system, ancilla=ancilla)
    assert (spec.d, spec.r, spec.dim) == (2, 3, 6)
    assert spec.levels == (0.0, 0.3, 0.9, 1.0, 1.0 + 0.3, 1.0 + 0.9)
    assert CompositeSpec(system=system).levels == system.levels


def test_composite_requires_matching_beta():
    with pytest.raises(ValueError):
        CompositeSpec(
            system=EnergySpectrum((0.0, 1.0), 1.0),
            ancilla=EnergySpectrum((0.0, 1.0), 2.0),
        )


def test_gibbs_state_examples():
    assert gibbs_state(EnergySpectrum((0.0, 1.0), 0.0)) == pytest.approx([0.5, 0.5])
    # effectively zero temperature: excited weight underflows to zero
    assert gibbs_state(EnergySpectrum((0.0, 1.0), 1e3)) == pytest.approx([1.0, 0.0], abs=0.0)
    g = gibbs_state(EnergySpectrum((0.0, 1.0), 1.0))
    assert g[0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert g[1] == pytest.approx(0.2689414213699951, abs=1e-15)


# ---------------------------------------------------------------------------
# beta-order
# ---------------------------------------------------------------------------

def test_beta_order_examples():
    flat = EnergySpectrum((0.0, 0.0, 0.0), 1.0)
    assert beta_order([0.5, 0.3, 0.2], flat).tolist() == [0, 1, 2]

    spectrum = EnergySpectrum((0.0, 0.4, 1.1), 0.7)
    assert beta_order(gibbs_state(spectrum), spectrum).tolist() == [0, 1, 2]

    qubit = EnergySpectrum((0.0, 1.0), 1.0)
    assert beta_order([0.2, 0.8], qubit).tolist() == [1, 0]


def test_beta_order_groups_keys_within_the_tie_tolerance(rng):
    # reference: group keys within a relative 1e-12 of the group's first key,
    # each group in ascending level index (the rule beta_order documents)
    def grouped(p, spectrum):
        e = np.asarray(spectrum.levels)
        keys = p * np.exp(spectrum.beta * (e - e.max()))
        order = np.argsort(-keys, kind="stable")
        out, start = [], 0
        for i in range(1, p.size + 1):
            if i == p.size or keys[order[i]] < keys[order[start]] * (1.0 - 1e-12):
                out.extend(sorted(order[start:i]))
                start = i
        return out

    for d in (2, 3, 5):
        for degenerate in (False, True):
            spectrum = random_spectrum(rng, d)
            if degenerate:
                spectrum = EnergySpectrum((0.0,) * d, spectrum.beta)
            for p in (rng.dirichlet(np.ones(d)), gibbs_state(spectrum), np.eye(d)[d - 1]):
                assert beta_order(p, spectrum).tolist() == grouped(p, spectrum)
    # keys 1e-14 apart, ascending by level: tied, so the order stays by index
    p = np.array([1.0 / 3.0 - 1e-15, 1.0 / 3.0, 1.0 / 3.0 + 1e-15])
    assert beta_order(p, EnergySpectrum((0.0, 0.0, 0.0), 1.0)).tolist() == [0, 1, 2]


def test_beta_order_dimension_mismatch():
    with pytest.raises(ValueError):
        beta_order([0.5, 0.5], EnergySpectrum((0.0, 1.0, 2.0), 1.0))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_thermal_curve_is_the_straight_segment():
    spectrum = EnergySpectrum((0.0, 0.5, 1.2, 2.0), 0.9)
    curve = thermo_curve(gibbs_state(spectrum), spectrum)
    z = curve.partition
    assert curve.ys == pytest.approx(curve.xs / z, abs=1e-12)


def test_curve_of_ground_state():
    curve = thermo_curve([1.0, 0.0], EnergySpectrum((0.0, 1.0), 1.0))
    assert curve.xs == pytest.approx([0.0, 1.0, 1.0 + Q])
    assert curve.ys == pytest.approx([0.0, 1.0, 1.0])


def test_infinite_temperature_curve_is_lorenz():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    curve = thermo_curve(p, EnergySpectrum((0.0, 1.0, 2.0, 3.0), 0.0))
    assert curve.xs == pytest.approx([0, 1, 2, 3, 4])
    assert curve.ys == pytest.approx(np.concatenate(([0.0], np.cumsum(p))))


def test_curve_height_examples():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    curve = thermo_curve([0.6, 0.4], spectrum)
    assert curve.height(0.0) == 0.0
    assert curve.height(curve.partition) == 1.0
    # midpoint of a straight segment is the mean of its endpoint heights
    x_mid = (curve.xs[0] + curve.xs[1]) / 2.0
    assert curve.height(x_mid) == pytest.approx((curve.ys[0] + curve.ys[1]) / 2.0)
    with pytest.raises(ValueError):
        curve.height(curve.partition + 1.0)
    with pytest.raises(ValueError):
        curve.height(-1.0)


@pytest.mark.parametrize("bad", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0],
                                 [-math.inf, 1.0], [-0.5, 1.5], [0.2, 0.3, 0.5], [1.0],
                                 [[0.5, 0.5]], [[0.5], 0.5]])
def test_non_finite_populations_are_rejected(bad):
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        thermo_curve(bad, spectrum)
    with pytest.raises(ValueError):
        extremal_points(bad, spectrum)
    with pytest.raises(ValueError):
        thermo_majorizes(bad, [0.5, 0.5], spectrum)
    with pytest.raises(ValueError):
        thermo_majorizes([0.5, 0.5], bad, spectrum)


@pytest.mark.parametrize("k", [3, 6, 7, 40])
def test_stacked_elbows_equal_row_by_row_calls(k, rng):
    # the stack adds one level at a time over all rows, the row kernel one float at a time
    levels = np.sort(rng.uniform(0.0, 2.5, 6))
    levels[0] = 0.0
    levels[3] = levels[2]  # a degenerate pair
    spectrum = EnergySpectrum(tuple(levels), 0.8)
    rows = rng.dirichlet(np.ones(6), size=k)
    rows[0] = gibbs_state(spectrum)
    rows[1] = [0.0, 0.5, 0.0, 0.0, 0.5, 0.0]
    rows[2] = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    X, Y = _curve_elbows(rows, spectrum)
    assert X.shape == Y.shape == (k, 7)
    for row, x, y in zip(rows, X, Y):
        x1, y1 = _row_elbows(row.tolist(), spectrum)
        assert x.tolist() == x1 and y.tolist() == y1


@pytest.mark.parametrize("n", range(9))
def test_permutation_table_is_lexicographic(n):
    want = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    got = _permutation_table(n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


@given(pop_and_spectrum())
@settings(max_examples=100, deadline=None)
def test_curves_are_concave_and_anchored(ps):
    p, spectrum = ps
    curve = thermo_curve(p, spectrum)
    assert curve.xs[0] == 0.0 and curve.ys[0] == 0.0
    assert curve.ys[-1] == pytest.approx(1.0)
    assert curve.partition == pytest.approx(
        np.exp(-spectrum.beta * np.asarray(spectrum.levels)).sum()
    )
    assert np.all(np.diff(curve.xs) > 0)
    slopes = np.diff(curve.ys) / np.diff(curve.xs)
    assert np.all(np.diff(slopes) <= 1e-9)


# ---------------------------------------------------------------------------
# majorization relation
# ---------------------------------------------------------------------------

@given(pop_and_spectrum())
@settings(max_examples=100, deadline=None)
def test_majorization_reflexive_and_thermal_bottom(ps):
    p, spectrum = ps
    assert thermo_majorizes(p, p, spectrum)
    assert thermo_majorizes(p, gibbs_state(spectrum), spectrum)


@given(pop_and_spectrum(), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_majorization_transitive_along_thermalization_chains(ps, seed_a, seed_b):
    p, spectrum = ps
    d = p.size
    rng_a = np.random.default_rng(seed_a)
    rng_b = np.random.default_rng(seed_b)

    def push(v, rng):
        pi = beta_order(v, spectrum)
        mats = [beta_permutation(pi, rng.permutation(d), spectrum) for _ in range(2)]
        c = rng.uniform(0.2, 0.8)
        return (c * mats[0] + (1 - c) * mats[1]) @ v

    q = push(p, rng_a)
    s = push(q, rng_b)
    assert thermo_majorizes(p, q, spectrum)
    assert thermo_majorizes(q, s, spectrum)
    assert thermo_majorizes(p, s, spectrum)


def _reference_majorizes(p, q, spectrum, rtol=1e-9, atol=1e-12):
    """Union-of-elbows check on two separately built curves in beta_order order."""
    w = np.exp(-spectrum.beta * np.asarray(spectrum.levels))

    def curve(v):
        order = beta_order(v, spectrum)
        return (np.concatenate(([0.0], np.cumsum(w[order]))),
                np.concatenate(([0.0], np.cumsum(np.asarray(v)[order]))))

    (xp, yp), (xq, yq) = curve(p), curve(q)
    xs = np.union1d(xp, xq)
    hp = np.interp(np.clip(xs, 0.0, xp[-1]), xp, yp)
    hq = np.interp(np.clip(xs, 0.0, xq[-1]), xq, yq)
    return bool(np.all(hq <= hp + np.maximum(atol, rtol * np.abs(hp))))


@given(pop_and_spectrum(), st.integers(0, 10**6),
       st.sampled_from(["random", "same", "near", "image", "permuted"]))
@settings(max_examples=200, deadline=None)
def test_majorization_agrees_with_the_two_curve_reference(ps, seed, kind):
    p, spectrum = ps
    d = p.size
    rng = np.random.default_rng(seed)
    if kind == "random":
        q = rng.dirichlet(np.ones(d))
    elif kind == "same":
        q = p.copy()
    elif kind == "near":  # within the comparison tolerance of p, either side
        q = p + rng.uniform(-1e-13, 1e-13, d)
        q = np.clip(q, 0.0, None)
        q /= q.sum()
    elif kind == "image":  # touches the curve of p at every elbow of q
        q = beta_permutation(beta_order(p, spectrum), rng.permutation(d), spectrum) @ p
    else:  # a rearrangement, tied with p on degenerate levels
        q = p[rng.permutation(d)]
    assert thermo_majorizes(p, q, spectrum) == _reference_majorizes(p, q, spectrum)
    assert thermo_majorizes(q, p, spectrum) == _reference_majorizes(q, p, spectrum)


def _numpy_majorizes(p, q, spectrum, rtol=1e-9, atol=1e-12):
    """The numpy pair check: both curves as one stack, heights by np.interp."""
    pair = np.maximum(np.array((p, q), dtype=float), 0.0)
    order = np.argsort(-(pair * spectrum._order_scale), axis=1, kind="stable")
    X = np.zeros((2, pair.shape[1] + 1))
    Y = np.zeros_like(X)
    np.cumsum(spectrum._boltzmann[order], axis=1, out=X[:, 1:])
    np.cumsum(np.take_along_axis(pair, order, axis=1), axis=1, out=Y[:, 1:])
    xs = X.T.ravel()
    hp = np.interp(xs, X[0], Y[0])
    hq = np.interp(xs, X[1], Y[1])
    return bool(np.all(hq <= hp + np.maximum(atol, rtol * np.abs(hp))))


def _pair_check_cases(rng, d):
    """(p, q, spectrum) pairs of every kind, on a plain and a degenerate spectrum."""
    for spectrum in (random_spectrum(rng, d), _degenerate_spectrum(rng, d)):
        g = gibbs_state(spectrum)
        for _ in range(6):
            p = rng.dirichlet(np.ones(d))
            zeros = p.copy()
            zeros[rng.permutation(d)[: d // 2]] = 0.0
            zeros /= zeros.sum()
            near = np.clip(p + rng.uniform(-1e-13, 1e-13, d), 0.0, None)
            image = beta_permutation(beta_order(p, spectrum), rng.permutation(d), spectrum) @ p
            tied = np.full(d, 1.0 / d)  # equal keys on every degenerate pair
            for q in (rng.dirichlet(np.ones(d)), p.copy(), near / near.sum(), image,
                      p[rng.permutation(d)], g, zeros, tied, np.eye(d)[d - 1]):
                yield p, q, spectrum
            yield zeros, image, spectrum
            yield g, g.copy(), spectrum


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 40])
def test_pair_check_equals_the_numpy_pair_check_exactly(d, rng):
    for p, q, spectrum in _pair_check_cases(rng, d):
        assert thermo_majorizes(p, q, spectrum) == _numpy_majorizes(p, q, spectrum)
        assert thermo_majorizes(q, p, spectrum) == _numpy_majorizes(q, p, spectrum)


def test_row_heights_equal_np_interp_exactly(rng):
    spectrum = _degenerate_spectrum(rng, 6)
    for p in (rng.dirichlet(np.ones(6)), gibbs_state(spectrum), np.eye(6)[5]):
        xs, ys = _row_elbows(p.tolist(), spectrum)
        # elbows, points between them and past the last one, ascending
        targets = sorted(xs + rng.uniform(0.0, xs[-1] * 1.1, 20).tolist() + [xs[-1] * 2])
        assert _row_heights(targets, xs, ys) == np.interp(targets, xs, ys).tolist()
    xs, ys = [0.0, 1.0, 1.0, 2.0], [0.0, 0.5, 0.7, 1.0]  # a run of equal abscissae
    targets = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    assert _row_heights(targets, xs, ys) == np.interp(targets, xs, ys).tolist()


@pytest.mark.parametrize("name", ["rtol", "atol"])
@pytest.mark.parametrize("bad", [math.nan, -1e-9, math.inf])
def test_bad_explicit_tolerances_are_rejected(name, bad):
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        thermo_majorizes([0.7, 0.3], [0.6, 0.4], spectrum, **{name: bad})


def test_infinite_temperature_reduces_to_classical_majorization(rng):
    spectrum = EnergySpectrum((0.0, 0.7, 1.1, 2.0), 0.0)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        classical = np.all(
            np.cumsum(np.sort(p)[::-1])[:-1] >= np.cumsum(np.sort(q)[::-1])[:-1] - 1e-12
        )
        assert thermo_majorizes(p, q, spectrum) == classical


def _reachable_by_linear_program(p, q, spectrum) -> bool:
    d = p.size
    g = gibbs_state(spectrum)
    rows, rhs = [], []
    for j in range(d):  # column sums
        row = np.zeros(d * d)
        row[j::d] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for i in range(d):  # G g = g
        row = np.zeros(d * d)
        row[i * d : (i + 1) * d] = g
        rows.append(row)
        rhs.append(g[i])
    for i in range(d):  # G p = q
        row = np.zeros(d * d)
        row[i * d : (i + 1) * d] = p
        rows.append(row)
        rhs.append(q[i])
    res = linprog(
        c=np.zeros(d * d), A_eq=np.array(rows), b_eq=np.array(rhs),
        bounds=[(0.0, 1.0)] * (d * d), method="highs",
    )
    return res.status == 0


def test_majorization_agrees_with_linear_feasibility(rng):
    checked = 0
    while checked < 40:
        spectrum = random_spectrum(rng, 4)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        cp = thermo_curve(p, spectrum)
        cq = thermo_curve(q, spectrum)
        xs = np.union1d(cp.xs, cq.xs)
        margin = float(np.min(cp.heights(xs) - cq.heights(xs)))
        if abs(margin) < 1e-7:
            continue  # too close to the boundary to compare solvers fairly
        assert thermo_majorizes(p, q, spectrum) == _reachable_by_linear_program(p, q, spectrum)
        checked += 1


# ---------------------------------------------------------------------------
# beta-permutations
# ---------------------------------------------------------------------------

def test_beta_permutation_identity_and_swap():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    assert np.allclose(beta_permutation([0, 1], [0, 1], spectrum), np.eye(2))
    swap = beta_permutation([1, 0], [0, 1], spectrum)
    assert swap == pytest.approx(np.array([[1.0 - Q, 1.0], [Q, 0.0]]), abs=1e-15)


def test_beta_permutation_at_infinite_temperature_is_a_permutation(rng):
    spectrum = EnergySpectrum((0.0, 0.5, 1.7, 2.0), 0.0)
    for _ in range(20):
        pi = rng.permutation(4)
        alpha = rng.permutation(4)
        P = beta_permutation(pi, alpha, spectrum)
        expected = np.zeros((4, 4))
        expected[alpha, pi] = 1.0
        assert np.allclose(P, expected)


def test_beta_permutation_rejects_invalid_permutation():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        beta_permutation([0, 0], [0, 1], spectrum)


@given(pop_and_spectrum(), st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_beta_permutation_properties(ps, seed):
    p, spectrum = ps
    d = p.size
    alpha = np.random.default_rng(seed).permutation(d)
    pi = beta_order(p, spectrum)
    P = beta_permutation(pi, alpha, spectrum)

    check = verify_gibbs_stochastic(P, spectrum, tol=1e-12)
    assert check.ok, check

    image = P @ p
    # the image touches the source curve at every target elbow abscissa
    curve = thermo_curve(p, spectrum)
    w = np.exp(-spectrum.beta * np.asarray(spectrum.levels))
    xs = np.cumsum(w[alpha])
    assert np.cumsum(image[alpha]) == pytest.approx(curve.heights(xs), abs=1e-10)
    # alpha is a beta-order of the image (ties collapse to equality within fp noise)
    keys = image[alpha] * np.exp(spectrum.beta * (np.asarray(spectrum.levels)[alpha]
                                                  - max(spectrum.levels)))
    assert np.all(np.diff(keys) <= 1e-12 * np.maximum(np.abs(keys[:-1]), 1.0))
    assert thermo_majorizes(p, image, spectrum)


def test_beta_permutation_on_degenerate_spectra_with_exact_ties():
    # e^{-ln 2} is exactly 0.5 in doubles, so cumulative weights here tie
    # exactly and exercise the stalled-column branch of the construction
    ln2 = math.log(2.0)
    spectrum = EnergySpectrum((0.0, ln2, ln2), 1.0)
    assert math.exp(-spectrum.beta * ln2) == 0.5
    for pi in itertools.permutations(range(3)):
        for alpha in itertools.permutations(range(3)):
            P = beta_permutation(np.array(pi), np.array(alpha), spectrum)
            check = verify_gibbs_stochastic(P, spectrum, tol=1e-12)
            assert check.ok, (pi, alpha, check)


def test_degenerate_spectrum_majorization_agrees_with_linear_feasibility(rng):
    spectrum = EnergySpectrum((0.0, 0.4, 0.4, 1.1), 1.3)
    checked = 0
    while checked < 15:
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        cp = thermo_curve(p, spectrum)
        cq = thermo_curve(q, spectrum)
        xs = np.union1d(cp.xs, cq.xs)
        margin = float(np.min(cp.heights(xs) - cq.heights(xs)))
        if abs(margin) < 1e-7:
            continue
        assert thermo_majorizes(p, q, spectrum) == _reachable_by_linear_program(p, q, spectrum)
        checked += 1


# ---------------------------------------------------------------------------
# maximally active arrangements
# ---------------------------------------------------------------------------

def test_maximally_active_examples():
    qubit = EnergySpectrum((0.0, 1.0), 1.0)
    assert maximally_active([0.7, 0.3], qubit).tolist() == [0.3, 0.7]
    qutrit = EnergySpectrum((0.0, 1.0, 2.0), 1.0)
    assert maximally_active([0.5, 0.3, 0.2], qutrit).tolist() == [0.2, 0.3, 0.5]
    uniform = np.full(3, 1.0 / 3.0)
    assert maximally_active(uniform, qutrit).tolist() == uniform.tolist()


@given(pop_and_spectrum(), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_maximally_active_dominates_every_arrangement(ps, seed):
    p, spectrum = ps
    perm = np.random.default_rng(seed).permutation(p.size)
    assert thermo_majorizes(maximally_active(p, spectrum), p[perm], spectrum)


# ---------------------------------------------------------------------------
# extremal points
# ---------------------------------------------------------------------------

def test_extremal_points_qubit():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    p = np.array([0.2, 0.8])
    result = extremal_points(p, spectrum)
    assert result.n_orders == 2
    pi = beta_order(p, spectrum)
    swap_image = beta_permutation(pi, beta_order(p, spectrum)[::-1], spectrum) @ p
    got = {tuple(np.round(row, 12)) for row in result.points}
    assert tuple(np.round(p, 12)) in got
    assert tuple(np.round(swap_image, 12)) in got


def test_extremal_points_of_thermal_state_collapse():
    spectrum = EnergySpectrum((0.0, 0.6, 1.4), 1.2)
    result = extremal_points(gibbs_state(spectrum), spectrum)
    assert result.n_orders == 6
    assert result.n_distinct == 1
    assert result.points[0] == pytest.approx(gibbs_state(spectrum), abs=1e-12)


def test_extremal_points_are_inside_the_polytope(rng):
    for _ in range(10):
        spectrum = random_spectrum(rng, 3)
        p = rng.dirichlet(np.ones(3))
        for point in extremal_points(p, spectrum).points:
            assert thermo_majorizes(p, point, spectrum)


def _matrix_images(p, spectrum):
    """Image of p under every extremal map, built as explicit matrices."""
    pi = beta_order(p, spectrum)
    return [(np.array(alpha), beta_permutation(pi, np.array(alpha), spectrum) @ p)
            for alpha in itertools.permutations(range(p.size))]


def _degenerate_spectrum(rng, d):
    spectrum = random_spectrum(rng, d)
    levels = list(spectrum.levels)
    j = int(rng.integers(1, d))
    levels[j] = levels[j - 1]
    return EnergySpectrum(tuple(levels), spectrum.beta)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("degenerate", [False, True])
def test_curve_heights_reproduce_every_extremal_map(d, degenerate, rng):
    for _ in range(4):
        spectrum = _degenerate_spectrum(rng, d) if degenerate else random_spectrum(rng, d)
        p = rng.dirichlet(np.ones(d))
        w = np.exp(-spectrum.beta * np.asarray(spectrum.levels))
        X, Y = _row_elbows(p.tolist(), spectrum)
        found = extremal_points(p, spectrum, dedup_tol=np.finfo(float).eps)
        for alpha, image in _matrix_images(p, spectrum):
            heights = np.interp(np.cumsum(w[alpha]), X, Y)
            candidate = np.empty(d)
            candidate[alpha] = np.diff(heights, prepend=0.0)
            assert np.max(np.abs(candidate - image)) <= 1e-14
            assert np.min(np.max(np.abs(found.points - image), axis=1)) <= 1e-14


@pytest.mark.parametrize("dedup_tol", [1e-10, 0.02, 0.1])
def test_every_extremal_candidate_lies_near_a_kept_point(dedup_tol, rng):
    for d, degenerate in ((3, False), (4, True), (5, False), (5, True)):
        spectrum = _degenerate_spectrum(rng, d) if degenerate else random_spectrum(rng, d)
        p = rng.dirichlet(np.ones(d))
        found = extremal_points(p, spectrum, dedup_tol=dedup_tol)
        for _, image in _matrix_images(p, spectrum):
            gap = np.min(np.max(np.abs(found.points - image), axis=1))
            assert gap <= dedup_tol + 1e-14
        if dedup_tol >= 0.1:
            assert found.n_distinct < found.n_orders


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("degenerate", [False, True])
def test_extremal_points_of_thermal_states_collapse_to_one_point(d, degenerate, rng):
    for _ in range(3):
        spectrum = _degenerate_spectrum(rng, d) if degenerate else random_spectrum(rng, d)
        g = gibbs_state(spectrum)
        for dedup_tol in (1e-10, np.finfo(float).eps * 8):
            result = extremal_points(g, spectrum, dedup_tol=dedup_tol)
            assert result.n_distinct == 1
            assert np.max(np.abs(result.points[0] - g)) <= 1e-14


def test_merge_joins_images_split_by_a_cell_edge():
    # with tol = 0.25, 0.125 sits on a cell edge: the row one ulp above rounds
    # into the next cell in both coordinates, yet the rows are equal to 1e-17
    tol = 0.25
    up = np.nextafter(0.125, 1.0)
    twins = np.array([[0.125, 0.875], [up, 1.0 - up]])
    assert len(_merge_images(twins, tol)) == 1
    assert len(_merge_images(twins[::-1], tol)) == 1
    # rows 0.1 apart in different cells are distinct images, not rounding twins
    assert len(_merge_images(np.array([[0.1, 0.9], [0.2, 0.8]]), tol)) == 2
    # first rows 2e-13 apart across the edge merge only if the whole cell fits
    # within tol of the kept row: a third row 0.25 + 9e-14 away blocks it
    close = np.array([[0.125 - 1e-13, 0.875 + 1e-13], [0.125 + 1e-13, 0.875 - 1e-13]])
    assert len(_merge_images(close, tol)) == 1
    spread = np.vstack((close, [0.375 - 1e-14, 0.625 + 1e-14]))
    kept = _merge_images(spread, tol)
    assert len(kept) == 2
    for row in spread:
        assert np.min(np.max(np.abs(kept - row), axis=1)) < tol


def test_extremal_points_rejects_a_dedup_tol_below_machine_epsilon():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    for tol in (0.0, -1e-10, math.nan, 5e-324, 1e-300, np.finfo(float).eps / 2):
        with pytest.raises(ValueError):
            extremal_points([0.3, 0.7], spectrum, dedup_tol=tol)


def test_extremal_points_dimension_guard():
    spectrum = EnergySpectrum(tuple(range(9)), 0.1)
    with pytest.raises(ValueError):
        extremal_points(np.full(9, 1.0 / 9.0), spectrum)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_gibbs_stochastic_examples():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    assert verify_gibbs_stochastic(np.eye(2), spectrum).ok
    swap = np.array([[1.0 - Q, 1.0], [Q, 0.0]])
    assert verify_gibbs_stochastic(swap, spectrum).ok
    # doubly stochastic but not Gibbs-preserving at beta > 0
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    check = verify_gibbs_stochastic(flip, spectrum)
    assert not check.ok and not check  # a failed check is falsy
    assert check.fixed_point_error > 0.1
    assert check.negativity == 0.0 and check.column_sum_error == 0.0


def test_verification_flags_a_corrupted_swap():
    # sign error in the excitation exponent: negative entry plus broken fixed point
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    bad = np.array([[1.0 - 1.0 / Q, 1.0], [1.0 / Q, 0.0]])
    check = verify_gibbs_stochastic(bad, spectrum)
    assert not check.ok
    assert check.negativity > 1.0


def test_tolerances_are_plain_arguments():
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    off = np.array([[1.0 - Q, 1.0], [Q + 1e-6, 0.0]])
    assert not verify_gibbs_stochastic(off, spectrum).ok
    assert verify_gibbs_stochastic(off, spectrum, tol=1e-3).ok
    p, q = [0.700001, 0.299999], [0.7, 0.3]  # p's curve sits 1e-6 below q's
    assert not thermo_majorizes(p, q, spectrum)
    assert thermo_majorizes(p, q, spectrum, atol=1e-3)
