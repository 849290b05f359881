"""Acceptance criteria: one check per criterion, each with pinned tolerances.

A check is declared once, with `@_criterion(ident, key, limit)`: it returns
(ok, detail), and the decorator times it and turns it into a CriterionResult
carrying the verdict (ok and within `limit` seconds), the measurement summary
and the elapsed time.  `run_acceptance` runs every criterion (`all`) or the one
with a given key and prints one line per criterion; it is what the
`xhbac accept` subcommand executes, and the pytest acceptance module drives the
same functions through CRITERIA.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .bosonic_sim import (
    CavityParams,
    FockTruncation,
    JointDiagState,
    ModePopulations,
    _rethermalize_array,
    anharmonic_cooling_sums,
    atom_stream_sim,
    jc_deexcitation,
    optimize_interaction_time,
    pauli_x,
    rethermalize_mode,
    reuse_protocol_trace,
    u_beta_apply,
    upper_bound_G,
)
from .protocols import (
    CompositeSpec,
    beta_swap_matrix,
    epsilon_noisy_trace,
    epsilon_threshold,
    ideal_ground_population,
    ladder_ground_population,
    markovian_best,
    noisy_fixed_point,
    noisy_ground_population,
    optimal_round,
    oracle_optimal_round,
    ppa_trace,
    run_ladder_protocol,
    run_optimal_protocol,
    to_determinant_scan,
)
from .thermal_core import (
    EnergySpectrum,
    _count,
    beta_order,
    beta_permutation,
    gibbs_state,
    thermo_curve,
    verify_gibbs_stochastic,
)


@dataclass(frozen=True)
class CriterionResult:
    ident: int
    key: str
    passed: bool
    elapsed: float
    limit: float
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.ident:2d} {self.key:<24s} "
            f"[{self.elapsed:6.2f}s / {self.limit:g}s] {self.detail}"
        )


# ident -> criterion, in declaration order, and key -> ident; both filled by @_criterion.
CRITERIA: dict = {}
_IDENTS: dict[str, int] = {}


def _criterion(ident: int, key: str, limit: float):
    """Register a check returning (ok, detail) as criterion `ident`, timed against `limit` s."""
    def register(check):
        @wraps(check)
        def criterion(seed: int = 0) -> CriterionResult:
            start = time.perf_counter()
            ok, detail = check(_count(seed, "seed"))
            elapsed = time.perf_counter() - start
            return CriterionResult(ident, key, bool(ok) and elapsed <= limit, elapsed, limit,
                                   detail)
        CRITERIA[ident] = criterion
        _IDENTS[key] = ident
        return criterion
    return register


def _random_spectrum(rng, d: int, beta_lo=0.2, beta_hi=2.0) -> EnergySpectrum:
    levels = np.sort(rng.uniform(0.0, 2.5, d))
    levels[0] = 0.0
    return EnergySpectrum(tuple(levels), float(rng.uniform(beta_lo, beta_hi)))


@_criterion(1, "qubit-closed-form", 1.0)
def criterion_qubit_closed_form(seed: int = 0):
    """Simulated optimal qubit protocol equals 1 - e^{-k bE}(1-p0) to 1e-12."""
    worst = 0.0
    for beta_e in (0.1, 1.0, 10.0):
        spec = CompositeSpec(system=EnergySpectrum((0.0, 1.0), beta_e))
        for p0 in (0.5, 0.7, 0.9):
            trace = run_optimal_protocol([p0, 1.0 - p0], spec, 50)
            closed = np.array([ideal_ground_population(k, beta_e, p0) for k in range(51)])
            worst = max(worst, float(np.max(np.abs(trace.ground - closed))))
    return worst <= 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


@_criterion(2, "ladder-closed-form", 1.0)
def criterion_ladder_closed_form(seed: int = 0):
    """Ladder protocol sampled every d-1 rounds matches the full-width decay law."""
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for d in (3, 4, 5):
        for _ in range(5):
            spectrum = _random_spectrum(rng, d, 0.3, 2.0)
            p0 = rng.dirichlet(np.ones(d))
            blocks = 6
            trace = run_ladder_protocol(p0, spectrum, blocks * (d - 1))
            for k in range(blocks + 1):
                got = trace.ground[k * (d - 1)]
                want = ladder_ground_population(k, spectrum, float(p0[0]))
                worst = max(worst, abs(got - want))
    return worst <= 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


@_criterion(3, "beta-permutation", 10.0)
def criterion_beta_permutation_validity(seed: int = 0):
    """500 random extremal maps, beta in [0.2, 8]: Gibbs-stochastic to 1e-12, touching to 1e-10."""
    rng = np.random.default_rng(seed + 3)
    worst_check = 0.0
    worst_touch = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 7))
        spectrum = _random_spectrum(rng, d, beta_hi=8.0)
        alpha = rng.permutation(d)
        # Gibbs-stochasticity must hold for arbitrary order pairs
        free = verify_gibbs_stochastic(
            beta_permutation(rng.permutation(d), alpha, spectrum), spectrum, tol=1e-12
        )
        worst_check = max(worst_check, free.worst_violation)
        # the touching property is specific to the beta-order of the source
        p = rng.dirichlet(np.ones(d))
        pi = beta_order(p, spectrum)
        matrix = beta_permutation(pi, alpha, spectrum)
        check = verify_gibbs_stochastic(matrix, spectrum, tol=1e-12)
        worst_check = max(worst_check, check.worst_violation)
        image = matrix @ p
        curve = thermo_curve(p, spectrum)
        xs = np.cumsum(spectrum._boltzmann[alpha])
        touch = np.max(np.abs(np.cumsum(image[alpha]) - curve.heights(xs)))
        worst_touch = max(worst_touch, float(touch))
    ok = worst_check <= 1e-12 and worst_touch <= 1e-10
    return ok, (f"worst violation {worst_check:.2e} (tol 1e-12), "
                f"worst touching gap {worst_touch:.2e} (tol 1e-10)")


@_criterion(4, "oracle-equivalence", 60.0)
def criterion_oracle_equivalence(seed: int = 0):
    """Optimal round equals the exhaustive oracle and dominates its partial sums."""
    rng = np.random.default_rng(seed + 4)
    shapes = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1), (2, 4), (4, 2),
              (5, 1), (6, 1), (7, 1), (8, 1)]
    worst_ground = 0.0
    worst_part = 0.0
    for _ in range(100):
        d, r = shapes[int(rng.integers(0, len(shapes)))]
        system = _random_spectrum(rng, d)
        ancilla = None
        if r > 1:
            ancilla = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.5, r))), system.beta)
        spec = CompositeSpec(system=system, ancilla=ancilla)
        p = rng.dirichlet(np.ones(d))
        out = optimal_round(p, spec)
        oracle = oracle_optimal_round(p, spec)
        worst_ground = max(worst_ground, abs(out[0] - oracle.ground))
        partial = np.cumsum(np.sort(out)[::-1])
        worst_part = max(worst_part, float(np.max(oracle.partial_sums - partial)))
    ok = worst_ground <= 1e-10 and worst_part <= 1e-10
    return ok, (f"worst ground gap {worst_ground:.2e}, "
                f"worst partial-sum deficit {worst_part:.2e} (tol 1e-10)")


@_criterion(5, "mode-reuse", 5.0)
def criterion_mode_reuse(seed: int = 0):
    """Reused-mode simulation tracks the closed form; populations circulate exactly."""
    beta_e = 1.0
    trunc = FockTruncation.thermal(beta_e, 60)
    spectrum = EnergySpectrum((0.0, 1.0), beta_e)
    declared = math.exp(-beta_e * (trunc.n_max - 20 + 1))
    worst = 0.0
    for p0 in (0.5, 0.7311, 0.9):
        trace = reuse_protocol_trace(p0, trunc, spectrum, 20)
        closed = np.array([ideal_ground_population(k, beta_e, p0) for k in range(21)])
        worst = max(worst, float(np.max(np.abs(trace - closed))))
    # circulation of one round, exact on the bulk
    rng = np.random.default_rng(seed + 5)
    raw = rng.uniform(0.0, 1.0, (2, trunc.n_max + 1))
    state = JointDiagState(p=raw / raw.sum())
    before = state.p.copy()
    after = u_beta_apply(pauli_x(state)).p
    circ_ok = (
        after[0, 0] == before[1, 0]
        and np.array_equal(after[0, 1:], before[0, :-1])
        and np.array_equal(after[1, :-1], before[1, 1:])
    )
    ok = worst <= 1e-10 and declared < 1e-10 and circ_ok
    return ok, (f"max deviation {worst:.2e} (tol 1e-10), declared tail {declared:.2e}, "
                f"circulation exact: {circ_ok}")


@lru_cache(maxsize=4)
def _wide_window_optimum(beta_e: float, n_max: int):
    """Best de-excitation over the full angle window; shared across criteria."""
    spectrum = EnergySpectrum((0.0, 1.0), beta_e)
    trunc = FockTruncation.thermal(beta_e, n_max)
    return optimize_interaction_time(spectrum, 0.0, 5000.0, trunc)


@_criterion(6, "jc-window", 30.0)
def criterion_jc_window(seed: int = 0):
    """Optimized interaction angle lands in the published window."""
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    trunc = FockTruncation.thermal(1.0, 60)
    wide = _wide_window_optimum(1.0, 60)
    eps = 1.0 - wide.probability
    asym = noisy_fixed_point(eps, 1.0)
    narrow = optimize_interaction_time(spectrum, 0.0, 10.0, trunc)
    ok = 0.9401 <= asym <= 0.9534 and abs(narrow.s_star - 7.87) <= 0.05
    return ok, (f"asymptote {asym:.6f} in [0.9401, 0.9534]; "
                f"s*={narrow.s_star:.4f} (7.87 +/- 0.05), eps={eps:.6f}")


@_criterion(7, "bound-consistency", 10.0)
def criterion_bound_consistency(seed: int = 0):
    """De-excitation never exceeds its ceiling, the ceiling binds, and its branches meet."""
    beta_grid = np.linspace(0.05, 3.0, 100)
    s_grid = np.linspace(0.0, 50.0, 100)
    worst = -np.inf
    highest = -np.inf
    for beta_e in beta_grid:
        spectrum = EnergySpectrum((0.0, 1.0), float(beta_e))
        n_max = max(60, int(math.ceil(30.0 / beta_e)))
        trunc = FockTruncation.thermal(float(beta_e), n_max)
        values = jc_deexcitation(s_grid, spectrum, trunc)
        ceiling = upper_bound_G(float(beta_e))
        worst = max(worst, float(np.max(values - ceiling)))
        highest = max(highest, ceiling)
    slack = upper_bound_G(1.0) - _wide_window_optimum(1.0, 60).probability
    split = math.log(4.0) / 3.0  # G switches branch here; compare both sides of that float
    branch_gap = abs(upper_bound_G(math.nextafter(split, 0.0)) - upper_bound_G(split))
    ok = worst <= 0.0 + 1e-12 and highest < 1.0 and 0.0 <= slack <= 0.01 and branch_gap <= 1e-12
    return ok, (f"max excess over ceiling {worst:.2e} on 10^4 grid, "
                f"max ceiling {highest:.6f} < 1, slack over wide-window optimum at bE=1 "
                f"{slack:.2e} in [0, 0.01], branch gap {branch_gap:.2e} (tol 1e-12)")


@_criterion(8, "anharmonic", 1.0)
def criterion_anharmonic(seed: int = 0):
    """Peak relative deviation of the anharmonic cooling sum at tau=0.05, beta E=1."""
    spectrum = EnergySpectrum((0.0, 1.0), 1.0)
    trunc = FockTruncation.thermal(1.0, 60)
    peak = 0.0
    for k in range(1, trunc.n_max + 2):
        an_sum, h_sum = anharmonic_cooling_sums(0.05, trunc, spectrum, k)
        peak = max(peak, abs(an_sum - h_sum) / h_sum)
    return peak < 5e-5, f"peak relative deviation {peak:.3e} (tol 5e-5)"


@_criterion(9, "master-equation", 10.0)
def criterion_master_equation(seed: int = 0):
    """Thermal fixed point preserved; arbitrary starts converge in total variation.

    Both waits are one-off relaxations: the RK4 step matrix is raised to its
    step count by repeated squaring, rows renormalized (`_rethermalize_array`),
    137 small products in all where stepping the rows took 227,590.
    """
    worst_drift = 0.0
    worst_tv = 0.0
    for beta_e in (0.5, 1.0, 2.0):
        params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=beta_e)
        thermal = ModePopulations.thermal(beta_e, 60)
        relaxed = rethermalize_mode(thermal, params, 10.0)
        worst_drift = max(worst_drift, float(np.max(np.abs(relaxed.t - thermal.t))))
        starts = np.zeros((3, 61))  # top, ground, uniform
        starts[0, -1] = 1.0
        starts[1, 0] = 1.0
        starts[2] = 1.0 / 61.0
        out = _rethermalize_array(starts, params.loss_rate, params.nbar, 50.0)
        worst_tv = max(worst_tv, 0.5 * float(np.max(np.abs(out - thermal.t).sum(axis=1))))
    ok = worst_drift <= 1e-10 and worst_tv < 1e-8
    return ok, (f"fixed-point drift {worst_drift:.2e} (tol 1e-10), "
                f"worst TV {worst_tv:.2e} (tol 1e-8)")


@_criterion(10, "markovian-ceiling", 1.0)
def criterion_markovian_ceiling(seed: int = 0):
    """`markovian_best` bounds every Markovian qubit history and is reached; memory beats it.

    A Markovian contact is (1 - lam) I + lam S, with S the beta-swap and
    lam <= 1/(1 + x), x = e^{-beta E}: its determinant 1 - lam (1 + x) is
    >= 0, the 2x2 semigroup condition (Kingman 1962).  2,000 histories (20
    starts at each of 100 beta E in [0.05, 5]) take 30 steps each: a move
    anywhere on the unitary orbit [1 - m, m], m = max(q, 1 - q), then a random
    contact.  S itself has determinant -x, and from the thermal state a flip
    followed by S beats the ceiling by x (1 - x) / (1 + x).
    """
    rng = np.random.default_rng(seed + 10)
    beta_e = rng.uniform(0.05, 5.0, 100)
    spectra = [EnergySpectrum((0.0, 1.0), float(b)) for b in beta_e]
    swaps = np.array([beta_swap_matrix(0, 1, spectrum) for spectrum in spectra])
    x = np.exp(-beta_e)
    thermal = np.array([gibbs_state(spectrum)[0] for spectrum in spectra])
    flipped = swaps[:, 0, 0] * (1.0 - thermal) + swaps[:, 0, 1] * thermal
    gain = flipped - np.array([markovian_best(float(t), s) for t, s in zip(thermal, spectra)])
    memory = float(np.max(np.abs(gain - x * (1.0 - x) / (1.0 + x))))
    swap_det = float(np.max(np.linalg.det(swaps)))

    of = np.repeat(np.arange(beta_e.size), 20)  # each history's temperature
    decay, feed, cap = swaps[of, 0, 0], swaps[of, 0, 1], 1.0 / (1.0 + x[of])

    def contact(q, lam):
        """Ground population after the contact of weight lam on ground population q."""
        return (1.0 - lam) * q + lam * (decay * q + feed * (1.0 - q))

    p0 = rng.uniform(0.0, 1.0, of.size)
    ceiling = np.array([markovian_best(float(p), spectra[i]) for p, i in zip(p0, of)])
    q = p0
    worst = -np.inf
    for _ in range(30):
        m = np.maximum(q, 1.0 - q)
        q = contact(rng.uniform(1.0 - m, m), rng.uniform(0.0, cap))
        worst = max(worst, float(np.max(q - ceiling)))
    top = np.maximum(p0, 1.0 - p0)  # the orbit's best point, then no contact or a long one
    attained = float(np.max(np.abs(np.maximum(top, contact(top, cap)) - ceiling)))
    ok = worst <= 1e-12 and attained <= 1e-12 and memory <= 1e-15 and swap_det < 0.0
    return ok, (f"max excess over markovian_best {worst:.2e} (tol 1e-12), "
                f"attained to {attained:.2e} (tol 1e-12), "
                f"memory gain off x(1-x)/(1+x) by {memory:.2e} (tol 1e-15), "
                f"beta-swap det {swap_det:.2e} < 0")


@_criterion(11, "noise-robustness", 30.0)
def criterion_noise_robustness(seed: int = 0):
    """Noisy-swap recursion equals the closed form; determinant minimizer on the corner."""
    rng = np.random.default_rng(seed + 11)
    worst = 0.0
    corner_ok = True
    for _ in range(50):
        beta_e = float(rng.uniform(0.2, 2.5))
        spectrum = EnergySpectrum((0.0, 1.0), beta_e)
        eps = float(rng.uniform(0.0, epsilon_threshold(beta_e)))
        p0 = float(rng.uniform(0.5, 1.0))
        trace = epsilon_noisy_trace(p0, eps, spectrum, 60)
        closed = np.array([noisy_ground_population(k, eps, beta_e, p0) for k in range(61)])
        worst = max(worst, float(np.max(np.abs(trace - closed))))

        lam_max = float(rng.uniform(1.0 - epsilon_threshold(beta_e) + 1e-9, 1.0))
        star = noisy_fixed_point(1.0 - lam_max, beta_e)
        p = float(rng.uniform(0.52, star - 0.01))
        scan = to_determinant_scan(p, spectrum, lambda_max=lam_max)
        corner_ok &= scan.q_star == 1.0 - p and scan.lambda_star == lam_max
    ok = worst <= 1e-12 and corner_ok
    return ok, (f"max closed-form deviation {worst:.2e} (tol 1e-12), "
                f"corner minimizer confirmed: {corner_ok}")


@_criterion(12, "baseline-separation", 10.0)
def criterion_baseline_separation(seed: int = 0):
    """Full-swap protocol and its exchange realization beat the sorting baseline.

    The two-ancilla baseline must itself reach its limit 1/(1 + e^{-2 beta E}),
    so that a baseline that never cools cannot make the separation easy.
    """
    beta_e = 1.0
    spectrum = EnergySpectrum((0.0, 1.0), beta_e)
    thermal_ground = float(gibbs_state(spectrum)[0])
    baseline = ppa_trace([thermal_ground, 1.0 - thermal_ground], 2, spectrum, 400)
    fixed_point = float(baseline.ground[-1])
    limit_gap = abs(fixed_point - 1.0 / (1.0 + math.exp(-2.0 * beta_e)))
    swap_asymptote = noisy_fixed_point(0.0, beta_e)
    best = _wide_window_optimum(beta_e, 60)
    jc_k10 = noisy_ground_population(10, 1.0 - best.probability, beta_e, thermal_ground)
    ppa_k10 = float(baseline.ground[10])
    ok = limit_gap <= 1e-6 and swap_asymptote > fixed_point and jc_k10 > ppa_k10
    return ok, (f"baseline fixed point {fixed_point:.6f} (off its limit by {limit_gap:.2e}, "
                f"tol 1e-6) < swap asymptote {swap_asymptote:.6f}; "
                f"jc k=10 {jc_k10:.6f} > baseline k=10 {ppa_k10:.6f}")


@_criterion(13, "atom-stream", 120.0)
def criterion_atom_stream(seed: int = 0):
    """Stream with full reset hits the two-round closed form; finite reset settles."""
    beta_e = 1.0
    spectrum = EnergySpectrum((0.0, 1.0), beta_e)
    trunc = FockTruncation.thermal(beta_e, 60)
    thermal_ground = float(gibbs_state(spectrum)[0])
    t_int = 98.92
    eps = 1.0 - jc_deexcitation(t_int, spectrum, trunc)
    target = noisy_ground_population(2, eps, beta_e, thermal_ground)

    params = CavityParams.resonant(g=1.0, loss_rate=1.0, beta_e=beta_e)
    finals = atom_stream_sim(params, 10, t_int, math.inf, trunc, spectrum)
    reset_dev = float(np.max(np.abs(finals - target)))

    finals_finite = atom_stream_sim(params, 70, t_int, 1.0, trunc, spectrum)
    settle = float(np.max(np.abs(finals_finite[50:] - finals_finite[-1])))
    ok = reset_dev <= 1e-8 and settle <= 1e-6
    return ok, (f"full-reset deviation {reset_dev:.2e} (tol 1e-8), "
                f"post-atom-50 spread {settle:.2e} (tol 1e-6)")


def run_acceptance(name: str, seed: int = 0) -> list[CriterionResult]:
    """Run every criterion (`all`) or the one with key `name`, printing a verdict line each."""
    if name != "all" and name not in _IDENTS:
        raise ValueError(f"unknown criterion {name!r}; expected all or one of: "
                         f"{', '.join(_IDENTS)}")
    idents = list(CRITERIA) if name == "all" else [_IDENTS[name]]
    results = []
    for ident in idents:
        result = CRITERIA[ident](seed=seed)
        results.append(result)
        print(result.line())
    return results
