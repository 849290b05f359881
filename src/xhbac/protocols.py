"""Cooling protocols and baselines on top of the thermo-majorization core.

The optimal round for a d-level system is: rotate the joint (system + ancilla)
populations to the maximally active arrangement, then apply the extremal
dephasing thermalization whose target order lists all system-ground levels
first.  For a single qubit this collapses to Pauli X followed by a beta-swap,
with the closed-form ground population 1 - e^{-k beta E} (1 - p_0).

Also here: the exhaustive single-round oracle used to verify optimality, the
noisy-swap recursion and its closed form, the qubit thermal-operation
determinant scan, the Markovian ceiling, the ladder protocol built from
adjacent beta-swaps, and the sort-and-rethermalize baseline.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .thermal_core import (
    _BATCH_ELEMENTS,
    CompositeSpec,
    EnergySpectrum,
    _beta_e,
    _curve_elbows,
    _ground_population,
    _permutation_table,
    _population_row,
    _round_count,
    _row_elbows,
    _row_heights,
    as_population,
    gibbs_state,
)

__all__ = [
    "ProtocolTrace",
    "OracleRound",
    "DeterminantScan",
    "optimal_round",
    "oracle_optimal_round",
    "run_optimal_protocol",
    "beta_swap_matrix",
    "qudit_ladder_round",
    "run_ladder_protocol",
    "ideal_ground_population",
    "ladder_ground_population",
    "noisy_fixed_point",
    "noisy_ground_population",
    "epsilon_threshold",
    "epsilon_noisy_trace",
    "thermal_contact_determinant",
    "to_determinant_scan",
    "markovian_best",
    "markovian_scan",
    "ppa_trace",
]


@dataclass(frozen=True)
class ProtocolTrace:
    """Populations of the target system after each round; row k is round k."""

    populations: np.ndarray

    def __post_init__(self) -> None:
        pops = np.asarray(self.populations, dtype=float)
        if pops.ndim != 2:
            raise ValueError("trace expects a (rounds+1, d) population array")
        object.__setattr__(self, "populations", pops)

    @property
    def rounds(self) -> int:
        return self.populations.shape[0] - 1

    @property
    def ground(self) -> np.ndarray:
        return self.populations[:, 0]


def _as_composite(spec) -> CompositeSpec:
    if isinstance(spec, CompositeSpec):
        return spec
    if isinstance(spec, EnergySpectrum):
        return CompositeSpec(system=spec)
    raise TypeError(f"expected CompositeSpec or EnergySpectrum, got {type(spec)!r}")


def optimal_round(p_system, spec) -> np.ndarray:
    """One optimal cooling round: maximally active joint arrangement, extremal map, marginal.

    The extremal map onto order alpha_opt fills the levels in that order up
    to the arrangement's thermo-majorization curve: the cumulative joint
    populations in alpha_opt-order are the curve's heights at
    cumsum(w[alpha_opt]), so the image is read off the curve directly.
    """
    spec = _as_composite(spec)
    p, anc = _population_row(p_system, spec.d), spec._ancilla_start
    joint = sorted(p if anc is None else [x * a for x in p for a in anc])
    active = [joint[k] for k in spec._energy_rank]  # ascending populations onto ascending energies
    xs, ys = _row_elbows(active, spec)
    heights = _row_heights(spec._cooling_targets, xs, ys)  # heights[0] = 0
    return spec.system_marginal(np.array([heights[m + 1] - heights[m] for m in spec._cooling_rank]))


def run_optimal_protocol(p0, spec, rounds: int) -> ProtocolTrace:
    """Iterate the optimal round, refreshing the ancilla state every round."""
    spec = _as_composite(spec)
    p = as_population(p0, spec.d)
    history = [p]
    for _ in range(_round_count(rounds)):
        p = optimal_round(p, spec)
        history.append(p)
    return ProtocolTrace(np.array(history))


@dataclass(frozen=True)
class OracleRound:
    """Brute-force single-round envelope over all unitary arrangements and extremal maps.

    `ground` is the exhaustive maximum of the system ground population.
    `partial_sums[l]` is the maximum over all candidates of the descending
    partial sum of the first l+1 system marginal entries.
    """

    ground: float
    partial_sums: np.ndarray


def _stacked_curve_heights(X: np.ndarray, Y: np.ndarray, x: float) -> np.ndarray:
    """Height at abscissa x of every curve in a stack of elbow rows, clamped to each curve's domain.

    Reads the level-major storage behind `_curve_elbows` stacks (`X.T`, `Y.T`)
    with flat-index gathers; any other (k, d+1) layout is copied to it first.
    """
    XL, YL = X.T, Y.T
    k = XL.shape[1]
    at = np.sum(XL[1:-1] < x, axis=0)  # segment index
    at *= k
    at += np.arange(k)  # flat index of each segment's left elbow
    xs, ys = XL.ravel(), YL.ravel()
    x0, y0 = xs[at], ys[at]
    at += k
    x1, y1 = xs[at], ys[at]
    width = x1 - x0
    t = np.divide(x - x0, width, out=np.ones_like(width), where=width > 0.0)
    return y0 + (y1 - y0) * np.clip(t, 0.0, 1.0)


def oracle_optimal_round(p_system, spec) -> OracleRound:
    """Exhaustively maximize the round outcome over extremal unitaries and thermalizations.

    Every permutation of the joint populations (the extremal unitary actions
    on diagonal states) is enumerated explicitly.  For each arrangement, the
    best capture that any extremal dephasing thermalization can place into a
    set of joint levels equals the height of the arrangement's
    thermo-majorization curve at the set's total Boltzmann weight, so the
    inner enumeration collapses to curve evaluations.  That geometric identity
    is cross-checked against literal matrix enumeration in the test suite.

    The arrangements are taken in chunks of a fixed element budget and the
    per-target maxima folded across chunks; a maximum is exact, so the result
    does not depend on the chunking.  Refuses a joint dimension n above 8,
    since the arrangements number n! (see `_permutation_table`).
    """
    spec = _as_composite(spec)
    n = spec.dim
    joint = spec.joint_population(p_system)
    table = _permutation_table(n)
    # Curve height of every arrangement at the cumulative weight of the l+1
    # lowest system levels (the largest-weight level set of that size).
    targets = np.cumsum(spec._boltzmann.reshape(spec.d, spec.r).sum(axis=1))
    partial = np.full(targets.size, -np.inf)
    rows = max(1, _BATCH_ELEMENTS // n)
    for start in range(0, len(table), rows):
        X, Y = _curve_elbows(joint[table[start : start + rows]], spec)
        np.maximum(partial, [np.minimum(_stacked_curve_heights(X, Y, x), 1.0).max()
                             for x in targets], out=partial)
    return OracleRound(ground=float(partial[0]), partial_sums=partial)


def beta_swap_matrix(i: int, j: int, spectrum) -> np.ndarray:
    """Two-level extremal map: full decay j -> i, excitation i -> j with weight e^{-beta (E_j - E_i)}."""
    d = len(spectrum.levels)
    if not (0 <= i < j < d):
        raise ValueError(f"need 0 <= i < j < {d}, got i={i}, j={j}")
    levels = spectrum.levels
    x = math.exp(-spectrum.beta * (levels[j] - levels[i]))
    M = np.eye(d)
    M[i, i] = 1.0 - x
    M[i, j] = 1.0
    M[j, i] = x
    M[j, j] = 0.0
    return M


def qudit_ladder_round(p, spectrum) -> np.ndarray:
    """Swap the ground and top levels, then beta-swap every adjacent pair downward.

    The adjacent swaps are applied from the top pair (d-2, d-1) down to (0, 1),
    which matches composing their matrices bottom-pair-leftmost.
    """
    p = as_population(p, len(spectrum.levels))
    levels = spectrum.levels
    d = p.size
    if d < 2:
        raise ValueError("ladder round needs at least two levels")
    v = p.copy()
    v[0], v[-1] = v[-1], v[0]
    for i in range(d - 2, -1, -1):
        x = math.exp(-spectrum.beta * (levels[i + 1] - levels[i]))
        lo, hi = v[i], v[i + 1]
        v[i] = (1.0 - x) * lo + hi
        v[i + 1] = x * lo
    return v


def run_ladder_protocol(p0, spectrum, rounds: int) -> ProtocolTrace:
    p = as_population(p0, len(spectrum.levels))
    history = [p]
    for _ in range(_round_count(rounds)):
        p = qudit_ladder_round(p, spectrum)
        history.append(p)
    return ProtocolTrace(np.array(history))


def _deficit(eps: float) -> float:
    """A de-excitation deficit epsilon; NaN or a value outside [0, 1] raises ValueError."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
    return eps


def ideal_ground_population(k: int, beta_e: float, p0: float) -> float:
    """Ground population of the qubit full-swap protocol after k rounds."""
    return 1.0 - math.exp(-_round_count(k) * _beta_e(beta_e)) * (1.0 - _ground_population(p0))


def ladder_ground_population(blocks: int, spectrum, p0: float) -> float:
    """Ground population after `blocks` passes of d-1 ladder rounds each."""
    _ground_population(p0)
    spectrum_omega = spectrum.levels[-1] - spectrum.levels[0]
    return 1.0 - math.exp(-_round_count(blocks) * spectrum.beta * spectrum_omega) * (1.0 - p0)


def epsilon_threshold(beta_e: float) -> float:
    """Largest de-excitation deficit for which the noisy swap round stays provably optimal."""
    return 1.0 / (1.0 + math.exp(_beta_e(beta_e)) + math.exp(2.0 * beta_e))


def noisy_fixed_point(eps: float, beta_e: float) -> float:
    """Asymptotic ground population of the noisy swap protocol."""
    z = 1.0 + math.exp(-_beta_e(beta_e))
    denom = 2.0 - (1.0 - _deficit(eps)) * z
    if denom == 0.0:
        raise ValueError("degenerate case beta_e = 0, eps = 0 has no fixed point")
    return 1.0 - eps / denom


def noisy_ground_population(k: int, eps: float, beta_e: float, p0: float) -> float:
    """Closed-form ground population after k noisy swap rounds."""
    _ground_population(p0)
    _round_count(k)
    z = 1.0 + math.exp(-_beta_e(beta_e))
    ratio = (1.0 - _deficit(eps)) * z - 1.0
    if 2.0 - (1.0 - eps) * z == 0.0:
        return p0
    star = noisy_fixed_point(eps, beta_e)
    return star - ratio**k * (star - p0)


def epsilon_noisy_trace(p0: float, eps: float, spectrum, k: int) -> np.ndarray:
    """Iterate the noisy swap recursion p' = (1 - lam e^{-beta E})(1 - p) + lam p, lam = 1 - eps.

    `eps` must lie in [0, 1].  Above `epsilon_threshold` the recursion is
    still well defined; a warning flags that the round is no longer provably
    the best available.
    """
    beta_e = spectrum.beta * spectrum.gap
    if _deficit(eps) > epsilon_threshold(beta_e):
        warnings.warn(
            "epsilon exceeds the optimality threshold; evaluating the recursion anyway",
            stacklevel=2,
        )
    lam = 1.0 - eps
    x = math.exp(-beta_e)
    values = np.empty(_round_count(k) + 1)
    values[0] = p = _ground_population(p0)
    for step in range(1, k + 1):
        p = (1.0 - lam * x) * (1.0 - p) + lam * p
        values[step] = p
    return values


def thermal_contact_determinant(q, lam, p: float, beta_e: float):
    """Determinant of the qubit state after unitary mixing plus thermal contact.

    `q` is the ground population chosen on the unitary orbit of a diagonal
    state with ground population `p` (the off-diagonal term is taken maximal),
    `lam` the thermal transfer weight.  Quadratic in both arguments with a
    non-positive lam^2 coefficient, so minima sit on the boundary.
    """
    q = np.asarray(q, dtype=float)
    lam = np.asarray(lam, dtype=float)
    x = math.exp(-beta_e)
    # coherence - u * (u + 1), evaluated in place: a grid scan spends its time on
    # temporaries.  The float operations and their order are those of the plain formula.
    coherence = (lam - 1.0) * (x * lam - 1.0) * (q - p)
    coherence *= p + q - 1.0
    u = q * (x * lam + lam - 1.0)
    u -= lam
    out = u + 1.0
    out *= u
    coherence -= out
    return coherence


@dataclass(frozen=True)
class DeterminantScan:
    """Grid minimizer of the post-round determinant over (q, lam)."""

    q_star: float
    lambda_star: float
    f_star: float
    lambda_max: float
    above_threshold: bool
    trivial_regime: bool


def to_determinant_scan(p: float, spectrum, lambda_max: float = 1.0) -> DeterminantScan:
    """Locate the determinant minimum on a (q, lam) grid of step 1e-3, refined at step 1e-4.

    Each grid is evaluated in batches of rows of a fixed element budget; the
    minimizer is the grid's first minimum in C order (q-major), as an argmin
    over the whole grid would give, so a later batch wins only on a strictly
    smaller value.  `p` must lie in [1/2, 1].

    Whenever lambda_max exceeds the two-level threshold and p sits strictly
    below the protocol's fixed point (the nontrivial cooling regime), the
    minimum must land on the corner (q, lam) = (1 - p, lambda_max); the scan
    raises if the grid disagrees.
    """
    _ground_population(p, 0.5)
    if not 0.0 < lambda_max <= 1.0:
        raise ValueError(f"lambda_max must lie in (0, 1], got {lambda_max}")
    beta_e = spectrum.beta * spectrum.gap
    threshold = 1.0 - epsilon_threshold(beta_e)
    above = lambda_max > threshold
    trivial = p >= noisy_fixed_point(1.0 - lambda_max, beta_e)

    def scan(q_lo, q_hi, l_lo, l_hi, step):
        nq = max(2, int(math.ceil((q_hi - q_lo) / step)) + 1) if q_hi > q_lo else 1
        nl = max(2, int(math.ceil((l_hi - l_lo) / step)) + 1)
        qs = np.linspace(q_lo, q_hi, nq)
        ls = np.linspace(l_lo, l_hi, nl)
        best_q, best_l, best_f = 0, 0, math.inf
        rows = max(1, _BATCH_ELEMENTS // nl)
        for start in range(0, nq, rows):
            f = thermal_contact_determinant(qs[start : start + rows, None], ls, p, beta_e)
            iq, il = np.unravel_index(int(np.argmin(f)), f.shape)
            if f[iq, il] < best_f:
                best_q, best_l, best_f = start + iq, il, f[iq, il]
        return float(qs[best_q]), float(ls[best_l]), float(best_f)

    step = 1e-3
    q0, l0, _ = scan(1.0 - p, p, 0.0, lambda_max, step)
    q_lo = max(1.0 - p, q0 - step)
    q_hi = min(p, q0 + step)
    l_lo = max(0.0, l0 - step)
    l_hi = min(lambda_max, l0 + step)
    q_star, l_star, f_star = scan(q_lo, q_hi, l_lo, l_hi, step / 10)

    if above and not trivial:
        corner = q_star == 1.0 - p and l_star == lambda_max
        if not corner:
            raise RuntimeError(
                f"expected boundary minimizer (1-p, lambda_max), got ({q_star}, {l_star})"
            )
    return DeterminantScan(
        q_star=q_star,
        lambda_star=l_star,
        f_star=f_star,
        lambda_max=lambda_max,
        above_threshold=above,
        trivial_regime=trivial,
    )


def markovian_best(p: float, spectrum) -> float:
    """Best ground population reachable with a unitary plus one Markovian thermal contact.

    The contact mixes the identity with the two-level swap at weight lam up to
    1/(1 + e^{-beta E}); the optimum either re-thermalizes fully (when the
    input is hotter than the bath) or does nothing.  The same ceiling is
    expected for every Markovian thermal operation; only this dephasing family
    is exercised numerically here.
    """
    _ground_population(p)
    beta_e = spectrum.beta * spectrum.gap
    thermal_ground = 1.0 / (1.0 + math.exp(-beta_e))
    return max(p, 1.0 - p, thermal_ground)


def markovian_scan(p: float, spectrum) -> float:
    """Grid version of markovian_best: maximize over 10,000 allowed contact weights."""
    _ground_population(p)
    beta_e = spectrum.beta * spectrum.gap
    x = math.exp(-beta_e)
    lam_cap = 1.0 / (1.0 + x)
    q = max(p, 1.0 - p)
    lams = np.linspace(0.0, lam_cap, 10_000)
    s = (1.0 - lams * x) * q + lams * (1.0 - q)
    return float(s.max())


def ppa_trace(p0, n_ancillas: int, spectrum, rounds: int) -> ProtocolTrace:
    """Sort-and-rethermalize baseline on a register of equal-gap qubits.

    Each round sorts the joint diagonal populations descending onto the
    computational basis ordered with the target qubit most significant (the
    arrangement maximizing the target's ground marginal; sorting against the
    total-energy order instead would leave a jointly thermal register fixed
    and the baseline would never cool).  The ancillas are then reset to
    thermal, and the target marginal is recorded per round.
    """
    if spectrum.dim != 2:
        raise ValueError("baseline expects a qubit system spectrum")
    if not 0 <= n_ancillas <= 3:
        raise ValueError(f"supported ancilla counts are 0..3, got {n_ancillas}")
    p = as_population(p0, 2)
    tau = gibbs_state(spectrum)
    anc = np.array([1.0])
    for _ in range(n_ancillas):
        anc = np.kron(anc, tau)

    history = [p]
    for _ in range(_round_count(rounds)):
        joint = np.kron(p, anc)
        arranged = np.sort(joint)[::-1]
        p = arranged.reshape(2, -1).sum(axis=1)
        history.append(p)
    return ProtocolTrace(np.array(history))
