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
    _SLOPE_SCALE,
    CompositeSpec,
    EnergySpectrum,
    _beta_e,
    _count,
    _curve_heights,
    _ground_population,
    _permutation_table,
    _population_row,
    _row_elbows,
    as_population,
    gibbs_state,
)


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
    heights = _curve_heights(spec._cooling_targets, xs, ys)  # heights[0] = 0
    # np.diff's bits without its call overhead, a tenth of a round at d = 8
    return spec.system_marginal((heights[1:] - heights[:-1])[spec._cooling_rank])


def run_optimal_protocol(p0, spec, rounds: int) -> ProtocolTrace:
    """Iterate the optimal round, refreshing the ancilla state every round."""
    spec = _as_composite(spec)
    p = as_population(p0, spec.d)
    history = [p]
    for _ in range(_count(rounds)):
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


def _supporting_lines(rows: np.ndarray, spec) -> tuple[np.ndarray, np.ndarray]:
    """Lines through the segments of the curves of a (k, n) stack of validated rows.

    Returns (slope, intercept), each of shape (n, k), on abscissae scaled by
    `_SLOPE_SCALE`: the j-th segment of row i in beta-order has slope
    p / (w * _SLOPE_SCALE), its beta-order key, and its line passes through
    the elbow where the segment ends.  A concave piecewise-linear curve lies
    on or below the line of each of its segments, so its height at x is the
    least of them.
    """
    w = spec._boltzmann * _SLOPE_SCALE
    keys = np.divide(rows, -w)  # minus the beta-order keys
    order = np.argsort(keys.T, axis=0, kind="stable")  # order[j]: each row's level of rank j
    del keys
    weight = w[order]
    order += np.arange(0, rows.size, rows.shape[1])  # flat indices into rows
    pop = rows.ravel()[order]
    del order
    slope = pop / weight
    for j in range(1, len(pop)):  # elbows, in a cumsum's order; np.cumsum(axis=0) is ~8x slower
        weight[j] += weight[j - 1]
        pop[j] += pop[j - 1]
    pop -= np.multiply(slope, weight, out=weight)
    return slope, pop


def oracle_optimal_round(p_system, spec) -> OracleRound:
    """Exhaustively maximize the round outcome over extremal unitaries and thermalizations.

    Every permutation of the joint populations (the extremal unitary actions
    on diagonal states) is enumerated explicitly.  For each arrangement, the
    best capture that any extremal dephasing thermalization can place into a
    set of joint levels equals the height of the arrangement's
    thermo-majorization curve at the set's total Boltzmann weight, so the
    inner enumeration collapses to curve evaluations.  That geometric identity
    is cross-checked against literal matrix enumeration in the test suite.
    Each height is read as the lower envelope of the curve's supporting
    lines (`_supporting_lines`), while `optimal_round` interpolates between
    elbows, so the two sides of the acceptance comparison use different
    height formulas and may differ in the last bits.

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
    targets = np.cumsum(spec._boltzmann.reshape(spec.d, spec.r).sum(axis=1)) * _SLOPE_SCALE
    partial = np.full(targets.size, -np.inf)
    rows = max(1, _BATCH_ELEMENTS // n)
    for start in range(0, len(table), rows):
        slope, intercept = _supporting_lines(joint[table[start : start + rows].astype(np.intp)], spec)
        line = np.empty_like(slope)
        with np.errstate(over="ignore"):  # the steep line of a subnormal weight; never the least
            for i, x in enumerate(targets):
                np.multiply(slope, x, out=line)
                line += intercept
                partial[i] = max(partial[i], line.min(axis=0).max())
        del slope, intercept, line  # so that two chunks' lines are never held at once
    np.minimum(partial, 1.0, out=partial)
    return OracleRound(ground=float(partial[0]), partial_sums=partial)


def beta_swap_matrix(i: int, j: int, spectrum) -> np.ndarray:
    """Two-level extremal map: full decay j -> i, excitation i -> j with weight e^{-beta (E_j - E_i)}."""
    d = len(spectrum.levels)
    if not (_count(i, "level index i") < _count(j, "level index j") < d):
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
    for _ in range(_count(rounds)):
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
    k = _count(k)
    beta_e = _beta_e(beta_e)
    # zero rounds decay by 1 at any temperature; -0 * inf would make it NaN at beta*E = inf
    decay = math.exp(-k * beta_e) if k else 1.0
    return 1.0 - decay * (1.0 - _ground_population(p0))


def ladder_ground_population(blocks: int, spectrum, p0: float) -> float:
    """Ground population after `blocks` passes of d-1 ladder rounds each."""
    _ground_population(p0)
    spectrum_omega = spectrum.levels[-1] - spectrum.levels[0]
    return 1.0 - math.exp(-_count(blocks) * spectrum.beta * spectrum_omega) * (1.0 - p0)


def epsilon_threshold(beta_e: float) -> float:
    """Largest de-excitation deficit for which the noisy swap round stays provably optimal.

    1 / (1 + e^{beta E} + e^{2 beta E}), evaluated as q^2 / (1 + q + q^2) with
    q = e^{-beta E}, which goes to 0 instead of overflowing at low temperature.
    """
    q = math.exp(-_beta_e(beta_e))
    return q * q / (1.0 + q + q * q)


def noisy_fixed_point(eps: float, beta_e: float) -> float:
    """Asymptotic ground population of the noisy swap protocol."""
    z = 1.0 + math.exp(-_beta_e(beta_e))
    denom = 2.0 - (1.0 - _deficit(eps)) * z
    if denom == 0.0:
        raise ValueError(f"no unique fixed point at eps={eps!r}, beta_e={beta_e!r}: "
                         "e^-beta_e rounds to 1, so with eps = 0 every p is a fixed point")
    return 1.0 - eps / denom


def noisy_ground_population(k: int, eps: float, beta_e: float, p0: float) -> float:
    """Closed-form ground population after k noisy swap rounds."""
    _ground_population(p0)
    _count(k)
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
    values = np.empty(_count(k) + 1)
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
    coherence = (lam - 1.0) * (x * lam - 1.0) * (q - p) * (p + q - 1.0)
    u = q * (x * lam + lam - 1.0) - lam
    return coherence - u * (u + 1.0)


@dataclass(frozen=True)
class DeterminantScan:
    """Minimizer of the post-round determinant over (q, lam), read off the boundary."""

    q_star: float
    lambda_star: float
    f_star: float
    lambda_max: float
    above_threshold: bool
    trivial_regime: bool


def to_determinant_scan(p: float, spectrum, lambda_max: float = 1.0) -> DeterminantScan:
    """Locate the determinant minimum over q in [1 - p, p] and lam in [0, lambda_max].

    The lam^2 coefficient is non-positive for every such q, so the minimum lies
    on lam = 0 or lam = lambda_max.  On lam = 0 the determinant is p(1 - p) for
    every q, so (1 - p, 0) stands for that edge; on lam = lambda_max it is a
    quadratic in q, minimal at q = 1 - p, at q = p, or at its vertex when the
    quadratic is convex and the vertex lies strictly inside.  The minimizer is
    the least of these candidates: least f, then least q, then least lam.
    `p` must lie in [1/2, 1].

    Whenever lambda_max exceeds the two-level threshold and p sits strictly
    below the protocol's fixed point (the nontrivial cooling regime), the
    minimum must land on the corner (q, lam) = (1 - p, lambda_max): the scan
    raises if another candidate lies lower, and a tie goes to the corner (near
    beta*E = 0 the corner's lead falls below rounding).  Where e^{-beta E}
    rounds to 1 and lambda_max = 1 the noisy swap leaves every p in place, so
    the regime is trivial.
    """
    _ground_population(p, 0.5)
    if not 0.0 < lambda_max <= 1.0:
        raise ValueError(f"lambda_max must lie in (0, 1], got {lambda_max}")
    beta_e = spectrum.beta * spectrum.gap
    threshold = 1.0 - epsilon_threshold(beta_e)
    above = lambda_max > threshold
    x = math.exp(-beta_e)
    # with lambda_max = 1 and x = 1 the noisy swap is p' = p, and noisy_fixed_point refuses
    trivial = (lambda_max == 1.0 and x == 1.0) or p >= noisy_fixed_point(1.0 - lambda_max, beta_e)

    candidates = [(1.0 - p, 0.0), (1.0 - p, lambda_max), (p, lambda_max)]
    # On lam = lambda_max, f = (a - c^2) q^2 + (c (2 lam - 1) - a) q + const.
    a = (lambda_max - 1.0) * (x * lambda_max - 1.0)
    c = x * lambda_max + lambda_max - 1.0
    curvature = a - c * c
    if curvature > 0.0:
        vertex = (a - c * (2.0 * lambda_max - 1.0)) / (2.0 * curvature)
        if 1.0 - p < vertex < p:
            candidates.append((vertex, lambda_max))
    values = [(float(thermal_contact_determinant(q, l, p, beta_e)), q, l) for q, l in candidates]
    f_star, q_star, l_star = min(values)

    if above and not trivial:
        if values[1][0] > f_star:  # values[1] is the corner
            raise RuntimeError(
                f"expected boundary minimizer (1-p, lambda_max), got ({q_star}, {l_star})"
            )
        f_star, q_star, l_star = values[1]
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
    1/(1 + e^{-beta E}): the qubit detailed-balance semigroup maps and their
    long-time limit, whose determinant 1 - lam (1 + e^{-beta E}) is >= 0
    (Kingman 1962).  The optimum either re-thermalizes fully (when the input
    is hotter than the bath) or does nothing.
    """
    _ground_population(p)
    beta_e = spectrum.beta * spectrum.gap
    thermal_ground = 1.0 / (1.0 + math.exp(-beta_e))
    return max(p, 1.0 - p, thermal_ground)


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
    if _count(n_ancillas, "n_ancillas") > 3:
        raise ValueError(f"supported ancilla counts are 0..3, got {n_ancillas}")
    p = as_population(p0, 2)
    tau = gibbs_state(spectrum)
    anc = np.array([1.0])
    for _ in range(n_ancillas):
        anc = np.kron(anc, tau)

    history = [p]
    for _ in range(_count(rounds)):
        joint = np.kron(p, anc)
        arranged = np.sort(joint)[::-1]
        p = arranged.reshape(2, -1).sum(axis=1)
        history.append(p)
    return ProtocolTrace(np.array(history))
