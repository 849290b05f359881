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
    CompositeSpec,
    EnergySpectrum,
    _boltzmann_weights,
    _curve_elbows,
    _level_array,
    _most_active,
    _permutation_table,
    as_population,
    gibbs_state,
)

__all__ = [
    "ProtocolTrace",
    "NoiseSpec",
    "QubitThermalOp",
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
    """Populations of the target system after each round; row k is round k.

    `spec` carries the spectrum or composite space the trace was produced on.
    """

    label: str
    populations: np.ndarray
    spec: object | None = None

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
    X, Y = _curve_elbows(_most_active(spec.joint_population(p_system), spec), spec)
    heights = np.interp(spec._cooling_targets, X, Y)  # heights[0] = 0
    out = np.empty(spec.dim)
    out[spec._cooling_order] = heights[1:] - heights[:-1]
    return spec.system_marginal(out)


def run_optimal_protocol(p0, spec, rounds: int) -> ProtocolTrace:
    """Iterate the optimal round, refreshing the ancilla state every round."""
    spec = _as_composite(spec)
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    p = as_population(p0, spec.d)
    history = [p]
    for _ in range(rounds):
        p = optimal_round(p, spec)
        history.append(p)
    return ProtocolTrace(label="optimal", populations=np.array(history), spec=spec)


@dataclass(frozen=True)
class OracleRound:
    """Brute-force single-round envelope over all unitary arrangements and extremal maps.

    `ground` is the exhaustive maximum of the system ground population.
    `partial_sums[l]` is the maximum over all candidates of the descending
    partial sum of the first l+1 system marginal entries.
    """

    ground: float
    partial_sums: np.ndarray

    @property
    def best_sorted(self) -> np.ndarray:
        """System marginal (sorted descending) achieving every partial-sum maximum."""
        return np.diff(self.partial_sums, prepend=0.0)


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


def oracle_optimal_round(p_system, spec, max_dim: int = 8) -> OracleRound:
    """Exhaustively maximize the round outcome over extremal unitaries and thermalizations.

    Every permutation of the joint populations (the extremal unitary actions
    on diagonal states) is enumerated explicitly.  For each arrangement, the
    best capture that any extremal dephasing thermalization can place into a
    set of joint levels equals the height of the arrangement's
    thermo-majorization curve at the set's total Boltzmann weight, so the
    inner enumeration collapses to curve evaluations.  That geometric identity
    is cross-checked against literal matrix enumeration in the test suite.
    """
    spec = _as_composite(spec)
    n = spec.dim
    if n > max_dim:
        raise ValueError(f"joint dimension {n} exceeds the enumeration guard {max_dim}")
    joint = spec.joint_population(p_system)
    X, Y = _curve_elbows(joint[_permutation_table(n)], spec)

    # Curve height of every arrangement at the cumulative weight of the l+1
    # lowest system levels (the largest-weight level set of that size).
    group_w = _boltzmann_weights(spec).reshape(spec.d, spec.r).sum(axis=1)
    partial = np.array([np.minimum(_stacked_curve_heights(X, Y, x_target), 1.0).max()
                        for x_target in np.cumsum(group_w)])
    return OracleRound(ground=float(partial[0]), partial_sums=partial)


def beta_swap_matrix(i: int, j: int, spectrum) -> np.ndarray:
    """Two-level extremal map: full decay j -> i, excitation i -> j with weight e^{-beta (E_j - E_i)}."""
    d = len(spectrum.levels)
    if not (0 <= i < j < d):
        raise ValueError(f"need 0 <= i < j < {d}, got i={i}, j={j}")
    levels = _level_array(spectrum)
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
    levels = _level_array(spectrum)
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
    for _ in range(rounds):
        p = qudit_ladder_round(p, spectrum)
        history.append(p)
    return ProtocolTrace(label="ladder", populations=np.array(history), spec=spectrum)


def ideal_ground_population(k: int, beta_e: float, p0: float) -> float:
    """Ground population of the qubit full-swap protocol after k rounds."""
    return 1.0 - math.exp(-k * beta_e) * (1.0 - p0)


def ladder_ground_population(blocks: int, spectrum, p0: float) -> float:
    """Ground population after `blocks` passes of d-1 ladder rounds each."""
    spectrum_omega = spectrum.levels[-1] - spectrum.levels[0]
    return 1.0 - math.exp(-blocks * spectrum.beta * spectrum_omega) * (1.0 - p0)


def epsilon_threshold(beta_e: float) -> float:
    """Largest de-excitation deficit for which the noisy swap round stays provably optimal."""
    return 1.0 / (1.0 + math.exp(beta_e) + math.exp(2.0 * beta_e))


@dataclass(frozen=True)
class NoiseSpec:
    """De-excitation deficit of an imperfect swap, with its optimality-range flag."""

    epsilon: float
    within_bound: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @classmethod
    def for_qubit(cls, epsilon: float, spectrum) -> "NoiseSpec":
        beta_e = spectrum.beta * spectrum.gap
        return cls(epsilon=float(epsilon), within_bound=epsilon <= epsilon_threshold(beta_e))


@dataclass(frozen=True)
class QubitThermalOp:
    """Qubit thermal operation parametrized by transfer weight and coherence retention.

    `lam` is the excited-to-ground transfer probability; `c` scales the
    off-diagonal element and is capped by complete positivity at
    sqrt((1 - lam e^{-beta E})(1 - lam)).
    """

    lam: float
    c: float = 0.0

    def validate(self, beta_e: float) -> "QubitThermalOp":
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        cap = math.sqrt((1.0 - self.lam * math.exp(-beta_e)) * (1.0 - self.lam))
        if not 0.0 <= self.c <= cap + 1e-12:
            raise ValueError(f"c={self.c} outside complete-positivity cap {cap}")
        return self

    def population_matrix(self, beta_e: float) -> np.ndarray:
        x = math.exp(-beta_e)
        return np.array([[1.0 - self.lam * x, self.lam], [self.lam * x, 1.0 - self.lam]])


def noisy_fixed_point(eps: float, beta_e: float) -> float:
    """Asymptotic ground population of the noisy swap protocol."""
    z = 1.0 + math.exp(-beta_e)
    denom = 2.0 - (1.0 - eps) * z
    if denom == 0.0:
        raise ValueError("degenerate case beta_e = 0, eps = 0 has no fixed point")
    return 1.0 - eps / denom


def noisy_ground_population(k: int, eps: float, beta_e: float, p0: float) -> float:
    """Closed-form ground population after k noisy swap rounds."""
    z = 1.0 + math.exp(-beta_e)
    ratio = (1.0 - eps) * z - 1.0
    if 2.0 - (1.0 - eps) * z == 0.0:
        return p0
    star = noisy_fixed_point(eps, beta_e)
    return star - ratio**k * (star - p0)


def epsilon_noisy_trace(p0: float, eps, spectrum, k: int) -> np.ndarray:
    """Iterate the noisy swap recursion p' = (1 - lam e^{-beta E})(1 - p) + lam p.

    Above the optimality threshold the recursion is still well defined; a
    warning flags that the round is no longer provably the best available.
    """
    if isinstance(eps, NoiseSpec):
        noise = eps
    else:
        noise = NoiseSpec.for_qubit(float(eps), spectrum)
    if not noise.within_bound:
        warnings.warn(
            "epsilon exceeds the optimality threshold; evaluating the recursion anyway",
            stacklevel=2,
        )
    beta_e = spectrum.beta * spectrum.gap
    lam = 1.0 - noise.epsilon
    x = math.exp(-beta_e)
    values = np.empty(k + 1)
    values[0] = p0
    p = p0
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


def to_determinant_scan(
    p: float,
    spectrum,
    lambda_max: float = 1.0,
    grid_step: float = 1e-3,
    refine_factor: int = 10,
) -> DeterminantScan:
    """Locate the determinant minimum on a coarse-to-fine (q, lam) grid.

    Whenever lambda_max exceeds the two-level threshold and p sits strictly
    below the protocol's fixed point (the nontrivial cooling regime), the
    minimum must land on the corner (q, lam) = (1 - p, lambda_max); the scan
    raises if the grid disagrees.
    """
    if p < 0.5:
        raise ValueError(f"ground population must satisfy p >= 1/2, got {p}")
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
        f = thermal_contact_determinant(qs[:, None], ls[None, :], p, beta_e)
        flat = int(np.argmin(f))
        iq, il = np.unravel_index(flat, f.shape)
        return float(qs[iq]), float(ls[il]), float(f[iq, il])

    q0, l0, _ = scan(1.0 - p, p, 0.0, lambda_max, grid_step)
    fine = grid_step / refine_factor
    q_lo = max(1.0 - p, q0 - grid_step)
    q_hi = min(p, q0 + grid_step)
    l_lo = max(0.0, l0 - grid_step)
    l_hi = min(lambda_max, l0 + grid_step)
    q_star, l_star, f_star = scan(q_lo, q_hi, l_lo, l_hi, fine)

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
    beta_e = spectrum.beta * spectrum.gap
    thermal_ground = 1.0 / (1.0 + math.exp(-beta_e))
    return max(p, 1.0 - p, thermal_ground)


def markovian_scan(p: float, spectrum, n_grid: int = 10_000) -> float:
    """Grid version of markovian_best: maximize over the allowed contact weights."""
    beta_e = spectrum.beta * spectrum.gap
    x = math.exp(-beta_e)
    lam_cap = 1.0 / (1.0 + x)
    q = max(p, 1.0 - p)
    lams = np.linspace(0.0, lam_cap, n_grid)
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
    for _ in range(rounds):
        joint = np.kron(p, anc)
        arranged = np.sort(joint)[::-1]
        p = arranged.reshape(2, -1).sum(axis=1)
        history.append(p)
    return ProtocolTrace(label=f"ppa{n_ancillas}", populations=np.array(history), spec=spectrum)
