"""Physical realizations of the qubit cooling protocol on a truncated Fock space.

A single thermal bosonic mode is enough to implement the full population swap
exactly: the joint unitary exchanges |1, n-1> and |0, n> and leaves |0, 0>
alone, circulating populations so that the same mode can be reused round after
round with no reset.  A resonant exchange coupling only approximates that
unitary; its de-excitation probability for interaction angle s is
(1 - e^{-bE}) sum_n sin^2(s sqrt(n)) e^{-bE(n-1)}, which we optimize over s
and compare against the temperature-dependent ceiling.

Mode dissipation between interactions follows the diagonal rate equation
    dt_n = A(nbar+1)[(n+1) t_{n+1} - n t_n] + A nbar [n t_{n-1} - (n+1) t_n],
truncated with a reflecting top level so probability is conserved exactly and
the truncated thermal vector is an exact fixed point.

States are Fock-diagonal throughout.  The exchange coupling conserves total
excitation number, so one exchange applied to a diagonal joint state gives
exactly the populations computed here, and both marginals stay diagonal (the
test suite checks one such exchange against a dense matrix).  The exchange
does create coherences inside each sector {|0, n>, |1, n-1>}, and an atom
leaves the two cavities it crosses correlated; a later exchange feeds both
back into the populations, and the models here drop both.  They are exact
where a full reset follows every interaction; `atom_stream_sim` and
`jc_reuse_trace` say what each drops and how far that moves its table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .thermal_core import _BATCH_ELEMENTS, _beta_e, _count, _ground_population


@dataclass(frozen=True)
class FockTruncation:
    """Fock cutoff plus the thermal weight neglected above it."""

    n_max: int
    tail_bound: float

    def __post_init__(self) -> None:
        if (isinstance(self.n_max, bool) or not isinstance(self.n_max, (int, np.integer))
                or self.n_max < 1):
            raise ValueError(f"n_max must be an integer of at least 1, got {self.n_max!r}")
        if not 0.0 <= self.tail_bound <= 1.0:
            raise ValueError("tail bound must be a probability")

    @classmethod
    def thermal(cls, beta_e: float, n_max: int) -> "FockTruncation":
        return cls(n_max=n_max, tail_bound=math.exp(-beta_e * (n_max + 1)))

    @classmethod
    def for_rounds(cls, beta_e: float, rounds: int) -> "FockTruncation":
        """Cutoff such that the thermal tail beyond n_max - rounds stays below 1e-12.

        Each protocol round shifts the occupied ladder up by one level, so the
        cutoff has to leave that much headroom.
        """
        if beta_e <= 0:
            raise ValueError("need beta_e > 0 to bound the thermal tail")
        headroom = -math.log(1e-12) / beta_e
        if not math.isfinite(headroom):
            raise ValueError(f"beta_e={beta_e} leaves no finite cutoff for a 1e-12 thermal tail")
        return cls.thermal(beta_e, max(1, rounds - 1 + int(math.ceil(headroom))))


def anharmonic_level_table(gap: float, tau: float, n_max: int) -> np.ndarray:
    """Ladder with gaps gap * (1 - (n+1) tau^2); raises once a gap turns non-positive.

    A gap that is not positive, or a NaN or infinite gap or tau, raises ValueError.
    """
    if not (0.0 < gap < math.inf and math.isfinite(tau)):
        raise ValueError(f"gap must be positive and finite and tau finite, got gap={gap}, tau={tau}")
    n = np.arange(1, _count(n_max, "n_max") + 1)
    factors = 1.0 - n * tau**2
    if np.any(factors <= 0.0):
        raise ValueError(f"tau={tau} drives a gap non-positive below n_max={n_max}")
    return np.concatenate(([0.0], np.cumsum(gap * factors)))


@dataclass
class ModePopulations:
    """Diagonal Fock populations of one mode.

    A fresh thermal mode is the Gibbs distribution renormalized on the
    truncated ladder, the reflecting relaxation's exact fixed point; the
    weight it leaves out is counted once, as `FockTruncation.tail_bound`.
    """

    t: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        if self.t.ndim != 1 or self.t.size < 2:
            raise ValueError("mode populations must be a vector with at least two levels")
        if not np.isfinite(self.t).all():
            raise ValueError("mode populations must be finite")
        if np.any(self.t < -1e-12):
            raise ValueError("negative mode population")
        if self.t.sum() > 1.0 + 1e-9:
            raise ValueError("mode populations exceed unit probability")

    @classmethod
    def thermal(cls, beta_e: float, n_max: int) -> "ModePopulations":
        if not beta_e > 0.0:  # (1 - q) q^n / (1 - q^{n_max+1}) is 0/0 at q = e^{-beta_e} = 1
            raise ValueError(f"need beta_e > 0 for a thermal mode, got {beta_e}")
        if _count(n_max, "n_max") < 1:
            raise ValueError(f"n_max must be at least 1, got {n_max}")
        q = math.exp(-beta_e)  # expm1 keeps 1 - q and 1 - q^{n_max+1} accurate at small beta_e
        return cls(t=math.expm1(-beta_e) * q ** np.arange(n_max + 1) / math.expm1(-beta_e * (n_max + 1)))

    @property
    def deficit(self) -> float:
        return 1.0 - float(self.t.sum())


@dataclass
class JointDiagState:
    """Joint diagonal populations p[i, n] of a qubit and the truncated mode.

    Population pushed past the cutoff accumulates in `lost` and is never
    silently renormalized away.
    """

    p: np.ndarray
    lost: float = 0.0

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=float)
        if self.p.ndim != 2 or self.p.shape[0] != 2:
            raise ValueError("joint state must have shape (2, n_max+1)")

    @classmethod
    def product(cls, qubit, mode: ModePopulations) -> "JointDiagState":
        qubit = np.asarray(qubit, dtype=float)
        return cls(p=np.outer(qubit, mode.t))

    @property
    def qubit_marginal(self) -> np.ndarray:
        return self.p.sum(axis=1)

    @property
    def mode_marginal(self) -> np.ndarray:
        return self.p.sum(axis=0)

    @property
    def total(self) -> float:
        return float(self.p.sum())


def pauli_x(state: JointDiagState) -> JointDiagState:
    """Swap the qubit populations in every Fock sector."""
    return JointDiagState(p=state.p[::-1].copy(), lost=state.lost)


def u_beta_apply(state: JointDiagState) -> JointDiagState:
    """Exact swap unitary on populations: |1, n-1> <-> |0, n>, |0, 0> fixed.

    This is the sector rotation at cos^2 = 0.  The |1, n_max> population would
    move to |0, n_max+1>, outside the truncation; it is added to the
    lost-weight tracker instead.
    """
    out = _rotate_sectors(state, 0.0)
    out.lost += float(state.p[1, -1])
    out.p[1, -1] = 0.0
    return out


def reuse_protocol_trace(p0: float, trunc: FockTruncation, spectrum, rounds: int) -> np.ndarray:
    """Qubit ground population per round when the same thermal mode is reused throughout.

    The mode is prepared thermal once and never reset; each round applies the
    qubit flip followed by the exact swap unitary.  Raises when the requested
    number of rounds would push more than 1e-10 of probability past the cutoff.
    """
    beta_e = spectrum.beta * spectrum.gap
    if math.exp(-beta_e * (trunc.n_max - _count(rounds) + 1)) > 1e-10:
        raise ValueError(
            f"truncation n_max={trunc.n_max} too small for {rounds} rounds at beta*E={beta_e}"
        )
    mode = ModePopulations.thermal(beta_e, trunc.n_max)
    state = JointDiagState.product([_ground_population(p0), 1.0 - p0], mode)
    ground = np.empty(rounds + 1)
    ground[0] = state.qubit_marginal[0]
    for k in range(1, rounds + 1):
        state = u_beta_apply(pauli_x(state))
        ground[k] = state.qubit_marginal[0]
    return ground


def anharmonic_cooling_sums(tau: float, trunc: FockTruncation, spectrum, k: int) -> tuple[float, float]:
    """Cooling sums sum_{n<k} t_n for the anharmonic and the harmonic ladder.

    Both distributions are normalized over the same truncated ladder so the
    tau = 0 case is exactly degenerate.
    """
    if not 1 <= _count(k, "k") <= trunc.n_max + 1:
        raise ValueError(f"k must lie in [1, {trunc.n_max + 1}], got {k}")
    beta, gap = spectrum.beta, spectrum.gap
    levels_an = anharmonic_level_table(gap, tau, trunc.n_max)
    levels_h = gap * np.arange(trunc.n_max + 1)
    w_an = np.exp(-beta * levels_an)
    w_h = np.exp(-beta * levels_h)
    return float(w_an[:k].sum() / w_an.sum()), float(w_h[:k].sum() / w_h.sum())


def _ladder(beta_e: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Sector frequencies sqrt(n) and thermal weights (1 - e^{-bE}) e^{-bE (n-1)}, n = 1..n_max."""
    n = np.arange(1, n_max + 1)
    return np.sqrt(n), (1.0 - math.exp(-beta_e)) * np.exp(-beta_e * (n - 1))


def jc_deexcitation(s, spectrum, trunc: FockTruncation):
    """De-excitation probability of the resonant exchange coupling at angle s.

    Evaluates (1 - e^{-bE}) sum_{n>=1} sin^2(s sqrt(n)) e^{-bE (n-1)} truncated
    at n_max.  The sectors past n_max hold mode levels n_max and up, so the
    neglected weight is at most e^{-bE n_max}, e^{bE} times trunc.tail_bound;
    some angles come within 1% of it.  Accepts a scalar or an array of
    angles; a NaN or infinite angle raises ValueError.
    Each angle's terms are summed on their own, so its value does not depend
    on the shape of the call it arrives in.
    """
    roots, weights = _ladder(spectrum.beta * spectrum.gap, trunc.n_max)
    s_arr = np.asarray(s, dtype=float)
    if not np.isfinite(s_arr).all():
        raise ValueError(f"interaction angle must be finite, got {s}")
    values = (np.sin(np.multiply.outer(s_arr, roots)) ** 2 * weights).sum(axis=-1)
    return float(values) if np.isscalar(s) or s_arr.ndim == 0 else values


@dataclass(frozen=True)
class InteractionTime:
    s_star: float
    probability: float


def _golden_max(f, lo: float, hi: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):  # shrinks the bracket by 0.618**80, about 2e-17
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


# Width of a scan block in angle units: the bound loosens with the block's
# half-width r, not with its point count, so a coarser grid gets fewer points
# per block.
_SCAN_WIDTH = 0.128


def _linspace_at(start: float, stop: float, count: int):
    """Function giving the points of np.linspace(start, stop, count) at an array of indices.

    Uses linspace's own formula, index * step + start with
    step = (stop - start) / (count - 1) and the last index exactly `stop`, so
    the values are bitwise those of the built grid.  A step that underflows
    to 0 (where linspace switches formula) and a count that int64 indices
    cannot hold raise ValueError.
    """
    if count > np.iinfo(np.int64).max:
        raise ValueError(f"grid of [{start}, {stop}] has {count} points, more than int64 holds")
    step = (stop - start) / (count - 1)
    if step == 0.0:
        raise ValueError(f"grid step of [{start}, {stop}] over {count} points underflows to 0")

    def at(index: np.ndarray) -> np.ndarray:
        values = index * step + start
        values[index == count - 1] = stop
        return values

    return at


def _value_and_slope(s: np.ndarray, roots: np.ndarray,
                     weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(s) = sum_n w_n sin^2(s sqrt(n)) and f'(s) = sum_n w_n sqrt(n) sin(2 s sqrt(n))."""
    theta = np.multiply.outer(s, roots)
    return np.sin(theta) ** 2 @ weights, np.sin(2.0 * theta) @ (weights * roots)


# Share of the full ladder's curvature term (sum_n w_n n) r^2 that the weight
# dropped from the centre pass may add to a block bound.
_PREFIX_SHARE = 1.0 / 16.0


def optimize_interaction_time(spectrum, s_lo: float, s_hi: float, trunc: FockTruncation,
                              grid_step: float = 1e-3) -> InteractionTime:
    """Maximize the de-excitation probability over a bounded window of angles.

    The target f(s) = (1 - e^{-bE}) sum_n sin^2(s sqrt(n)) e^{-bE(n-1)} is an
    almost-periodic sum with many local maxima, so a global scan of the grid
    np.linspace(s_lo, s_hi, ceil((s_hi - s_lo) / grid_step) + 1) comes first;
    golden-section search then polishes the bracket around the best grid point.

    The scan returns exactly the dense-grid argmax (the first grid point of
    largest value) without evaluating the whole grid.  The grid is cut into
    blocks of consecutive points.  The centre pass evaluates only the first m
    ladder terms, f_m; a block with centre c and half-width r then holds no
    value above f_m(c) + |f_m'(c)| r + (sum_{n<=m} w_n n) r^2 + sum_{n>m} w_n,
    by Taylor's theorem with |f_m''| / 2 <= sum_{n<=m} w_n n and sin^2 <= 1
    for the dropped terms, plus a slack that covers float64 rounding.  m is
    the shortest prefix whose dropped weight is at most 1/16 of the full
    ladder's (sum_n w_n n) r^2 (8 of 41 terms at bE = 1).  Blocks go in runs
    of a fixed element budget, with a running lower bound (the largest value
    of a grid point evaluated so far): each run evaluates its block of best
    f_m(c) if that block's bound reaches the lower bound, then every block
    whose bound still reaches it.  A grid point's value does not depend on
    which points share its call (see `jc_deexcitation`), so any block size
    and run length reproduce the dense scan's values.

    Memory does not grow with the window: grid points are computed from their
    indices with linspace's formula (bitwise the same values), and every
    per-block array and angle-by-term matrix lives for one run of a fixed
    element budget.  The traced peak is about 2 MB on [0, 5000] and on
    [0, 50000] alike.  A window whose grid step underflows to 0, or whose grid
    or block indices overflow int64, raises ValueError.

    During the scan, ladder terms whose thermal weight sits below float64
    resolution are dropped (they cannot change a double); the refinement stage
    evaluates the full truncation.  Deterministic for fixed grid parameters.
    """
    if not (math.isfinite(s_lo) and math.isfinite(s_hi)):
        raise ValueError(f"angle window must be finite, got [{s_lo}, {s_hi}]")
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid_step must be finite and positive, got {grid_step}")
    if not s_lo < s_hi:
        raise ValueError("need s_lo < s_hi")
    beta_e = spectrum.beta * spectrum.gap
    if not beta_e > 0:
        raise ValueError(f"need beta_e > 0 to bound the scanned ladder, got {beta_e}")
    scan_cap = min(trunc.n_max, max(2, int(math.ceil(17.0 * math.log(10.0) / beta_e)) + 1))
    scan_trunc = FockTruncation.thermal(beta_e, scan_cap)
    roots, weights = _ladder(beta_e, scan_cap)
    count = int(math.ceil((s_hi - s_lo) / grid_step)) + 1
    grid = _linspace_at(s_lo, s_hi, count)

    block = max(1, int(_SCAN_WIDTH / grid_step))
    if count + block > np.iinfo(np.int64).max:
        raise ValueError(f"scan blocks of {block} points at grid_step={grid_step} "
                         f"overflow the int64 indices of a {count}-point grid")
    n_blocks = (count - 1) // block + 1
    # Float64 error of a computed f: the rounded arguments s sqrt(n) shift each
    # term by up to eps |s| sqrt(n), and the slope's by 2 eps |s| n (times r,
    # which is below 1 wherever the bound can prune at all); the sines and the
    # sums add a few eps per term.  Taken over the full ladder, so it also
    # covers the prefix and the rounding of the dropped weight.
    curvature = float(weights @ roots**2)
    s_abs = max(abs(s_lo), abs(s_hi))
    eps = np.finfo(float).eps
    slack = 1e-12 + 8.0 * eps * (s_abs * (float(weights @ roots) + 2.0 * curvature) + scan_cap)
    # dropped[m] = sum_{n>m} w_n; the prefix only has to make the bound prune,
    # so its length is set from the nominal half-width.
    dropped = np.append(np.cumsum(weights[::-1])[::-1], 0.0)
    share = _PREFIX_SHARE * curvature * (0.5 * (block - 1) * grid_step) ** 2
    m = 1 + int(np.argmax(dropped[1:] <= share))
    head_roots, head_weights = roots[:m], weights[:m]
    head_curvature = float(head_weights @ head_roots**2)
    head_slack = float(dropped[m]) + slack
    rows = max(1, _BATCH_ELEMENTS // scan_cap)
    run = max(1, _BATCH_ELEMENTS // m)

    def best_point(blocks: np.ndarray) -> tuple[float, int]:
        """Largest value over the points of ascending `blocks`, and minus its first grid index."""
        # Point j of the call lies at blocks[j // block] * block + j % block; only
        # the grid's last block can be short.
        total = (blocks.size - 1) * block + min(block, count - int(blocks[-1]) * block)
        best_i, best_v = 0, -1.0
        for start in range(0, total, rows):
            j = np.arange(start, min(start + rows, total))
            points = blocks[j // block] * block + j % block
            vals = jc_deexcitation(grid(points), spectrum, scan_trunc)
            i = int(np.argmax(vals))
            if vals[i] > best_v:
                best_i, best_v = int(points[i]), float(vals[i])
        return best_v, -best_i

    # (largest value evaluated so far, minus its first grid index): max() keeps
    # the dense scan's first-index argmax across runs.
    best = (-1.0, 0)
    for first in range(0, n_blocks, run):
        blocks = np.arange(first, min(first + run, n_blocks))
        starts = blocks * block
        firsts = grid(starts)
        lasts = grid(np.minimum(starts + block, count) - 1)
        centres = 0.5 * (firsts + lasts)
        radii = np.maximum(centres - firsts, lasts - centres)
        centre_value, centre_slope = _value_and_slope(centres, head_roots, head_weights)
        upper = (centre_value + np.abs(centre_slope) * radii + head_curvature * radii**2
                 + head_slack)
        k = int(np.argmax(centre_value))
        if upper[k] >= best[0]:
            best = max(best, best_point(blocks[k : k + 1]))
            upper[k] = -1.0  # already folded into best
        survivors = blocks[upper >= best[0]]
        if survivors.size:
            best = max(best, best_point(survivors))
    best_s = float(grid(np.array([-best[1]]))[0])
    lo = max(s_lo, best_s - grid_step)
    hi = min(s_hi, best_s + grid_step)
    s_star = _golden_max(lambda s: jc_deexcitation(s, spectrum, trunc), lo, hi)
    value = jc_deexcitation(s_star, spectrum, trunc)
    grid_value = jc_deexcitation(best_s, spectrum, trunc)
    if value < grid_value:
        s_star, value = best_s, grid_value
    return InteractionTime(s_star=s_star, probability=value)


def _split_at_log4_over_3(beta_bar, low, high):
    """low(b) for beta_bar below log(4)/3 and high(b) from there on.

    Each branch is evaluated only on its own side: the low branches hold
    e^{3b}, which overflows from beta_bar of about 237 on.
    """
    b = _beta_e(np.asarray(beta_bar, dtype=float))
    warm = b < math.log(4.0) / 3.0
    out = np.empty(b.shape)
    out[warm] = low(b[warm])
    out[~warm] = high(b[~warm])
    return float(out) if np.isscalar(beta_bar) or b.ndim == 0 else out


def upper_bound_G(beta_bar):
    """Temperature-dependent ceiling on the exchange-coupling de-excitation probability.

    Two branches meeting at beta_bar = log(4)/3.
    """
    return _split_at_log4_over_3(
        beta_bar,
        lambda b: (8.0 * np.exp(-b) - np.exp(2.0 * b) + np.exp(3.0 * b) + 8.0) / 16.0,
        lambda b: np.exp(-4.0 * b) - np.exp(-3.0 * b) + 1.0)


def asymptotic_upper_bound(beta_bar):
    """Ceiling on the asymptotic ground population reachable with the exchange coupling.

    The high branch 1/(e^b/(e^{4b}+1) + 1) is written without e^b, which
    overflows above beta_bar of about 709.8.
    """
    def low(b):
        eb = np.exp(b)
        return 1.0 / (eb + 16.0 * np.exp(2.0 * b) / (-16.0 * eb + np.exp(3.0 * b) - 8.0) + 1.0)

    return _split_at_log4_over_3(
        beta_bar, low, lambda b: 1.0 / (np.exp(-3.0 * b) / (1.0 + np.exp(-4.0 * b)) + 1.0))


@dataclass(frozen=True)
class CavityParams:
    """Exchange coupling g, photon loss rate and reservoir occupation of one cavity."""

    g: float
    loss_rate: float
    nbar: float

    def __post_init__(self) -> None:
        if not all(0.0 <= value < math.inf for value in (self.g, self.loss_rate, self.nbar)):
            raise ValueError("cavity parameters must be finite and non-negative")

    @classmethod
    def resonant(cls, g: float, loss_rate: float, beta_e: float) -> "CavityParams":
        """Cavity whose reservoir occupation is the Bose factor at beta * E = beta_e."""
        if not beta_e > 0:
            raise ValueError(f"need beta_e > 0 for a finite reservoir occupation, got {beta_e}")
        try:
            nbar = 1.0 / math.expm1(beta_e)
        except OverflowError:  # e^{beta_e} passes the largest double above beta_e ~ 709.78
            nbar = 0.0
        if nbar == math.inf:  # 1 / (e^{beta_e} - 1) passes the largest double below ~ 5.6e-309
            raise ValueError(f"reservoir occupation at beta_e={beta_e} overflows a double")
        return cls(g=g, loss_rate=loss_rate, nbar=nbar)


def _rate_generator(n_levels: int, loss_rate: float, nbar: float) -> np.ndarray:
    """Birth-death generator of the damped mode, reflecting at the top level.

    Down rates A(nbar+1) n, up rates A nbar (n+1); the up rate out of the top
    level is dropped so the truncated chain conserves probability and keeps
    the truncated thermal vector as its exact fixed point.
    """
    n = np.arange(n_levels)
    down = loss_rate * (nbar + 1.0) * n
    up = loss_rate * nbar * (n + 1.0)
    up[-1] = 0.0
    M = np.zeros((n_levels, n_levels))
    M[n[:-1], n[:-1] + 1] = down[1:]
    M[n[1:], n[1:] - 1] = up[:-1]
    M[n, n] = -(down + up)
    return M


def _rk4_propagator(generator: np.ndarray, h: float) -> np.ndarray:
    """One fixed step of the classic fourth-order scheme for a linear generator.

    For a constant linear system the four-stage update collapses to the
    degree-four Taylor polynomial of exp(h M), which we precompute once.
    """
    n = generator.shape[0]
    R = np.eye(n)
    for k in (4, 3, 2, 1):
        R = np.eye(n) + (h / k) * generator @ R
    return R


def _relaxation_steps(n_levels: int, loss_rate: float, nbar: float,
                      duration: float) -> tuple[int, np.ndarray | None]:
    """Step count N and transposed RK4 step matrix Rᵀ of a relaxation for a finite `duration`.

    Fixed fourth-order steps of at most 0.05 / (A (nbar+1) n_max), half the
    scheme's stability limit on the fastest decay rate of the truncated
    ladder.  N = 0 (and no matrix) when nothing relaxes: a zero wait or a
    zero loss rate.  Rᵀ is a C-contiguous copy, not a transposed view: with
    OpenBLAS's SkylakeX kernel, its default on AVX-512 hosts, a view is
    repacked on every small product, and one 61-level step takes about
    10.9 µs instead of 7.4 µs.  At the figures' 61 levels both layouts step
    the identity to the same bits; at 41 or 81 levels, and for a (2, n)
    stack from 41 levels up, that kernel rounds them differently in the
    last bits.  From about 121 levels the step is compute-bound and the
    layout buys nothing.
    """
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and non-negative, got {duration}")
    if duration == 0.0 or loss_rate == 0.0:
        return 0, None
    max_step = 0.05 / (loss_rate * (nbar + 1.0) * (n_levels - 1))
    if not (max_step > 0.0 and duration / max_step < math.inf):
        raise ValueError(f"a wait of {duration} at loss rate {loss_rate} and nbar={nbar} "
                         f"needs more RK4 steps than a double counts")
    steps = max(1, int(math.ceil(duration / max_step)))
    R = _rk4_propagator(_rate_generator(n_levels, loss_rate, nbar), duration / steps)
    return steps, np.ascontiguousarray(R.T)


def _stochastic_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.dot(b) with each row divided by its sum, so rounding cannot drift the row sums off 1."""
    out = a.dot(b)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _rethermalize_array(arr: np.ndarray, loss_rate: float, nbar: float,
                        duration: float) -> np.ndarray:
    """Relax each row of a (k, n_levels) stack for a finite `duration`: arr · (Rᵀ)^N.

    R and N are the step matrix and step count of `_relaxation_steps`.  The
    power is built by binary powering, at most 2 N.bit_length() products of
    the small C-contiguous matrix, then applied to the stack in one product.
    In exact arithmetic every row of every power sums to 1 (the generator's
    columns sum to 0), so dividing each product's rows by their sums removes
    only rounding.  Without it, the rounding of the first squarings grows
    about N-fold: a thermal row on 61 levels drifts by 2.6e-2 at t = 1e12.
    With it a thermal row stays within a few ulps at any wait, and the stack
    keeps its mass to rounding.  The bits differ from stepping the rows, which
    `_relaxation_propagator` still does.
    """
    steps, RT = _relaxation_steps(arr.shape[-1], loss_rate, nbar, duration)
    if not steps:
        return arr.copy()
    power = None
    while True:
        if steps & 1:
            power = RT if power is None else _stochastic_product(power, RT)
        steps >>= 1
        if not steps:
            return arr.dot(power)
        RT = _stochastic_product(RT, RT)


# Relaxation steps between two fixed-point checks: a check copies the stack
# twice, a step is one small BLAS product.
_BLOCK_STEPS = 256


@functools.lru_cache(maxsize=16)
def _relaxation_propagator(n_levels: int, loss_rate: float, nbar: float,
                           duration: float) -> np.ndarray:
    """Read-only matrix P such that stack.dot(P) relaxes each row of a stack for `duration`.

    P is the identity stepped N times through the step matrix of
    `_relaxation_steps`: each step is one BLAS product of the stack with the
    C-contiguous Rᵀ, written into a second buffer.  Steps run in blocks of
    `_BLOCK_STEPS`.  After a block whose last step returned its input bit for
    bit (bytes compared, so -0.0 and 0.0 differ), the loop stops: the step
    map is deterministic, so every remaining step would return that same
    array.

    It is not built by squaring: a squared or blocked product rounds
    differently and moves the atom-stream tables (fig5, fig9) by 1.2e-10,
    past their 1e-10 body tolerance.  The repeated waits of `atom_stream_sim`
    and `jc_reuse_trace` use it.
    """
    steps, RT = _relaxation_steps(n_levels, loss_rate, nbar, duration)
    a = np.eye(n_levels)
    if steps:
        a = a.dot(RT)
        b = np.empty_like(a)
        for done in range(1, steps, _BLOCK_STEPS):
            for _ in range(min(_BLOCK_STEPS, steps - done)):
                a.dot(RT, b)
                a, b = b, a
            if a.tobytes() == b.tobytes():
                break
    a.flags.writeable = False
    return a


def rethermalize_mode(mode: ModePopulations, params: CavityParams,
                      duration: float) -> ModePopulations:
    """Let the mode relax toward thermal occupation nbar for the given duration.

    One call of `_rethermalize_array`: the RK4 step matrix raised to the step
    count by repeated squaring, rows renormalized, so its cost grows with
    log(duration).
    """
    return ModePopulations(_rethermalize_array(mode.t[None, :], params.loss_rate, params.nbar,
                                               duration)[0])


def _rotate_sectors(state: JointDiagState, c2) -> JointDiagState:
    """Mix each excitation sector {|0, n>, |1, n-1>} with weight cos^2 = c2.

    `c2` is one value per sector n = 1..n_max or a scalar for all of them;
    |0, 0> and the orphaned top entry |1, n_max> stay in place.
    """
    p = state.p
    s2 = 1.0 - c2
    out = p.copy()
    upper = p[0, 1:]
    lower = p[1, :-1]
    out[0, 1:] = c2 * upper + s2 * lower
    out[1, :-1] = s2 * upper + c2 * lower
    return JointDiagState(p=out, lost=state.lost)


def jc_round(state: JointDiagState, g: float, t_int: float) -> JointDiagState:
    """Resonant exchange interaction for time t_int on the joint populations.

    Each excitation sector {|0, n>, |1, n-1>} rotates by the angle
    g * t_int * sqrt(n); |0, 0> is left alone, and the orphaned top entry
    |1, n_max> (whose partner lies past the cutoff) stays in place.  A NaN
    or infinite g * t_int raises ValueError.
    """
    angle = g * t_int
    if not math.isfinite(angle):
        raise ValueError(f"interaction angle must be finite, got g={g}, t_int={t_int}")
    n = np.arange(1, state.p.shape[1])
    return _rotate_sectors(state, np.cos(angle * np.sqrt(n)) ** 2)


def intensity_dependent_jc_round(state: JointDiagState, s: float) -> JointDiagState:
    """Exchange interaction whose rotation angle is s in every excitation sector.

    At s = pi/2 this reproduces the exact swap unitary on populations.  A NaN
    or infinite s raises ValueError.
    """
    if not math.isfinite(s):
        raise ValueError(f"interaction angle must be finite, got {s}")
    return _rotate_sectors(state, math.cos(s) ** 2)


def atom_stream_sim(params: CavityParams, n_atoms: int, t_int: float, t_wait: float,
                    trunc: FockTruncation, spectrum) -> np.ndarray:
    """Final ground populations of thermal atoms fired through two lossy cavities.

    Atoms and cavities start thermal at the qubit spectrum's beta * E.  Per
    atom: qubit flip, exchange interaction at angle params.g * t_int with
    cavity one, qubit flip, the same with cavity two.  Between two atoms both
    cavities dissipate for t_wait: one product of the (2, n_max+1) stack with
    that wait's `_relaxation_propagator`.  An infinite t_wait fully
    re-thermalizes the cavities between atoms; a NaN or negative t_wait, or a
    NaN or infinite angle, raises ValueError.

    Each cavity is carried as its own diagonal marginal, so the model drops
    the correlations, classical and quantum, that each atom leaves between
    the two cavities.  With a full reset between atoms nothing is dropped.
    Otherwise this is a modelling gap, not a rounding tolerance: against a
    full density-matrix reference (the exchange unitary and thermal Lindblad
    damping on the same truncated ladder) the fig5 table differs by up to
    2.1e-4 at ratio 1 and 6.9e-3 at ratio 0.1, most of it the classical
    correlation between the cavities.
    """
    if _count(n_atoms) < 1:
        raise ValueError("need at least one atom")
    beta_e = spectrum.beta * spectrum.gap
    x = math.exp(-beta_e)
    thermal_qubit = np.array([1.0, x]) / (1.0 + x)
    fresh = np.tile(ModePopulations.thermal(beta_e, trunc.n_max).t, (2, 1))
    cavities = fresh.copy()
    if t_wait != math.inf:
        P = _relaxation_propagator(trunc.n_max + 1, params.loss_rate, params.nbar, t_wait)
    finals = np.empty(n_atoms)
    for atom in range(n_atoms):
        if atom:
            cavities = fresh.copy() if t_wait == math.inf else cavities.dot(P)
        qubit = thermal_qubit
        for i, cavity in enumerate(cavities):
            qubit = qubit[::-1]
            joint = jc_round(JointDiagState(p=np.outer(qubit, cavity)), params.g, t_int)
            qubit = joint.qubit_marginal
            cavities[i] = joint.mode_marginal
        finals[atom] = qubit[0]
    return finals


def jc_reuse_trace(p0: float, t_int: float, t_wait: float, params: CavityParams,
                   trunc: FockTruncation, spectrum, rounds: int) -> np.ndarray:
    """Ground population per round for one qubit repeatedly coupled to one cavity.

    The mode starts thermal at the qubit spectrum's beta * E.  Each round:
    qubit flip, exchange interaction at angle params.g * t_int, then the mode
    dissipates for t_wait while keeping its classical correlations with the
    qubit (one product of both qubit sectors with that wait's
    `_relaxation_propagator`).  An infinite t_wait resets the mode to thermal
    and discards correlations; a NaN or negative t_wait, or a NaN or infinite
    angle, raises ValueError, even for zero rounds.

    Only the joint populations are carried, so the model drops the coherence
    that each exchange creates inside each sector {|0, n>, |1, n-1>}, which
    the next flip and exchange would feed back into the populations.  With
    an infinite t_wait nothing is dropped.  Otherwise this is a modelling
    gap, not a rounding tolerance: against a full density-matrix reference
    (as in `atom_stream_sim`) the fig8 table differs by up to 2.1e-2 at
    t_th = 0, 1.2e-4 at 0.5 and 1.1e-5 at 1.
    """
    mode = ModePopulations.thermal(spectrum.beta * spectrum.gap, trunc.n_max)
    state = JointDiagState.product([_ground_population(p0), 1.0 - p0], mode)
    ground = np.empty(_count(rounds) + 1)
    if not math.isfinite(params.g * t_int):
        raise ValueError(f"interaction angle must be finite, got g={params.g}, t_int={t_int}")
    if t_wait != math.inf:
        P = _relaxation_propagator(trunc.n_max + 1, params.loss_rate, params.nbar, t_wait)
    ground[0] = state.qubit_marginal[0]
    for k in range(1, rounds + 1):
        state = jc_round(pauli_x(state), params.g, t_int)
        if t_wait == math.inf:
            state = JointDiagState.product(state.qubit_marginal, mode)
        else:
            state = JointDiagState(p=state.p.dot(P), lost=state.lost)
        ground[k] = state.qubit_marginal[0]
    return ground
