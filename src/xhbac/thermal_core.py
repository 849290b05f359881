"""Thermo-majorization machinery for finite-level systems in contact with a heat bath.

Populations are plain numpy arrays over energy eigenstates.  A state p can be
pushed around by dephasing thermalizations, which act on populations as
Gibbs-stochastic matrices (column-stochastic, thermal state fixed).  The set of
reachable populations is a polytope whose extremal points are produced by the
beta-permutation maps built here.

Everything in this module is a pure function of immutable inputs; nothing
mutates its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "EnergySpectrum",
    "CompositeSpec",
    "ThermoCurve",
    "ExtremalPointSet",
    "GibbsStochasticCheck",
    "as_population",
    "gibbs_state",
    "beta_order",
    "thermo_curve",
    "thermo_majorizes",
    "beta_permutation",
    "extremal_points",
    "maximally_active",
    "beta_opt_alpha",
    "verify_gibbs_stochastic",
]

#: Default absolute tolerance for curve comparisons and matrix verification.
BASE_TOLERANCE = 1e-12
#: Relative tolerance used when comparing thermo-majorization curves.
CURVE_RTOL = 1e-9
#: Largest temporary array, in elements, that the grid scans and the exhaustive
#: oracle build at once (0.5 MB of float64); larger inputs stream in batches.
_BATCH_ELEMENTS = 1 << 16


class _BoltzmannCache:
    """Boltzmann weights, beta-order scale and energy ranks, computed once per (frozen) spectrum."""

    @cached_property
    def _boltzmann(self) -> np.ndarray:
        """Unnormalized weights e^{-beta E_i}; must stay strictly positive."""
        w = np.exp(-self.beta * np.asarray(self.levels, dtype=float))
        if np.any(w <= 0.0) or np.any(~np.isfinite(w)):
            raise ValueError("Boltzmann weight under/overflow; beta*E spread too large")
        w.flags.writeable = False
        return w

    @cached_property
    def _order_scale(self) -> np.ndarray:
        """e^{beta (E_i - E_max)}: p_i times this is the beta-order key of level i."""
        e = np.asarray(self.levels, dtype=float)
        scale = np.exp(self.beta * (e - e.max()))
        scale.flags.writeable = False
        return scale

    @cached_property
    def _boltzmann_floats(self) -> tuple[float, ...]:
        """`_boltzmann` as plain floats, for the single-row curve kernel."""
        return tuple(self._boltzmann.tolist())

    @cached_property
    def _order_scale_floats(self) -> tuple[float, ...]:
        """`_order_scale` as plain floats, for the single-row curve kernel."""
        return tuple(self._order_scale.tolist())

    @cached_property
    def _energy_rank(self) -> tuple[int, ...]:
        """Position of each level in the ascending energy order, ties by index."""
        return tuple(np.argsort(np.argsort(self.levels, kind="stable")).tolist())


@dataclass(frozen=True)
class EnergySpectrum(_BoltzmannCache):
    """Energy levels E_0 <= ... <= E_{d-1} plus the bath inverse temperature.

    Only the products beta*E_i ever enter the math, so the units of `levels`
    and `beta` just have to cancel.
    """

    levels: tuple[float, ...]
    beta: float

    def __post_init__(self) -> None:
        levels = tuple(float(e) for e in np.atleast_1d(np.asarray(self.levels, dtype=float)))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "beta", float(self.beta))
        if len(levels) < 1:
            raise ValueError("spectrum needs at least one level")
        if any(a > b for a, b in zip(levels, levels[1:])):
            raise ValueError("energy levels must be non-decreasing")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def gap(self) -> float:
        """Single gap of a two-level spectrum."""
        if self.dim != 2:
            raise ValueError(f"gap is only defined for qubits, dim={self.dim}")
        return self.levels[1] - self.levels[0]


@dataclass(frozen=True)
class CompositeSpec(_BoltzmannCache):
    """System plus optional ancilla, with joint levels in (system, ancilla) lex order.

    The joint level table E_i + E_a is generally not sorted; all core
    operations only read Boltzmann factors per level, so that is fine.  The
    pair (i, a) lives at joint index i*r + a.
    """

    system: EnergySpectrum
    ancilla: EnergySpectrum | None = None
    ancilla_population: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.system.dim < 2:
            raise ValueError("system must have at least two levels")
        if self.ancilla is not None and self.ancilla.beta != self.system.beta:
            raise ValueError("system and ancilla must share the same beta")
        if self.ancilla_population is not None:
            if self.ancilla is None:
                raise ValueError("ancilla population given without an ancilla spectrum")
            pop = _population_row(self.ancilla_population, self.ancilla.dim)
            object.__setattr__(self, "ancilla_population", tuple(pop))

    @property
    def beta(self) -> float:
        return self.system.beta

    @cached_property
    def levels(self) -> tuple[float, ...]:
        if self.ancilla is None:
            return self.system.levels
        return tuple(float(x) for x in np.add.outer(self.system.levels, self.ancilla.levels).ravel())

    @property
    def d(self) -> int:
        return self.system.dim

    @property
    def r(self) -> int:
        return 1 if self.ancilla is None else self.ancilla.dim

    @property
    def dim(self) -> int:
        return self.d * self.r

    @cached_property
    def _ancilla_start(self) -> tuple[float, ...] | None:
        if self.ancilla is None or self.ancilla_population is not None:
            return self.ancilla_population
        return tuple(gibbs_state(self.ancilla).tolist())

    @cached_property
    def _cooling_rank(self) -> tuple[int, ...]:
        """Position of each joint level in beta_opt_alpha(d, r), the round's target order."""
        return tuple(np.argsort(beta_opt_alpha(self.d, self.r)).tolist())

    @cached_property
    def _cooling_targets(self) -> tuple[float, ...]:
        """0, then the cumulative Boltzmann weight in beta_opt_alpha(d, r)."""
        return (0.0,) + tuple(np.cumsum(self._boltzmann[beta_opt_alpha(self.d, self.r)]).tolist())

    def joint_population(self, p_system: Sequence[float]) -> np.ndarray:
        p = as_population(p_system, self.d)
        anc = self._ancilla_start
        return p.copy() if anc is None else np.multiply.outer(p, anc).ravel()

    def system_marginal(self, joint: np.ndarray) -> np.ndarray:
        joint = np.asarray(joint, dtype=float)
        if joint.shape != (self.dim,):
            raise ValueError(f"expected joint vector of length {self.dim}")
        return joint.reshape(self.d, self.r).sum(axis=1)


def _population_row(p, dim: int | None = None) -> list[float]:
    """Validate a probability vector and return it as plain floats, entries clamped at 0."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"population must be a vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.size}")
    row = arr.tolist()
    lowest = min(row, default=0.0)
    if lowest < -1e-12:
        raise ValueError(f"negative population entry: min={lowest}")
    total = sum(row)
    if not abs(total - 1.0) <= 1e-9:  # also rejects NaN and inf entries
        raise ValueError(f"population must sum to 1, got {total}")
    return row if lowest > 0.0 else [x if x > 0.0 else 0.0 for x in row]  # -0.0 becomes 0.0


def _ground_population(p: float, lowest: float = 0.0) -> float:
    """A qubit ground population; NaN or a value outside [lowest, 1] raises ValueError."""
    if not lowest <= p <= 1.0:
        raise ValueError(f"ground population must lie in [{lowest:g}, 1], got {p}")
    return p


def _round_count(k: int) -> int:
    """A number of rounds (or blocks of rounds); anything but an integer >= 0 raises ValueError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"round count must be a non-negative integer, got {k!r}")
    return k


def _beta_e(beta_e):
    """A product beta*E, or an array of them; NaN or a negative value raises ValueError."""
    if isinstance(beta_e, (int, float)):  # a plain comparison: numpy's costs ~100x on a scalar
        ok = beta_e >= 0.0
    else:
        ok = np.all(np.greater_equal(beta_e, 0.0))
    if not ok:
        raise ValueError(f"beta*E must be non-negative, got {beta_e}")
    return beta_e


def as_population(p, dim: int | None = None) -> np.ndarray:
    """Validate and return a probability vector as a float array."""
    return np.array(_population_row(p, dim))


def gibbs_state(spectrum) -> np.ndarray:
    """Normalized thermal populations for the given spectrum."""
    e = np.asarray(spectrum.levels, dtype=float)
    w = np.exp(-spectrum.beta * (e - e.min()))
    return w / w.sum()


def beta_order(p, spectrum) -> np.ndarray:
    """Permutation sorting p_i * e^{beta E_i} into non-increasing order.

    Returned as position -> level indices.  Keys within a relative 1e-12 of
    each other count as tied and go to the lower original index; without the
    tolerance an exactly thermal state would pick up a noise-driven order,
    since e^{-x} e^{x} does not round-trip in floating point.  Tied keys have
    equal curve slopes, so the choice never changes the curve.
    """
    p = as_population(p, len(spectrum.levels))
    keys = p * spectrum._order_scale
    order = np.argsort(-keys, kind="stable")
    ranked = keys[order]
    out = np.empty_like(order)
    start = 0
    for i in range(1, p.size + 1):
        if i == p.size or ranked[i] < ranked[start] * (1.0 - 1e-12):
            out[start:i] = np.sort(order[start:i])
            start = i
    return out


def _as_permutation(perm, dim: int) -> np.ndarray:
    arr = np.asarray(perm, dtype=int)
    if arr.shape != (dim,) or not np.array_equal(np.sort(arr), np.arange(dim)):
        raise ValueError(f"not a permutation of range({dim}): {perm}")
    return arr


@dataclass(frozen=True)
class ThermoCurve:
    """Piecewise-linear concave curve of cumulative Gibbs weight vs cumulative population."""

    xs: np.ndarray  # d+1 strictly increasing abscissae, from 0 to the partition sum
    ys: np.ndarray  # d+1 non-decreasing ordinates, from 0 to 1

    @property
    def partition(self) -> float:
        return float(self.xs[-1])

    def height(self, x: float) -> float:
        tol = max(BASE_TOLERANCE, 1e-12 * self.partition)
        if not -tol <= x <= self.partition + tol:  # also rejects NaN
            raise ValueError(f"x={x} outside curve domain [0, {self.partition}]")
        return float(np.interp(x, self.xs, self.ys))

    def heights(self, xs) -> np.ndarray:
        return np.interp(np.asarray(xs, dtype=float), self.xs, self.ys)


def _row_elbows(p: list[float], spectrum) -> tuple[list[float], list[float]]:
    """Elbows (xs, ys) of the curve of one validated row, as d+1 plain floats each.

    xs and ys are the cumulative Boltzmann weight and population in beta-order,
    from 0.  On rows this short, a Python loop beats numpy's per-call cost and
    gives the same bits: a stable sort on the same keys, and each elbow adds
    to the one before it, in `np.cumsum`'s order.
    """
    w, scale = spectrum._boltzmann_floats, spectrum._order_scale_floats
    xs, ys = [0.0], [0.0]
    for i in sorted(range(len(p)), key=lambda i: -(p[i] * scale[i])):
        xs.append(xs[-1] + w[i])
        ys.append(ys[-1] + p[i])
    return xs, ys


def _row_heights(targets, xs: list[float], ys: list[float]) -> list[float]:
    """`np.interp(targets, xs, ys)` for ascending targets >= xs[0], in one merge pass.

    Same formula and rules: a target on an elbow (the last of a run of equal
    abscissae) or past the last one takes that elbow's height.
    """
    out = []
    last = len(xs) - 1
    j = 0
    for x in targets:
        while j < last and xs[j + 1] <= x:
            j += 1
        if j == last or xs[j] == x:
            out.append(ys[j])
        else:
            out.append((ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + ys[j])
    return out


def _curve_elbows(rows: np.ndarray, spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Elbows of the thermo-majorization curves of a (k, d) stack of validated rows.

    Returns (X, Y), each of shape (k, d+1): per row, what `_row_elbows`
    returns.  Levels with tied keys may come in either order; tied keys have
    equal slopes, so the curve is the same.

    The stack (the oracle's n! arrangements) is sorted and accumulated
    level-major, so each step runs once over all k rows: X and Y are
    transposed views of C-contiguous (d+1, k) arrays, which
    `_stacked_curve_heights` reads with flat-index gathers.  The rows
    accumulate with one vector add per level, in the order of a cumsum.
    """
    w = spectrum._boltzmann
    k, d = rows.shape
    keys = (rows * spectrum._order_scale).T
    np.negative(keys, out=keys)
    order = np.argsort(keys, axis=0, kind="stable")  # order[j]: each row's level of rank j
    del keys
    elbows = np.empty((2, d + 1, k))  # X and Y, level-major
    elbows[:, 0] = 0.0
    elbows[0, 1:] = w[order]
    order += np.arange(0, k * d, d)  # flat indices into rows
    elbows[1, 1:] = rows.ravel()[order]
    steps = elbows[:, 1:]
    for j in range(1, d):
        steps[:, j] += steps[:, j - 1]
    X, Y = elbows
    return X.T, Y.T


def thermo_curve(p, spectrum) -> ThermoCurve:
    """Elbow points (sum of e^{-beta E}, sum of p) accumulated in beta-order."""
    xs, ys = _row_elbows(_population_row(p, len(spectrum.levels)), spectrum)
    return ThermoCurve(np.array(xs), np.array(ys))


def thermo_majorizes(p, q, spectrum, atol: float = BASE_TOLERANCE) -> bool:
    """True when the curve of p is nowhere below the curve of q.

    Checking the elbow abscissae of both curves suffices because both are
    piecewise linear.  Equality within tolerance (the larger of `atol` and
    CURVE_RTOL times the height) counts as majorization, so the relation is
    reflexive under floating point.  `atol` must be finite and non-negative.
    """
    if not 0.0 <= atol < math.inf:  # also rejects NaN
        raise ValueError(f"atol must be finite and non-negative, got {atol}")
    dim = len(spectrum.levels)
    xp, yp = _row_elbows(_population_row(p, dim), spectrum)
    xq, yq = _row_elbows(_population_row(q, dim), spectrum)
    xs = sorted(xp + xq)  # the union of both elbow sets
    for a, b in zip(_row_heights(xs, xp, yp), _row_heights(xs, xq, yq)):
        if not b <= a + max(atol, CURVE_RTOL * abs(a)):
            return False
    return True


def beta_permutation(pi, alpha, spectrum) -> np.ndarray:
    """Extremal Gibbs-stochastic matrix mapping beta-order pi states onto order alpha.

    The Boltzmann weights are laid end to end on one line, once in pi-order
    (the columns) and once in alpha-order (the rows), both ending at one
    shared partition sum; entry (m, k) is the overlap of row m's interval
    with column k's, divided by column k's length.  A weight below the
    float64 resolution of the running sum leaves its column without length;
    such a spectrum, like one whose sum overflows, is refused with
    ValueError.  The result is returned in the natural level basis.
    """
    w = spectrum._boltzmann
    d = w.size
    pi = _as_permutation(pi, d)
    alpha = _as_permutation(alpha, d)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is refused below
        cols = np.concatenate(([0.0], np.cumsum(w[pi])))
        rows = np.concatenate(([0.0], np.cumsum(w[alpha])))
        length = np.diff(cols)
    rows[-1] = cols[-1]
    if not np.all((0.0 < length) & (length < math.inf)):
        raise ValueError("Boltzmann weights do not fit one float64 partition sum; beta*E spread too large")
    overlap = np.minimum.outer(rows[1:], cols[1:]) - np.maximum.outer(rows[:-1], cols[:-1])
    P = np.empty((d, d))
    P[np.ix_(alpha, pi)] = np.maximum(overlap, 0.0) / length
    return P


def maximally_active(p, spectrum) -> np.ndarray:
    """Populations sorted ascending and assigned to energies ascending.

    This is the most energetic arrangement on the unitary orbit of a diagonal
    state, and it thermo-majorizes every other arrangement.
    """
    return np.sort(as_population(p, len(spectrum.levels)))[list(spectrum._energy_rank)]


def beta_opt_alpha(d: int, r: int = 1) -> np.ndarray:
    """Target order for the cooling round: pairs (0,r-1)..(0,0), (1,r-1)..., (d-1,0).

    Position m holds a joint index; all system-ground pairs come first (with
    the ancilla index descending inside each block), so the extremal map
    pushes as much population as possible toward the system ground state.
    """
    if d < 2 or r < 1:
        raise ValueError(f"need d >= 2 and r >= 1, got d={d}, r={r}")
    return np.array([i * r + (r - 1 - j) for i in range(d) for j in range(r)], dtype=np.intp)


@dataclass(frozen=True)
class ExtremalPointSet:
    """Deduplicated extremal candidates plus the raw counts.

    For degenerate spectra the deduplicated set may still be a strict superset
    of the polytope's vertex set; both counts are surfaced so callers can see
    how much collapsing happened, and no exactness is claimed.
    """

    points: np.ndarray
    n_orders: int
    n_distinct: int


@lru_cache(maxsize=8)
def _permutation_table(n: int) -> np.ndarray:
    """Every permutation of range(n) as a row, in lexicographic order (read-only).

    Refuses n above 8, the enumeration guard of `extremal_points` and
    `oracle_optimal_round`: a time and memory limit, not one of the method.
    At n = 9 an `extremal_points` call took 1.2-1.5 s and 200-235 MB peak RSS
    and an oracle call 0.25-0.3 s and 88 MB (2-vCPU Xeon), and each further
    level multiplies both by about n.

    Built up from the table of range(m-1): the block of rows that starts with
    f goes on with a permutation of the other m-1 values, which is a row of
    the smaller table with every entry from f up raised by one.
    """
    if n > 8:
        raise ValueError(f"dimension {n} exceeds the factorial-enumeration guard 8")
    table = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, n + 1):
        first = np.arange(m)
        rest = table + (table >= first[:, None, None])  # (m, (m-1)!, m-1)
        count = m * len(table)
        table = np.concatenate((np.repeat(first, len(table))[:, None],
                                rest.reshape(count, m - 1)), axis=1)
    table.flags.writeable = False
    return table


def _merge_images(candidates: np.ndarray, tol: float) -> np.ndarray:
    """Rows of `candidates` left after merging rows that lie within `tol` of a kept row.

    Rows that round to the same cell of a grid of spacing `tol` merge into the
    cell's first row.  Rows equal up to rounding can still fall on either side
    of a cell edge, so a cell whose first row lies within BASE_TOLERANCE (or
    `tol`, if smaller) of an earlier kept cell's first row is folded into that
    cell when all of its rows lie within `tol` of that first row.
    """
    _, first, cell = np.unique(np.rint(candidates / tol), axis=0,
                               return_index=True, return_inverse=True)
    reps = candidates[first]
    by_cell = np.argsort(cell, kind="stable")
    starts = np.searchsorted(cell[by_cell], np.arange(len(reps)))
    low = np.minimum.reduceat(candidates[by_cell], starts)
    high = np.maximum.reduceat(candidates[by_cell], starts)

    # Pairs of first rows within `near` of each other lie within
    # 2 * near * sum(weights) along this generic projection.
    near = min(tol, BASE_TOLERANCE)
    weights = np.sqrt(np.arange(2.0, reps.shape[1] + 2.0))
    proj = reps @ weights
    order = np.argsort(proj, kind="stable")
    reach = np.searchsorted(proj[order], proj[order] + 2.0 * near * weights.sum(), side="right")
    counts = reach - np.arange(len(reps)) - 1
    lo = np.repeat(np.arange(len(reps)), counts)
    hi = lo + 1 + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = np.minimum(order[lo], order[hi]), np.maximum(order[lo], order[hi])
    fits = (np.max(np.abs(reps[a] - reps[b]), axis=1) < near) & np.all(
        (high[b] - reps[a] < tol) & (reps[a] - low[b] < tol), axis=1)
    kept = np.ones(len(reps), dtype=bool)
    for j, i in sorted(zip(b[fits].tolist(), a[fits].tolist())):
        if kept[i]:
            kept[j] = False
    return reps[kept]


def extremal_points(p, spectrum, dedup_tol: float = 1e-10) -> ExtremalPointSet:
    """Apply every extremal map for the beta-order of p and deduplicate the images.

    The map onto order alpha sends p to the population whose cumulative sums
    in alpha-order are the heights of p's thermo-majorization curve at
    cumsum(w[alpha]), so every image is read off one curve, for all d! orders
    at once, without building a matrix.  Images that lie within `dedup_tol`
    of a kept image are merged into it (see `_merge_images`); `dedup_tol`
    below machine epsilon is refused, since a grid that fine cannot separate
    populations.  Refuses d above 8, since the orders number d! (see
    `_permutation_table`).
    """
    p = _population_row(p, len(spectrum.levels))
    perms = _permutation_table(len(p))
    if not dedup_tol >= np.finfo(float).eps:
        raise ValueError(f"dedup_tol must be at least machine epsilon, got {dedup_tol}")
    X, Y = _row_elbows(p, spectrum)
    heights = np.interp(np.cumsum(spectrum._boltzmann[perms], axis=1), X, Y)
    candidates = np.empty(perms.shape)
    np.put_along_axis(candidates, perms, np.diff(heights, axis=1, prepend=0.0), axis=1)
    points = _merge_images(candidates, dedup_tol)
    return ExtremalPointSet(points=points, n_orders=len(perms), n_distinct=len(points))


@dataclass(frozen=True)
class GibbsStochasticCheck:
    """Outcome of the three Gibbs-stochasticity conditions with worst violations."""

    ok: bool
    worst_violation: float
    negativity: float
    column_sum_error: float
    fixed_point_error: float

    def __bool__(self) -> bool:
        return self.ok


def verify_gibbs_stochastic(matrix, spectrum, tol: float = BASE_TOLERANCE) -> GibbsStochasticCheck:
    """Check non-negativity, column sums and Gibbs preservation of a matrix.

    The violations propagate NaN, so a matrix with a non-finite entry fails.
    """
    M = np.asarray(matrix, dtype=float)
    d = len(spectrum.levels)
    if M.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got shape {M.shape}")
    negativity = float(np.maximum(0.0, -M.min()))
    column_sum_error = float(np.max(np.abs(M.sum(axis=0) - 1.0)))
    g = gibbs_state(spectrum)
    fixed_point_error = float(np.max(np.abs(M @ g - g)))
    worst = float(np.max([negativity, column_sum_error, fixed_point_error]))
    return GibbsStochasticCheck(
        ok=worst <= tol,
        worst_violation=worst,
        negativity=negativity,
        column_sum_error=column_sum_error,
        fixed_point_error=fixed_point_error,
    )
