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

#: Default absolute tolerance for curve comparisons and matrix verification.
BASE_TOLERANCE = 1e-12
#: Relative tolerance used when comparing thermo-majorization curves.
CURVE_RTOL = 1e-9
#: Largest temporary array, in elements, that the angle scan and the exhaustive
#: oracle build at once (0.25 MB of float64); larger inputs stream in batches.
_BATCH_ELEMENTS = 1 << 15
#: Curves are read on abscissae times 2^52, where no slope overflows, not even
#: beside a subnormal weight; the power of two keeps every bit wherever the
#: scaled slope is a normal float.  Level i's beta-order key is its segment's
#: scaled slope p_i / (w_i * _SLOPE_SCALE).
_SLOPE_SCALE = 2.0**52


class _BoltzmannCache:
    """Boltzmann weights and energy ranks, computed once per (frozen) spectrum."""

    @cached_property
    def _boltzmann(self) -> np.ndarray:
        """Weights e^{-beta (E_i - E_min)}, the unnormalized `gibbs_state`: the largest is 1.

        Results read them only up to a common factor, so they depend on level
        differences alone.  A weight that underflows to 0 is refused.
        """
        w = _relative_weights(self)
        if not np.all(w > 0.0):  # also rejects NaN
            raise ValueError("Boltzmann weight underflows to 0; beta*E spread too large")
        w.flags.writeable = False
        return w

    @cached_property
    def _boltzmann_floats(self) -> tuple[float, ...]:
        """`_boltzmann` as plain floats, for the single-row curve kernel."""
        return tuple(self._boltzmann.tolist())

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
        if not all(map(math.isfinite, levels)):
            raise ValueError(f"energy levels must be finite, got {levels}")
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
    def _cooling_rank(self) -> np.ndarray:
        """Position of each joint level in beta_opt_alpha(d, r), the round's target order."""
        rank = np.argsort(beta_opt_alpha(self.d, self.r))
        rank.flags.writeable = False
        return rank

    @cached_property
    def _cooling_targets(self) -> np.ndarray:
        """0, then the cumulative Boltzmann weight in beta_opt_alpha(d, r)."""
        targets = np.concatenate(([0.0], np.cumsum(self._boltzmann[beta_opt_alpha(self.d, self.r)])))
        targets.flags.writeable = False
        return targets

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


def _count(k: int, what: str = "round count") -> int:
    """A count or an index, such as a number of rounds; anything but an integer >= 0 raises ValueError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {k!r}")
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


def _relative_weights(spectrum) -> np.ndarray:
    """e^{-beta (E_i - E_min)}: a weight that underflows is 0, never an error."""
    e = np.asarray(spectrum.levels, dtype=float)
    return np.exp(-spectrum.beta * (e - e.min()))


def gibbs_state(spectrum) -> np.ndarray:
    """Normalized thermal populations for the given spectrum, at any temperature."""
    w = _relative_weights(spectrum)
    return w / w.sum()


def beta_order(p, spectrum) -> np.ndarray:
    """Permutation sorting the slopes p_i / w_i into non-increasing order.

    Returned as position -> level indices: the order in which `thermo_curve`
    lays out its elbows (see `_beta_rank`).
    """
    return np.array(_beta_rank(_population_row(p, len(spectrum.levels)), spectrum), dtype=np.intp)


def _as_permutation(perm, dim: int) -> np.ndarray:
    """perm as an int array; every entry must pass `_count` (no float, no bool)."""
    if np.ndim(perm) != 1:
        raise ValueError(f"not a permutation of range({dim}): {perm}")
    arr = np.array([_count(i, "permutation entry") for i in perm], dtype=int)
    if arr.shape != (dim,) or not np.array_equal(np.sort(arr), np.arange(dim)):
        raise ValueError(f"not a permutation of range({dim}): {perm}")
    return arr


@dataclass(frozen=True)
class ThermoCurve:
    """Piecewise-linear concave curve: cumulative weight e^{-beta (E_i - E_min)} vs population."""

    xs: np.ndarray  # d+1 increasing abscissae, from 0 to the partition sum
    ys: np.ndarray  # d+1 non-decreasing ordinates, from 0 to 1

    @property
    def partition(self) -> float:
        return float(self.xs[-1])

    def height(self, x: float) -> float:
        return float(self.heights([x])[0])

    def heights(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        tol = 1e-12 * self.partition
        if not np.all((-tol <= xs) & (xs <= self.partition + tol)):  # also rejects NaN
            raise ValueError(f"x={xs} outside curve domain [0, {self.partition}]")
        return _curve_heights(xs, self.xs, self.ys)


def _beta_rank(p: list[float], spectrum) -> list[int]:
    """Levels of one validated row in beta-order: a stable sort on the keys (see `_SLOPE_SCALE`).

    Equal keys keep the lower level index first.  A float key misorders two
    levels only when their exact slopes lie within one rounding of each other.
    """
    w = spectrum._boltzmann_floats
    return sorted(range(len(p)), key=lambda i: -p[i] / (w[i] * _SLOPE_SCALE))


def _row_elbows(p: list[float], spectrum) -> tuple[list[float], list[float]]:
    """Elbows (xs, ys) of the curve of one validated row, as d+1 plain floats each.

    xs and ys are the cumulative Boltzmann weight and population in `_beta_rank`
    order, from 0, each elbow added to the one before it as `np.cumsum` adds:
    on rows this short a Python loop gives numpy's bits at less per-call cost.
    """
    w = spectrum._boltzmann_floats
    xs, ys = [0.0], [0.0]
    for i in _beta_rank(p, spectrum):
        xs.append(xs[-1] + w[i])
        ys.append(ys[-1] + p[i])
    return xs, ys


def _curve_heights(targets, xs, ys) -> np.ndarray:
    """Heights at `targets` of the curve with elbows (xs, ys): `np.interp` on abscissae times `_SLOPE_SCALE`.

    A target on an elbow (the last of a run of equal abscissae) or past the
    last one takes that elbow's height.  Every thermo-majorization curve of a
    single row is read here; the oracle's stack of curves is read as lower
    envelopes (`protocols._supporting_lines`).
    """
    return np.interp(np.multiply(targets, _SLOPE_SCALE), np.multiply(xs, _SLOPE_SCALE), ys)


def thermo_curve(p, spectrum) -> ThermoCurve:
    """Elbow points (sum of e^{-beta E}, sum of p) accumulated in beta-order."""
    xs, ys = _row_elbows(_population_row(p, len(spectrum.levels)), spectrum)
    return ThermoCurve(np.array(xs), np.array(ys))


def thermo_majorizes(p, q, spectrum, atol: float = BASE_TOLERANCE) -> bool:
    """True when the curve of p is nowhere below the curve of q.

    The curve of p is concave and that of q is linear between its elbows, so
    p's lead over q is least at one of q's elbows, and only those are
    checked: p's height there may fall short of q's elbow height by the
    tolerance (the larger of `atol` and CURVE_RTOL times p's height), so the
    relation is reflexive under floating point.  `atol` must be finite and
    non-negative.
    """
    if not 0.0 <= atol < math.inf:  # also rejects NaN
        raise ValueError(f"atol must be finite and non-negative, got {atol}")
    dim = len(spectrum.levels)
    xp, yp = _row_elbows(_population_row(p, dim), spectrum)
    xq, yq = _row_elbows(_population_row(q, dim), spectrum)
    for a, b in zip(_curve_heights(xq, xp, yp).tolist(), yq):
        if not b <= a + max(atol, CURVE_RTOL * abs(a)):
            return False
    return True


def beta_permutation(pi, alpha, spectrum) -> np.ndarray:
    """Extremal Gibbs-stochastic matrix mapping beta-order pi states onto order alpha.

    The Boltzmann weights are laid end to end on one line, once in pi-order
    (the columns) and once in alpha-order (the rows), both ending at one
    shared partition sum; entry (m, k) is the overlap of row m's interval
    with column k's, divided by column k's length.  A weight below the
    float64 resolution of the running sum (at most d) leaves its column
    without length; such a spectrum is refused with ValueError.  The result
    is returned in the natural level basis.
    """
    w = spectrum._boltzmann
    d = w.size
    pi = _as_permutation(pi, d)
    alpha = _as_permutation(alpha, d)
    cols = np.concatenate(([0.0], np.cumsum(w[pi])))
    rows = np.concatenate(([0.0], np.cumsum(w[alpha])))
    length = np.diff(cols)
    rows[-1] = cols[-1]
    if not np.all(length > 0.0):
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
    if _count(d, "d") < 2 or _count(r, "r") < 1:
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

    Entries are uint8, one byte each (n!·n bytes, 0.31 MB at n = 8); callers
    cast a chunk to np.intp before they gather through it, since a uint8
    index gathers about 3x slower.  Refuses n above 8, the enumeration guard
    of `extremal_points` and `oracle_optimal_round`: a time and memory limit,
    not one of the method.  At n = 9 the table takes 3.1 MB, an
    `extremal_points` call 1.0-1.5 s and 157-185 MB peak RSS, and an oracle
    call 0.15-0.23 s and 42 MB (2-vCPU Xeon); each further level multiplies
    the time and the arrays by about n.

    Built up from the table of range(m-1): the block of rows that starts with
    f goes on with a permutation of the other m-1 values, which is a row of
    the smaller table with every entry from f up raised by one.
    """
    if n > 8:
        raise ValueError(f"dimension {n} exceeds the factorial-enumeration guard 8")
    table = np.zeros((1, 0), dtype=np.uint8)
    for m in range(1, n + 1):
        first = np.arange(m, dtype=np.uint8)
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


def _order_images(p: np.ndarray, spectrum, table: np.ndarray) -> np.ndarray:
    """Image of p under the extremal map onto each order (row) of `table`.

    The map onto order alpha sends p to the population whose cumulative sums
    in alpha-order are the heights of p's thermo-majorization curve at
    cumsum(w[alpha]), so every image is read off one curve, for all orders at
    once, without building a matrix.  The index and height temporaries are
    freed on return, before the caller merges the images.
    """
    perms = table.astype(np.intp)
    X, Y = _row_elbows(p, spectrum)
    heights = _curve_heights(np.cumsum(spectrum._boltzmann[perms], axis=1), X, Y)
    images = np.empty(perms.shape)
    np.put_along_axis(images, perms, np.diff(heights, axis=1, prepend=0.0), axis=1)
    return images


def extremal_points(p, spectrum, dedup_tol: float = 1e-10) -> ExtremalPointSet:
    """Apply every extremal map for the beta-order of p and deduplicate the images.

    Every image is read off p's thermo-majorization curve (`_order_images`).
    Images that lie within `dedup_tol` of a kept image are merged into it (see
    `_merge_images`); `dedup_tol` below machine epsilon is refused, since a
    grid that fine cannot separate populations, and so is an infinite one.
    Refuses d above 8, since the orders number d! (see `_permutation_table`).
    """
    p = _population_row(p, len(spectrum.levels))
    table = _permutation_table(len(p))
    if not np.finfo(float).eps <= dedup_tol < math.inf:
        raise ValueError(f"dedup_tol must be finite and at least machine epsilon, got {dedup_tol}")
    points = _merge_images(_order_images(p, spectrum, table), dedup_tol)
    return ExtremalPointSet(points=points, n_orders=len(table), n_distinct=len(points))


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
    `tol` must be finite and non-negative.
    """
    if not 0.0 <= tol < math.inf:  # also rejects NaN
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
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
