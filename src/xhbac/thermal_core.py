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

import itertools
import math
import os
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
    "default_tolerance",
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

#: Fallback absolute tolerance for curve comparisons and matrix verification.
BASE_TOLERANCE = 1e-12
#: Relative tolerance used when comparing thermo-majorization curves.
CURVE_RTOL = 1e-9


def default_tolerance() -> float:
    """Absolute tolerance floor, overridable through the XHBAC_TOL env var."""
    raw = os.environ.get("XHBAC_TOL")
    if raw is None:
        return BASE_TOLERANCE
    value = float(raw)
    if value <= 0:
        raise ValueError(f"XHBAC_TOL must be positive, got {raw!r}")
    return value


class _BoltzmannCache:
    """Boltzmann weights, beta-order scale and energy order, computed once per (frozen) spectrum."""

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
    def _energy_order(self) -> np.ndarray:
        """Level indices by ascending energy, ties by index."""
        order = np.argsort(np.asarray(self.levels, dtype=float), kind="stable")
        order.flags.writeable = False
        return order


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
    def omega(self) -> float:
        """Total spectral width E_{d-1} - E_0."""
        return self.levels[-1] - self.levels[0]

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
            pop = as_population(self.ancilla_population, self.ancilla.dim)
            object.__setattr__(self, "ancilla_population", tuple(float(x) for x in pop))
        sys_levels = np.asarray(self.system.levels)
        if self.ancilla is None:
            joint = tuple(self.system.levels)
        else:
            anc_levels = np.asarray(self.ancilla.levels)
            joint = tuple(float(x) for x in np.add.outer(sys_levels, anc_levels).ravel())
        object.__setattr__(self, "_joint_levels", joint)

    @property
    def beta(self) -> float:
        return self.system.beta

    @property
    def levels(self) -> tuple[float, ...]:
        return self._joint_levels  # type: ignore[attr-defined]

    @property
    def d(self) -> int:
        return self.system.dim

    @property
    def r(self) -> int:
        return 1 if self.ancilla is None else self.ancilla.dim

    @property
    def dim(self) -> int:
        return self.d * self.r

    def pair_index(self, i: int, a: int) -> int:
        if not (0 <= i < self.d and 0 <= a < self.r):
            raise ValueError(f"pair ({i}, {a}) outside {self.d}x{self.r} space")
        return i * self.r + a

    def index_pair(self, m: int) -> tuple[int, int]:
        if not 0 <= m < self.dim:
            raise ValueError(f"joint index {m} outside dimension {self.dim}")
        return divmod(m, self.r)

    @cached_property
    def _ancilla_start(self) -> np.ndarray | None:
        if self.ancilla is None:
            return None
        if self.ancilla_population is not None:
            anc = np.asarray(self.ancilla_population, dtype=float)
        else:
            anc = gibbs_state(self.ancilla)
        anc.flags.writeable = False
        return anc

    @cached_property
    def _cooling_order(self) -> np.ndarray:
        """beta_opt_alpha(d, r): the target order of the optimal cooling round."""
        alpha = beta_opt_alpha(self.d, self.r)
        alpha.flags.writeable = False
        return alpha

    @cached_property
    def _cooling_targets(self) -> np.ndarray:
        """0, then the cumulative Boltzmann weight in `_cooling_order`."""
        targets = np.zeros(self.dim + 1)
        np.cumsum(self._boltzmann[self._cooling_order], out=targets[1:])
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


def _level_array(spectrum) -> np.ndarray:
    return np.asarray(spectrum.levels, dtype=float)


def _boltzmann_weights(spectrum) -> np.ndarray:
    """Unnormalized weights e^{-beta E_i} (read-only, cached on the spectrum)."""
    return spectrum._boltzmann


def as_population(p, dim: int | None = None) -> np.ndarray:
    """Validate and return a probability vector as a float array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"population must be a vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.size}")
    lowest = arr.min(initial=0.0)
    if lowest < -1e-12:
        raise ValueError(f"negative population entry: min={lowest}")
    total = arr.sum()
    if not abs(total - 1.0) <= 1e-9:  # also rejects NaN and inf entries
        raise ValueError(f"population must sum to 1, got {total}")
    return np.maximum(arr, 0.0)


def gibbs_state(spectrum) -> np.ndarray:
    """Normalized thermal populations for the given spectrum."""
    e = _level_array(spectrum)
    w = np.exp(-spectrum.beta * (e - e.min()))
    return w / w.sum()


def beta_order(p, spectrum, tie_rtol: float = 1e-12) -> np.ndarray:
    """Permutation sorting p_i * e^{beta E_i} into non-increasing order.

    Returned as position -> level indices.  Keys within `tie_rtol` of each
    other count as tied and go to the lower original index; without the
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
        if i == p.size or ranked[i] < ranked[start] * (1.0 - tie_rtol):
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


def _curve_elbows(rows, spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Elbows of the thermo-majorization curves of validated population rows.

    `rows` is a float array of shape (..., d).  Returns (X, Y), each of shape (..., d+1): the
    cumulative Boltzmann weight and the cumulative population, both starting
    at 0 and accumulated in beta-order.  Levels with tied keys may come in
    either order; tied keys have equal slopes, so the curve is the same.
    """
    order = np.argsort(-(rows * spectrum._order_scale), axis=-1, kind="stable")
    X = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 1,))
    Y = np.zeros_like(X)
    np.cumsum(_boltzmann_weights(spectrum)[order], axis=-1, out=X[..., 1:])
    ranked = rows[order] if rows.ndim == 1 else np.take_along_axis(rows, order, axis=-1)
    np.cumsum(ranked, axis=-1, out=Y[..., 1:])
    return X, Y


def thermo_curve(p, spectrum) -> ThermoCurve:
    """Elbow points (sum of e^{-beta E}, sum of p) accumulated in beta-order."""
    p = as_population(p, len(spectrum.levels))
    xs, ys = _curve_elbows(p, spectrum)
    return ThermoCurve(xs, ys)


def thermo_majorizes(p, q, spectrum, rtol: float | None = None, atol: float | None = None) -> bool:
    """True when the curve of p is nowhere below the curve of q.

    Checking the elbow abscissae of both curves suffices because both are
    piecewise linear.  Equality within tolerance counts as majorization, so
    the relation is reflexive under floating point.
    """
    if rtol is None:
        rtol = CURVE_RTOL
    if atol is None:
        atol = default_tolerance()
    d = len(spectrum.levels)
    X, Y = _curve_elbows(np.array((as_population(p, d), as_population(q, d))), spectrum)
    xs = X.ravel()  # the union of both elbow sets; interp needs no sorted queries
    hp = np.interp(xs, X[0], Y[0])
    hq = np.interp(xs, X[1], Y[1])
    return bool(np.all(hq <= hp + np.maximum(atol, rtol * np.abs(hp))))


def beta_permutation(pi, alpha, spectrum) -> np.ndarray:
    """Extremal Gibbs-stochastic matrix mapping beta-order pi states onto order alpha.

    Rows are filled in alpha-order against columns in pi-order: row m grabs as
    much population for its target level as the thermo-majorization constraint
    allows, continuing from the column where the previous row stopped.  The
    result is returned in the natural level basis.
    """
    w = _boltzmann_weights(spectrum)
    d = w.size
    pi = _as_permutation(pi, d)
    alpha = _as_permutation(alpha, d)
    wp = w[pi]
    wa = w[alpha]
    cum_p = np.cumsum(wp)
    cum_a = np.cumsum(wa)

    G = np.zeros((d, d))
    col_used = np.zeros(d)
    k_prev = 0
    for m in range(d):
        if cum_a[m] < cum_p[k_prev]:
            # Only a fraction of the current column fits under the curve.
            G[m, k_prev] = wa[m] / wp[k_prev]
            k_m = k_prev
        else:
            k_m = min(int(np.searchsorted(cum_p, cum_a[m], side="left")), d - 1)
            G[m, k_prev] = 1.0 - col_used[k_prev]
            if k_m > k_prev:
                G[m, k_prev + 1 : k_m] = 1.0
                G[m, k_m] = (cum_a[m] - cum_p[k_m - 1]) / wp[k_m]
        col_used += G[m]
        k_prev = k_m

    P = np.zeros((d, d))
    P[np.ix_(alpha, pi)] = G
    return P


def maximally_active(p, spectrum) -> np.ndarray:
    """Populations sorted ascending and assigned to energies ascending.

    This is the most energetic arrangement on the unitary orbit of a diagonal
    state, and it thermo-majorizes every other arrangement.
    """
    return _most_active(as_population(p, len(spectrum.levels)), spectrum)


def _most_active(p: np.ndarray, spectrum) -> np.ndarray:
    """`maximally_active` of an already validated population vector."""
    out = np.empty_like(p)
    out[spectrum._energy_order] = np.sort(p)
    return out


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
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


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


def extremal_points(p, spectrum, max_dim: int = 8, dedup_tol: float = 1e-10) -> ExtremalPointSet:
    """Apply every extremal map for the beta-order of p and deduplicate the images.

    The map onto order alpha sends p to the population whose cumulative sums
    in alpha-order are the heights of p's thermo-majorization curve at
    cumsum(w[alpha]), so every image is read off one curve, for all d! orders
    at once, without building a matrix.  Images that lie within `dedup_tol`
    of a kept image are merged into it (see `_merge_images`); `dedup_tol`
    below machine epsilon is refused, since a grid that fine cannot separate
    populations.

    Refuses dimensions above `max_dim` because the number of orders grows as
    d factorial.
    """
    p = as_population(p, len(spectrum.levels))
    d = p.size
    if d > max_dim:
        raise ValueError(f"dimension {d} exceeds the factorial-enumeration guard {max_dim}")
    if not dedup_tol >= np.finfo(float).eps:
        raise ValueError(f"dedup_tol must be at least machine epsilon, got {dedup_tol}")
    perms = _permutation_table(d)
    X, Y = _curve_elbows(p, spectrum)
    heights = np.interp(np.cumsum(_boltzmann_weights(spectrum)[perms], axis=1), X, Y)
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

    def describe(self) -> str:
        return (
            f"negativity={self.negativity:.3e} "
            f"column_sum={self.column_sum_error:.3e} "
            f"fixed_point={self.fixed_point_error:.3e}"
        )


def verify_gibbs_stochastic(matrix, spectrum, tol: float | None = None) -> GibbsStochasticCheck:
    """Check non-negativity, column sums and Gibbs preservation of a matrix."""
    if tol is None:
        tol = default_tolerance()
    M = np.asarray(matrix, dtype=float)
    d = len(spectrum.levels)
    if M.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got shape {M.shape}")
    negativity = float(max(0.0, -M.min()))
    column_sum_error = float(np.max(np.abs(M.sum(axis=0) - 1.0)))
    g = gibbs_state(spectrum)
    fixed_point_error = float(np.max(np.abs(M @ g - g)))
    worst = max(negativity, column_sum_error, fixed_point_error)
    return GibbsStochasticCheck(
        ok=worst <= tol,
        worst_violation=worst,
        negativity=negativity,
        column_sum_error=column_sum_error,
        fixed_point_error=fixed_point_error,
    )
