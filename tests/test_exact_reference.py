"""Exact-arithmetic reference for the thermo-majorization curve (stdlib `fractions`).

The float weights and populations are converted to `Fraction` exactly, so the
reference answers the question the float kernels answer, on the same inputs,
without rounding: the beta-order, the curve's elbows and heights, and the
majorization relation of a pair.  Spectra have up to 5 levels, degenerate
pairs and whole-number offsets, and some are cold enough that every excited
level has a subnormal weight, where a slope p_i / w_i overflows a float;
populations include thermal states and near ties, whose beta-order keys agree
to the last bits.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
import hypothesis.strategies as st

from xhbac import (EnergySpectrum, beta_order, extremal_points, gibbs_state, thermo_curve,
                   thermo_majorizes)
from xhbac.thermal_core import BASE_TOLERANCE, CURVE_RTOL

#: Largest distance of a float curve height from the exact height at the same
#: abscissa, in ulps of the exact height.  Each float elbow is a running sum of
#: at most 5 terms and each height one interpolation; the largest distance seen
#: over 5,000 drawn cases was 3.4 ulps.
HEIGHT_ULPS = 8
#: Rounding of two float beta-order keys, each within half an ulp of the exact
#: p_i / w_i: a level placed later never has an exact key larger than this.
ORDER_RTOL = Fraction(2**-51)


def exact_keys(p, spectrum) -> list[Fraction]:
    """The beta-order key p_i / w_i of each level, exactly."""
    return [Fraction(x) / Fraction(w) for x, w in zip(p, spectrum._boltzmann.tolist())]


def exact_curve(p, spectrum) -> tuple[list[Fraction], list[Fraction]]:
    """Exact elbows (xs, ys) of the curve of p, in an exact beta-order (ties by index)."""
    keys = exact_keys(p, spectrum)
    xs, ys = [Fraction(0)], [Fraction(0)]
    for i in sorted(range(len(keys)), key=lambda i: -keys[i]):
        xs.append(xs[-1] + Fraction(spectrum._boltzmann[i]))
        ys.append(ys[-1] + Fraction(p[i]))
    return xs, ys


def exact_height(x: Fraction, xs, ys) -> Fraction:
    """Height of the curve through the exact elbows at x >= 0, flat past the last elbow."""
    for j in range(1, len(xs)):
        if x <= xs[j]:
            return ys[j - 1] + (ys[j] - ys[j - 1]) * (x - xs[j - 1]) / (xs[j] - xs[j - 1])
    return ys[-1]


def exact_majorizes(p, q, spectrum, band: int) -> bool:
    """Exact curve of p nowhere below that of q less `band` times the float check's tolerance."""
    (xp, yp), (xq, yq) = exact_curve(p, spectrum), exact_curve(q, spectrum)
    for x in xp + xq:
        a, b = exact_height(x, xp, yp), exact_height(x, xq, yq)
        if b > a + band * max(Fraction(BASE_TOLERANCE), Fraction(CURVE_RTOL) * abs(a)):
            return False
    return True


def assert_majorizes_as_exactly(p, q, spectrum) -> None:
    """`thermo_majorizes` gives the exact answer wherever that is clear of its tolerance band."""
    if exact_majorizes(p, q, spectrum, band=0):
        assert thermo_majorizes(p, q, spectrum)
    elif not exact_majorizes(p, q, spectrum, band=2):
        assert not thermo_majorizes(p, q, spectrum)


@st.composite
def curve_cases(draw):
    """A spectrum of 2..5 levels on a 1/4 grid, shifted, and a seeded population pair."""
    d = draw(st.integers(2, 5))
    cold = draw(st.booleans())  # excited weights from e^{-709} to e^{-741}: all subnormal
    steps = draw(st.lists(st.integers(0, 32 if cold else 8), min_size=d - 1, max_size=d - 1))
    ladder = np.cumsum([0, *steps]) / 4.0  # a step of 0: a degenerate pair
    ladder[1:] += 709.0 if cold else 0.0
    shift = draw(st.integers(-750, 750))
    beta = 1.0 if cold else draw(st.sampled_from([0.0, 0.3, 1.0, 2.5, 9.0]))
    spectrum = EnergySpectrum(tuple(shift + float(e) for e in ladder), beta)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = gibbs_state(spectrum)
    kind = draw(st.sampled_from(["random", "thermal", "near-tie", "sparse"]))
    if kind == "random":
        p = rng.dirichlet(np.ones(d))
    elif kind == "thermal":
        p = g
    elif kind == "near-tie":  # keys p_i / w_i within about 1e-12 of each other
        p = g * (1.0 + rng.uniform(-1e-12, 1e-12, d))
        p /= p.sum()
    else:
        p = rng.dirichlet(np.ones(d)) * (rng.random(d) < 0.5)
        p = p / p.sum() if p.sum() > 0.0 else np.eye(d)[d - 1]
    partner = draw(st.sampled_from(["random", "thermal", "near", "image", "permuted"]))
    if partner == "random":
        q = rng.dirichlet(np.ones(d))
    elif partner == "thermal":
        q = g
    elif partner == "near":  # within the comparison tolerance of p, either side
        q = np.clip(p + rng.uniform(-1e-13, 1e-13, d), 0.0, None)
        q /= q.sum()
    elif partner == "image":  # touches the curve of p at every elbow of q
        points = extremal_points(p, spectrum).points
        q = points[rng.integers(len(points))]
    else:
        q = p[rng.permutation(d)]
    return spectrum, p, q, rng.permutation(d)


@given(curve_cases())
@settings(max_examples=150, deadline=None)
def test_float_curves_agree_with_the_exact_reference(case):
    spectrum, p, q, alpha = case
    p, q = p.tolist(), q.tolist()

    keys = exact_keys(p, spectrum)
    ranked = [keys[i] for i in beta_order(p, spectrum)]
    assert all(later <= earlier * (1 + ORDER_RTOL)
               for k, earlier in enumerate(ranked) for later in ranked[k + 1:])

    for row in (p, q):
        curve = thermo_curve(row, spectrum)
        xs, ys = exact_curve(row, spectrum)
        w = spectrum._boltzmann
        targets = np.concatenate((curve.xs, np.cumsum(w[alpha]), np.cumsum(w)))
        for x, height in zip(targets.tolist(), curve.heights(targets).tolist()):
            exact = exact_height(Fraction(x), xs, ys)
            assert abs(Fraction(height) - exact) <= HEIGHT_ULPS * Fraction(math.ulp(float(exact)))

    for a, b in ((p, q), (q, p)):
        assert_majorizes_as_exactly(a, b, spectrum)


def test_subnormal_weights_keep_the_exact_order_heights_and_images():
    # weights 1, e^{-715} and e^{-720}: beside each subnormal one the slope p_i / w_i
    # overflows a float, yet the beta-order, the curve and everything read off it are exact
    spectrum = EnergySpectrum((0.0, 715.0, 720.0), 1.0)
    p = [0.2, 0.3, 0.5]
    assert beta_order(p, spectrum).tolist() == [2, 1, 0]
    curve = thermo_curve(p, spectrum)
    xs, ys = exact_curve(p, spectrum)
    runs = np.diff(curve.xs).tolist()
    slopes = [Fraction(rise) / Fraction(run) for rise, run in zip(np.diff(curve.ys).tolist(), runs)]
    assert slopes == sorted(slopes, reverse=True)  # concave
    targets = [1e-313, 2e-313, 1e-311, 3e-311, 0.5, 1.0]
    for x, height in zip(targets, curve.heights(targets).tolist()):
        exact = exact_height(Fraction(x), xs, ys)
        assert abs(Fraction(height) - exact) <= HEIGHT_ULPS * Fraction(math.ulp(float(exact)))

    for q in ([0.5, 0.0, 0.5], [0.2, 0.8, 0.0], [0.0, 0.8, 0.2], [0.2, 0.795, 0.005]):
        for a, b in ((p, q), (q, p)):
            assert_majorizes_as_exactly(a, b, spectrum)
    # short of 1 by 0.2 e^{-715} at x = 1 + e^{-720}, well inside the tolerance band
    assert thermo_majorizes(p, [0.5, 0.0, 0.5], spectrum)
    assert not thermo_majorizes(p, [0.2, 0.8, 0.0], spectrum)

    w = spectrum._boltzmann.tolist()
    points = extremal_points(p, spectrum, dedup_tol=np.finfo(float).eps).points
    for alpha in itertools.permutations(range(3)):
        image, below = [0.0] * 3, Fraction(0)
        for k, level in enumerate(alpha):
            height = exact_height(sum(Fraction(w[i]) for i in alpha[: k + 1]), xs, ys)
            image[level], below = float(height - below), height
        assert np.min(np.max(np.abs(points - image), axis=1)) <= 1e-15
