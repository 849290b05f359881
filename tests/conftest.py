import tracemalloc

import numpy as np
import pytest

from xhbac import EnergySpectrum, gibbs_state


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_spectrum(rng, d, beta_lo=0.2, beta_hi=2.0):
    levels = np.sort(rng.uniform(0.0, 2.5, d))
    levels[0] = 0.0
    return EnergySpectrum(tuple(levels), float(rng.uniform(beta_lo, beta_hi)))


def gibbs_stochastic_constraints(spectrum):
    """Equality rows and right-hand sides on the row-major entries of a Gibbs-stochastic G."""
    g = gibbs_state(spectrum)
    d = g.size
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
    return rows, rhs


def traced_peak_mb(fn) -> float:
    """Peak memory traced while fn() runs, in MB; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
