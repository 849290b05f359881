import tracemalloc

import numpy as np
import pytest

from xhbac import EnergySpectrum


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_spectrum(rng, d, beta_lo=0.2, beta_hi=2.0):
    levels = np.sort(rng.uniform(0.0, 2.5, d))
    levels[0] = 0.0
    return EnergySpectrum(tuple(levels), float(rng.uniform(beta_lo, beta_hi)))


def traced_peak_mb(fn) -> float:
    """Peak memory traced while fn() runs, in MB; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
