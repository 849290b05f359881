"""Acceptance gate: every criterion at its stated tolerance, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines, or
`xhbac accept all` for the same checks outside pytest.
"""

import math

import numpy as np
import pytest

from xhbac import ProtocolTrace, acceptance
from xhbac.acceptance import CRITERIA, run_acceptance


@pytest.mark.parametrize("ident", sorted(CRITERIA))
def test_acceptance_criterion(ident):
    result = CRITERIA[ident](seed=0)
    print(result.line())
    assert result.elapsed <= result.limit, (
        f"criterion {ident} overran its runtime budget: {result.line()}"
    )
    assert result.passed, result.line()


@pytest.mark.parametrize("name, seed, match", [
    ("beta-permutation", -5, "seed must be a non-negative integer"),
    ("beta-permutation", 1.5, "seed must be a non-negative integer"),
    ("beta-permutation", True, "seed must be a non-negative integer"),
    ("all", -1, "seed must be a non-negative integer"),
    ("nope", 0, "unknown criterion 'nope'; expected all or one of: qubit-closed-form, "),
], ids=["negative", "fraction", "bool", "all-negative", "unknown-name"])
def test_run_acceptance_refuses_bad_seeds_and_names(name, seed, match):
    with pytest.raises(ValueError, match=match):
        run_acceptance(name, seed=seed)


_SPLIT = math.log(4.0) / 3.0  # where upper_bound_G switches branch


def _swap_gain(spectrum):
    x = math.exp(-spectrum.beta * spectrum.gap)
    return x * (1.0 - x) / (1.0 + x)


# (criterion, name patched in xhbac.acceptance, fault built from the real function)
FAULTS = {
    "G is 1": (7, "upper_bound_G", lambda G: lambda b: 1.0),
    "G warm branch +1e-9": (7, "upper_bound_G",
                            lambda G: lambda b: G(b) + (1e-9 if b < _SPLIT else 0.0)),
    "ceiling 0.01 low": (10, "markovian_best", lambda best: lambda p, s: best(p, s) - 0.01),
    "beta-swap counted Markovian": (10, "markovian_best",
                                    lambda best: lambda p, s: best(p, s) + _swap_gain(s)),
    "baseline frozen at p0": (12, "ppa_trace",
                              lambda ppa: lambda p0, n, s, rounds: ProtocolTrace(
                                  np.array([p0] * (rounds + 1)))),
    "swap asymptote 0.85": (12, "noisy_fixed_point",
                            lambda fixed: lambda eps, b: 0.85 if eps == 0.0 else fixed(eps, b)),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_broken_subject_fails_its_criterion(fault, monkeypatch):
    ident, name, make = FAULTS[fault]
    monkeypatch.setattr(acceptance, name, make(getattr(acceptance, name)))
    result = CRITERIA[ident](seed=0)
    assert not result.passed, result.line()


def test_the_fault_table_criteria_pass_unpatched():
    for ident in {ident for ident, _, _ in FAULTS.values()}:
        result = CRITERIA[ident](seed=0)
        assert result.passed, result.line()
