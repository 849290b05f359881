"""Acceptance gate: every criterion at its stated tolerance, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines, or
`xhbac accept all` for the same checks outside pytest.
"""

import pytest

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
