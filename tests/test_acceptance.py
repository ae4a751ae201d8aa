"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
pass/fail report per criterion (the CLI ``sixfold selftest`` prints the
same lines).
"""

import pytest

from sixfold.acceptance import ALL_CRITERIA, run_criterion


@pytest.mark.parametrize(
    ("criterion", "budget"),
    [(fn, budget) for fn, budget, _ in ALL_CRITERIA],
    ids=[fn.__name__ for fn, _, _ in ALL_CRITERIA],
)
def test_criterion(criterion, budget):
    result = run_criterion(criterion)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status}  {result.name}  [{result.seconds:.1f}s]  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert 0 < result.seconds < budget, "over time budget"
