"""Acceptance gate: one test per check of `SUITES["all"]`, each printing a
pass/fail line and held to the time budget attached beside the check.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; `feketelab verify --suite all` drives the same checks from the
command line.
"""

import time

import pytest

from feketelab.suites import SUITES

GATE = [(f"{i:02d} {check.label}", check) for i, check in enumerate(SUITES["all"], 1)]


def test_every_suite_check_is_in_the_gate():
    for name, checks in SUITES.items():
        assert set(checks) <= set(SUITES["all"]), name


@pytest.mark.parametrize("label,check", GATE, ids=[label for label, _ in GATE])
def test_acceptance_criterion(label, check):
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    line = f"ACCEPTANCE {label}: {status} [{elapsed:.2f}s] {result.detail}"
    print(line)
    assert result.passed, line
    budget = check.budget_s
    assert elapsed < budget, f"{label} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"
