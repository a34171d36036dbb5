"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; `feketelab verify --suite all` drives the same checks from the
command line.
"""

import time

import pytest

from feketelab.suites import (
    check_charsum_oracle,
    check_convergence,
    check_decomposition,
    check_gauss_identity,
    check_global_optimizer,
    check_hj_specialization,
    check_kernels,
    check_exponential_sum_bound,
    check_minimum_consistency,
    check_periodic_bound,
    check_record_constants,
    check_region_pieces,
    check_weil_square_cases,
)

CRITERIA = [
    ("01 record constant", check_record_constants, 2.0),
    ("02 minimum consistency", check_minimum_consistency, 2.0),
    ("03 global optimizer", check_global_optimizer, 2.0),
    ("04 hoholdt-jensen line", check_hj_specialization, 2.0),
    ("05 character-sum oracle", check_charsum_oracle, 60.0),
    ("06 five-term decomposition", check_decomposition, 60.0),
    ("07 weil / square cases", check_weil_square_cases, 60.0),
    ("08 gauss-sum identity", check_gauss_identity, 30.0),
    ("09 exponential-sum bound", check_exponential_sum_bound, 120.0),
    ("10 periodic lower bound", check_periodic_bound, 30.0),
    ("11 kernel equivalence", check_kernels, 30.0),
    ("12 convergence ladders", check_convergence, 30.0),
    ("13 region pieces", check_region_pieces, 2.0),
]


@pytest.mark.parametrize("label,check,budget", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(label, check, budget):
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    line = f"ACCEPTANCE {label}: {status} [{elapsed:.2f}s] {result.detail}"
    print(line)
    assert result.passed, line
    assert elapsed < budget, f"{label} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"
