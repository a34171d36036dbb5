"""Acceptance gate: one test per check of `SUITES["all"]`, each printing
its verify line and held to the one time budget `suites.CHECK_BUDGET_S`.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; `feketelab verify --suite all` drives the same checks from the
command line.
"""

import time

import pytest

from feketelab import sequences, suites
from feketelab.suites import SUITES

GATE = {f"{i:02d} {check.name}": check for i, check in enumerate(SUITES["all"], 1)}


def test_every_suite_check_is_in_the_gate():
    for name, checks in SUITES.items():
        assert set(checks) <= set(SUITES["all"]), name


def test_gate_names_are_the_verify_line_contract():
    assert [check.name for check in SUITES["all"]] == [
        "record-constant", "minimum-consistency", "global-optimizer", "hj-specialization",
        "charsum-oracle", "decomposition", "weil-square-cases", "gauss-identity",
        "exponential-sum-bound", "periodic-bound", "kernel-equality", "convergence",
        "region-pieces",
    ]


def test_weil_check_reports_its_first_violation_in_lexicographic_order(monkeypatch):
    real = suites.quartic_char_sum

    def broken(a, b, c, p):
        res = real(a, b, c, p)
        if p == 7:
            value = res.value.copy()
            value[2, 5, 1] += 100
            value[1, 6, 3] -= 100
            res = res._replace(value=value, error_term=value - res.main_term)
        return res

    monkeypatch.setattr(suites, "quartic_char_sum", broken)
    result = suites.check_weil_square_cases()
    assert not result.passed
    assert result.detail == "violation at p=7 (1,6,3)"


def test_decomposition_check_decomposes_each_grid_entry_once(monkeypatch):
    real, seen = suites.five_term_decomposition, []

    def spy(spec):
        seen.append(spec)
        return real(spec)

    monkeypatch.setattr(suites, "five_term_decomposition", spy)
    assert suites.check_decomposition().passed
    # six specs for each of the 25 primes 3..101, then for 401, 809 and 1601,
    # except p = 3, whose two rotations 0 and 3 // 4 coincide
    assert len(seen) == (25 + 3) * 6 - 3 == 165
    assert len(set(seen)) == len(seen)


def test_decomposition_check_catches_a_wrong_spectral_norm(monkeypatch):
    real = sequences.autocorrelation_fast

    def off_by_one_at_the_last_lag(seq):
        c = real(seq).copy()
        c[-1] += 1
        return c

    monkeypatch.setattr(sequences, "autocorrelation_fast", off_by_one_at_the_last_lag)
    result = suites.check_decomposition()
    assert not result.passed
    assert result.detail == "identity broken at FeketeSpec(p=3, r=0, t=1)"


@pytest.mark.parametrize("case,check", GATE.items(), ids=list(GATE))
def test_acceptance_criterion(case, check):
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    line = f"ACCEPTANCE {case} [{elapsed:.2f}s] {result.line()}"
    print(line)
    assert result.name == check.name
    assert result.passed, line
    budget = suites.CHECK_BUDGET_S
    assert elapsed < budget, f"{case} exceeded the {budget:.0f}s budget: {elapsed:.2f}s"
