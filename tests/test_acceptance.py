"""Acceptance gate: one test per check of `SUITES["all"]`, each printing
its verify line and held to the one time budget `suites.CHECK_BUDGET_S`.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; `feketelab verify --suite all` drives the same checks from the
command line.
"""

import time
from types import SimpleNamespace

import pytest

from feketelab import sequences, suites
from feketelab.asymptotics import Region, normalize_R, record_constants
from feketelab.suites import SUITES

GATE = {f"{i:02d} {check.name}": check for i, check in enumerate(SUITES["all"], 1)}

# The whole detail of each check that counts what it checked, in its loop;
# max G/bound is 1/64, at n = t = 1.
DETAILS = {
    "charsum-oracle": "746 specs equal exactly",
    "weil-square-cases": "82142 triples within bounds",
    "exponential-sum-bound": "768 pairs ok, max G/bound=0.0156",
    "periodic-bound": "3024 sequences ok, all-ones tight",
    "kernel-equality": "1000 sequences identical",
}


def test_every_suite_check_is_in_the_gate():
    for name, checks in SUITES.items():
        assert set(checks) <= set(SUITES["all"]), name


def test_gate_names_are_the_verify_line_contract():
    names = [check.name for check in SUITES["all"]]
    assert set(DETAILS) < set(names)
    assert names == [
        "record-constant", "minimum-consistency", "global-optimizer", "hj-specialization",
        "charsum-oracle", "decomposition", "weil-square-cases", "gauss-identity",
        "exponential-sum-bound", "periodic-bound", "kernel-equality", "convergence",
        "region-pieces",
    ]


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        suites.run_suite("bogus")


def _plus(by):
    return lambda real: lambda *args: real(*args) + by


def _misplaced(point, cell):
    return lambda real: lambda R, T: cell if (R, T) == point else real(R, T)


def _bumped(where):
    return lambda real: lambda R, T: real(R, T) + where(R, T)


RC = record_constants()

# A check, the name it calls in suites, how to break that, and the detail
# of the failure the check must then report.
BROKEN = [
    (suites.check_charsum_oracle, "_char_sum_l4_prefixes", _plus(1), "mismatch at p=3 r=0 t=1"),
    (
        suites.check_decomposition, "_window_sum_sq", _plus(1),
        "D closed form broken at FeketeSpec(p=3, r=0, t=1)",
    ),
    (
        suites.check_exponential_sum_bound, "technical_lemma_check",
        lambda real: lambda n, t: real(n, t)._replace(ok=False), "G=1.000e+00 > bound at n=1 t=1",
    ),
    (suites.check_periodic_bound, "periodic_lower_bound", _plus(1), "floor broken m=1 t=1 (-1,)"),
    (suites.check_periodic_bound, "periodic_lower_bound", _plus(-1), "all-ones equality broken t=1"),
    (suites.check_kernels, "autocorrelation_naive", _plus(1), "mismatch at length 2"),
    (
        suites.check_convergence, "run_convergence",
        lambda real: lambda *args: [SimpleNamespace(rel_err=0.5)] * 8,
        "(1/4,1) final=5.00e-01 (R0,T0) final=5.00e-01",
    ),
    (
        suites.check_region_pieces, "region_classify", _misplaced((RC.R0, RC.T0), Region.D5),
        "(R0,T0) not in the fourth cell",
    ),
    (
        suites.check_region_pieces, "region_classify", _misplaced((0.25, 1.0), Region.D4),
        "(1/4,1) boundary tie not lowest",
    ),
    (
        suites.check_region_pieces, "region_classify", _misplaced((0.0, 0.5), Region.D2),
        "(0,1/2) not in the first cell",
    ),
    (
        suites.check_region_pieces, "region_classify", _misplaced((0.1, 2.0), Region.D6),
        "T=2 not flagged outside",
    ),
    (suites.check_region_pieces, "u4_closed_form", _plus(1e-9), "u4 deviates 1.00e-09"),
    # each bump breaks one property of u and keeps the ones checked before it
    (
        suites.check_region_pieces, "ratio_limit_u", _bumped(lambda R, T: -10.0 * (R < -1.5)),
        "lower bound broken at (-1.7156192812092637,2.142145957296802)",
    ),
    (
        suites.check_region_pieces, "ratio_limit_u", _bumped(lambda R, T: 1e-6 * (R >= 2.0)),
        "half-period broken by 1.00e-06",
    ),
    (
        suites.check_region_pieces, "ratio_limit_u",
        _bumped(lambda R, T: 1e-6 * (T < 1) * (normalize_R(R) < 0.1)),
        "reflection broken by 1.00e-06",
    ),
    (
        suites.check_region_pieces, "ratio_limit_u",
        _bumped(lambda R, T: 1e-6 * (T >= 1) * (normalize_R(R) > 0.45) * (normalize_R(R) + T > 1.5)),
        "reflection broken by 1.00e-06",
    ),
]


@pytest.mark.parametrize(
    "check,name,broken,detail", BROKEN, ids=[f"{c.name}: {d}" for c, _, _, d in BROKEN]
)
def test_check_reports_a_broken_dependency(monkeypatch, check, name, broken, detail):
    monkeypatch.setattr(suites, name, broken(getattr(suites, name)))
    result = check()
    assert not result.passed
    assert result.detail == detail


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
    if check.name in DETAILS:
        assert result.detail == DETAILS[check.name], line
    budget = suites.CHECK_BUDGET_S
    assert elapsed < budget, f"{case} exceeded the {budget:.0f}s budget: {elapsed:.2f}s"
