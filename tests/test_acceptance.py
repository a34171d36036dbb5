"""Acceptance gate: one test per check of `SUITES["all"]`, each printing
its verify line and held to the one time budget `suites.CHECK_BUDGET_S`.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; `feketelab verify --suite all` drives the same checks from the
command line.
"""

import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from feketelab import asymptotics, sequences, suites
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


def test_the_gate_starts_no_worker_thread():
    # Every spectral call of the gate transforms fewer than _PAIR_MIN
    # points, so a fresh process that runs `verify --suite all` never makes
    # the spectral kernel's worker thread.
    program = (
        "import threading\n"
        "from feketelab import cli, sequences\n"
        "assert cli.main(['verify', '--suite', 'all']) == 0\n"
        "names = [t.name for t in threading.enumerate()]\n"
        "print(sequences._fft_worker.cache_info().currsize, names)\n"
    )
    source = os.path.dirname(os.path.dirname(sequences.__file__))
    result = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, check=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=source),
    )
    assert result.stdout.splitlines()[-1] == "0 ['MainThread']"


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
        suites.check_exponential_sum_bound, "_lemma_bounds",
        lambda real: lambda n, t_max: (res._replace(ok=False) for res in real(n, t_max)),
        "G=1.000e+00 > bound at n=1 t=1",
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


def test_periodic_check_reports_its_first_failure_in_pattern_then_length_order(monkeypatch):
    real = suites.periodic_lower_bound
    monkeypatch.setattr(
        suites, "periodic_lower_bound", lambda t, m: real(t, m) + 10**6 * ((t, m) == (5, 3))
    )
    result = suites.check_periodic_bound()
    assert not result.passed
    assert result.detail == "floor broken m=3 t=5 (-1, -1, -1)"


def test_charsum_check_reports_its_first_mismatch_in_rotation_then_length_order(monkeypatch):
    real = suites._char_sum_l4_prefixes

    wrong_at = {2: 9, 4: 3}  # r: t at p = 7

    def broken(spec):
        sums = real(spec).copy()
        if spec.p == 7 and spec.r in wrong_at:
            sums[wrong_at[spec.r] - 1] += 1
        return sums

    monkeypatch.setattr(suites, "_char_sum_l4_prefixes", broken)
    result = suites.check_charsum_oracle()
    assert not result.passed
    # (r, t) = (2, 9) comes before (4, 3) row by row, though not by length
    assert result.detail == "mismatch at p=7 r=2 t=9"


def test_charsum_check_builds_one_row_per_prime_and_rotation(monkeypatch):
    real, seen = suites.fekete_coeffs, []

    def spy(spec):
        seen.append(spec)
        return real(spec)

    monkeypatch.setattr(suites, "fekete_coeffs", spy)
    assert suites.check_charsum_oracle().passed
    # every length t <= 2p is a prefix of the row of length 2p
    assert len(seen) == 3 + 5 + 7 + 11 + 13 == 39
    assert {spec.t for spec in seen} == {2 * spec.p for spec in seen}


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
    # l4_norm_pow4 and autocorrelation_fast share one spectral body
    real = sequences._autocorrelation

    def off_by_one_at_the_last_lag(f, held):
        c = real(f, held).copy()
        c[-1] += 1
        return c

    monkeypatch.setattr(sequences, "_autocorrelation", off_by_one_at_the_last_lag)
    result = suites.check_decomposition()
    assert not result.passed
    assert result.detail == "identity broken at FeketeSpec(p=3, r=0, t=1)"


def test_lemma_check_reports_its_first_failure_in_n_then_length_order(monkeypatch):
    real = suites._lemma_bounds
    broken_at = {(3, 20), (5, 2)}  # (5, 2) has the smaller t, (3, 20) the smaller n

    def broken(n, t_max):
        for t, res in enumerate(real(n, t_max), 1):
            yield res._replace(ok=False) if (n, t) in broken_at else res

    monkeypatch.setattr(suites, "_lemma_bounds", broken)
    result = suites.check_exponential_sum_bound()
    assert not result.passed
    assert result.detail.endswith("> bound at n=3 t=20")


def test_kernel_check_draws_each_short_group_as_its_sequences_one_by_one():
    stacked, one_by_one = np.random.RandomState(20260810), np.random.RandomState(20260810)
    for length in (2, 3, 17):
        rows = stacked.choice([-1, 1], size=(300, length))
        assert (rows == [one_by_one.choice([-1, 1], size=length) for _ in range(300)]).all()
    # the long sequences after them are drawn from the same stream position
    assert (stacked.choice([-1, 1], size=1024) == one_by_one.choice([-1, 1], size=1024)).all()


def test_kernel_check_reports_a_mismatch_in_a_stacked_group(monkeypatch):
    real = suites._short_correlation

    def off_at_length_17(rows):
        c = real(rows)
        if c.shape[-1] == 17:
            c[150, 3] += 1
        return c

    monkeypatch.setattr(suites, "_short_correlation", off_at_length_17)
    result = suites.check_kernels()
    assert not result.passed
    assert result.detail == "mismatch at length 17"


@pytest.mark.parametrize(
    "check,module,shapes",
    [
        (suites.check_charsum_oracle, sequences, [(2 * p * p, 2 * p) for p in (3, 5, 7, 11, 13)]),
        (suites.check_periodic_bound, sequences, [(2**m * 24, 24) for m in range(1, 7)]),
        (suites.check_kernels, suites, [(300, 2), (300, 3), (300, 17)]),
    ],
    ids=["charsum-oracle", "periodic-bound", "kernel-equality"],
)
def test_stacked_checks_make_one_spectral_call_per_group(monkeypatch, check, module, shapes):
    # charsum-oracle: one call per p = 3 .. 13 on the 2p prefixes of each of
    # its p rows; periodic-bound: one per m <= 6 on the 24 prefixes of each
    # of its 2^m patterns, the all-ones norms among them; kernel-equality,
    # which calls the short path from suites: one per short group of 300
    real, seen = module._short_correlation, []

    def spy(rows):
        seen.append(np.shape(rows))
        return real(rows)

    monkeypatch.setattr(module, "_short_correlation", spy)
    assert check().passed
    assert seen == shapes


def test_optimizer_check_scans_the_whole_box_once(monkeypatch):
    real, boxes = asymptotics._grid_scan, []

    def spy(step, *box):
        boxes.append(box)
        return real(step, *box)

    monkeypatch.setattr(asymptotics, "_grid_scan", spy)
    monkeypatch.setattr(suites, "_grid_scan", spy)
    assert suites.check_global_optimizer().passed
    # the scan of D, then one scan per refinement box
    whole = [box for box in boxes if box in ((), ((0.0, 0.5), (0.5, 1.5)))]
    assert whole == [()] == boxes[:1]
    assert len(boxes) > 1


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
