"""Named verification suites behind `feketelab verify` and the acceptance tests.

Each check is declared once, by `_gate`: its name (printed by `verify`,
the acceptance tests' id) and its pinned tolerances.  Every check is
held to one time budget, CHECK_BUDGET_S.  A suite is a tuple of checks.
The `all` suite is the full gate: every check, in the order declared
below.  Every check must pass for the build to be considered healthy,
and every other suite draws its checks from it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .asymptotics import (
    Region,
    _grid_scan,
    _refine,
    hj_specialization,
    ratio_limit_u,
    record_constants,
    region_classify,
    u4_closed_form,
)
from .characters import _gauss_sum_residuals, quartic_char_sum
from .experiments import _lemma_bounds, five_term_decomposition, run_convergence
from .primality import primes_in
from .sequences import (
    FeketeSpec,
    autocorrelation_fast,
    autocorrelation_naive,
    fekete_coeffs,
    l4_norm_pow4,
    periodic_lower_bound,
    _autocorrelation_rows,
    _char_sum_l4_prefixes,
    _l4_rows,
    _window_sum_sq,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# Seconds any check may take.  In 30 in-process runs (6 processes) on a
# 2-vCPU VM the slowest, kernel-equality, took 0.12-0.18 s, with
# exponential-sum-bound next at 0.07-0.11 s and weil-square-cases at
# 0.021-0.029 s; gauss-identity took 0.003-0.006 s and global-optimizer
# 0.003-0.005 s.  The direct kernel's matrix products run on one OpenBLAS
# thread, so a neighbour that keeps BLAS threads busy no longer stalls
# kernel-equality.
CHECK_BUDGET_S = 2.0

# Every check, in declaration order: the `all` suite.
_DECLARED: list = []


def _gate(name: str):
    """Declare a check under its one name, carried as its `name`.

    The decorated body returns (passed, detail); the check that SUITES
    holds wraps that pair in a CheckResult under `name`, and joins the
    `all` suite in declaration order.
    """

    def declare(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            passed, detail = body()
            return CheckResult(name, passed, detail)

        check.name = name
        _DECLARED.append(check)
        return check

    return declare


@_gate("record-constant")
def check_record_constants() -> tuple[bool, str]:
    """c solves its cubic to 1e-12, lies below 22/19, and 1/(c-1) > 6.34."""
    rc = record_constants()
    residual = abs(27 * rc.c**3 - 498 * rc.c**2 + 1164 * rc.c - 722)
    ok = residual < 1e-12 and rc.c < 22 / 19 and rc.merit_factor_limit > 6.34
    return ok, (
        f"c={rc.c:.15g} residual={residual:.2e} 22/19-c={22 / 19 - rc.c:.3e} "
        f"1/(c-1)={rc.merit_factor_limit:.6f}"
    )


@_gate("minimum-consistency")
def check_minimum_consistency() -> tuple[bool, str]:
    """u(R0, T0) = c to 1e-10, with T0 the bracketed middle cubic root."""
    rc = record_constants()
    t_residual = abs(4 * rc.T0**3 - 30 * rc.T0 + 27)
    u_minus_c = ratio_limit_u(rc.R0, rc.T0) - rc.c
    ok = (
        t_residual < 1e-12
        and 1.0 < rc.T0 < 1.5
        and abs(rc.R0 - (3 - 2 * rc.T0) / 4) < 1e-15
        and abs(u_minus_c) < 1e-10
    )
    return ok, f"T0={rc.T0:.15g} R0={rc.R0:.15g} u(R0,T0)-c={u_minus_c:.2e}"


@_gate("global-optimizer")
def check_global_optimizer() -> tuple[bool, str]:
    """Grid + refinement recovers (R0, T0, c); no grid point undercuts c.
    minimize_u's two halves, with the one scan of D read by both."""
    rc = record_constants()
    step = 1 / 512
    scan = _grid_scan(step)
    r_star, t_star, u_star = _refine(scan, step, 1e-9)
    grid_min = scan[0]
    ok = (
        abs(u_star - rc.c) < 1e-8
        and abs(r_star - rc.R0) < 1e-6
        and abs(t_star - rc.T0) < 1e-6
        and grid_min >= rc.c - 1e-8
    )
    return ok, (
        f"|R*-R0|={abs(r_star - rc.R0):.2e} |T*-T0|={abs(t_star - rc.T0):.2e} "
        f"|u*-c|={abs(u_star - rc.c):.2e} grid_min-c={grid_min - rc.c:.2e}"
    )


def _max_abs(diff: np.ndarray) -> float:
    return float(np.max(np.abs(diff)))


@_gate("hj-specialization")
def check_hj_specialization() -> tuple[bool, str]:
    """On the T = 1 line, u matches 7/6 + 8(|R| - 1/4)^2 to 1e-12."""
    r = np.linspace(-0.5, 0.5, 1000)
    worst = _max_abs(ratio_limit_u(r, 1.0) - hj_specialization(r))
    return worst < 1e-12, f"max|diff|={worst:.2e}"


@_gate("charsum-oracle")
def check_charsum_oracle() -> tuple[bool, str]:
    """Quadruple character sum equals the autocorrelation norm exactly,
    at every length t <= 2p: one prefix pass and one row per (p, r), one
    norm call per (p, t) on the row prefixes; first mismatch in (r, t) order."""
    checked = 0
    for p in primes_in(3, 13):
        specs = [FeketeSpec(p, r, 2 * p) for r in range(p)]
        sums = np.array([_char_sum_l4_prefixes(spec) for spec in specs])
        rows = np.array([fekete_coeffs(spec) for spec in specs])
        norms = np.empty_like(sums)
        for t in range(1, 2 * p + 1):
            norms[:, t - 1] = _l4_rows(rows[:, :t])
        bad = np.flatnonzero(sums != norms)
        if bad.size:
            r, t = divmod(int(bad[0]), 2 * p)
            return False, f"mismatch at p={p} r={r} t={t + 1}"
        checked += sums.size
    return True, f"{checked} specs equal exactly"


def _decomposition_grid(primes: list[int]):
    for p in primes:
        for r in sorted({0, p // 4}):
            for t in (p // 2, p, 3 * p // 2):
                yield FeketeSpec(p, r, t)


@_gate("decomposition")
def check_decomposition() -> tuple[bool, str]:
    """Closed forms A=B, C, D leave a remainder that shrinks with p.

    On the p <= 101 grid, A+B+C+D+E must equal the norm from the direct
    kernel, which the decomposition's spectral norm does not use, and D
    must equal its defining lattice sum.  max |E|/p^2
    over {401, 809, 1601} must undercut {11, 23, 47}, whose reports the
    p <= 101 loop already makes.
    """
    small = 0.0
    for spec in _decomposition_grid(primes_in(3, 101)):
        rep = five_term_decomposition(spec)
        if spec.p in (11, 23, 47):
            small = max(small, abs(rep.E_normalized))
        exact = l4_norm_pow4(fekete_coeffs(spec), kernel="naive")
        if exact != rep.A + rep.B + rep.C + rep.D + rep.E_actual:
            return False, f"identity broken at {spec}"
        if rep.D != -Fraction(2, spec.p) * _window_sum_sq(spec.t, 1, spec.t - 1):
            return False, f"D closed form broken at {spec}"

    large = max(
        abs(five_term_decomposition(spec).E_normalized)
        for spec in _decomposition_grid([401, 809, 1601])
    )
    return large < small, f"identity exact on p<=101 grid; max|E|/p^2 {small:.4f} -> {large:.4f}"


@_gate("weil-square-cases")
def check_weil_square_cases() -> tuple[bool, str]:
    """Exhaustive p <= 31: |L| <= 3 sqrt(p) off the square cases, which
    are exactly p-1 (quadruple root) or p-2 (two double roots).  Each
    prime's full (a, b, c) table is one array call; the first failure is
    reported in lexicographic order."""
    checked = 0
    for p in primes_in(3, 31):
        a, b, c = np.ogrid[:p, :p, :p]
        res = quartic_char_sum(a, b, c, p)
        expected = np.where((a == 0) & (b == 0) & (c == 0), p - 1, p - 2)
        ok = np.where(
            res.is_square_case, res.value == expected, np.abs(res.value) <= 3 * math.sqrt(p)
        )
        bad = np.flatnonzero(~ok)
        if bad.size:
            at = ",".join(str(int(i)) for i in np.unravel_index(bad[0], ok.shape))
            return False, f"violation at p={p} ({at})"
        checked += ok.size
    return True, f"{checked} triples within bounds"


@_gate("gauss-identity")
def check_gauss_identity() -> tuple[bool, str]:
    """Character-sum residual below 1e-6 p for every p <= 101 and j, every
    j of one p from one blocked sum."""
    worst = 0.0
    for p in primes_in(3, 101):
        worst = max(worst, float(_gauss_sum_residuals(p, np.arange(p)).max()) / p)
    return worst < 1e-6, f"max residual/p={worst:.2e}"


@_gate("exponential-sum-bound")
def check_exponential_sum_bound() -> tuple[bool, str]:
    """G <= 64 max(n,t)^3 (1+ln n)^3 for all n <= 24, t <= 32: one running
    count per n gives every length; first failure in (n, t) order."""
    worst = 0.0
    checked = 0
    for n in range(1, 25):
        for t, res in enumerate(_lemma_bounds(n, 32), 1):
            if not res.ok:
                return False, f"G={res.G:.3e} > bound at n={n} t={t}"
            worst = max(worst, res.G / res.bound)
            checked += 1
    return True, f"{checked} pairs ok, max G/bound={worst:.4f}"


@_gate("periodic-bound")
def check_periodic_bound() -> tuple[bool, str]:
    """Every m-periodic sign sequence (m <= 6, t <= 24) meets the floor;
    the all-ones sequence attains it at m = 1.  One stacked norm call per
    (m, t) covers a prefix of every pattern's 24-long extension; the first
    failure is reported in (pattern, t) order."""
    checked = 0
    for m in range(1, 7):
        rows = np.tile(list(itertools.product((-1, 1), repeat=m)), -(-24 // m))
        ok = np.empty((len(rows), 24), dtype=bool)
        for t in range(1, 25):
            ok[:, t - 1] = _l4_rows(rows[:, :t]) >= periodic_lower_bound(t, m)
        bad = np.flatnonzero(~ok)
        if bad.size:
            i, j = divmod(int(bad[0]), 24)
            return False, f"floor broken m={m} t={j + 1} {tuple(rows[i, :m].tolist())}"
        checked += ok.size
    for t in range(1, 25):
        if l4_norm_pow4([1] * t) != periodic_lower_bound(t, 1):
            return False, f"all-ones equality broken t={t}"
    return True, f"{checked} sequences ok, all-ones tight"


@_gate("kernel-equality")
def check_kernels() -> tuple[bool, str]:
    """Spectral and direct autocorrelation agree exactly on 1000 random
    sign sequences with lengths up to 2^14.  Each group of short lengths
    is drawn as one (count, length) stack, which consumes the stream as
    count draws of that length do, and correlated by one spectral call;
    the long ones are drawn and correlated one at a time.  The first
    mismatch is reported in draw order."""
    rng = np.random.RandomState(20260810)
    checked = 0
    for length, count in ((2, 300), (3, 300), (17, 300), (1024, 80), (2**14, 20)):
        if length < 1024:
            rows = rng.choice([-1, 1], size=(count, length))
            pairs = zip(rows, _autocorrelation_rows(rows))
        else:
            rows = (rng.choice([-1, 1], size=length) for _ in range(count))
            pairs = ((seq, autocorrelation_fast(seq)) for seq in rows)
        for seq, fast in pairs:
            if not (fast == autocorrelation_naive(seq)).all():
                return False, f"mismatch at length {length}"
            checked += 1
    return True, f"{checked} sequences identical"


def _decreasing_trend(errors: list[float]) -> bool:
    """Decay test robust to the one-rung oscillation of the finite-p
    remainder: every error undercuts the one three rungs earlier, and
    the last three rungs sit strictly below the first three."""
    lagged = all(errors[i] < errors[i - 3] for i in range(3, len(errors)))
    separated = max(errors[-3:]) < min(errors[:3])
    return lagged and separated


@_gate("convergence")
def check_convergence() -> tuple[bool, str]:
    """8-prime ladders at (1/4, 1) and (R0, T0) trend down to < 2%."""
    rc = record_constants()
    details = []
    ok = True
    for label, (R, T) in (("(1/4,1)", (0.25, 1.0)), ("(R0,T0)", (rc.R0, rc.T0))):
        errors = [rec.rel_err for rec in run_convergence(R, T, 100, 10_000, 8)]
        ok = ok and _decreasing_trend(errors) and errors[-1] < 0.02
        details.append(f"{label} final={errors[-1]:.2e}")
    return ok, " ".join(details)


# Samples drawn per chunk by check_region_pieces, to bound its temporaries.
_SAMPLE_CHUNK = 4096


def _uniform_chunks(rng: np.random.RandomState, n: int, k: int):
    """n draws of k uniforms each, in chunks, as k arrays per chunk.

    Row-major random_sample((m, k)) consumes the stream in the order of m
    rounds of k scalar rng.uniform calls.
    """
    for start in range(0, n, _SAMPLE_CHUNK):
        yield rng.random_sample((min(_SAMPLE_CHUNK, n - start), k)).T


def _uniform(low, high, unit):
    """rng.uniform(low, high) from its unit draw, bit for bit."""
    return low + (high - low) * unit


@_gate("region-pieces")
def check_region_pieces() -> tuple[bool, str]:
    """Region dispatch, the fourth-cell closed form, and the symmetries
    of u hold at sampling density."""
    rc = record_constants()
    if region_classify(rc.R0, rc.T0) is not Region.D4:
        return False, "(R0,T0) not in the fourth cell"
    if region_classify(0.25, 1.0) is not Region.D3:
        return False, "(1/4,1) boundary tie not lowest"
    if region_classify(0.0, 0.5) is not Region.D1:
        return False, "(0,1/2) not in the first cell"
    if region_classify(0.1, 2.0) is not Region.OUTSIDE:
        return False, "T=2 not flagged outside"

    rng = np.random.RandomState(41)
    worst_u4 = 0.0
    for t, r in _uniform_chunks(rng, 100_000, 2):
        t = _uniform(1.0, 1.5, t)
        r = _uniform(0.0, 1.5 - t, r)
        worst_u4 = max(worst_u4, _max_abs(u4_closed_form(r, t) - ratio_limit_u(r, t)))
    if worst_u4 >= 1e-12:
        return False, f"u4 deviates {worst_u4:.2e}"

    worst_sym = 0.0
    for r, t in _uniform_chunks(rng, 10_000, 2):
        r = _uniform(-2.0, 2.0, r)
        t = _uniform(1e-3, 3.0, t)
        u = ratio_limit_u(r, t)
        worst_sym = max(worst_sym, _max_abs(u - ratio_limit_u(r + 0.5, t)))
        below = np.flatnonzero(u < 2 - 4 * t / 3 - 1e-12)
        if below.size:
            at = f"({float(r[below[0]])},{float(t[below[0]])})"
            return False, f"lower bound broken at {at}"
    if worst_sym >= 1e-10:
        return False, f"half-period broken by {worst_sym:.2e}"

    worst_refl = 0.0
    for t, r, t2, r2 in _uniform_chunks(rng, 10_000, 4):
        t = _uniform(0.5, 1.0, t)
        r = _uniform(0.0, 1.0 - t, r)  # inside D1 u D2: T + R <= 1
        worst_refl = max(
            worst_refl, _max_abs(ratio_limit_u(r, t) - ratio_limit_u(1.0 - r - t, t))
        )
        t = _uniform(1.0, 1.5, t2)
        r = _uniform(np.maximum(0.0, 1.5 - t), 0.5, r2)  # inside D5 u D6: T + R >= 3/2
        worst_refl = max(
            worst_refl, _max_abs(ratio_limit_u(r, t) - ratio_limit_u(2.0 - r - t, t))
        )
    if worst_refl >= 1e-10:
        return False, f"reflection broken by {worst_refl:.2e}"
    return True, (
        f"dispatch ok, u4 max dev={worst_u4:.2e}, symmetries to {max(worst_sym, worst_refl):.2e}"
    )


SUITES: dict[str, tuple] = {
    "charsum": (check_charsum_oracle,),
    "decomposition": (check_decomposition,),
    "lemma3": (check_exponential_sum_bound,),
    "kernels": (check_kernels,),
    "regions": (check_region_pieces, check_hj_specialization),
    "all": tuple(_DECLARED),
}


def run_suite(name: str) -> list[CheckResult]:
    """Run a named suite; unknown names raise ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [check() for check in SUITES[name]]
