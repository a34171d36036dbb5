import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feketelab.asymptotics import (
    LENGTH_CUBIC,
    MIN_GRID_STEP,
    RECORD_CUBIC,
    T_MAX,
    T_MIN,
    Region,
    hj_specialization,
    limit_l4_normalized,
    minimize_u,
    normalize_R,
    ratio_limit_u,
    record_constants,
    region_classify,
    solve_cubic_root,
    u4_closed_form,
    _grid_scan,
)
from feketelab.sequences import _window_sum_sq

# Frozen from the bisection oracle; cross-checked below against the
# companion-matrix roots.
T0_EXPECTED = 1.0578279068478236
R0_EXPECTED = 0.2210860465760882
C_EXPECTED = 1.157677431123647


def test_limit_examples():
    assert ratio_limit_u(0.25, 1.0) == pytest.approx(7 / 6, abs=1e-14)
    assert limit_l4_normalized(0.0, 0.5) == pytest.approx(1 / 3, abs=1e-14)
    assert ratio_limit_u(0.0, 0.5) == pytest.approx(4 / 3, abs=1e-14)
    assert ratio_limit_u(0.75, 1.0) == ratio_limit_u(0.25, 1.0)


def test_limit_rejects_nonpositive_T():
    with pytest.raises(ValueError):
        limit_l4_normalized(0.1, 0.0)
    with pytest.raises(ValueError):
        ratio_limit_u(0.1, -1.0)


@pytest.mark.parametrize(
    "R,T",
    [(0.0, np.inf), (0.0, np.nan), (0.0, -np.inf), (np.inf, 1.0), (-np.inf, 1.0), (np.nan, 1.0)],
)
def test_limit_rejects_non_finite_arguments(R, T):
    with pytest.raises(ValueError):
        ratio_limit_u(R, T)


def test_limit_reduces_large_R():
    # 1e16 + 0.25 rounds to 1e16, which is 0 mod 1/2
    assert ratio_limit_u(1e16 + 0.25, 1.0) == pytest.approx(5 / 3, abs=1e-14)
    assert ratio_limit_u(1e9 + 0.25, 1.0) == pytest.approx(7 / 6, abs=1e-14)
    assert ratio_limit_u(-(2.0**60), 0.75) == ratio_limit_u(0.0, 0.75)


def limit_by_lattice_loops(R, T):
    """Phi(R, T) for floats, as the two lattice sums over explicit windows."""
    R = normalize_R(R)
    window = math.ceil(T)
    # Terms vanish for |n| >= T in the first sum and, as 0 <= 2R < 1, for
    # n <= 0 and n >= 2T + 1 in the second.
    first = 0.0
    for n in range(1 - window, window):
        d = max(0.0, T - abs(n))
        first += d * d
    second = 0.0
    center = T + 2.0 * R
    for n in range(1, 2 * window + 1):
        d = max(0.0, T - abs(center - n))
        second += d * d
    return -4.0 * (T * T * T) / 3.0 + 2.0 * first + second


def test_limit_matches_the_lattice_loop_oracle():
    rng = np.random.RandomState(2)
    for _ in range(500):
        R = rng.uniform(-3, 3)
        T = rng.uniform(0.05, 3.0)
        assert limit_l4_normalized(R, T) == pytest.approx(
            limit_by_lattice_loops(R, T), abs=1e-12
        )


def test_limit_equals_the_exact_lattice_sums_at_dyadic_points():
    # With p = 2**k, T = t/p and R = r/(2p), both floats exactly:
    # p^2 Phi = -4t^3/(3p) + 2 W(t, p) + W(t, p, t + r), W = _window_sum_sq.
    rng = random.Random(61)
    points = [(2**20, 0, 1), (2**22 + 5, 3, -6)]  # T_MAX and 2**19 + 5/8
    for e in range(-20, 15):  # two points in each octave [2**e, 2**(e+1))
        for _ in range(2):
            k = rng.randint(max(0, -e), 32)
            t = rng.randrange(2 ** (e + k), 2 ** (e + k + 1))
            points.append((t, k, rng.randrange(-(2 ** (k + 3)), 2 ** (k + 3))))
    for t, k, r in points:
        p = 2**k
        T, R = t / p, r / (2 * p)
        assert T_MIN <= T <= T_MAX
        exact = (
            Fraction(-4 * t**3, 3 * p) + 2 * _window_sum_sq(t, p) + _window_sum_sq(t, p, t + r)
        ) / p**2
        assert abs(Fraction(limit_l4_normalized(R, T)) - exact) <= Fraction(1e-15) * exact


# R % 0.5 rounds a tiny negative R up to 0.5 itself
@pytest.mark.parametrize(
    "r,expected", [(0.25, 0.25), (0.75, 0.25), (-0.1, 0.4), (-1e-20, 0.0), (-1e-17, 0.0)]
)
def test_normalize_R_examples(r, expected):
    assert normalize_R(r) == pytest.approx(expected, abs=1e-15)
    assert 0.0 <= normalize_R(r) < 0.5
    assert normalize_R(np.array([r])).tolist() == [normalize_R(r)]


def test_normalize_R_preserves_u():
    rng = np.random.RandomState(8)
    for _ in range(2000):
        R = rng.uniform(-5, 5)
        T = rng.uniform(0.05, 3.0)
        assert ratio_limit_u(R, T) == pytest.approx(
            ratio_limit_u(normalize_R(R), T), abs=1e-10
        )


def test_region_classify_examples():
    rc = record_constants()
    assert region_classify(rc.R0, rc.T0) is Region.D4
    assert region_classify(0.25, 1.0) is Region.D3  # boundary tie, lowest index
    assert region_classify(0.0, 0.5) is Region.D1
    assert region_classify(-1e-20, 1.0) is region_classify(0.0, 1.0) is Region.D1
    # unreduced, R = 0.8 and R = -0.2 would land in other cells
    assert region_classify(0.8, 0.6) is region_classify(-0.2, 0.6) is Region.D2
    assert region_classify(0.8, 1.3) is region_classify(-0.2, 1.3) is Region.D5
    interior = {
        Region.D1: (0.1, 0.6),
        Region.D2: (0.3, 0.6),
        Region.D3: (0.45, 0.9),
        Region.D4: (0.2, 1.2),
        Region.D5: (0.35, 1.2),
        Region.D6: (0.45, 1.2),
    }
    for cell, (R, T) in interior.items():
        assert region_classify(R, T) is cell
    assert region_classify(0.3, 0.4) is Region.OUTSIDE
    assert region_classify(0.3, 1.6) is Region.OUTSIDE
    assert region_classify(0.3, 1e300) is Region.OUTSIDE


@pytest.mark.parametrize("T", [float("nan"), float("inf"), float("-inf")])
def test_region_classify_rejects_non_finite_T(T):
    with pytest.raises(ValueError, match="length fraction must be finite"):
        region_classify(0.1, T)


def test_region_classify_covers_the_box():
    rng = np.random.RandomState(13)
    for _ in range(5000):
        R = rng.uniform(0, 0.5)
        T = rng.uniform(0.5, 1.5)
        assert region_classify(R, T) is not Region.OUTSIDE


def test_u4_closed_form_examples():
    rc = record_constants()
    assert u4_closed_form(0.25, 1.0) == pytest.approx(7 / 6, abs=1e-14)
    assert u4_closed_form(rc.R0, rc.T0) == pytest.approx(rc.c, abs=1e-12)
    with pytest.raises(ValueError):
        u4_closed_form(0.0, 0.9)
    with pytest.raises(ValueError):
        u4_closed_form(0.49, 1.45)


def test_u4_ridge_polynomial_identity():
    for T in np.linspace(1.0, 1.25, 300):
        R = (3 - 2 * T) / 4
        ridge = (-8 * T**3 + 48 * T**2 - 60 * T + 27) / (6 * T**2)
        assert u4_closed_form(R, T) == pytest.approx(ridge, abs=1e-13)


def test_u4_matches_lattice_evaluator_on_cell():
    rng = np.random.RandomState(17)
    for _ in range(5000):
        T = rng.uniform(1.0, 1.5)
        R = rng.uniform(0.0, 1.5 - T)
        assert u4_closed_form(R, T) == pytest.approx(ratio_limit_u(R, T), abs=1e-12)


def test_solve_cubic_root_examples():
    t0 = solve_cubic_root(*LENGTH_CUBIC, 1.0, 1.1)
    assert t0 == pytest.approx(T0_EXPECTED, abs=1e-12)
    c = solve_cubic_root(*RECORD_CUBIC, 1.1, 1.16)
    assert c == pytest.approx(C_EXPECTED, abs=1e-12)
    assert solve_cubic_root(1, 0, 0, -1, 0.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    # The bracket's ends sum past the largest float; the root stays inside.
    assert solve_cubic_root(1, -1.5e308, 0, 0, 1e307, 1.7e308) == pytest.approx(1.5e308, rel=1e-15)
    # No float is a root of x^2 - 2: bisection ends on adjacent floats.
    x = solve_cubic_root(0, 1, 0, -2, 1.0, 2.0)
    assert abs(x - math.sqrt(2)) <= math.ulp(math.sqrt(2)) and x * x - 2 != 0
    # A root exactly at either end of the bracket is returned as is.
    assert solve_cubic_root(1, 0, 0, -8, 1.0, 2.0) == 2.0
    assert solve_cubic_root(-1, 0, 0, 1, 1.0, 2.0) == 1.0


def test_solve_cubic_root_residual_contract():
    for coeffs, lo, hi in ((LENGTH_CUBIC, 1.0, 1.5), (RECORD_CUBIC, 1.0, 22 / 19)):
        c3, c2, c1, c0 = coeffs
        x = solve_cubic_root(c3, c2, c1, c0, lo, hi)
        residual = abs(((c3 * x + c2) * x + c1) * x + c0)
        assert residual <= 1e-14 * max(1.0, abs(c3), abs(c2), abs(c1), abs(c0))


def test_solve_cubic_root_requires_sign_change():
    with pytest.raises(ValueError):
        solve_cubic_root(1, 0, 0, 1, 0.0, 1.0)


def test_solve_cubic_root_converges_on_any_finite_bracket():
    # Halving stops only at adjacent floats, however wide the bracket.
    assert solve_cubic_root(1, 0, 0, -8, 0.0, 1e300) == 2.0
    assert solve_cubic_root(1, 0, 0, -1e-300, 0.0, 1.0) == 1e-100
    # A root near zero in the widest finite bracket takes about 2,100.
    assert solve_cubic_root(0, 0, 1, -5e-324, -1.7e308, 1.7e308) == 5e-324
    assert solve_cubic_root(0, 0, 1, -1e-300, 1.7e308, -1.7e308) == 1e-300
    # The ends may come in either order.
    assert solve_cubic_root(1, 0, 0, -8, 3.0, 0.0) == 2.0
    assert solve_cubic_root(1, 0, 0, -8, 1e300, 0.0) == 2.0


@pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
def test_solve_cubic_root_rejects_a_non_finite_end(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        solve_cubic_root(1, 0, 0, -0.5, lo, hi)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", range(4))
def test_solve_cubic_root_rejects_a_non_finite_coefficient(slot, bad):
    # inf * 0 would make f(0) NaN, and the bisection would compare NaN.
    coeffs = [1.0, 0.0, 0.0, -8.0]
    coeffs[slot] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        solve_cubic_root(*coeffs, 0.0, 3.0)


def test_record_constants_values():
    rc = record_constants()
    # Exact bits, so a solver edit that moves a constant by one ulp shows.
    assert rc.T0 == T0_EXPECTED
    assert rc.R0 == R0_EXPECTED
    assert rc.c == C_EXPECTED
    assert rc.c < 22 / 19
    assert rc.merit_factor_limit > 6.34
    assert rc.R0 == pytest.approx((3 - 2 * rc.T0) / 4, abs=1e-15)


def test_record_constants_against_companion_matrix_roots():
    length_roots = np.sort(np.roots(LENGTH_CUBIC).real)
    record_roots = np.sort(np.roots(RECORD_CUBIC).real)
    rc = record_constants()
    assert rc.T0 == pytest.approx(length_roots[1], abs=1e-9)  # middle root
    assert rc.c == pytest.approx(record_roots[0], abs=1e-9)  # smallest root
    assert 1.0 < rc.T0 < 1.5


def test_u_at_record_point_equals_c():
    rc = record_constants()
    assert abs(ratio_limit_u(rc.R0, rc.T0) - rc.c) < 1e-10


@pytest.mark.parametrize(
    "r,expected", [(0.25, 7 / 6), (0.0, 5 / 3), (-0.25, 7 / 6)]
)
def test_hj_specialization_examples(r, expected):
    assert hj_specialization(r) == pytest.approx(expected, abs=1e-15)


def test_hj_specialization_rejects_large_R():
    with pytest.raises(ValueError):
        hj_specialization(0.51)


def test_hj_matches_lattice_on_grid():
    for r in np.linspace(-0.5, 0.5, 1000):
        assert abs(ratio_limit_u(r, 1.0) - hj_specialization(r)) < 1e-12


def test_minimize_u_recovers_record_point():
    rc = record_constants()
    r_star, t_star, u_star = minimize_u(1 / 128, 1e-10)
    assert abs(r_star - rc.R0) < 1e-6
    assert abs(t_star - rc.T0) < 1e-6
    assert abs(u_star - rc.c) < 1e-8


def test_minimize_u_validates_arguments():
    with pytest.raises(ValueError):
        minimize_u(1 / 32, 1e-9)
    with pytest.raises(ValueError):
        minimize_u(1 / 128, 0.0)
    with pytest.raises(ValueError, match="grid step"):
        minimize_u(MIN_GRID_STEP / 2, 1e-9)
    with pytest.raises(ValueError, match="grid step"):
        minimize_u(float("nan"), 1e-9)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_minimize_u_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        minimize_u(1 / 64, tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-300, 5e-324])
@pytest.mark.parametrize("k", range(6, 13))
def test_minimize_u_lands_on_the_record_point_at_every_step_and_tolerance(k, tol):
    # The refinement window stops at 1e-13 whatever the tolerance, so tiny
    # ones terminate instead of shrinking the scan step to zero.
    rc = record_constants()
    r_star, t_star, u_star = minimize_u(2.0**-k, tol)
    assert abs(r_star - rc.R0) < 1e-6
    assert abs(t_star - rc.T0) < 1e-6
    assert abs(u_star - rc.c) < 1e-8


def test_restricted_minimum_on_unit_T_line():
    # minimize_u's refinement on the degenerate box T = 1, from R = 0.3.
    R, window = 0.3, 1 / 16
    while window > 1e-12:
        u, R, T = _grid_scan(window / 8, (R - window, R + window), (1.0, 1.0))
        window *= 0.25
    assert T == 1.0
    assert abs(R - 0.25) < 1e-6
    assert u == ratio_limit_u(R, 1.0) == pytest.approx(7 / 6, abs=1e-13)


def test_small_T_stays_above_four_thirds():
    rng = np.random.RandomState(29)
    for _ in range(3000):
        R = rng.uniform(0, 0.5)
        T = rng.uniform(0.01, 0.4999)
        assert ratio_limit_u(R, T) > 4 / 3


def test_lower_bound_everywhere():
    rng = np.random.RandomState(31)
    for _ in range(5000):
        R = rng.uniform(-2, 2)
        T = rng.uniform(0.01, 3.0)
        assert ratio_limit_u(R, T) >= 2 - 4 * T / 3 - 1e-12


def test_reflection_symmetries():
    rng = np.random.RandomState(37)
    for _ in range(3000):
        T = rng.uniform(0.5, 1.0)
        R = rng.uniform(0.0, 1.0 - T)  # D1 u D2
        assert ratio_limit_u(R, T) == pytest.approx(
            ratio_limit_u(1.0 - R - T, T), abs=1e-10
        )
        T = rng.uniform(1.0, 1.5)
        R = rng.uniform(max(0.0, 1.5 - T), 0.5)  # D5 u D6
        assert ratio_limit_u(R, T) == pytest.approx(
            ratio_limit_u(2.0 - R - T, T), abs=1e-10
        )


def test_continuity_modulus():
    rng = np.random.RandomState(43)
    delta = 1e-6
    for _ in range(10_000):
        R = rng.uniform(0, 0.5)
        T = rng.uniform(0.5, 1.5)
        jump = abs(ratio_limit_u(R, T) - ratio_limit_u(R + delta, T + delta))
        assert jump <= 100 * delta


def test_grid_scan_never_undercuts_c():
    rc = record_constants()
    step = 1 / 64
    for i in range(33):
        for k in range(65):
            R = min(i * step, 0.5)
            T = min(0.5 + k * step, 1.5)
            assert ratio_limit_u(R, T) >= rc.c - 1e-8


def test_T_above_the_bound_is_rejected():
    assert T_MAX == 2.0**20
    for T in (T_MAX * (1 + 2**-52), 1e18):
        with pytest.raises(ValueError, match="2\\*\\*20"):
            ratio_limit_u(0.0, T)
        with pytest.raises(ValueError, match="2\\*\\*20"):
            ratio_limit_u(np.array([1.0, 0.0]), np.array([1.0, T]))
    # below the bound large T still works: u(0, N) = 2N/3 + 1/N for integer N
    assert ratio_limit_u(0.0, 4096.0) == pytest.approx(2 * 4096 / 3 + 1 / 4096, rel=1e-12)


def test_T_below_the_bound_is_rejected():
    assert T_MIN == 2.0**-500
    # T_MIN * (1 - 2**-53) is the float just below the bound
    for T in (T_MIN * (1 - 2**-53), 1e-300, 5e-324):
        with pytest.raises(ValueError, match="2\\*\\*-500"):
            ratio_limit_u(0.1, T)
        with pytest.raises(ValueError, match="2\\*\\*-500"):
            ratio_limit_u(np.array([0.1, 0.1]), np.array([1.0, T]))
    # at the bound T*T is a normal float and u = 2 - 4T/3 rounds to 2
    assert ratio_limit_u(0.1, T_MIN) == 2.0


def _scalar_u(R, T):
    return np.array([ratio_limit_u(r, t) for r, t in zip(R.tolist(), T.tolist())])


def test_array_u_equals_scalar_u_bit_for_bit():
    rng = np.random.RandomState(53)
    R = rng.uniform(-1e6, 1e6, 200_000)
    T = 3.0 * (1.0 - rng.random_sample(200_000))  # (0, 3]
    values = ratio_limit_u(R, T)
    assert values.dtype == np.float64 and values.shape == R.shape
    assert np.array_equal(values, _scalar_u(R, T))
    phi = limit_l4_normalized(R[:5000], T[:5000])
    assert np.array_equal(
        phi, [limit_l4_normalized(r, t) for r, t in zip(R[:5000].tolist(), T[:5000].tolist())]
    )
    # one element at the largest T changes neither the others nor the cost
    T = T[:5000].copy()
    T[1234] = T_MAX
    assert np.array_equal(ratio_limit_u(R[:5000], T), _scalar_u(R[:5000], T))


def test_array_u4_equals_scalar_u4_bit_for_bit():
    rng = np.random.RandomState(59)
    R = rng.uniform(-1e6, 1e6, 400_000)
    T = rng.uniform(1.0, 1.5, 400_000)
    inside = T + R % 0.5 <= 1.5
    R, T = R[inside], T[inside]
    assert R.size >= 200_000
    scalar = [u4_closed_form(r, t) for r, t in zip(R.tolist(), T.tolist())]
    assert np.array_equal(u4_closed_form(R, T), scalar)
    assert isinstance(scalar[0], float)


def test_array_u_equals_scalar_u_on_the_optimizer_grid():
    step = 1 / 512
    R, T = np.meshgrid(
        np.minimum(np.arange(257) * step, 0.5),
        np.minimum(0.5 + np.arange(513) * step, 1.5),
        indexing="ij",
    )
    assert np.array_equal(ratio_limit_u(R, T).ravel(), _scalar_u(R.ravel(), T.ravel()))


@pytest.mark.parametrize(
    "step, box",
    [
        pytest.param(1 / 64, None, id="0.015625"),
        pytest.param(1 / 128, None, id="0.0078125"),
        # both upper bounds off the grid: the last point of each axis is clamped
        pytest.param(1 / 512, ((0.21, 0.2351), (1.03, 1.0917)), id="sub-box"),
    ],
)
def test_grid_scan_matches_a_plain_double_loop(step, box):
    (r_lo, r_hi), (t_lo, t_hi) = box or ((0.0, 0.5), (0.5, 1.5))
    best_u, best_r, best_t = float("inf"), r_lo, t_lo
    for i in range(round((r_hi - r_lo) / step) + 1):
        R = min(r_lo + i * step, r_hi)
        for k in range(round((t_hi - t_lo) / step) + 1):
            T = min(t_lo + k * step, t_hi)
            val = ratio_limit_u(R, T)
            if val < best_u:
                best_u, best_r, best_t = val, R, T
    scan = _grid_scan(step) if box is None else _grid_scan(step, *box)
    assert scan == (best_u, best_r, best_t)
    assert all(type(x) is float for x in scan)


def test_minimize_u_returns_python_floats():
    assert all(type(x) is float for x in minimize_u(1 / 64, 1e-7))


def test_scalar_u_returns_python_float():
    assert type(ratio_limit_u(0.25, 1.0)) is float
    assert type(limit_l4_normalized(0.25, 1.0)) is float


# Each public function of the limit surface at one valid point; int
# arguments stay valid when a Python int or np.int64 stands in for them.
_POINT_CALLS = [
    (limit_l4_normalized, (0.2, 1.1)),
    (ratio_limit_u, (0.2, 1.1)),
    (normalize_R, (-0.3,)),
    (region_classify, (0.2, 1.1)),
    (u4_closed_form, (0.2, 1.1)),
    (hj_specialization, (0.2,)),
    (limit_l4_normalized, (3, 1)),
    (ratio_limit_u, (0, 1)),
    (normalize_R, (-1,)),
    (region_classify, (0, 1)),
    (u4_closed_form, (0, 1)),
    (hj_specialization, (0,)),
    (minimize_u, (1 / 64, 2**-20)),
    (minimize_u, (1 / 64, 1)),
]


@pytest.mark.parametrize("kind", [np.float32, np.float16, np.int64, int])
@pytest.mark.parametrize("call, args", _POINT_CALLS)
def test_every_real_scalar_is_computed_in_float64(call, args, kind):
    for i, x in enumerate(args):
        if kind in (np.int64, int) and x != int(x):
            continue
        narrow = kind(x)
        got = call(*args[:i], narrow, *args[i + 1 :])
        want = call(*args[:i], float(narrow), *args[i + 1 :])
        assert got == want
        assert type(got) is type(want)
        if isinstance(got, tuple):
            assert all(type(v) is float for v in got)


@pytest.mark.parametrize(
    "call, args",
    [(call, args) for call, args in _POINT_CALLS if call not in (region_classify, minimize_u)],
)
def test_every_float32_array_is_computed_in_float64(call, args):
    arrays = [np.linspace(x, x + 0.05 * (x != 3), 5) for x in args]
    for i, x in enumerate(arrays):
        narrow = x.astype(np.float32)
        got = call(*arrays[:i], narrow, *arrays[i + 1 :])
        want = call(*arrays[:i], narrow.astype(np.float64), *arrays[i + 1 :])
        assert got.dtype == np.float64
        assert np.array_equal(got, want)


def test_minimize_u_refines_a_float32_step_in_float64():
    assert minimize_u(np.float32(1 / 64), 1e-9) == minimize_u(1 / 64, 1e-9)
    assert abs(minimize_u(np.float32(1 / 64), 1e-9)[0] - R0_EXPECTED) < 1e-8


@pytest.mark.parametrize("bad", ["0.25", None, 1 + 0j, np.complex128(1), np.array(["0.25"])])
@pytest.mark.parametrize(
    "call, args",
    [(call, args) for call, args in _POINT_CALLS if all(type(x) is float for x in args)],
)
def test_limit_surface_rejects_a_non_real_input(call, args, bad):
    for i in range(len(args)):
        with pytest.raises(TypeError, match="real number or array"):
            call(*args[:i], bad, *args[i + 1 :])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_array_u_rejects_any_bad_T_element(bad):
    T = np.array([0.5, 1.0, bad, 1.5])
    with pytest.raises(ValueError):
        ratio_limit_u(np.zeros(4), T)
    with pytest.raises(ValueError):
        limit_l4_normalized(0.1, T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_u_rejects_any_non_finite_R_element(bad):
    R = np.array([0.0, 0.25, bad])
    with pytest.raises(ValueError):
        ratio_limit_u(R, np.ones(3))
    with pytest.raises(ValueError):
        u4_closed_form(R, np.full(3, 1.1))


def test_array_u4_and_hj_reject_points_outside_their_domain():
    with pytest.raises(ValueError):
        u4_closed_form(np.array([0.1, 0.0]), np.array([1.1, 0.9]))
    with pytest.raises(ValueError):
        hj_specialization(np.array([0.1, 0.6]))


def test_array_u_broadcasts_in_two_dimensions():
    R = np.linspace(-1.0, 1.0, 7)[:, None]
    T = np.linspace(0.1, 2.9, 5)[None, :]
    values = ratio_limit_u(R, T)
    assert values.shape == (7, 5)
    for i in range(7):
        for k in range(5):
            assert values[i, k] == ratio_limit_u(float(R[i, 0]), float(T[0, k]))
    assert ratio_limit_u(R, 1.0).shape == (7, 1)
    assert ratio_limit_u(0.25, T).shape == (1, 5)
    assert ratio_limit_u(np.empty(0), np.empty(0)).shape == (0,)


def test_array_hj_matches_scalar_hj():
    r = np.linspace(-0.5, 0.5, 1001)
    assert np.array_equal(hj_specialization(r), [hj_specialization(x) for x in r.tolist()])


# Property tests over the domains that check_region_pieces samples; the
# lower bound is also tried from T_MIN up to 64.
_R = st.floats(-2.0, 2.0)
_T = st.floats(1e-3, 3.0)
_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None, database=None)
@given(_R, _T)
def test_u_has_half_period_in_R(R, T):
    assert abs(ratio_limit_u(R + 0.5, T) - ratio_limit_u(R, T)) < 1e-10


@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(0.5, 1.0), _UNIT)
def test_u_reflects_on_the_first_two_cells(T, s):
    R = s * (1.0 - T)  # D1 u D2: T + R <= 1
    assert abs(ratio_limit_u(R, T) - ratio_limit_u(1.0 - R - T, T)) < 1e-10


@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(1.0, 1.5), _UNIT)
def test_u_reflects_on_the_last_two_cells(T, s):
    lo = max(0.0, 1.5 - T)
    R = lo + s * (0.5 - lo)  # D5 u D6: T + R >= 3/2
    assert abs(ratio_limit_u(R, T) - ratio_limit_u(2.0 - R - T, T)) < 1e-10


@settings(max_examples=300, deadline=None, database=None)
@given(_R, st.one_of(_T, st.floats(T_MIN, 64.0)))
def test_u_is_at_least_two_minus_four_thirds_T(R, T):
    assert ratio_limit_u(R, T) >= 2 - 4 * T / 3 - 1e-12
