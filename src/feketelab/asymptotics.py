"""The asymptotic fourth-power ratio surface u(R, T) and its global minimum.

With r/p -> R and t/p -> T, the normalized fourth-power norm of the
Littlewood-ized sequence tends to

    Phi(R, T) = -4T^3/3 + 2 sum_n max(0, T - |n|)^2
                        +   sum_n max(0, T - |T + 2R - n|)^2,

and u(R, T) = Phi(R, T) / T^2 is the limit of ||g||_4^4 / ||g||_2^4.
Both lattice sums have finite support and are evaluated exactly over
explicit index windows.  u is invariant under R -> R + 1/2, and on the
box D = [0, 1/2] x [1/2, 3/2] it is piecewise rational over six closed
regions; its unique global minimum is the smallest root of
27x^3 - 498x^2 + 1164x - 722.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

# Cubics pinning the optimum: T0 is the middle root of the first,
# c the smallest root of the second, R0 = (3 - 2 T0)/4.
LENGTH_CUBIC = (4.0, 0.0, -30.0, 27.0)
RECORD_CUBIC = (27.0, -498.0, 1164.0, -722.0)


def limit_l4_normalized(R: float, T: float) -> float:
    """Phi(R, T): the limit of ||g||_4^4 / p^2.  Requires finite R, T > 0.

    R is reduced mod 1/2 first (Phi shares u's half-period), so large |R|
    cannot cancel against T in the lattice window.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"length fraction T must be positive and finite, got {T}")
    R = normalize_R(R)
    # Terms vanish for |n| >= T in the first sum and, as 0 <= 2R < 1, for
    # n <= 0 in the second; skipping them leaves both sums bit-identical.
    first = 0.0
    for n in range(1 - math.ceil(T), math.ceil(T)):
        first += max(0.0, T - abs(n)) ** 2
    second = 0.0
    center = T + 2.0 * R
    for n in range(1, math.ceil(2.0 * T + 2.0 * R) + 1):
        second += max(0.0, T - abs(center - n)) ** 2
    return -4.0 * T**3 / 3.0 + 2.0 * first + second


def ratio_limit_u(R: float, T: float) -> float:
    """u(R, T) = Phi(R, T) / T^2, the limit of ||g||_4^4 / ||g||_2^4.

    Always at least 2 - 4T/3, hence > 4/3 whenever T < 1/2.
    """
    return limit_l4_normalized(R, T) / (T * T)


def normalize_R(R: float) -> float:
    """Reduce the rotation fraction to [0, 1/2); u is invariant under it."""
    if not math.isfinite(R):
        raise ValueError(f"rotation fraction must be finite, got {R}")
    return R % 0.5


class Region(enum.Enum):
    """Cover of D = [0, 1/2] x [1/2, 3/2] by six closed cells.

    On each cell u restricts to a single rational expression.  Boundary
    points satisfy two adjacent cells; classification picks the lowest
    index, purely as a dispatch aid.
    """

    D1 = 1
    D2 = 2
    D3 = 3
    D4 = 4
    D5 = 5
    D6 = 6
    OUTSIDE = 0


def region_classify(R: float, T: float) -> Region:
    """Locate (R, T) in the six-cell cover after reducing R mod 1/2."""
    R = normalize_R(R)
    if not 0.5 <= T <= 1.5:
        return Region.OUTSIDE
    if T + 2 * R <= 1:
        return Region.D1
    if T + R <= 1:
        return Region.D2
    if T <= 1:
        return Region.D3
    if T + R <= 1.5:
        return Region.D4
    if T + 2 * R <= 2:
        return Region.D5
    return Region.D6


def u4_closed_form(R: float, T: float) -> float:
    """Rational form of u on the fourth cell (1 <= T, T + R <= 3/2).

    u4 = -4T/3 + 2 + [4(T-1)^2 + (1-2R)^2 + (2T+2R-2)^2] / T^2.
    Along R = (3-2T)/4 this reduces to (-8T^3+48T^2-60T+27)/(6T^2).
    """
    R = normalize_R(R)
    if not (1.0 <= T <= 1.5 and T + R <= 1.5):
        raise ValueError(f"({R}, {T}) lies outside the fourth cell")
    return (
        -4.0 * T / 3.0
        + 2.0
        + (4.0 * (T - 1.0) ** 2 + (1.0 - 2.0 * R) ** 2 + (2.0 * T + 2.0 * R - 2.0) ** 2)
        / (T * T)
    )


def solve_cubic_root(
    c3: float, c2: float, c1: float, c0: float, lo: float, hi: float
) -> float:
    """Root of c3 x^3 + c2 x^2 + c1 x + c0 in [lo, hi] via bisection.

    The cubic must change sign on the bracket.  The bisection result is
    polished with a few clamped Newton steps; on well-conditioned
    brackets the residual lands near 1e-14 * max coefficient.
    """

    def f(x: float) -> float:
        return ((c3 * x + c2) * x + c1) * x + c0

    def fprime(x: float) -> float:
        return (3.0 * c3 * x + 2.0 * c2) * x + c1

    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0) == (fb > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    x = 0.5 * (a + b)
    for _ in range(3):
        d = fprime(x)
        if d == 0.0:
            break
        x = min(max(x - f(x) / d, lo), hi)
    return x


class RecordConstants(NamedTuple):
    """The minimizing point of u on D and the minimum value.

    T0: middle root of 4x^3 - 30x + 27 (the optimal length fraction);
    R0 = (3 - 2 T0)/4 (the optimal rotation fraction);
    c: smallest root of 27x^3 - 498x^2 + 1164x - 722, with c < 22/19;
    merit_factor_limit = 1/(c - 1) > 6.34.
    """

    T0: float
    R0: float
    c: float
    merit_factor_limit: float


def record_constants() -> RecordConstants:
    """Solve the two cubics and assemble the record constants."""
    T0 = solve_cubic_root(*LENGTH_CUBIC, 1.0, 1.5)
    R0 = (3.0 - 2.0 * T0) / 4.0
    c = solve_cubic_root(*RECORD_CUBIC, 1.0, 22.0 / 19.0)
    return RecordConstants(T0=T0, R0=R0, c=c, merit_factor_limit=1.0 / (c - 1.0))


def hj_specialization(R: float) -> float:
    """u on the T = 1 line: 7/6 + 8(|R| - 1/4)^2 for |R| <= 1/2."""
    if abs(R) > 0.5:
        raise ValueError(f"|R| <= 1/2 required, got {R}")
    return 7.0 / 6.0 + 8.0 * (abs(R) - 0.25) ** 2


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Abscissa of the minimum of a unimodal f on [a, b], within tol."""
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return 0.5 * (a + b)


def minimize_u(grid_step: float, refine_tol: float) -> tuple[float, float, float]:
    """Deterministic global minimization of u over D = [0,1/2] x [1/2,3/2].

    Exhaustive scan of the grid at the given step (required <= 1/64 so
    the scan cannot miss the single smooth basin), then coordinate
    descent with golden-section line searches on a window that halves
    each sweep until it drops below refine_tol.  Returns (R*, T*, u*).
    In double precision the localization of the minimizer bottoms out
    near 1e-8 (value comparisons cannot resolve the flat quadratic
    bottom below that), far below the 1e-6 the verification suite
    demands.
    """
    if not 0.0 < grid_step <= 1.0 / 64.0:
        raise ValueError(f"grid step must be in (0, 1/64], got {grid_step}")
    if refine_tol <= 0.0:
        raise ValueError(f"refinement tolerance must be positive, got {refine_tol}")

    n_r = round(0.5 / grid_step)
    n_t = round(1.0 / grid_step)
    best_u = math.inf
    best_r = 0.0
    best_t = 0.5
    for i in range(n_r + 1):
        R = min(i * grid_step, 0.5)
        for k in range(n_t + 1):
            T = min(0.5 + k * grid_step, 1.5)
            val = ratio_limit_u(R, T)
            if val < best_u or (val == best_u and (R, T) < (best_r, best_t)):
                best_u, best_r, best_t = val, R, T

    # The u-Hessian at the basin gives a coordinate-descent contraction
    # of ~0.43 per sweep, so halving the search window every sweep can
    # never exclude the minimizer once the grid has landed in the basin.
    R, T = best_r, best_t
    window = 2.0 * grid_step
    while window > refine_tol:
        line_tol = max(window * 1e-3, 0.25 * refine_tol, 1e-13)
        R = _golden_min(
            lambda x: ratio_limit_u(x, T),
            max(0.0, R - window),
            min(0.5, R + window),
            line_tol,
        )
        T = _golden_min(
            lambda y: ratio_limit_u(R, y),
            max(0.5, T - window),
            min(1.5, T + window),
            line_tol,
        )
        window *= 0.5
    return R, T, ratio_limit_u(R, T)
