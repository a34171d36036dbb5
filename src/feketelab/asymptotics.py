"""The asymptotic fourth-power ratio surface u(R, T) and its global minimum.

With r/p -> R and t/p -> T, the normalized fourth-power norm of the
Littlewood-ized sequence tends to

    Phi(R, T) = -4T^3/3 + 2 sum_n max(0, T - |n|)^2
                        +   sum_n max(0, T - |T + 2R - n|)^2,

and u(R, T) = Phi(R, T) / T^2 is the limit of ||g||_4^4 / ||g||_2^4.
Both lattice sums have finite support and are summed in closed form, in
constant time for any T.  u is invariant under R -> R + 1/2, and on the
box D = [0, 1/2] x [1/2, 3/2] it is piecewise rational over six closed
regions; its unique global minimum is the smallest root of
27x^3 - 498x^2 + 1164x - 722.  minimize_u checks that minimum apart
from the cubics, with one search routine: a grid scan of D, repeated on
boxes that shrink 4x around the best point so far.
"""

from __future__ import annotations

import enum
import math
import numbers
from typing import NamedTuple, Union

import numpy as np

# Cubics pinning the optimum: T0 is the middle root of the first,
# c the smallest root of the second, R0 = (3 - 2 T0)/4.
LENGTH_CUBIC = (4.0, 0.0, -30.0, 27.0)
RECORD_CUBIC = (27.0, -498.0, 1164.0, -722.0)

FloatOrArray = Union[float, np.ndarray]

# Largest length fraction accepted: the range where the closed form is tested
# against exact lattice sums (relative error <= 1e-15); u matters near T = 1.
T_MAX = 2.0**20
# Smallest length fraction accepted: T*T stays a normal float, so
# u = Phi / T^2 keeps full precision instead of dividing by an underflow.
T_MIN = 2.0**-500
# Smallest grid step minimize_u accepts: its scan takes ~1/(2 step^2) points.
MIN_GRID_STEP = 2.0**-12
# Grid points per block of the vectorized scan, to bound its temporaries.
_SCAN_BLOCK = 8192


def _real(x):
    """x computed in float64: a float (np.float64 included) as is, an
    array of bool, integer or float dtype as a float64 array, any other
    real number (a numpy float32 or int64 too) as a Python float.  Each
    public function widens its inputs with it once; str, None, complex
    and other arrays raise TypeError."""
    if isinstance(x, float):
        return x
    if isinstance(x, np.ndarray) and x.dtype.kind in "biuf":
        return x.astype(np.float64, copy=False)
    if isinstance(x, (numbers.Real, np.bool_)):
        return float(x)
    raise TypeError(f"expected a real number or array, got {type(x).__name__}")


def limit_l4_normalized(R: FloatOrArray, T: FloatOrArray) -> FloatOrArray:
    """Phi(R, T): the limit of ||g||_4^4 / p^2.  Requires finite R, T in [2**-500, 2**20].

    R and T are real numbers or arrays (broadcast together), computed in
    float64; two floats give a float.  R is reduced mod 1/2 first (Phi
    shares u's half-period), so large |R| cannot cancel against T.  Both
    lattice sums, sum_n max(0, T - |x - n|)^2 at x = 0 and x = T + 2R, are
    summed in closed form in K = floor(T), f = T - K and the distance y
    from T + 2R to the nearest n + 1/2.  This is the one body for both
    routes, written with + - * / abs only (squares as products, max(0, d)
    as (d + |d|)/2) after one exact floor, so an array element and the
    same float give bit-identical values.
    """
    R, T = _real(R), _real(T)
    if isinstance(R, float) and isinstance(T, float):
        t_lo = t_hi = T
    else:
        T = np.asarray(T)
        # min/max propagate NaN; the initial 1.0 covers empty arrays
        t_lo, t_hi = T.min(initial=1.0), T.max(initial=1.0)
    if not (T_MIN <= t_lo and t_hi <= T_MAX):
        bad = t_hi if t_lo >= T_MIN else t_lo
        raise ValueError(
            f"length fraction T must be positive, in [2**-500, 2**20], got {bad}"
        )
    R = normalize_R(R)
    # Floor of T, exact for T > 0; numpy's float % costs ~28x np.floor.
    K = T - T % 1.0 if isinstance(T, float) else np.floor(T)
    f = T - K
    # T + 2R sits y away from the nearest n + 1/2 (0 <= 2R < 1).
    y = abs(abs(f + 2.0 * R - 1.0) - 0.5)
    lo, hi = f - 0.5 - y, f - 0.5 + y
    lo, hi = (lo + abs(lo)) * 0.5, (hi + abs(hi)) * 0.5
    # 3 Phi: no term is negative (K >= 0, 0 <= f < 1), so nothing cancels,
    # and one division rounds an exact numerator correctly.
    cubic = K * (K * (2.0 * K + 6.0 * f) + 6.0 * (f * f + y * y) + 1.5)
    return (cubic + (f * f) * (6.0 - 4.0 * f) + 3.0 * (hi * hi + lo * lo)) / 3.0


def ratio_limit_u(R: FloatOrArray, T: FloatOrArray) -> FloatOrArray:
    """u(R, T) = Phi(R, T) / T^2, the limit of ||g||_4^4 / ||g||_2^4.

    Accepts real numbers or arrays, like limit_l4_normalized.  Always
    at least 2 - 4T/3, hence > 4/3 whenever T < 1/2.
    """
    T = _real(T)
    return limit_l4_normalized(R, T) / (T * T)


def _all(mask) -> bool:
    """A bool, or whether every element of a bool array is set."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else mask


def normalize_R(R: FloatOrArray) -> FloatOrArray:
    """Reduce the rotation fraction (a real number or array, in float64)
    to [0, 1/2); u is invariant under it."""
    R = _real(R)
    is_array = not isinstance(R, float)
    finite = np.isfinite(R).all() if is_array else math.isfinite(R)
    if not finite:
        raise ValueError(f"rotation fraction must be finite, got {R}")
    r = R % 0.5
    # A tiny negative R rounds up to 1/2 itself, which is the class of 0.
    if is_array:
        return np.where(r == 0.5, 0.0, r)
    return 0.0 if r == 0.5 else r


class Region(enum.Enum):
    """Cover of D = [0, 1/2] x [1/2, 3/2] by six closed cells.

    On each cell u restricts to a single rational expression.  Boundary
    points satisfy two adjacent cells; region_classify reports the lowest
    index, so every point of D gets exactly one cell.
    """

    D1 = 1
    D2 = 2
    D3 = 3
    D4 = 4
    D5 = 5
    D6 = 6
    OUTSIDE = 0


def region_classify(R: float, T: float) -> Region:
    """Locate (R, T) in the six-cell cover after reducing R mod 1/2.

    Both fractions must be finite; a finite T outside [1/2, 3/2] is OUTSIDE.
    """
    R, T = normalize_R(R), _real(T)
    if not 0.5 <= T <= 1.5:
        if not math.isfinite(T):
            raise ValueError(f"length fraction must be finite, got {T}")
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


def u4_closed_form(R: FloatOrArray, T: FloatOrArray) -> FloatOrArray:
    """Rational form of u on the fourth cell (1 <= T, T + R <= 3/2).

    u4 = -4T/3 + 2 + [4(T-1)^2 + (1-2R)^2 + (2T+2R-2)^2] / T^2.
    Along R = (3-2T)/4 this reduces to (-8T^3+48T^2-60T+27)/(6T^2).
    Accepts real numbers or arrays, computed in float64; every element
    must lie in the cell.
    """
    R, T = normalize_R(R), _real(T)
    if not _all((1.0 <= T) & (T <= 1.5) & (T + R <= 1.5)):
        raise ValueError(f"({R}, {T}) lies outside the fourth cell")
    a = T - 1.0
    b = 1.0 - 2.0 * R
    c = 2.0 * T + 2.0 * R - 2.0
    return -4.0 * T / 3.0 + 2.0 + (4.0 * (a * a) + b * b + c * c) / (T * T)


def solve_cubic_root(
    c3: float, c2: float, c1: float, c0: float, lo: float, hi: float
) -> float:
    """Root of c3 x^3 + c2 x^2 + c1 x + c0 in [lo, hi] via bisection to
    adjacent floats.

    The coefficients must be finite, the ends finite and in either order,
    and the cubic must change sign on the bracket.  The bracket is halved
    until its midpoint is one of its ends, so its ends are adjacent
    floats, and that midpoint is returned with no polish; on
    well-conditioned brackets the residual lands near 1e-14 * max
    coefficient.  Every halving moves one end strictly inside, so the loop
    ends, after about 2,100 halvings at most.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got [{lo}, {hi}]")
    # With finite coefficients and ends, Horner's form never yields NaN.
    if not all(map(math.isfinite, (c3, c2, c1, c0))):
        raise ValueError(f"coefficients must be finite, got {(c3, c2, c1, c0)}")

    def f(x: float) -> float:
        return ((c3 * x + c2) * x + c1) * x + c0

    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0) == (fb > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    a, b = lo, hi
    mid = 0.5 * a + 0.5 * b  # a + b may overflow
    while mid != a and mid != b:
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
        mid = 0.5 * a + 0.5 * b
    return mid


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


def hj_specialization(R: FloatOrArray) -> FloatOrArray:
    """u on the T = 1 line: 7/6 + 8(|R| - 1/4)^2 for |R| <= 1/2.

    Accepts a real number or array, computed in float64.
    """
    R = _real(R)
    if not _all(abs(R) <= 0.5):
        raise ValueError(f"|R| <= 1/2 required, got {R}")
    d = abs(R) - 0.25
    return 7.0 / 6.0 + 8.0 * (d * d)


def _grid_scan(
    grid_step: float,
    r_box: tuple[float, float] = (0.0, 0.5),
    t_box: tuple[float, float] = (0.5, 1.5),
) -> tuple[float, float, float]:
    """(u, R, T) at the first minimum of u over the grid of the box
    r_box x t_box (D by default) with the given step, in R-major order,
    as Python floats.

    Each axis runs from its lower bound in whole steps, its last point
    clamped to the upper bound; a bound pair with lo == hi is one point.
    The grid goes through ratio_limit_u in blocks of whole R rows of at
    most ~_SCAN_BLOCK points; np.argmin and the strict comparison across
    blocks both keep the first minimum.
    """
    rs, ts = (
        np.minimum(lo + np.arange(round((hi - lo) / grid_step) + 1) * grid_step, hi)
        for lo, hi in (r_box, t_box)
    )
    rows = max(1, _SCAN_BLOCK // ts.size)
    best = (math.inf, r_box[0], t_box[0])
    for start in range(0, rs.size, rows):
        values = ratio_limit_u(rs[start : start + rows, None], ts[None, :])
        i, k = np.unravel_index(np.argmin(values), values.shape)
        if values[i, k] < best[0]:
            best = (float(values[i, k]), float(rs[start + i]), float(ts[k]))
    return best


def minimize_u(grid_step: float, refine_tol: float) -> tuple[float, float, float]:
    """Deterministic global minimization of u over D = [0,1/2] x [1/2,3/2].

    Exhaustive scan of the grid of D at the given step (required <= 1/64
    so the scan cannot miss the single smooth basin, and >= 2**-12 so the
    scan stays bounded), then the same scan, repeated on a 17 x 17 grid
    over a box of +-window around the best point so far: the window
    starts at two grid steps and shrinks 4x per pass until it is no
    larger than max(refine_tol, 1e-13).  refine_tol must be positive and
    finite (a NaN or infinite tolerance would skip the refinement); the
    1e-13 floor keeps a tiny one from shrinking the scan step to zero.
    Both arguments are computed in float64.  Returns (R*, T*, u*) as
    Python floats.
    In double precision the localization of the minimizer bottoms out
    near 1e-8 (value comparisons cannot resolve the flat quadratic
    bottom below that), far below the 1e-6 the verification suite
    demands.
    """
    grid_step, refine_tol = _real(grid_step), _real(refine_tol)
    if not MIN_GRID_STEP <= grid_step <= 1.0 / 64.0:
        raise ValueError(f"grid step must be in [2**-12, 1/64], got {grid_step}")
    if not (0.0 < refine_tol < math.inf):  # also rejects NaN
        raise ValueError(
            f"refinement tolerance must be positive and finite, got {refine_tol}"
        )

    # At the basin the Hessian of u is about [[14.3, 7.15], [7.15, 8.24]],
    # condition number kappa ~ 5.4.  A grid point lies within h/sqrt(2) of
    # the minimizer, so the grid argmin at step h lies within
    # h sqrt(kappa/2) ~ 1.65h of it, and the next box of +-2h (at step h/4)
    # always contains it.
    u, R, T = _grid_scan(grid_step)
    window = 2.0 * grid_step
    while window > max(refine_tol, 1e-13):
        u, R, T = _grid_scan(
            window / 8.0,
            (max(0.0, R - window), min(0.5, R + window)),
            (max(0.5, T - window), min(1.5, T + window)),
        )
        window *= 0.25
    return R, T, u
