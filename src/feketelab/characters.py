"""Legendre-symbol primitives and complete character sums over F_p.

Everything here is an exact, direct-summation oracle: no analytic
shortcuts, no Jacobi-sum acceleration.  The quartic sum is O(p) per call
and is meant for verification at p up to ~1e5, not as a hot path.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .primality import require_odd_prime


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) via Euler's criterion.

    Returns 0 if p | a, +1 if a is a nonzero quadratic residue mod p,
    -1 otherwise.  Totally multiplicative in a.
    """
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# A scan round uses 12 primes, each up to four times in a row; 16 tables of
# p bytes each bound the cache at 16 MB for p ~ 1e6.
@lru_cache(maxsize=16)
def legendre_table(p: int) -> np.ndarray:
    """Read-only int8 table of (x|p) for 0 <= x < p.

    Built by enumerating the nonzero squares mod p, k^2 for 1 <= k <=
    (p-1)/2 (since (p-k)^2 = k^2); must agree with legendre() everywhere
    (checked exhaustively for p <= 101 in the test suite).
    """
    require_odd_prime(p)
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    k = np.arange(1, (p + 1) // 2, dtype=np.int64)
    table[k * k % p] = 1
    table.setflags(write=False)
    return table


def gauss_sum_residual(p: int, j: int) -> float:
    """Deviation of the additive-character sum from its closed form.

    Computes |sum_{k in F_p} e^{2 pi i j k / p} (k|p) - i^{((p-1)/2)^2}
    sqrt(p) (j|p)| in double-precision complex arithmetic.  The sum of p
    unit-magnitude terms carries O(p * ulp) rounding error, so callers
    should compare against a tolerance proportional to p.
    """
    require_odd_prime(p)
    table = legendre_table(p)
    k = np.arange(p)
    lhs = complex(np.sum(np.exp(2j * np.pi * (j % p) * k / p) * table))
    quarter_turns = ((p - 1) // 2) ** 2 % 4
    rhs = 1j**quarter_turns * math.sqrt(p) * int(table[j % p])
    return abs(lhs - rhs)


class QuarticSumResult(NamedTuple):
    """Complete sum of (x(x-a)(x-b)(x-c)|p) over x, split main + error."""

    value: int
    is_square_case: bool
    main_term: int
    error_term: int


def is_square_polynomial(a: int, b: int, c: int, p: int) -> bool:
    """Whether x(x-a)(x-b)(x-c) is a square in F_p[x].

    The roots {0, a, b, c} pair up into two double roots in exactly
    three ways: a=c with b=0, b=a with c=0, or c=b with a=0.
    """
    require_odd_prime(p)
    a, b, c = a % p, b % p, c % p
    return (a == c and b == 0) or (b == a and c == 0) or (c == b and a == 0)


def quartic_char_sum(a: int, b: int, c: int, p: int) -> QuarticSumResult:
    """L(a,b,c) = sum_{x in F_p} (x(x-a)(x-b)(x-c)|p) by direct summation.

    The main term is p when the quartic is a square in F_p[x] and 0
    otherwise; the error term is what remains.  In the square case the
    value is exactly p-1 (quadruple root) or p-2 (two distinct double
    roots); otherwise |value| <= 3 sqrt(p) by the Weil bound.
    """
    require_odd_prime(p)
    table = legendre_table(p)
    a, b, c = a % p, b % p, c % p
    x = np.arange(p, dtype=np.int64)
    quartic = x * ((x - a) % p) % p * ((x - b) % p) % p * ((x - c) % p) % p
    value = int(table[quartic].sum())
    square = is_square_polynomial(a, b, c, p)
    main = p if square else 0
    return QuarticSumResult(value, square, main, value - main)
