"""Legendre-symbol primitives and complete character sums over F_p.

Everything here is an exact, direct-summation oracle: no analytic
shortcuts, no Jacobi-sum acceleration.  The quartic sum forms each
product x(x-a)(x-b)(x-c) mod p and looks it up in the Legendre table,
for one triple or a whole broadcast table of triples at once.  It walks
x in blocks, so each temporary holds at most max(_QUARTIC_BLOCK, number
of triples) elements: O(p) work per triple, in numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .primality import as_int, require_odd_prime


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) via Euler's criterion.

    Returns 0 if p | a, +1 if a is a nonzero quadratic residue mod p,
    -1 otherwise.  Totally multiplicative in a.  Any integral a is
    accepted; bool, float and str raise ValueError.
    """
    p = require_odd_prime(p)
    a = as_int(a, "a") % p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# Building a table peaks at 5 bytes per residue: the int8 table plus one
# int64 index for each of the (p - 1)/2 nonzero squares.  A 256 MiB build
# caps p at about 5.4e7, so p ~ 1e7 (50 MB) stays well inside.
_TABLE_BYTES_PER_RESIDUE = 5
LEGENDRE_TABLE_MAX_P = 2**28 // _TABLE_BYTES_PER_RESIDUE


# A scan round uses 12 primes, each up to four times in a row; 16 tables of
# p bytes each bound the cache at 16 MB for p ~ 1e6, and at 860 MB for
# p up to LEGENDRE_TABLE_MAX_P.
@lru_cache(maxsize=16)
def legendre_table(p: int) -> np.ndarray:
    """Read-only int8 table of (x|p) for 0 <= x < p.

    Built by enumerating the nonzero squares mod p, k^2 for 1 <= k <=
    (p-1)/2 (since (p-k)^2 = k^2); must agree with legendre() everywhere
    (checked exhaustively for p <= 101 in the test suite).  A prime above
    LEGENDRE_TABLE_MAX_P raises ValueError before anything is allocated.
    """
    require_odd_prime(p)
    if p > LEGENDRE_TABLE_MAX_P:
        raise ValueError(
            f"modulus {p} is too large for a Legendre table: at most "
            f"{LEGENDRE_TABLE_MAX_P} ({_TABLE_BYTES_PER_RESIDUE} bytes per residue)"
        )
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    squares = np.arange(1, (p + 1) // 2, dtype=np.int64)
    squares *= squares
    squares %= p
    table[squares] = 1
    table.setflags(write=False)
    return table


# Residues per block of gauss_sum_residual's sum: its temporaries, about
# 36 bytes per residue, stay near 2.5 MiB whatever p is.
_GAUSS_BLOCK = 2**16


def gauss_sum_residual(p: int, j: int) -> float:
    """Deviation of the additive-character sum from its closed form.

    Computes |sum_{k in F_p} e^{2 pi i j k / p} (k|p) - i^{((p-1)/2)^2}
    sqrt(p) (j|p)| in double-precision complex arithmetic, summing k in
    blocks of _GAUSS_BLOCK residues.  The sum of p unit-magnitude terms
    carries O(p * ulp) rounding error, so callers should compare against
    a tolerance proportional to p.
    """
    j = as_int(j, "j")
    table = legendre_table(p)
    lhs = 0j
    for lo in range(0, p, _GAUSS_BLOCK):
        k = np.arange(lo, min(p, lo + _GAUSS_BLOCK))
        lhs += complex(np.sum(np.exp(2j * np.pi * (j % p) * k / p) * table[lo : lo + k.size]))
    quarter_turns = ((p - 1) // 2) ** 2 % 4
    rhs = 1j**quarter_turns * math.sqrt(p) * int(table[j % p])
    return abs(lhs - rhs)


class QuarticSumResult(NamedTuple):
    """Complete sum of (x(x-a)(x-b)(x-c)|p) over x, split main + error.

    Each field is an array of the broadcast shape for array inputs.
    """

    value: int
    is_square_case: bool
    main_term: int
    error_term: int


def _residues(value, p: int, what: str):
    """value mod p: a Python int for a scalar, an int64 array for an array.

    Scalars pass through primality.as_int; arrays (and lists) need an
    integer dtype.  Bool, float and str raise ValueError.
    """
    if np.ndim(value) == 0:
        return as_int(value, what) % p
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.dtype == np.uint64:  # values past 2^63 would wrap in int64
        arr = arr % np.uint64(p)
    return arr.astype(np.int64) % p


def is_square_polynomial(a, b, c, p: int):
    """Whether x(x-a)(x-b)(x-c) is a square in F_p[x].

    The roots {0, a, b, c} pair up into two double roots in exactly
    three ways: a=c with b=0, b=a with c=0, or c=b with a=0.  Integer
    arrays broadcast against each other and give a bool array; scalars
    give a bool.
    """
    p = require_odd_prime(p)
    a, b, c = (_residues(v, p, name) for v, name in ((a, "a"), (b, "b"), (c, "c")))
    return ((a == c) & (b == 0)) | ((b == a) & (c == 0)) | ((c == b) & (a == 0))


# Elements per temporary in _quartic_sums: a block of x values times the
# triples.  2^16 int64 elements keep each temporary at 512 KiB.
_QUARTIC_BLOCK = 2**16


def _quartic_sums(a, b, c, p: int) -> np.ndarray:
    """sum_x (x(x-a)(x-b)(x-c) | p) for residues a, b, c in [0, p).

    a, b and c are ints or int64 arrays that broadcast together; the
    result is an int64 array of their broadcast shape.  x runs in blocks
    of max(1, _QUARTIC_BLOCK // triples) values.
    """
    table = legendre_table(p)
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c))
    step = max(1, _QUARTIC_BLOCK // max(math.prod(shape), 1))
    total = np.zeros(shape, dtype=np.int64)
    for start in range(0, p, step):
        x = np.arange(start, min(start + step, p), dtype=np.int64)
        x = x.reshape((-1,) + (1,) * len(shape))
        quartic = x * ((x - a) % p) % p * ((x - b) % p) % p * ((x - c) % p) % p
        total += table[quartic].sum(axis=0)
    return total


def quartic_char_sum(a, b, c, p: int) -> QuarticSumResult:
    """L(a,b,c) = sum_{x in F_p} (x(x-a)(x-b)(x-c)|p) by direct summation.

    The main term is p when the quartic is a square in F_p[x] and 0
    otherwise; the error term is what remains.  In the square case the
    value is exactly p-1 (quadruple root) or p-2 (two distinct double
    roots); otherwise |value| <= 3 sqrt(p) by the Weil bound.

    Scalars give Python ints and a bool.  Integer arrays broadcast
    against each other, and every field is an array of that shape.
    """
    p = require_odd_prime(p)
    a, b, c = (_residues(v, p, name) for v, name in ((a, "a"), (b, "b"), (c, "c")))
    value = _quartic_sums(a, b, c, p)
    if value.ndim == 0:
        value = int(value)
    square = is_square_polynomial(a, b, c, p)
    main = p * square
    return QuarticSumResult(value, square, main, value - main)
