"""Deterministic primality testing and prime enumeration, with no cache.

Arguments may be any integral type; bool, floats and other types raise
ValueError naming the argument.
"""

from __future__ import annotations

import operator

# Witnesses proving compositeness for every composite below 3.3e24,
# which covers the full 64-bit range (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    n = as_int(n, "n")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_int(value, what: str) -> int:
    """value as a Python int, for any integral type (numpy integers too).

    bool and floats, integral or not, raise ValueError naming `what`.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def require_odd_prime(p) -> int:
    """Validate that p is an odd prime (>= 3) fitting in a 64-bit word;
    returns it as a Python int."""
    p = as_int(p, "modulus")
    if p >= 2**63:
        raise ValueError(f"modulus must fit in a 64-bit word, got {p}")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    return p


def primes_in(lo: int, hi: int) -> list[int]:
    """All odd primes in [lo, hi], ascending."""
    lo, hi = as_int(lo, "lo"), as_int(hi, "hi")
    if not (3 <= lo <= hi < 2**63):
        raise ValueError(f"need 3 <= lo <= hi < 2^63, got [{lo}, {hi}]")
    start = lo if lo % 2 == 1 else lo + 1
    return [n for n in range(start, hi + 1, 2) if is_prime(n)]


def next_prime_at_least(n: int) -> int:
    """Smallest odd prime >= n."""
    n = max(as_int(n, "n"), 3)
    if n % 2 == 0:
        n += 1
    while not is_prime(n):
        n += 2
    return n
