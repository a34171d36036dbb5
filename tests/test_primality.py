import importlib
import pkgutil

import numpy as np
import pytest

import feketelab
from feketelab.characters import legendre_table
from feketelab.primality import is_prime, next_prime_at_least, primes_in, require_odd_prime


def sieve(n):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


def test_is_prime_matches_sieve_to_10000():
    marks = set(sieve(10_000))
    for n in range(10_001):
        assert is_prime(n) == (n in marks), n


@pytest.mark.parametrize(
    "n,expected",
    [
        (561, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (3825123056546413051, False),  # strong pseudoprime to bases 2..23
        (2305843009213693951, True),  # 2^61 - 1
        (9223372036854775783, True),  # largest prime below 2^63
        (0, False),
        (1, False),
        (2, True),
    ],
)
def test_is_prime_hard_cases(n, expected):
    assert is_prime(n) is expected


@pytest.mark.parametrize(
    "lo,hi,expected",
    [
        (3, 20, [3, 5, 7, 11, 13, 17, 19]),
        (90, 100, [97]),
        (25, 28, []),
    ],
)
def test_primes_in(lo, hi, expected):
    assert primes_in(lo, hi) == expected


def test_primes_in_rejects_bad_ranges():
    with pytest.raises(ValueError):
        primes_in(2, 10)
    with pytest.raises(ValueError):
        primes_in(10, 5)
    with pytest.raises(ValueError):
        primes_in(3, 2**63)


def test_next_prime_at_least():
    assert next_prime_at_least(100) == 101
    assert next_prime_at_least(101) == 101
    assert next_prime_at_least(0) == 3


def test_require_odd_prime():
    assert require_odd_prime(3) == 3
    assert require_odd_prime(9223372036854775783) == 9223372036854775783
    for bad in (2, 4, 9, 1, -7, True, 2**63 + 9, 7.0, np.float64(7.0), np.bool_(1)):
        with pytest.raises(ValueError):
            require_odd_prime(bad)
    # the smallest prime past the 64-bit range
    assert next_prime_at_least(2**63) == 2**63 + 29
    with pytest.raises(ValueError, match="64-bit word"):
        require_odd_prime(2**63 + 29)


@pytest.mark.parametrize("itype", [np.int64, np.int32])
def test_require_odd_prime_accepts_numpy_integers(itype):
    p = require_odd_prime(itype(7))
    assert p == 7 and type(p) is int
    with pytest.raises(ValueError):
        require_odd_prime(itype(9))


@pytest.mark.parametrize(
    "function,args,named",
    [
        (is_prime, (1000003.0,), "n"),
        (is_prime, (True,), "n"),
        (next_prime_at_least, (1000003.0,), "n"),
        (primes_in, (3.0, 10.5), "lo"),
        (primes_in, (3, 10.5), "hi"),
    ],
)
def test_primality_rejects_non_integers_naming_the_argument(function, args, named):
    with pytest.raises(ValueError, match=f"^{named} must be an integer"):
        function(*args)


def test_primality_accepts_numpy_integers():
    assert is_prime(np.int64(1000003)) is True
    assert next_prime_at_least(np.int32(100)) == 101
    assert type(next_prime_at_least(np.int64(100))) is int
    assert primes_in(np.int64(3), np.int64(20)) == [3, 5, 7, 11, 13, 17, 19]


def test_every_package_cache_is_bounded():
    caches = {
        obj
        for module in pkgutil.iter_modules(feketelab.__path__, "feketelab.")
        for obj in vars(importlib.import_module(module.name)).values()
        if callable(getattr(obj, "cache_info", None))
    }
    assert legendre_table in caches
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache
