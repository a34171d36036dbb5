import itertools
import math
import tracemalloc

import numpy as np
import pytest

from feketelab import characters
from feketelab.characters import (
    _gauss_sum_residuals,
    gauss_sum_residual,
    is_square_polynomial,
    legendre,
    legendre_table,
    quartic_char_sum,
)
from feketelab.primality import primes_in


def legendre_by_listing(a, p):
    """Oracle: enumerate the nonzero squares mod p and look a up."""
    squares = {x * x % p for x in range(1, p)}
    a %= p
    if a == 0:
        return 0
    return 1 if a in squares else -1


def is_square_by_expansion(a, b, c, p):
    """Oracle: expand x(x-a)(x-b)(x-c) and test for a quadratic square root.

    Matching leading coefficients forces alpha = e3/2 and
    beta = (e2 - alpha^2)/2 in (x^2 + alpha x + beta)^2; it remains to
    match the linear and constant coefficients.
    """
    e3 = (-(a + b + c)) % p
    e2 = (a * b + a * c + b * c) % p
    e1 = (-(a * b * c)) % p
    inv2 = pow(2, p - 2, p)
    alpha = e3 * inv2 % p
    beta = (e2 - alpha * alpha) % p * inv2 % p
    return (2 * alpha * beta - e1) % p == 0 and beta * beta % p == 0


@pytest.mark.parametrize("a,p,expected", [(0, 7, 0), (2, 7, 1), (3, 7, -1)])
def test_legendre_small_cases(a, p, expected):
    # squares mod 7 are {1, 2, 4}
    assert legendre(a, p) == expected


def test_legendre_matches_listing_oracle():
    for p in primes_in(3, 101):
        for a in range(p):
            assert legendre(a, p) == legendre_by_listing(a, p)


def test_legendre_rejects_non_odd_primes():
    for p in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            legendre(3, p)


def test_legendre_table_agrees_with_euler_criterion():
    for p in primes_in(3, 101):
        table = legendre_table(p)
        assert all(int(table[a]) == legendre(a, p) for a in range(p))


def test_legendre_table_cache_is_bounded():
    legendre_table.cache_clear()
    primes = primes_in(3, 200)
    for p in primes:
        table = legendre_table(p)
        assert table.dtype == np.int8 and not table.flags.writeable
    info = legendre_table.cache_info()
    # a scan round's 12 primes must all stay cached
    assert 12 <= info.maxsize < len(primes)
    assert info.currsize == info.maxsize


def test_legendre_table_modulus_bound(monkeypatch):
    # p ~ 1e7 stays well inside the real bound
    assert characters.LEGENDRE_TABLE_MAX_P >= 5 * 10**7
    monkeypatch.setattr(characters, "LEGENDRE_TABLE_MAX_P", 101)
    legendre_table.cache_clear()
    assert legendre_table(101).size == 101
    with pytest.raises(ValueError, match="too large for a Legendre table"):
        legendre_table(103)
    assert legendre_table.cache_info().currsize == 1


def test_legendre_multiplicativity_exhaustive():
    for p in primes_in(3, 101):
        table = legendre_table(p)
        a = np.arange(p)
        products = table[np.outer(a, a) % p]
        assert (products == np.outer(table, table)).all()


def test_legendre_euler_criterion_consistency():
    for p in primes_in(3, 101):
        for a in range(p):
            assert legendre(a, p) % p == pow(a, (p - 1) // 2, p)


def test_legendre_reduces_inputs_mod_p():
    assert legendre(7 * 10**9, 7) == 0
    assert legendre(-5, 7) == legendre(2, 7)


@pytest.mark.parametrize("bad", [True, 1.0, 2.5, "1", np.float64(2.0), np.True_, None])
def test_scalar_arguments_must_be_integers(bad):
    with pytest.raises(ValueError):
        legendre(bad, 7)
    for args in ((bad, 2, 3), (1, bad, 3), (1, 2, bad)):
        with pytest.raises(ValueError):
            is_square_polynomial(*args, 7)
        with pytest.raises(ValueError):
            quartic_char_sum(*args, 7)


@pytest.mark.parametrize(
    "bad",
    [np.array([1.0, 2.0]), np.array([True, False]), np.array(["1", "2"]), [0.5, 1], [10**30]],
)
def test_array_arguments_need_an_integer_dtype(bad):
    with pytest.raises(ValueError):
        is_square_polynomial(bad, 0, 0, 7)
    with pytest.raises(ValueError):
        quartic_char_sum(0, bad, 0, 7)


def test_any_integer_dtype_is_reduced_mod_p():
    values = [0, 1, 5, 6, 100]
    want = [quartic_char_sum(v, 2, 3, 7).value for v in values]
    for dtype in (np.int8, np.uint8, np.int32, np.int64, np.uint64):
        res = quartic_char_sum(np.array(values, dtype=dtype), 2, 3, 7)
        assert res.value.tolist() == want
    # wrapped to int64 these would read as residues 6 and 4, not 1 and 6
    huge = [2**64 - 1, 2**64 - 3]
    assert quartic_char_sum(np.array(huge, dtype=np.uint64), 2, 3, 7).value.tolist() == [
        quartic_char_sum(v, 2, 3, 7).value for v in huge
    ]
    assert quartic_char_sum(-1, 2, 3, 7) == quartic_char_sum(6, 2, 3, 7)
    assert quartic_char_sum(np.int8(-1), 2, 3, 7) == quartic_char_sum(6, 2, 3, 7)
    assert legendre(np.int8(-5), 7) == legendre(2, 7)


@pytest.mark.parametrize(
    "p,j,tol",
    [(5, 0, 1e-9), (5, 1, 1e-9), (23, 7, 1e-6)],
)
def test_gauss_sum_residual_examples(p, j, tol):
    assert gauss_sum_residual(p, j) < tol


def test_gauss_sum_residual_rejects_a_composite_modulus():
    with pytest.raises(ValueError, match="odd prime"):
        gauss_sum_residual(9, 1)


@pytest.mark.parametrize("bad", [True, np.True_, 2.5, 3.0, np.float64(3.0), "3", None])
def test_gauss_sum_residual_needs_an_integer_j(bad):
    with pytest.raises(ValueError, match="^j must be an integer"):
        gauss_sum_residual(7, bad)


def test_gauss_sum_residual_accepts_numpy_integers():
    assert gauss_sum_residual(23, np.int64(7)) == gauss_sum_residual(23, 7)
    assert gauss_sum_residual(np.int32(23), np.uint8(30)) == gauss_sum_residual(23, 7)


def test_gauss_sum_residual_all_small_p():
    for p in primes_in(3, 101):
        for j in range(p):
            assert gauss_sum_residual(p, j) < 1e-6 * p


def test_gauss_sum_residual_sums_in_blocks():
    # Temporaries of about 36 bytes per residue, one block of 2**16 at a
    # time: a whole-range sum at this p would peak near 38 MiB.
    p = 1_000_003
    legendre_table(p)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        residual = gauss_sum_residual(p, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-6 * p
    assert peak < 4 * 2**20


def gauss_sum_residual_one_by_one(p, j):
    """Oracle: the one-j body, summed into a Python complex block by block."""
    table = legendre_table(p)
    lhs = 0j
    for lo in range(0, p, 2**16):
        k = np.arange(lo, min(p, lo + 2**16))
        lhs += complex(np.sum(np.exp(2j * np.pi * (j % p) * k / p) * table[lo : lo + k.size]))
    quarter_turns = ((p - 1) // 2) ** 2 % 4
    return abs(lhs - 1j**quarter_turns * math.sqrt(p) * int(table[j % p]))


def test_gauss_sum_residuals_of_one_prime_equal_the_one_j_sums_bit_for_bit():
    for p in primes_in(3, 101):
        residuals = _gauss_sum_residuals(p, np.arange(p))
        assert residuals.tolist() == [gauss_sum_residual(p, j) for j in range(p)], p
        assert residuals.tolist() == [gauss_sum_residual_one_by_one(p, j) for j in range(p)], p


def test_gauss_sum_residual_keeps_its_blocks_above_one_block():
    p = 1_000_003
    for j in (0, 1, 5, p // 2, p - 1, -3, p + 5):
        assert gauss_sum_residual(p, j) == gauss_sum_residual_one_by_one(p, j), j


def test_gauss_sum_residuals_of_many_js_sum_over_several_blocks(monkeypatch):
    # 64 indices at p = 1009 with a block of 1024 elements: 16 residues a block
    monkeypatch.setattr(characters, "_GAUSS_BLOCK", 1024)
    js = np.arange(0, 1009, 16)
    assert js.size == 64
    residuals = _gauss_sum_residuals(1009, js)
    assert residuals.shape == (64,)
    assert (residuals < 1e-6 * 1009).all()
    assert residuals == pytest.approx([gauss_sum_residual_one_by_one(1009, j) for j in js], abs=1e-9)


def quartic_sum_bruteforce(a, b, c, p):
    """Oracle: term-by-term sum with pow-based symbol evaluation."""
    total = 0
    for x in range(p):
        v = x * (x - a) * (x - b) * (x - c) % p
        if v:
            total += 1 if pow(v, (p - 1) // 2, p) == 1 else -1
    return total


def test_quartic_char_sum_quadruple_root():
    for p in (3, 7, 11, 31):
        res = quartic_char_sum(0, 0, 0, p)
        assert res.value == p - 1
        assert res.is_square_case and res.main_term == p and res.error_term == -1


def test_quartic_char_sum_double_roots():
    for p, a in ((7, 3), (11, 3), (13, 5)):
        res = quartic_char_sum(a, 0, a, p)
        assert res.value == p - 2
        assert res.is_square_case and res.error_term == -2


def test_quartic_char_sum_generic_case():
    res = quartic_char_sum(1, 2, 3, 7)
    assert res.value == quartic_sum_bruteforce(1, 2, 3, 7)
    assert not res.is_square_case
    assert res.main_term == 0
    assert abs(res.value) <= 3 * math.sqrt(7)


def test_quartic_char_sum_matches_bruteforce_sampled():
    rng = np.random.RandomState(3)
    for p in (13, 29):
        for _ in range(50):
            a, b, c = rng.randint(0, p, size=3)
            res = quartic_char_sum(int(a), int(b), int(c), p)
            assert res.value == quartic_sum_bruteforce(int(a), int(b), int(c), p)
            assert res.value == res.main_term + res.error_term


def test_quartic_char_sum_at_a_large_prime():
    p = 100_003
    res = quartic_char_sum(1, 2, 3, p)
    assert type(res.value) is int and type(res.is_square_case) is bool
    assert res.value == quartic_sum_bruteforce(1, 2, 3, p)
    assert abs(res.value) <= 3 * math.sqrt(p)


def quartic_table(p):
    a, b, c = np.ogrid[:p, :p, :p]
    return quartic_char_sum(a, b, c, p)


def test_quartic_char_sum_table_matches_bruteforce():
    for p in primes_in(3, 13):
        res = quartic_table(p)
        assert res.value.shape == (p, p, p)
        for a, b, c in itertools.product(range(p), repeat=3):
            assert res.value[a, b, c] == quartic_sum_bruteforce(a, b, c, p)
        assert (res.main_term == p * res.is_square_case).all()
        assert (res.value == res.main_term + res.error_term).all()


@pytest.mark.parametrize("block", [1, 7, 5000, 5 * 13**3])
def test_quartic_sums_do_not_depend_on_the_block(monkeypatch, block):
    """One x per block, or blocks that split the 13 values of x unevenly
    (the table in steps of 2 or 5, the scalar in steps of 7), change
    nothing."""
    p = 13
    want = quartic_table(p).value
    scalar = quartic_char_sum(4, 9, 11, p).value
    monkeypatch.setattr(characters, "_QUARTIC_BLOCK", block)
    assert (quartic_table(p).value == want).all()
    assert quartic_char_sum(4, 9, 11, p).value == scalar
    row = quartic_char_sum(np.arange(5), 9, 11, p).value
    assert row.tolist() == want[:5, 9, 11].tolist()


def test_quartic_tables_are_symmetric():
    """On every gate prime, L is invariant under permuting (a, b, c) and
    under x -> x + a, which sends (a, b, c) to (-a, b - a, c - a)."""
    for p in primes_in(3, 31):
        L = quartic_table(p).value
        for perm in itertools.permutations(range(3)):
            assert (L.transpose(perm) == L).all()
        a, b, c = np.ogrid[:p, :p, :p]
        assert (L[-a % p, (b - a) % p, (c - a) % p] == L).all()


def test_quartic_char_sum_p13_exhaustive_split():
    p = 13
    weil = 3 * math.sqrt(p)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                res = quartic_char_sum(a, b, c, p)
                assert res.value == res.main_term + res.error_term
                if res.is_square_case:
                    assert res.value in (p - 1, p - 2)
                    assert res.error_term in (-1, -2)
                else:
                    assert abs(res.error_term) <= weil


@pytest.mark.parametrize(
    "a,b,c,p,expected",
    [(0, 0, 0, 5, True), (3, 0, 3, 11, True), (1, 2, 3, 7, False)],
)
def test_is_square_polynomial_examples(a, b, c, p, expected):
    assert is_square_polynomial(a, b, c, p) is expected


@pytest.mark.parametrize("p", [0, 9])
def test_square_test_and_quartic_sum_reject_a_modulus_that_is_no_odd_prime(p):
    with pytest.raises(ValueError, match="odd prime"):
        is_square_polynomial(1, 2, 3, p)
    with pytest.raises(ValueError, match="odd prime"):
        quartic_char_sum(1, 2, 3, p)


def test_is_square_polynomial_matches_expansion_oracle():
    for p in (3, 5, 7, 11):
        a, b, c = np.ogrid[:p, :p, :p]
        mask = is_square_polynomial(a, b, c, p)
        assert mask.shape == (p, p, p) and mask.dtype == bool
        for a, b, c in itertools.product(range(p), repeat=3):
            assert is_square_polynomial(a, b, c, p) == is_square_by_expansion(a, b, c, p)
            assert mask[a, b, c] == is_square_by_expansion(a, b, c, p)
