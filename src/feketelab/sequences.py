"""Rotated Legendre-symbol sequences and exact autocorrelation norms.

A length-t coefficient vector over {-1, 0, +1} stands for the polynomial
sum_j f_j z^j.  On the unit circle its fourth-power L4 norm is the exact
integer c_0^2 + 2 sum_{u>=1} c_u^2, where c_u are the aperiodic
autocorrelations.  Every norm here is an exact integer: the spectral
kernel rounds back to integers under a residual guard, and the direct
kernel sums in floating point only where every partial sum is an integer
the float type represents exactly.  The direct kernel splits the
sequence in halves, whose own autocorrelations plus one cross-correlation
give every lag, so it sums each non-negative lag once: about t^2 / 2
products, not the t^2 of a correlation over all 2t - 1 lags.
Coefficient vectors are plain integer arrays or lists, checked at each
public call; the vectors built here are read-only int8 arrays.

Memory: from 2**14 coefficients up, the spectral kernel splits the
sequence in halves too, and transforms each at about t points instead
of one transform at about 2t.  At most three arrays of about 8t bytes
are live at once (half spectra, an irfft output, the int64 result),
plus pocketfft's own scratch in each transform, about 16 bytes per
point, and every irfft output is rounded straight into the result; an
exact norm at t ~ 1e7 peaks near 45 bytes of RSS per coefficient.
FeketeSpec caps t at MAX_LENGTH, so a length is rejected before
anything is allocated for it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .characters import legendre_table
from .primality import as_int, require_odd_prime


# Longest sequence a FeketeSpec accepts: 2**25 = 33,554,432 coefficients.
# One exact norm at this length (norm --p 33554467 --r 7000000) peaked at
# 1374 MiB of RSS, 43 bytes per coefficient, in 8.8-9.3 s on a 2-vCPU VM.
MAX_LENGTH = 2**25


class KernelPrecisionError(ArithmeticError):
    """Spectral autocorrelation failed to round back to exact integers."""


@dataclass(frozen=True)
class FeketeSpec:
    """Construction parameters: odd prime p, rotation r (any sign) and
    length 1 <= t <= MAX_LENGTH.

    Coefficient j of the resulting sequence is the Legendre symbol
    (j + r | p), so the base sequence of length p is cyclically rotated
    by r and truncated (t < p) or periodically extended (t > p).
    """

    p: int
    r: int
    t: int

    def __post_init__(self) -> None:
        # Any integral type (numpy integers included) is stored as a Python int.
        object.__setattr__(self, "p", require_odd_prime(self.p))
        object.__setattr__(self, "r", as_int(self.r, "rotation"))
        t = as_int(self.t, "length")
        if t < 1:
            raise ValueError(f"length must be a positive integer, got {t!r}")
        if t > MAX_LENGTH:
            raise ValueError(
                f"length {t} exceeds MAX_LENGTH = 2**25 = {MAX_LENGTH} coefficients"
            )
        object.__setattr__(self, "t", t)


def _coefficients(seq) -> np.ndarray:
    """seq as a 1-d, non-empty integer array over {-1, 0, +1}, not copied.

    Lists and integer arrays of any width pass; float, bool and str
    entries, other shapes and out-of-range values raise ValueError.
    """
    arr = np.asarray(seq)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficient vector must be 1-d and non-empty")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"coefficients must be integers, got dtype {arr.dtype}")
    if arr.min() < -1 or arr.max() > 1:
        raise ValueError("coefficients must lie in {-1, 0, +1}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def fekete_coeffs(spec: FeketeSpec) -> np.ndarray:
    """Coefficient vector [ (j + r | p) for 0 <= j < t ], read-only int8."""
    # Rotate the table by r, then repeat it cyclically to length t.  Both
    # steps cost O(p + t); np.take(mode="wrap") wraps each index by repeated
    # subtraction, which costs O(t^2 / p) when t is many periods long.
    rotated = np.roll(legendre_table(spec.p), -(spec.r % spec.p))
    return _read_only(np.resize(rotated, spec.t))


def littlewoodize(seq) -> np.ndarray:
    """Replace every zero coefficient by +1, forcing entries into {-1, +1}.

    Returns a new read-only int8 array.
    """
    arr = _coefficients(seq)
    return _read_only(np.where(arr == 0, 1, arr).astype(np.int8, copy=False))


# Largest length whose direct autocorrelation sums run in float32: every
# integer of magnitude <= 2**24 is a float32.
_FLOAT32_EXACT_MAX = 2**24

# Longest half the direct kernel still splits: a sequence of at most this
# many coefficients takes one np.correlate over all its lags.
_DIRECT_LEAF = 2048


def _direct_correlation(g: np.ndarray) -> np.ndarray:
    """Non-negative lags of sum_j g_j g_{j+u}, in g's float dtype.

    g = A + B splits at the middle: a pair (j, j+u) lies in A, in B, or
    has j in A and j+u in B, so c = c_A + c_B plus the cross terms.
    np.correlate(B, A, "full") holds those at lags 1 .. t-1, its entry i
    pairing A[j] with B[j + i + 1 - len(A)].  The halves recurse down to
    _DIRECT_LEAF coefficients.
    """
    t = g.size
    if t <= _DIRECT_LEAF:
        return np.correlate(g, g, "full")[t - 1 :]
    m = t // 2
    a, b = g[:m], g[m:]
    c = np.empty(t, dtype=g.dtype)
    c[0] = 0
    c[1:] = np.correlate(b, a, "full")
    c[:m] += _direct_correlation(a)
    c[: t - m] += _direct_correlation(b)
    return c


def autocorrelation_naive(seq) -> np.ndarray:
    """Aperiodic autocorrelations c_u = sum_j f_j f_{j+u}, u = 0 .. t-1.

    Direct summation with no transform; the reference kernel.  The
    sequence is cut into halves A and B, so that c = c_A + c_B plus the
    cross-correlation of B against A at lags 1 .. t-1; the halves are
    split again down to leaves of at most 2048 coefficients, each one
    np.correlate.  Only the non-negative lags are summed, about t^2 / 2
    multiply-adds where one np.correlate over the whole sequence takes
    t^2.  The sums in floating point are exact: each product f_j f_{j+u}
    lies in {-1, 0, 1}, and every running value, in whatever order the
    dot products and the additions of the halves go, is a sum over a
    subset of the products at one lag, so an integer of magnitude <= t.
    float32 represents every such integer while t <= 2**24, and float64
    for any t that fits in memory.  Returns int64.
    """
    f = _coefficients(seq)
    dtype = np.float32 if f.size <= _FLOAT32_EXACT_MAX else np.float64
    return _direct_correlation(f.astype(dtype)).astype(np.int64)


def _smooth_numbers(limit: int) -> tuple[int, ...]:
    """All 2^a 3^b 5^c <= limit, ascending."""
    found = []
    p2 = 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                found.append(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return tuple(sorted(found))


# FFT lengths with no prime factor above 5, which pocketfft transforms
# fastest.  2^40 points of float64 are far beyond any allocatable array.
_SMOOTH_LENGTHS = _smooth_numbers(1 << 40)


def _smooth_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m."""
    return _SMOOTH_LENGTHS[bisect_left(_SMOOTH_LENGTHS, m)]


# Shortest sequence the spectral kernel splits in halves.  Below it the
# split's extra numpy calls cost more than its shorter transforms save.
_SPLIT_MIN = 2**14


def _round_into(values: np.ndarray, out: np.ndarray, t: int) -> None:
    """Round values into the int64 array out, under the residual guard.

    values is overwritten by |values - rint(values)|; raises
    KernelPrecisionError unless every entry is below 1e-3 (a NaN fails
    too).  out holds integers of magnitude <= t < 2**53, exact in float64.
    """
    np.rint(values, out=out, casting="unsafe")
    np.abs(np.subtract(values, out, out=values), out=values)
    residual = float(values.max())
    if not residual < 1e-3:
        raise KernelPrecisionError(
            f"autocorrelation rounding residual {residual:.3e} at length {t}"
        )


def _to_power(spectrum: np.ndarray) -> np.ndarray:
    """Overwrite a complex spectrum by |z|^2 + 0j; return its real parts.

    irfft then gets a complex array, so it makes no complex copy of a
    real input.
    """
    parts = spectrum.view(np.float64)
    re, im = parts[0::2], parts[1::2]
    np.square(parts, out=parts)
    np.add(re, im, out=re)
    im.fill(0.0)
    return re


def autocorrelation_fast(seq) -> np.ndarray:
    """Same integer output as autocorrelation_naive in O(t log t).

    Raises KernelPrecisionError if any value fails to round cleanly to an
    integer (residual >= 1e-3 or NaN).  Below 2**14 coefficients: one
    spectral convolution of the sequence with its reversal, zero-padded
    to the smallest n = 2^a 3^b 5^c >= 2t-1.  From 2**14 up the sequence
    is cut at h = t // 2 into A and B, as in autocorrelation_naive, and
    both halves are transformed at the smallest 5-smooth m >= t, about
    n / 2.  The inverse of |A|^2 + |B|^2 holds c_A + c_B at lags
    0 .. t-h-1, and the inverse of conj(A) B holds at index k mod m the
    sum of A_j B_{j+k}, the pairs of lag h + k, for k = -(h-1) .. t-h-1;
    neither wraps, since m >= t.

    Memory, short path: the spectrum (8n bytes), the irfft output (8n)
    and the int64 result (8t), the spectrum dropped before the result is
    allocated.  Split path: arrays of about 8m bytes each, the two half
    spectra, the cross spectrum, one irfft output at a time and the int64
    result, allocated after the cross inverse; at most three are live,
    about 24t bytes against the short path's 16n, about 32t.  Each
    transform adds pocketfft's own scratch, about 16 bytes per point of
    its length, which the split halves too.  Every irfft output is
    rounded straight into the result by one guard, with numpy's ufunc
    buffers the only other temporaries.
    """
    f = _coefficients(seq)
    t = f.size
    if t < _SPLIT_MIN:
        n = _smooth_length(2 * t - 1)
        spectrum = np.fft.rfft(f, n)
        _to_power(spectrum)
        corr = np.fft.irfft(spectrum, n)[:t]
        del spectrum
        out = np.empty(t, dtype=np.int64)
        _round_into(corr, out, t)
        return out
    h = t // 2
    m = _smooth_length(t)
    fa = np.fft.rfft(f[:h], m)
    fb = np.fft.rfft(f[h:], m)
    cross = np.conjugate(fa)
    np.multiply(cross, fb, out=cross)
    power = _to_power(fb)
    power += _to_power(fa)
    del fa, power
    pairs = np.fft.irfft(cross, m)
    del cross
    out = np.empty(t, dtype=np.int64)
    _round_into(pairs[m - h :], out[:h], t)
    _round_into(pairs[: t - h], out[h:], t)
    del pairs
    halves = np.fft.irfft(fb, m)[: t - h]
    del fb
    # out[:t-h] holds the rounded cross terms, integers of magnitude <= t:
    # adding them moves no value across a half-integer, so rint of the
    # sum is c there and its residual is that of c_A + c_B
    np.add(halves, out[: t - h], out=halves)
    _round_into(halves, out[: t - h], t)
    return out


def l2_norm_pow2(seq) -> int:
    """Squared L2 norm: sum of squared coefficients (= t for Littlewood)."""
    return int(np.count_nonzero(_coefficients(seq)))


def _sum_squares(values: np.ndarray) -> int:
    """Exact sum of v^2 over an int64 vector, as a Python int.

    int64 dot products run over chunks of floor(2^62 / max v^2) entries,
    so no partial sum can overflow, and the chunk sums are added as
    Python ints.  Exact whenever each v^2 fits in int64 (|v| < 3.03e9).
    """
    peak = int(np.abs(values).max())
    step = max(1, 2**62 // max(peak * peak, 1))
    return sum(
        int(np.dot(values[i : i + step], values[i : i + step]))
        for i in range(0, values.size, step)
    )


def l4_norm_pow4(seq, kernel: str = "fast") -> int:
    """Fourth power of the L4 norm: c_0^2 + 2 sum_{u>=1} c_u^2, exact.

    Sums the squares with overflow-guarded int64 dot products.  Since
    |c_u| <= t, one chunk covers every t with t^3 <= 2^62 (t <= 1.6e6).
    """
    if kernel == "fast":
        c = autocorrelation_fast(seq)
    elif kernel == "naive":
        c = autocorrelation_naive(seq)
    else:
        raise ValueError(f"kernel must be 'fast' or 'naive', got {kernel!r}")
    return 2 * _sum_squares(c) - int(c[0]) ** 2


def merit_factor(seq) -> float:
    """||f||_2^4 / (||f||_4^4 - ||f||_2^4), evaluated in double precision.

    Raises ValueError on degenerate input (denominator zero, e.g. a
    single coefficient), rather than returning infinity.
    """
    return _merit_factor(l2_norm_pow2(seq), l4_norm_pow4(seq))


def _merit_factor(l2_pow2: int, l4_pow4: int) -> float:
    """l2_pow2^2 / (l4_pow4 - l2_pow2^2) from the two exact norms."""
    num = l2_pow2**2
    den = l4_pow4 - num
    if den == 0:
        raise ValueError("degenerate sequence: ||f||_4^4 equals ||f||_2^4")
    return num / den


def _char_sum_l4_prefixes(spec: FeketeSpec) -> np.ndarray:
    """char_sum_l4 of every prefix: entry s-1 is the sum at length s.

    A quadruple counts at length s exactly when its largest index is
    below s, so one np.bincount of the symbols by largest index, then a
    cumsum, gives every length 1 .. t in one pass.  The bincount sums in
    float64, exactly: its totals are integers of magnitude <= t^3.
    """
    if spec.t > 64:
        raise ValueError(f"quadruple-sum oracle capped at t <= 64, got {spec.t}")
    p, t = spec.p, spec.t
    table = legendre_table(p)
    residue = (np.arange(t, dtype=np.int64) + spec.r % p) % p
    j2, j3, j4 = np.ogrid[:t, :t, :t]
    j1 = j3 + j4 - j2
    inside = (j1 >= 0) & (j1 < t)
    product = residue[j1 % t] * residue[j2] % p * residue[j3] % p * residue[j4] % p
    largest = np.maximum(np.maximum(j1, j2), np.maximum(j3, j4))
    by_largest = np.bincount(largest[inside], weights=table[product[inside]], minlength=t)
    return np.cumsum(by_largest).astype(np.int64)


def char_sum_l4(spec: FeketeSpec) -> int:
    """Fourth-power L4 norm as a constrained quadruple character sum.

    Sums (  (j1+r)(j2+r)(j3+r)(j4+r) | p  ) over all index quadruples in
    [0, t) with j1 + j2 = j3 + j4, reducing the product mod p before the
    symbol is taken.  Independent of the autocorrelation route; the two
    must agree exactly.  One broadcast over (j2, j3, j4), masked to
    j1 = j3 + j4 - j2 in [0, t): O(t^3) work and memory, capped at t <= 64.
    """
    return int(_char_sum_l4_prefixes(spec)[-1])


def _window_sum_sq(t: int, period: int, offset: int = 0) -> int:
    """sum_n max(0, t - |offset - n * period|)^2 over all integers n, exactly."""
    lo = (offset - t) // period
    hi = -(-(offset + t) // period)
    return sum(max(0, t - abs(offset - n * period)) ** 2 for n in range(lo, hi + 1))


def periodic_lower_bound(t: int, m: int) -> int:
    """sum_n max(0, t - |n| m)^2: the L4^4 floor for m-periodic sequences."""
    if t < 1 or m < 1:
        raise ValueError(f"need t, m >= 1, got t={t}, m={m}")
    return _window_sum_sq(t, m)
