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

Memory: from 2**14 coefficients up, the spectral kernel cuts the
sequence into four pieces and transforms each at about t/2 points
instead of one transform at about 2t, two transforms at a time: on the
calling thread and on a single worker thread.  At most 24 bytes
per coefficient are live at once under tracemalloc (four spectra of
about 4t bytes, overwritten in place by the gap spectra, two irfft
outputs and the int64 result), plus pocketfft's own scratch, about 16
bytes per point of each of the two running transforms, and every irfft
output is rounded straight into the result; an exact norm at t ~ 1e7
peaks near 49 bytes of RSS per coefficient.
FeketeSpec caps t at MAX_LENGTH, so a length is rejected before
anything is allocated for it.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .characters import legendre_table
from .primality import as_int, require_odd_prime


# Longest sequence a FeketeSpec accepts: 2**25 = 33,554,432 coefficients.
# One exact norm at this length (norm --p 33554467 --r 7000000) peaked at
# 1375 MiB of RSS, 43 bytes per coefficient, in 5.4-6.6 s on a 2-vCPU VM.
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


# Shortest sequence the spectral kernel cuts into four pieces.  Below it
# the pieces' extra numpy calls cost more than their shorter transforms save.
_SPLIT_MIN = 2**14

# Spectrum entries per block when the gap spectra are formed: the blocks
# read and the products written stay within a core's L2 cache.
_GAP_BLOCK = 2**12


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


def _to_power(spectrum: np.ndarray) -> None:
    """Overwrite a complex spectrum by |z|^2 + 0j.

    irfft then gets a complex array, so it makes no complex copy of a
    real input.
    """
    parts = spectrum.view(np.float64)
    re, im = parts[0::2], parts[1::2]
    np.square(parts, out=parts)
    np.add(re, im, out=re)
    im.fill(0.0)


# The spectral kernel's one worker thread, in an executor made on the
# first long sequence: importing concurrent.futures costs about 6 ms,
# which every import of the package would otherwise pay.
_fft_worker = None
_fft_worker_lock = threading.Lock()


def _forget_fft_worker() -> None:
    """In a child made by fork, which inherits the executor and the lock
    but no thread, start afresh."""
    global _fft_worker, _fft_worker_lock
    _fft_worker = None
    _fft_worker_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_fft_worker)


def _submit_fft(transform, *args):
    """Queue transform(*args) on the worker, made on first use."""
    global _fft_worker
    with _fft_worker_lock:
        if _fft_worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _fft_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="feketelab-fft")
        return _fft_worker.submit(transform, *args)


def _transforms(transform, inputs: list, n: int) -> list:
    """[transform(x, n) for x in inputs], on this thread and the worker at
    once: numpy's transforms release the GIL.

    The worker takes inputs[1:] in order and this thread inputs[0], then,
    from the end of the list, each one the worker has not started yet.
    So this thread never waits on a worker that is slow to start (its CPU
    is busy, or there is only one); it waits only for transforms the
    worker is running.
    """
    futures = [_submit_fft(transform, x, n) for x in inputs[1:]]
    try:
        done = {0: transform(inputs[0], n)}
        for i in range(len(futures), 0, -1):
            if futures[i - 1].cancel():
                done[i] = transform(inputs[i], n)
        return [done[i] if i in done else futures[i - 1].result() for i in range(len(inputs))]
    finally:
        # no transform outlives the call that asked for it
        for future in futures:
            if not future.cancel():
                future.exception()


def _to_gap_spectra(spectra: list) -> None:
    """Overwrite the piece spectra F_0..F_3 by the gap spectra S_0..S_3.

    S_d = sum_i conj(F_i) F_{i+d}, and S_0 = sum_i |F_i|^2 + 0j, formed in
    blocks of _GAP_BLOCK entries, so no temporary is longer than a block.
    """
    for lo in range(0, spectra[0].size, _GAP_BLOCK):
        f = [spectrum[lo : lo + _GAP_BLOCK] for spectrum in spectra]
        c0, c1, c2 = (np.conjugate(x) for x in f[:3])
        s1 = c0 * f[1]
        s1 += c1 * f[2]
        s1 += c2 * f[3]
        s2 = c0 * f[2]
        s2 += c1 * f[3]
        s3 = c0 * f[3]
        parts = [x.view(np.float64) for x in f]
        power = np.square(parts[0])
        for x in parts[1:]:
            power += np.square(x)
        np.add(power[0::2], power[1::2], out=parts[0][0::2])
        parts[0][1::2] = 0.0
        f[1][...], f[2][...], f[3][...] = s1, s2, s3


def _round_gap(inverse: np.ndarray, d: int, q: int, out: np.ndarray) -> None:
    """Round the inverse of S_d into lags (d-1) q + 1 .. (d+1) q - 1 of out.

    Its first q entries are the lags from d q up and its last q - 1 the
    lags below d q.  For d < 3, out must already hold the rounded lags of
    S_{d+1} below (d+1) q, which are added in before the guard.
    """
    t = out.size
    lo = d * q
    head = inverse[: min(q, t - lo)]
    if d < 3:
        # integers of magnitude <= t: adding them moves no value across a
        # half-integer, so rint of the sum is c there and its residual is
        # this inverse's own
        np.add(head[1:], out[lo + 1 : lo + q], out=head[1:])
    _round_into(head, out[lo : lo + head.size], t)
    if d > 0:
        _round_into(inverse[inverse.size - q + 1 :], out[lo - q + 1 : lo], t)


def autocorrelation_fast(seq) -> np.ndarray:
    """Same integer output as autocorrelation_naive in O(t log t).

    Raises KernelPrecisionError if any value fails to round cleanly to an
    integer (residual >= 1e-3 or NaN).  Below 2**14 coefficients: one
    spectral convolution of the sequence with its reversal, zero-padded
    to the smallest n = 2^a 3^b 5^c >= 2t-1.  From 2**14 up the sequence
    is cut into four pieces P_0..P_3 of q = ceil(t/4) coefficients (the
    last one shorter), each transformed at the smallest 5-smooth
    m >= 2q - 1, about n / 4.  A pair (j, j+u) has j in P_i and j+u in
    P_{i+d} for one gap d >= 0, so c_u sums, over d and i, the cross
    correlations of P_i against P_{i+d} at offset k = u - d q, |k| < q.
    The inverse of the gap spectrum S_d = sum_i conj(F_i) F_{i+d}
    (S_0 = sum |F_i|^2) holds their sum over i at index k mod m, no wrap
    since m >= 2q - 1: its indices 0 .. q-1 give the lags d q .. d q + q-1
    and its last q - 1 indices the lags (d-1) q + 1 .. d q - 1.

    The eight transforms run two at a time, one on the calling thread
    and one on a single worker thread kept for the life of the process
    (numpy's transforms release the GIL; a child made by fork gets a new
    worker): the four forward transforms as one batch, then the inverses
    of S_3 and S_2, then those of S_1 and S_0.  The worker runs nothing
    but np.fft calls, and the caller runs, from the end of a batch, each
    transform the worker has not started once its own is done.

    Memory, short path: the spectrum (8n bytes), the irfft output (8n)
    and the int64 result (8t), the spectrum dropped before the result is
    allocated, about 32 bytes per coefficient.  Four-piece path: the four
    piece spectra, of about 8m = 4t bytes each, are overwritten in place
    by the gap spectra; S_3 and S_2 are inverted and their spectra
    dropped before the int64 result (8t) is allocated, and their inverses
    are rounded into it before S_1 and S_0 are inverted.  So at most
    about 24t bytes are live (24.3 bytes per coefficient under tracemalloc
    at t = 2**18), plus pocketfft's own scratch, about 16 bytes per point
    of each of the two running transforms.  Every irfft output is rounded
    straight into the result by one guard, with numpy's ufunc buffers and
    blocks of _GAP_BLOCK entries the only other temporaries.
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
    q = -(-t // 4)
    m = _smooth_length(2 * q - 1)
    spectra = _transforms(np.fft.rfft, [f[i * q : (i + 1) * q] for i in range(4)], m)
    _to_gap_spectra(spectra)
    below, above = _transforms(np.fft.irfft, spectra[2:], m)
    del spectra[2:]
    out = np.empty(t, dtype=np.int64)
    _round_gap(above, 3, q, out)
    _round_gap(below, 2, q, out)
    del below, above
    below, above = _transforms(np.fft.irfft, spectra, m)
    del spectra
    _round_gap(above, 1, q, out)
    _round_gap(below, 0, q, out)
    return out


# Prime modulus of the autocorrelation certificate: a product of two
# residues stays below 2**62, inside int64.
_CERT_MODULUS = 2**31 - 1

# Powers z^0 .. z^(_CERT_BLOCK - 1) are tabulated once per point; a row of
# _CERT_BLOCK terms, each below 2**31, sums below 2**43.
_CERT_BLOCK = 2**12


def _residue_rows(values: np.ndarray) -> np.ndarray:
    """values mod _CERT_MODULUS as int64 rows of _CERT_BLOCK, zero-padded."""
    rows = np.zeros(-(-values.size // _CERT_BLOCK) * _CERT_BLOCK, dtype=np.int64)
    rows[: values.size] = values
    rows %= _CERT_MODULUS
    return rows.reshape(-1, _CERT_BLOCK)


def _eval_mod(rows: np.ndarray, z: int) -> int:
    """sum_j v_j z^j mod _CERT_MODULUS for the residue rows of a vector v."""
    Q = _CERT_MODULUS
    powers = np.ones(_CERT_BLOCK, dtype=np.int64)
    n = 1
    while n < _CERT_BLOCK:
        powers[n : 2 * n] = powers[:n] * pow(z, n, Q) % Q
        n *= 2
    terms = rows * powers
    terms %= Q
    row_sums = terms.sum(axis=1) % Q
    lead = pow(z, _CERT_BLOCK, Q)
    value = 0
    for row_sum in reversed(row_sums.tolist()):
        value = (value * lead + row_sum) % Q
    return value


def _certify_autocorrelation(f, c, points) -> bool:
    """Whether c passes as the aperiodic autocorrelation of f at each z.

    For every z in points (integers 1 <= z < Q, Q = 2**31 - 1) it checks
    C(z) = c_0 + sum_{u>=1} c_u (z^u + z^-u) = f(z) f(z^-1) mod Q, which
    holds for the true c in Z[z, 1/z]; c must have f's length and every
    |c_u| <= t, else it fails.  A wrong c within that bound passes at a
    uniformly random z with probability at most (2t - 2) / (Q - 1):
    z^(t-1) (C' - C) is a nonzero polynomial of degree <= 2t - 2 mod Q,
    since 0 < |c'_u - c_u| <= 2t < Q.  O(t) per point, with int64
    temporaries of about 24 bytes per coefficient.  No library path calls
    it; it is an independent check of either kernel.
    """
    f = _coefficients(f)
    c = np.asarray(c)
    t = f.size
    if c.shape != (t,) or c.dtype.kind not in "iu" or np.abs(c).max() > t:
        return False
    f_rows, c_rows = _residue_rows(f), _residue_rows(c)
    Q = _CERT_MODULUS
    for z in points:
        z = as_int(z, "certificate point")
        if not 1 <= z < Q:
            raise ValueError(f"certificate point must lie in [1, {Q}), got {z}")
        inverse = pow(z, Q - 2, Q)
        claimed = _eval_mod(c_rows, z) + _eval_mod(c_rows, inverse) - int(c[0])
        product = _eval_mod(f_rows, z) * _eval_mod(f_rows, inverse)
        if (claimed - product) % Q:
            return False
    return True


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
