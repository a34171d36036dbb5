"""Rotated Legendre-symbol sequences and exact autocorrelation norms.

A length-t coefficient vector over {-1, 0, +1} stands for the polynomial
sum_j f_j z^j.  On the unit circle its fourth-power L4 norm is the exact
integer c_0^2 + 2 sum_{u>=1} c_u^2, where c_u are the aperiodic
autocorrelations.  Every norm here is an exact integer: the spectral
kernel rounds back to integers under a residual guard, and the direct
kernel adds float32 tiles, whose every entry is an integer float32
represents exactly, into int32 lag sums.  Above 896 coefficients the
direct kernel sums each non-negative lag once, as tiled matrix products
of zero-padded shifts of the sequence: about t^2 / 2 products, not the
t^2 of a correlation over all 2t - 1 lags.  Both operands hold only -1,
0 and 1, so whatever order and however many threads BLAS sums them in,
every partial sum counts a subset of the products at one lag.
Coefficient vectors are plain integer arrays or lists, checked at each
public call; the vectors built here are read-only int8 arrays.

From 2**14 coefficients up, the spectral kernel cuts the sequence into
four pieces, each transformed at about t/2 points, and runs its eight
transforms in pairs: one on the calling thread and one on the process's
worker thread (see _pair).

Memory: at most about 24 bytes per coefficient under tracemalloc in the
four-piece spectral kernel, plus pocketfft's own scratch, and 12 in the
direct kernel, plus about 0.6 MiB of tile buffers; the docstrings of
autocorrelation_fast and autocorrelation_naive say which arrays these
are.  FeketeSpec caps t at MAX_LENGTH, so a length is rejected before
anything is allocated for it; every kernel rejects a longer raw sequence
the same way.
"""

from __future__ import annotations

import contextlib
import functools
import os
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _coefficients(seq, ndim: int = 1) -> np.ndarray:
    """seq as a non-empty integer array over {-1, 0, +1}, not copied: one
    sequence (ndim = 1) or a stack of equal-length rows (ndim = 2).

    Lists and integer arrays of any width pass; float, bool and str
    entries, other shapes, lengths above MAX_LENGTH and out-of-range
    values raise ValueError.
    """
    arr = np.asarray(seq)
    if arr.ndim != ndim or arr.size == 0:
        what = "vector" if ndim == 1 else "stack"
        raise ValueError(f"coefficient {what} must be {ndim}-d and non-empty")
    if arr.shape[-1] > MAX_LENGTH:
        raise ValueError(
            f"length {arr.shape[-1]} exceeds MAX_LENGTH = 2**25 = {MAX_LENGTH} coefficients"
        )
    if arr.dtype.kind not in "iu":
        raise ValueError(f"coefficients must be integers, got dtype {arr.dtype}")
    if arr.min() < -1 or arr.max() > 1:
        raise ValueError("coefficients must lie in {-1, 0, +1}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def fekete_coeffs(spec: FeketeSpec) -> np.ndarray:
    """Coefficient vector [ (j + r | p) for 0 <= j < t ], read-only int8: with
    s = r mod p, entries s .. s + t - 1 of the tiled Legendre table, O(p + t),
    possibly a view into that tiled buffer of fewer than t + 2p bytes."""
    p, s, t = spec.p, spec.r % spec.p, spec.t
    return _read_only(np.tile(legendre_table(p), -(-(s + t) // p))[s : s + t])


def littlewoodize(seq) -> np.ndarray:
    """Replace every zero coefficient by +1, forcing entries into {-1, +1}.

    Returns a new read-only int8 array.
    """
    arr = _coefficients(seq)
    return _read_only(np.where(arr == 0, 1, arr).astype(np.int8, copy=False))


# Longest sequence the direct kernel sums by one np.correlate over all its
# 2t - 1 lags.  Measured on a 2-vCPU VM: the tiles below cost the same at
# 768 and 896 coefficients, 21-25% less at 1024 and 7 times as much at 64.
_DIRECT_LEAF = 896

# The direct kernel's tiles, the fastest of 27 shapes measured from 4096 to
# 65536 coefficients: lags in blocks of _LAG_BLOCK, and matrix products
# over at most _R_TILE summation indices and _D_TILE lag blocks.
_LAG_BLOCK = 128
_R_TILE = 512
_D_TILE = 128


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or None.

    Looked up once, at the first tiled call, not at import: the
    scipy_openblas_{get,set}_num_threads64_ symbols, read from a handle on
    numpy._core._multiarray_umath (the module whose matmul the tiles call)
    opened with RTLD_NOLOAD.  dlsym on that handle also searches the
    libraries the module links, so this finds the OpenBLAS numpy itself
    linked, wherever its build keeps it.  Any other BLAS (MKL, Accelerate,
    a system BLAS), or a platform with no RTLD_NOLOAD, gives None.
    """
    import ctypes

    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__, mode=noload)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its count.

    The count is process-global: another thread's products in the window run
    on one thread too.  A window that finds the count at 1 changes nothing, so
    overlapping windows leave the count they found (and the inner ones run on
    it once the outer ends).  With no OpenBLAS found, nothing changes.
    """
    blas = _openblas_threads()
    before = None if blas is None else blas[0]()
    if before in (None, 1):
        yield
        return
    set_ = blas[1]
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _direct_correlation(f: np.ndarray) -> np.ndarray:
    """Non-negative lags of sum_j f_j f_{j+u}: float32 at the leaf, else int32.

    Up to _DIRECT_LEAF coefficients: one np.correlate.  Above, with x = f
    padded by zeros and a lag u = b D + v, 0 <= v < b (b = _LAG_BLOCK),
    c_u = sum_r x[r - b D] x[r + v]: entry (D, v) of the matrix product
    Y @ W, Y[D, r] = x[r - b D] and W[r, v] = x[r + v].  The product runs
    in tiles of at most _R_TILE indices r by _D_TILE blocks D, formed only
    where some r - b D >= 0, so about t^2 / 2 products are summed.  Each
    tile is copied from a strided view of x into a buffer allocated once
    per call, multiplied in float32 and added into int32 lag sums.
    """
    t = f.size
    if t <= _DIRECT_LEAF:
        g = f.astype(np.float32)
        return np.correlate(g, g, "full")[t - 1 :]
    # t > _DIRECT_LEAF >= _R_TILE >= _LAG_BLOCK
    b, width = _LAG_BLOCK, _R_TILE
    blocks = -(-t // b)
    height = min(_D_TILE, blocks)
    # f[r] is x[width + r]: width zeros in front, for r - b D < 0, and
    # behind, for r + v >= t and for the windows of a short last tile
    x = np.zeros(t + 2 * width, dtype=np.float32)
    x[width : width + t] = f
    windows = sliding_window_view(x, width)  # windows[i] = x[i : i + width]
    shifts = sliding_window_view(x, b)  # shifts[i] = x[i : i + b]
    y = np.empty((height, width), dtype=np.float32)
    w = np.empty((width, b), dtype=np.float32)
    tile = np.empty((height, b), dtype=np.float32)
    c = np.zeros((blocks, b), dtype=np.int32)
    with _one_blas_thread():
        for r0 in range(0, t, width):
            n = min(width, t - r0)
            w[:n] = shifts[width + r0 : width + r0 + n]
            top = -(-(r0 + n) // b)  # the blocks D with b D < r0 + n
            for d0 in range(0, top, height):
                h = min(height, top - d0)
                # row i of y is x[r0 - b (d0 + i) :][:n], at windows[start - b i]
                start = width + r0 - b * d0
                y[:h, :n] = windows[start - b * (h - 1) : start + 1 : b][::-1, :n]
                np.matmul(y[:h, :n], w[:n], out=tile[:h])
                np.add(c[d0 : d0 + h], tile[:h], out=c[d0 : d0 + h], casting="unsafe", dtype=np.int32)
    return c.reshape(-1)[:t]


def autocorrelation_naive(seq) -> np.ndarray:
    """Aperiodic autocorrelations c_u = sum_j f_j f_{j+u}, u = 0 .. t-1.

    Direct summation with no transform; the reference kernel.  Up to 896
    coefficients it is one np.correlate.  Longer sequences are summed as
    tiled matrix products, c_{bD+v} = sum_r x[r - b D] x[r + v] for lag
    blocks of b = 128, over the non-negative lags only: about t^2 / 2
    multiply-adds, where one np.correlate over all 2t - 1 lags takes t^2,
    at the speed of BLAS matrix products rather than of one dot product
    per lag.

    The sums are exact.  Every entry of both operands lies in {-1, 0, 1},
    so every value that BLAS or the accumulation of tiles forms, in
    whatever order and on however many threads, sums a subset of the
    products f_j f_{j+u} at one lag.  float32 tiles are exact: each entry
    sums at most 512 products (896 in the leaf), and float32 holds every
    integer up to 2**24.  int32 lag sums, of magnitude <= t, are exact
    while t < 2**31; such a length would need about 2e18 products, so no
    guard is added.  Returns int64.

    Memory, above the leaf: the padded float32 sequence and the int32 lag
    sums, 4 bytes each per coefficient, and 576 KiB of tile buffers; once
    _direct_correlation returns, only the lag sums and the int64 result:
    under tracemalloc, below 12 t bytes + 1 MiB.
    """
    return _direct_correlation(_coefficients(seq)).astype(np.int64)


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
# fastest.  The longest any accepted length asks for is 2^24: four pieces
# of MAX_LENGTH / 4 = 2^23 coefficients, each transformed at 2q - 1.
_SMOOTH_LENGTHS = _smooth_numbers(MAX_LENGTH)


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


def _to_power(first: np.ndarray, rest=()) -> None:
    """Overwrite the complex spectrum first by sum_i |F_i|^2 + 0j, the sum
    over first and the spectra in rest, which are only read.  A spectrum
    is one C-contiguous row or a stack of them, entries on the last axis.

    irfft then gets a complex array, so it makes no complex copy of a
    real input.  rest is a plain argument, not *rest, whose call measured
    slower: the short path's one-spectrum call runs thousands of times in
    the verify gate.
    """
    parts = first.view(np.float64)
    parts *= parts
    for spectrum in rest:
        parts += np.square(spectrum.view(np.float64))
    re, im = parts[..., 0::2], parts[..., 1::2]
    re += im
    im.fill(0.0)


@functools.lru_cache(maxsize=1)
def _fft_worker(pid: int):
    """The executor of the spectral kernel's one worker thread in process pid.

    A child made by fork has a new pid, so its first long call evicts the
    inherited executor, whose thread stayed in the parent.  With no lock,
    none is inherited held; threads racing on the very first call may each
    make an executor, and one left uncached is collected with its thread
    after its pair.  concurrent.futures is imported here, as it costs
    about 6 ms, which every import of the package would otherwise pay.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="feketelab-fft")


def _pair(transform, a, b, n: int) -> tuple:
    """(transform(a, n), transform(b, n)), on this thread and this process's
    worker at once: numpy's transforms release the GIL.

    The worker is given b and this thread runs a, then b as well if the
    worker has not started it.  So this thread never waits on a worker
    that is slow to start (its CPU is busy, or there is only one); it
    waits only for a transform the worker is running.  If a raises, b is
    cancelled, or waited for if the worker has started it, so no transform
    outlives the call that asked for it.
    """
    future = _fft_worker(os.getpid()).submit(transform, b, n)
    try:
        first = transform(a, n)
    except BaseException:
        if not future.cancel():
            future.exception()
        raise
    return first, (transform(b, n) if future.cancel() else future.result())


def _to_gap_spectra(spectra: list) -> None:
    """Overwrite the piece spectra F_0..F_3 by the gap spectra S_0..S_3.

    S_d = sum_i conj(F_i) F_{i+d}, and S_0 = sum_i |F_i|^2 + 0j by
    _to_power once S_1..S_3 are formed, in blocks of _GAP_BLOCK entries,
    so no temporary is longer than a block.
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
        _to_power(f[0], f[1:])
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


def _short_correlation(f: np.ndarray) -> np.ndarray:
    """int64 autocorrelations of each row of f along its last axis, t < 2**14.

    f is one validated sequence or a C-contiguous stack of them, whose
    spectrum rfft then lays out row by row, as _to_power needs.  One
    spectral convolution of every row with its reversal, zero-padded to
    the smallest n = 2^a 3^b 5^c >= 2t-1, and one guard over all rows.
    """
    t = f.shape[-1]
    n = _smooth_length(2 * t - 1)
    spectrum = np.fft.rfft(f, n)
    _to_power(spectrum)
    out = np.empty(f.shape, dtype=np.int64)
    _round_into(np.fft.irfft(spectrum, n)[..., :t], out, t)
    return out


def autocorrelation_fast(seq) -> np.ndarray:
    """Same integer output as autocorrelation_naive in O(t log t).

    Raises KernelPrecisionError if any value fails to round cleanly to an
    integer (residual >= 1e-3 or NaN).  Below 2**14 coefficients: one
    spectral convolution of the sequence with its reversal, zero-padded
    to the smallest n = 2^a 3^b 5^c >= 2t-1, by _short_correlation, a
    body over the last axis that _autocorrelation_rows runs on a whole
    stack of sequences at once; here it gets one.  From 2**14 up the sequence
    is cut into four pieces P_0..P_3 of q = ceil(t/4) coefficients (the
    last one shorter), each transformed at the smallest 5-smooth
    m >= 2q - 1, about n / 4.  A pair (j, j+u) has j in P_i and j+u in
    P_{i+d} for one gap d >= 0, so c_u sums, over d and i, the cross
    correlations of P_i against P_{i+d} at offset k = u - d q, |k| < q.
    The inverse of the gap spectrum S_d = sum_i conj(F_i) F_{i+d}
    (S_0 = sum |F_i|^2) holds their sum over i at index k mod m, no wrap
    since m >= 2q - 1: its indices 0 .. q-1 give the lags d q .. d q + q-1
    and its last q - 1 indices the lags (d-1) q + 1 .. d q - 1.

    The eight transforms run in four pairs by _pair, one transform of a
    pair on the calling thread and the other on the process's worker
    thread (numpy's transforms release the GIL): the forward transforms
    of P_0 and P_1, then of P_2 and P_3, then the inverses of S_2 and
    S_3, then of S_0 and S_1.  The worker runs nothing but np.fft calls;
    it is made on the first long call and looked up by process id, so a
    child made by fork makes its own.

    Memory, short path: the spectrum (8n bytes), the int64 result (8t)
    and the irfft output (8n), with n about 2t: 44 bytes per coefficient
    under tracemalloc at t = 2**14 - 1.  Four-piece path: the four
    piece spectra, of about 8m = 4t bytes each, are overwritten in place
    by the gap spectra; S_2 and S_3 are inverted and their spectra
    dropped before the int64 result (8t) is allocated, and their inverses
    are rounded into it before S_0 and S_1 are inverted.  So at most
    about 24t bytes are live (24.3 bytes per coefficient under tracemalloc
    at t = 2**18), plus pocketfft's own scratch, about 16 bytes per point
    of each of the two running transforms.  Every irfft output is rounded
    straight into the result by one guard, with numpy's ufunc buffers and
    blocks of _GAP_BLOCK entries the only other temporaries.
    """
    f = _coefficients(seq)
    t = f.size
    if t < _SPLIT_MIN:
        return _short_correlation(f)
    q = -(-t // 4)
    m = _smooth_length(2 * q - 1)
    spectra = [
        *_pair(np.fft.rfft, f[:q], f[q : 2 * q], m),
        *_pair(np.fft.rfft, f[2 * q : 3 * q], f[3 * q :], m),
    ]
    _to_gap_spectra(spectra)
    below, above = _pair(np.fft.irfft, spectra[2], spectra[3], m)
    del spectra[2:]
    out = np.empty(t, dtype=np.int64)
    _round_gap(above, 3, q, out)
    _round_gap(below, 2, q, out)
    del below, above
    below, above = _pair(np.fft.irfft, spectra[0], spectra[1], m)
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
    """values as signed int64 rows of _CERT_BLOCK, zero-padded; as |v| <= t
    < Q / 2, each product that _eval_mod reduces (numpy %) is below 2**61."""
    rows = np.zeros(-(-values.size // _CERT_BLOCK) * _CERT_BLOCK, dtype=np.int64)
    rows[: values.size] = values
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


def _sum_squares(values: np.ndarray):
    """Exact sums of v^2 along the last axis of int64 values.

    int64 dot products run over chunks of floor(2^62 / max v^2) entries,
    so no partial sum can overflow.  One chunk gives int64 sums, one per
    row; more, which only a vector longer than a stack's rows can need,
    are added as Python ints.  Exact whenever each v^2 fits in int64
    (|v| < 3.03e9).  The peak is read with no temporary array.
    """
    peak = int(max(values.max(), -values.min()))
    step = max(1, 2**62 // max(peak * peak, 1))
    t = values.shape[-1]
    if t <= step:
        return np.einsum("...i,...i->...", values, values)
    return sum(
        int(np.dot(values[i : i + step], values[i : i + step])) for i in range(0, t, step)
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
    return 2 * int(_sum_squares(c)) - int(c[0]) ** 2


def _autocorrelation_rows(rows) -> np.ndarray:
    """autocorrelation_fast of each row of a 2-d stack of sequences shorter
    than 2**14, as an int64 stack, from one spectral call.

    The rows pass _coefficients' rules, as a stack, and are correlated by
    autocorrelation_fast's short path, _short_correlation, all at once.
    """
    f = _coefficients(rows, ndim=2)
    t = f.shape[-1]
    if t >= _SPLIT_MIN:
        raise ValueError(f"stacked rows must be shorter than 2**14 = {_SPLIT_MIN}, got {t}")
    return _short_correlation(np.ascontiguousarray(f))


def _l4_rows(rows) -> np.ndarray:
    """l4_norm_pow4 of each row of a 2-d stack of sequences shorter than
    2**14, as int64, from one spectral call.

    The rows are correlated by _autocorrelation_rows and their squares
    summed as l4_norm_pow4 sums them.  A row's norm is at most 2 t^3 <
    2**43, exact in int64.
    """
    c = _autocorrelation_rows(rows)
    return 2 * _sum_squares(c) - c[:, 0] ** 2


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
    """sum_n max(0, t - |offset - n * period|)^2 over all integers n, exactly.

    The distances |offset - n period| run over d + k period, k >= 0, for
    d = offset mod period and d = period - (offset mod period); with
    x = t - d, the K = ceil(x / period) positive terms (x - k period)^2
    sum to K x^2 - period x K (K - 1) + period^2 (K - 1) K (2K - 1) / 6.
    """
    total = 0
    for x in (t - offset % period, t - period + offset % period):
        K = max(0, -(-x // period))
        total += K * x * x - period * x * K * (K - 1) + period**2 * (K - 1) * K * (2 * K - 1) // 6
    return total


def periodic_lower_bound(t: int, m: int) -> int:
    """sum_n max(0, t - |n| m)^2: the L4^4 floor for m-periodic sequences."""
    t, m = as_int(t, "t"), as_int(m, "m")
    if t < 1 or m < 1:
        raise ValueError(f"need t, m >= 1, got t={t}, m={m}")
    return _window_sum_sq(t, m)
