import _ctypes
import gc
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feketelab import sequences
from feketelab.sequences import (
    FeketeSpec,
    KernelPrecisionError,
    autocorrelation_fast,
    autocorrelation_naive,
    char_sum_l4,
    fekete_coeffs,
    l2_norm_pow2,
    l4_norm_pow4,
    littlewoodize,
    merit_factor,
    periodic_lower_bound,
    _certify_autocorrelation,
    _char_sum_l4_prefixes,
    _SMOOTH_LENGTHS,
    _smooth_length,
    _sum_squares,
    _window_sum_sq,
)
from feketelab.characters import legendre, legendre_table
from feketelab.primality import primes_in


def test_spec_validation():
    FeketeSpec(3, -5, 1)
    with pytest.raises(ValueError):
        FeketeSpec(4, 0, 3)
    with pytest.raises(ValueError):
        FeketeSpec(3, 0, 0)
    for p, r, t in [(3, 0.5, 3), (7, True, 3), (7, 0, True), (7, 0, 3.0), (np.bool_(1), 0, 3)]:
        with pytest.raises(ValueError):
            FeketeSpec(p, r, t)


def test_spec_length_cap():
    assert sequences.MAX_LENGTH == 2**25
    assert FeketeSpec(3, 0, 2**25).t == 2**25
    for t in (2**25 + 1, 10**30):
        with pytest.raises(ValueError, match="MAX_LENGTH"):
            FeketeSpec(3, 0, t)


@pytest.mark.parametrize("itype", [np.int64, np.int32])
def test_spec_accepts_numpy_integers(itype):
    spec = FeketeSpec(itype(7), itype(-2), itype(3))
    assert spec == FeketeSpec(7, -2, 3)
    assert all(type(v) is int for v in (spec.p, spec.r, spec.t))
    assert np.array_equal(fekete_coeffs(spec), fekete_coeffs(FeketeSpec(7, -2, 3)))


def test_coefficient_sequence_validation():
    # float, bool and str entries are rejected, not cast to integers
    bad_inputs = [[0.5, 1], [1.9, -1], [True, False], ["1", "-1"], [[1, -1]], [], [2, 1]]
    public = [
        littlewoodize,
        autocorrelation_naive,
        autocorrelation_fast,
        l2_norm_pow2,
        l4_norm_pow4,
        merit_factor,
    ]
    for fn in public:
        for bad in bad_inputs:
            with pytest.raises(ValueError):
                fn(bad)
    for good in ([1, 0, -1], np.uint8([1, 0]), np.int32([-1, 1])):
        assert l2_norm_pow2(good) == np.count_nonzero(good)


def test_fekete_and_littlewoodize_return_read_only_int8():
    source = np.array([0, 1, -1], dtype=np.int64)
    for out in (fekete_coeffs(FeketeSpec(7, 1, 12)), littlewoodize(source), littlewoodize([0])):
        assert out.dtype == np.int8 and not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1
    assert source.tolist() == [0, 1, -1]


@pytest.mark.parametrize(
    "spec,expected",
    [
        (FeketeSpec(3, 0, 3), [0, 1, -1]),
        (FeketeSpec(7, 1, 7), [1, 1, -1, 1, -1, -1, 0]),
        (FeketeSpec(5, 5, 2), [0, 1]),
    ],
)
def test_fekete_coeffs_examples(spec, expected):
    assert fekete_coeffs(spec).tolist() == expected


def test_fekete_coeffs_rotation_is_mod_p():
    expected = fekete_coeffs(FeketeSpec(7, 1, 7))
    assert np.array_equal(fekete_coeffs(FeketeSpec(7, -6, 7)), expected)
    assert np.array_equal(fekete_coeffs(FeketeSpec(7, 1 + 7 * 10**12, 7)), expected)


def test_fekete_coeffs_periodic_extension():
    long = fekete_coeffs(FeketeSpec(5, 2, 12))
    assert (long[:5] == long[5:10]).all()


def test_fekete_coeffs_is_the_rotated_symbol_at_every_rotation_and_length():
    for p in primes_in(3, 13):
        for r in range(-p, 2 * p):
            symbols = [legendre(j + r, p) for j in range(3 * p + 1)]
            for t in range(1, 3 * p + 2):
                f = fekete_coeffs(FeketeSpec(p, r, t))
                assert f.dtype == np.int8 and not f.flags.writeable
                assert f.tolist() == symbols[:t], (p, r, t)


def test_fekete_coeffs_repeats_its_period_without_a_copy_per_period():
    # the row is a slice of one tiled buffer of fewer than t + 2p bytes
    spec = FeketeSpec(3, 1, 2**22)
    fekete_coeffs(spec)  # builds and caches the Legendre table
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        f = fekete_coeffs(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f[:7].tolist() == [1, -1, 0, 1, -1, 0, 1]
    assert peak < 2 * spec.t


@pytest.mark.parametrize(
    "before,after",
    [
        ([0, 1, -1], [1, 1, -1]),
        ([1, -1], [1, -1]),
        ([0, 0], [1, 1]),
    ],
)
def test_littlewoodize_examples(before, after):
    assert littlewoodize(before).tolist() == after


def test_littlewoodize_touches_at_most_ceil_t_over_p_entries():
    for p in primes_in(3, 13):
        for r in range(p):
            for t in (1, p - 1, p, 2 * p, 3 * p + 1):
                f = fekete_coeffs(FeketeSpec(p, r, t))
                changed = int((f == 0).sum())
                assert changed <= math.ceil(t / p)


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ([1, 1, -1], [3, 0, -1]),
        ([1], [1]),
        ([1, 1, -1, 1, -1, -1, 0], [6, -1, 0, 1, -2, -1, 0]),
    ],
)
def test_autocorrelation_naive_examples(coeffs, expected):
    assert autocorrelation_naive(coeffs).tolist() == expected


def test_autocorrelation_profile_invariants():
    rng = np.random.RandomState(11)
    for _ in range(200):
        t = rng.randint(1, 60)
        seq = rng.choice([-1, 0, 1], size=t)
        c = autocorrelation_naive(seq)
        assert c[0] == l2_norm_pow2(seq)
        assert all(abs(int(c[u])) <= t - u for u in range(t))


def test_autocorrelation_fast_equals_naive():
    rng = np.random.RandomState(5)
    # 1458 and 1563 pad to 2916 = 2^2 3^6 and 3125 = 5^5, not powers of two
    for t in (1, 2, 3, 17, 100, 1024, 1458, 1563, 2**14):
        seq = rng.choice([-1, 1], size=t)
        assert (autocorrelation_fast(seq) == autocorrelation_naive(seq)).all()


def test_split_kernel_equals_naive_around_the_split_bound():
    # 2**14 - 1 takes the single transform; the others are cut into four
    # pieces, 2**14 + 1 and 2**14 + 3 with a shorter last piece
    rng = np.random.RandomState(41)
    assert sequences._SPLIT_MIN == 2**14
    for t in (2**14 - 1, 2**14, 2**14 + 1, 2**14 + 3):
        seq = rng.choice(np.array([-1, 1], dtype=np.int8), size=t)
        assert (autocorrelation_fast(seq) == autocorrelation_naive(seq)).all()


def test_split_kernel_all_ones():
    # c_u = t - u: the largest sums, and the largest residual, at this length
    ones = np.ones(2**16, dtype=np.int8)
    c = autocorrelation_fast(ones)
    assert (c == autocorrelation_naive(ones)).all()
    assert (c == np.arange(2**16, 0, -1)).all()


def test_split_kernel_raw_fekete_sequence():
    # p < t, so the raw sequence repeats with a zero in every period
    seq = fekete_coeffs(FeketeSpec(10007, 1234, 2**14 + 5000))
    assert np.count_nonzero(seq == 0) == 2
    assert (autocorrelation_fast(seq) == autocorrelation_naive(seq)).all()


def gap_spectra(seq):
    """S_0 .. S_3 of the four-piece kernel, formed here from np.fft.rfft."""
    t = seq.size
    q = -(-t // 4)
    m = _smooth_length(2 * q - 1)
    pieces = [np.fft.rfft(seq[i * q : (i + 1) * q], m) for i in range(4)]
    return [
        sum(np.conjugate(pieces[i]) * pieces[i + d] for i in range(4 - d))
        for d in range(4)
    ]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("gap,index", [(1, 0), (1, -1), (2, 0), (2, -1), (3, 0), (3, -1), (0, 0)])
def test_split_kernel_guards_each_inverse(monkeypatch, gap, index):
    # The inverse of S_d holds lag d q at index 0 and lag d q - 1 at index
    # -1; S_0's index 0 is lag 0.  The two inverses of a pair run at the
    # same time, so each is told by its input, not by the order of calls.
    t = 2**14 + 1
    seq = np.random.RandomState(43).choice([-1, 1], size=t)
    spectra = gap_spectra(seq)
    real_irfft = np.fft.irfft
    seen = []

    def irfft_with_a_nan(spectrum, n, out=None):
        # the kernel inverts into buffers it passes as out
        assert out is not None
        d = min(range(4), key=lambda d: np.abs(spectrum - spectra[d]).max())
        assert np.allclose(spectrum, spectra[d], rtol=0, atol=1e-6 * t)
        real_irfft(spectrum, n, out=out)
        if d == gap:
            out[index] = np.nan
        seen.append((d, out.size))
        return out

    monkeypatch.setattr(np.fft, "irfft", irfft_with_a_nan)
    with pytest.raises(KernelPrecisionError, match=f"residual nan at length {t}"):
        autocorrelation_fast(seq)
    m = _smooth_length(2 * (-(-t // 4)) - 1)
    assert (gap, m) in seen


def fft_workers():
    """Names of the live threads of the spectral kernel's executors."""
    return [t.name for t in threading.enumerate() if t.name.startswith("feketelab-fft")]


def test_split_kernel_from_several_threads():
    # Three callers share the one worker thread on a two-core host; a
    # short switch interval interleaves them as often as it can.  With the
    # cache empty, they race to make the executor: each may make its own,
    # and every executor left uncached is collected with its thread.  The
    # norms run on held workspaces, one cached for the last thread that
    # asked: callers that alternate evict each other's, and each must
    # still get exact results.
    sequences._fft_worker.cache_clear()
    rng = np.random.RandomState(47)
    seqs = [rng.choice(np.array([-1, 1], dtype=np.int8), size=t) for t in (2**14 + 3, 3 * 2**13 + 1)]
    expected = [autocorrelation_naive(seq) for seq in seqs]
    norms = [2 * _sum_squares(c) - int(c[0]) ** 2 for c in expected]
    mismatches = []
    done = []

    def caller(k):
        for i in range(12):
            j = (i + k) % 2
            if not (autocorrelation_fast(seqs[j]) == expected[j]).all():
                mismatches.append((k, i))
            if l4_norm_pow4(seqs[j]) != norms[j]:
                mismatches.append((k, i, "norm"))
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2]
    assert mismatches == []
    deadline = time.monotonic() + 10
    while len(fft_workers()) > 1 and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.05)
    assert len(fft_workers()) <= 1


def test_split_kernel_passes_an_error_on_the_worker_to_the_caller(monkeypatch):
    # The caller's transform waits until the worker has started its own,
    # so the worker, not the caller, runs the failing transform.
    seq = np.random.RandomState(53).choice(np.array([-1, 1], dtype=np.int8), size=2**14 + 3)
    caller = threading.get_ident()
    real_rfft = np.fft.rfft
    worker_started = threading.Event()

    def rfft_failing_off_the_caller(*args, **kwargs):
        if threading.get_ident() != caller:
            worker_started.set()
            raise RuntimeError("transform failed on the worker")
        assert worker_started.wait(30)
        return real_rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", rfft_failing_off_the_caller)
    with pytest.raises(RuntimeError, match="transform failed on the worker"):
        autocorrelation_fast(seq)
    monkeypatch.undo()
    assert (autocorrelation_fast(seq) == autocorrelation_naive(seq)).all()


def test_split_kernel_waits_for_a_running_worker_transform_before_it_raises(monkeypatch):
    # The caller's transform fails once the worker has started a slow one;
    # the call must not return before the worker's transform has finished.
    seq = np.random.RandomState(43).choice(np.array([-1, 1], dtype=np.int8), size=2**14 + 3)
    caller = threading.get_ident()
    real_rfft = np.fft.rfft
    worker_started, worker_finished = threading.Event(), threading.Event()

    def rfft_slow_on_the_worker(*args, **kwargs):
        if threading.get_ident() != caller:
            worker_started.set()
            time.sleep(0.2)
            worker_finished.set()
            return real_rfft(*args, **kwargs)
        assert worker_started.wait(30)
        raise RuntimeError("transform failed on the caller")

    monkeypatch.setattr(np.fft, "rfft", rfft_slow_on_the_worker)
    with pytest.raises(RuntimeError, match="transform failed on the caller"):
        autocorrelation_fast(seq)
    assert worker_finished.is_set()


def test_split_kernel_does_not_wait_for_a_busy_worker():
    # While the worker is held by another task, every transform runs on
    # the caller; had the caller waited for the worker, the kernel would
    # return only after the task gave up, and the task would be done.
    seq = np.random.RandomState(57).choice(np.array([-1, 1], dtype=np.int8), size=2**14 + 3)
    expected = autocorrelation_naive(seq)
    release = threading.Event()
    held = sequences._fft_worker(os.getpid()).submit(release.wait, 10)
    try:
        c = autocorrelation_fast(seq)
        assert not held.done()
    finally:
        release.set()
    assert held.result(timeout=30)
    assert (c == expected).all()


def test_split_kernel_runs_no_transform_after_a_failure(monkeypatch):
    # The worker is held, so the transform paired with the caller's is
    # still queued when the caller's fails: it is cancelled, and runs
    # neither on the caller nor later on the worker.
    seq = np.random.RandomState(67).choice(np.array([-1, 1], dtype=np.int8), size=2**14 + 3)
    caller = threading.get_ident()
    real_rfft = np.fft.rfft
    calls = []

    def rfft_failing_on_the_caller(*args, **kwargs):
        calls.append(threading.get_ident())
        if threading.get_ident() == caller:
            raise RuntimeError("transform failed on the caller")
        return real_rfft(*args, **kwargs)

    release = threading.Event()
    worker = sequences._fft_worker(os.getpid())
    held = worker.submit(release.wait, 10)
    monkeypatch.setattr(np.fft, "rfft", rfft_failing_on_the_caller)
    try:
        with pytest.raises(RuntimeError, match="transform failed on the caller"):
            autocorrelation_fast(seq)
        assert calls == [caller]
    finally:
        release.set()
    assert held.result(timeout=30)
    # the worker runs its queue in order: whatever was left behind the
    # held task has run once this one has
    worker.submit(int).result(timeout=30)
    assert calls == [caller]


def send_autocorrelation(seq, conn):
    c = autocorrelation_fast(seq)
    conn.send((c, l4_norm_pow4(seq), fft_workers()))
    conn.close()


# Python 3.12 warns that fork copies a process with threads in it
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_split_kernel_in_a_forked_child():
    # The parent's worker holds a task when the child is forked; the child
    # inherits the parent's executor but not its thread, and must make an
    # executor of its own.  It inherits the held workspace of the thread
    # that forked it too, as a copy, and its norm must be exact on it.
    seq = np.random.RandomState(59).choice(np.array([-1, 1], dtype=np.int8), size=2**14 + 3)
    expected = autocorrelation_fast(seq)
    norm = l4_norm_pow4(seq)
    assert norm == 2 * _sum_squares(expected) - int(expected[0]) ** 2
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=send_autocorrelation, args=(seq, send))
    release = threading.Event()
    held = sequences._fft_worker(os.getpid()).submit(release.wait, 10)
    try:
        child.start()
    finally:
        release.set()
    assert held.result(timeout=30)
    send.close()
    try:
        assert receive.poll(30), "the forked child sent no result"
        got, got_norm, workers = receive.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert (got == expected).all()
    assert got_norm == norm
    assert len(workers) == 1


def test_norm_workspace_across_lengths_and_the_held_bound(monkeypatch):
    # The bound is lowered to 1 MiB so that lengths on both sides of it stay
    # cheap: 40000 coefficients need 960,064 bytes of buffers, 50001 and
    # 60000 more than 1 MiB.  The lengths go up, down and up again, across
    # 2**14 and across the bound; after each call every held buffer is
    # filled with NaN, so a value left by an earlier call cannot pass.
    bound = 2**20
    monkeypatch.setattr(sequences, "_HELD_BYTES", bound)
    sequences._workspace.cache_clear()
    ident = threading.get_ident()
    held = sequences._workspace(ident)
    rng = np.random.RandomState(79)
    for t in (2**14 + 1, 40000, 2**14 - 3, 30001, 60000, 2**14 + 3, 50001, 20000, 40000):
        seq = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=t)
        c = autocorrelation_fast(seq)
        assert _certify_autocorrelation(seq, c, CERTIFICATE_POINTS[:2]), t
        if t < 2**15:
            assert (c == autocorrelation_naive(seq)).all(), t
        before = list(held)
        assert l4_norm_pow4(seq) == 2 * _sum_squares(c) - int(c[0]) ** 2, t
        assert sequences._workspace(ident) is held
        assert sum(buf.nbytes for buf in held) <= bound, t
        if t in (60000, 50001):
            # made for the call: the held buffers are left as they were
            assert len(held) == len(before) and all(a is b for a, b in zip(held, before))
        lags = sequences._autocorrelation(seq, held)
        assert (lags == c).all(), t
        for buf in held:
            buf.fill(np.nan)
    # a first call above the bound holds nothing
    seq = rng.choice(np.array([-1, 1], dtype=np.int8), size=60000)
    c = autocorrelation_fast(seq)
    sequences._workspace.cache_clear()
    assert l4_norm_pow4(seq) == 2 * _sum_squares(c) - int(c[0]) ** 2
    assert len(sequences._workspace(ident)) == 0


def test_norm_workspace_peak_memory():
    # The first norm at t = 2**18 makes the held buffers, 48m + 64 bytes
    # with m = 2**17, about 24t; a repeat at the same length carves the
    # same buffers and allocates only numpy's ufunc buffers and the blocks
    # of _to_gap_spectra.  tracemalloc does not see pocketfft's scratch.
    t = 2**18
    seq = np.random.RandomState(83).choice(np.array([-1, 1], dtype=np.int8), size=t)
    c = autocorrelation_fast(seq)
    expected = 2 * _sum_squares(c) - int(c[0]) ** 2
    sequences._workspace.cache_clear()
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert l4_norm_pow4(seq) == expected
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 24 * t + 2**20, peaks[0] / t
    assert peaks[1] < 2**20, peaks[1]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_failed_norm_empties_its_held_workspace(monkeypatch):
    # A transform left running by an interrupted wait must find no later
    # call in the buffers it writes: a call that raises drops them.
    seq = np.random.RandomState(89).choice(np.array([-1, 1], dtype=np.int8), size=2**14 + 3)
    norm = l4_norm_pow4(seq)
    held = sequences._workspace(threading.get_ident())
    assert len(held) == 2
    real_irfft = np.fft.irfft

    def irfft_with_a_nan(spectrum, n, out=None):
        real_irfft(spectrum, n, out=out)
        out[0] = np.nan
        return out

    monkeypatch.setattr(np.fft, "irfft", irfft_with_a_nan)
    with pytest.raises(KernelPrecisionError, match="residual nan"):
        l4_norm_pow4(seq)
    assert len(held) == 0
    monkeypatch.undo()
    assert l4_norm_pow4(seq) == norm
    assert len(held) == 2


CERTIFICATE_POINTS = np.random.RandomState(61).randint(2, 2**31 - 1, size=5)


def test_certificate_accepts_both_kernels():
    rng = np.random.RandomState(67)
    for t in (1, 2, 17, 2**14 - 1, 2**14 + 1, 2**14 + 3):
        for values in ([-1, 1], [-1, 0, 1]):
            seq = rng.choice(np.array(values, dtype=np.int8), size=t)
            for kernel in (autocorrelation_fast, autocorrelation_naive):
                assert _certify_autocorrelation(seq, kernel(seq), CERTIFICATE_POINTS[:3])
    ones = np.ones(2**16, dtype=np.int8)
    assert _certify_autocorrelation(ones, autocorrelation_fast(ones), CERTIFICATE_POINTS[:3])
    # all ones at t = 2**21, c_u = t - u: a row of 2**12 products of lag
    # sums near t with powers below 2**31 would overflow int64 unreduced
    t = 2**21
    ones = np.ones(t, dtype=np.int8)
    assert _certify_autocorrelation(ones, np.arange(t, 0, -1), CERTIFICATE_POINTS[:3])
    assert _certify_autocorrelation([1, -1, 1], [3, -2, 1], CERTIFICATE_POINTS[:3])


def test_certificate_rejects_one_lag_off_by_one():
    t = 2**14 + 3
    seq = np.random.RandomState(71).choice(np.array([-1, 1], dtype=np.int8), size=t)
    c = autocorrelation_fast(seq)
    for u in (0, 1, t - 1, t // 2):
        for step in (1, -1):
            wrong = c.copy()
            wrong[u] += step
            assert not _certify_autocorrelation(seq, wrong, CERTIFICATE_POINTS[:3])


def test_certificate_rejects_a_value_beyond_t():
    t = 17
    seq = np.random.RandomState(73).choice(np.array([-1, 1], dtype=np.int8), size=t)
    c = autocorrelation_naive(seq)
    # with no point, only the bound |c_u| <= t is checked
    assert _certify_autocorrelation(seq, c, ())
    for value in (t + 1, -(t + 1)):
        wrong = c.copy()
        wrong[5] = value
        assert not _certify_autocorrelation(seq, wrong, ())
    # c_u + Q agrees with c mod Q at every point: only the bound rejects it
    shifted = c.copy()
    shifted[5] += 2**31 - 1
    assert not _certify_autocorrelation(seq, shifted, CERTIFICATE_POINTS)
    assert not _certify_autocorrelation(seq, c[:-1], CERTIFICATE_POINTS)
    for point in (0, 2**31 - 1, 1.5):
        with pytest.raises(ValueError):
            _certify_autocorrelation(seq, c, [point])


def test_certificate_of_a_long_littlewood_norm():
    seq = littlewoodize(fekete_coeffs(FeketeSpec(1000003, 381888, 1225511)))
    c = autocorrelation_fast(seq)
    assert _certify_autocorrelation(seq, c, CERTIFICATE_POINTS)
    assert 2 * _sum_squares(c) - int(c[0]) ** 2 == 2330464228007


def autocorrelation_by_loop(seq):
    """Oracle: the direct sum as one int64 dot product per lag."""
    f = np.asarray(seq).astype(np.int64)
    t = f.size
    out = np.empty(t, dtype=np.int64)
    for u in range(t):
        out[u] = np.dot(f[: t - u], f[u:])
    return out


def test_autocorrelation_naive_equals_the_loop_oracle():
    # Lengths on each side of every seam of the direct kernel: the leaf,
    # multiples of the lag block b, multiples of the r tile, and a second,
    # partial tile of D blocks, which starts once a lag block lies beyond
    # D_TILE * b; 1458, 1563 and 3001 end in short tiles of each kind.
    leaf, b = sequences._DIRECT_LEAF, sequences._LAG_BLOCK
    r, d = sequences._R_TILE, sequences._D_TILE
    seams = [leaf, 9 * b, 13 * b, 2 * r, 3 * r, d * b, d * b + 3 * r]
    assert leaf < min(seams[1:]) and 2 * r > leaf
    lengths = list(range(1, 65)) + [1024, 1458, 1563, 3001]
    lengths += [seam + e for seam in seams for e in (-1, 0, 1)]
    rng = np.random.RandomState(13)
    for t in lengths:
        seq = rng.choice([-1, 0, 1], size=t)
        c = autocorrelation_naive(seq)
        assert c.dtype == np.int64
        assert (c == autocorrelation_by_loop(seq)).all()
    # c_u = t - u: every running sum of every lag reaches its largest
    # value, over 34 r tiles and both tiles of D blocks
    t = d * b + r + 3
    ones = np.ones(t, dtype=np.int8)
    assert (autocorrelation_naive(ones) == np.arange(t, 0, -1)).all()


def test_autocorrelation_naive_accepts_lists_and_integer_arrays():
    rng = np.random.RandomState(17)
    signed = rng.choice([-1, 0, 1], size=300)
    unsigned = rng.choice([0, 1], size=300)
    cases = [
        (signed.tolist(), signed),
        (signed.astype(np.int8), signed),
        (signed.astype(np.int64), signed),
        (unsigned.astype(np.uint8), unsigned),
    ]
    for seq, reference in cases:
        c = autocorrelation_naive(seq)
        assert c.dtype == np.int64
        assert (c == autocorrelation_by_loop(reference)).all()


def test_autocorrelation_naive_one_route(monkeypatch):
    # One route at every length: float32 operands for each np.correlate and
    # np.matmul call, int32 lag sums, an int64 result.  It is exact because
    # a tile entry sums at most _R_TILE products, which float32 holds, and
    # a lag sum has magnitude <= t <= MAX_LENGTH, which int32 holds.
    assert sequences._R_TILE < 2**24
    assert sequences.MAX_LENGTH < 2**31
    # the tiled branch pads by _R_TILE zeros, which cover a lag block and
    # fit in any sequence above the leaf
    assert sequences._DIRECT_LEAF >= sequences._R_TILE >= sequences._LAG_BLOCK
    seen = {"correlate": [], "matmul": []}
    correlate, matmul = np.correlate, np.matmul

    def correlate_spy(a, v, mode):
        seen["correlate"].append((a.dtype, v.dtype))
        return correlate(a, v, mode)

    def matmul_spy(a, b, **kwargs):
        seen["matmul"].append((a.dtype, b.dtype))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "correlate", correlate_spy)
    monkeypatch.setattr(np, "matmul", matmul_spy)
    # The call counts below hold for these tile constants.
    assert (sequences._DIRECT_LEAF, sequences._LAG_BLOCK) == (896, 128)
    assert (sequences._R_TILE, sequences._D_TILE) == (512, 128)
    # length: (np.correlate calls, np.matmul calls).  Up to the leaf, one
    # np.correlate; above it, one product per r tile of 512 while all the
    # lag blocks below that tile's end fit in one D tile of 128 blocks.
    # 2**14 + 1 has 33 r tiles, and its last spans 129 lag blocks, two D
    # tiles.
    calls = {
        1: (1, 0), 8: (1, 0), 9: (1, 0), 64: (1, 0), 896: (1, 0),
        897: (0, 2), 1563: (0, 4), 5000: (0, 10), 2**14 + 1: (0, 34),
    }
    float32 = np.dtype(np.float32)
    rng = np.random.RandomState(19)
    for t, (correlates, products) in calls.items():
        for kind in seen.values():
            kind.clear()
        seq = rng.choice([-1, 0, 1], size=t)
        c = autocorrelation_naive(seq)
        assert c.dtype == np.int64
        assert (c == autocorrelation_by_loop(seq)).all()
        assert (len(seen["correlate"]), len(seen["matmul"])) == (correlates, products)
        assert set(seen["correlate"] + seen["matmul"]) == {(float32, float32)}


def test_autocorrelation_naive_peak_memory():
    # On the tiled path: the padded float32 sequence and the int32 lag
    # sums, 4 bytes each per coefficient, with the tile buffers (576 KiB),
    # then the lag sums and the int64 result.
    t = 2**16
    seq = np.random.RandomState(43).choice(np.array([-1, 1], dtype=np.int8), size=t)
    expected = autocorrelation_fast(seq)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        c = autocorrelation_naive(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (c == expected).all()
    assert peak <= 12 * t + 2**20


def fake_blas(count):
    """(get, set) over one thread count, and the list of counts set."""
    state, sets = [count], []

    def set_(n):
        sets.append(n)
        state[0] = n

    return (lambda: state[0], set_), sets


# a window that finds the count at 1 sets nothing
@pytest.mark.parametrize("count, window", [(2, [1, 2]), (1, [])], ids=["count-2", "count-1"])
def test_direct_kernel_restores_the_blas_thread_count(monkeypatch, count, window):
    blas, sets = fake_blas(count)
    monkeypatch.setattr(sequences, "_openblas_threads", lambda: blas)
    seq = np.random.RandomState(61).choice([-1, 1], size=2000)
    expected = autocorrelation_fast(seq)
    assert (autocorrelation_naive(seq) == expected).all()
    assert sets == window
    # the leaf runs no matrix product and leaves the count alone
    autocorrelation_naive(seq[: sequences._DIRECT_LEAF])
    assert sets == window

    def failing_matmul(*args, **kwargs):
        raise RuntimeError("tile failed")

    monkeypatch.setattr(np, "matmul", failing_matmul)
    with pytest.raises(RuntimeError, match="tile failed"):
        autocorrelation_naive(seq)
    assert sets == window * 2
    assert blas[0]() == count


def test_numpys_bundled_openblas_is_found():
    # the tests below skip when the lookup finds nothing; on a numpy built
    # with its bundled OpenBLAS that would hide a broken lookup
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if name != "scipy-openblas" or not hasattr(os, "RTLD_NOLOAD"):
        pytest.skip(f"numpy's BLAS is {name}, not its bundled OpenBLAS, or no RTLD_NOLOAD")
    assert sequences._openblas_threads.__wrapped__() is not None


def test_direct_kernel_runs_numpys_openblas_on_one_thread(monkeypatch):
    blas = sequences._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    get, _ = blas
    before, inside = get(), []
    real_matmul = np.matmul

    def spy(*args, **kwargs):
        inside.append(get())
        return real_matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    seq = np.random.RandomState(67).choice([-1, 1], size=2000)
    assert (autocorrelation_naive(seq) == autocorrelation_fast(seq)).all()
    assert inside and set(inside) == {1}
    assert get() == before


def test_overlapping_direct_kernel_calls_restore_the_blas_thread_count():
    blas = sequences._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    get, set_ = blas
    start = get()
    # a count of 1 would leave every window nothing to change
    found = max(start, 2)
    seq = np.random.RandomState(73).choice(np.array([-1, 1], dtype=np.int8), size=2**14)
    expected = autocorrelation_fast(seq)
    set_(found)
    try:
        for trial in range(5):
            barrier, exact = threading.Barrier(3), []

            def run():
                barrier.wait(timeout=60)
                exact.extend((autocorrelation_naive(seq) == expected).all() for _ in range(2))

            threads = [threading.Thread(target=run) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert exact == [True] * 6
            assert get() == found, trial
    finally:
        set_(start)


def test_direct_kernel_is_exact_when_no_openblas_is_found(monkeypatch):
    # numpy's extension as a loaded library that links no OpenBLAS: the
    # lookup finds nothing
    monkeypatch.setattr(np._core._multiarray_umath, "__file__", _ctypes.__file__)
    assert sequences._openblas_threads.__wrapped__() is None
    monkeypatch.setattr(sequences, "_openblas_threads", lambda: None)
    rng = np.random.RandomState(71)
    for t in (sequences._DIRECT_LEAF + 1, 2000, 4099):
        seq = rng.choice([-1, 0, 1], size=t)
        assert (autocorrelation_naive(seq) == autocorrelation_fast(seq)).all()


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=300),
    st.sampled_from([list, np.int64, np.int8]),
)
def test_kernels_agree_on_lists_and_integer_arrays(values, kind):
    seq = values if kind is list else np.array(values, dtype=kind)
    reference = np.array(values, dtype=np.int8)
    expected = autocorrelation_naive(reference).tolist()
    assert autocorrelation_fast(seq).tolist() == expected
    assert autocorrelation_naive(seq).tolist() == expected
    assert l4_norm_pow4(seq) == l4_norm_pow4(seq, kernel="naive") == l4_norm_pow4(reference)


def test_smooth_length_matches_brute_force():
    def brute(m):
        n = m
        while True:
            k = n
            for q in (2, 3, 5):
                while k % q == 0:
                    k //= q
            if k == 1:
                return n
            n += 1

    assert [_smooth_length(m) for m in range(1, 10_001)] == [
        brute(m) for m in range(1, 10_001)
    ]


def test_smooth_lengths_reach_no_further_than_max_length():
    # Four pieces of MAX_LENGTH / 4 ask for the longest transform, 2**24.
    assert _SMOOTH_LENGTHS[-1] <= sequences.MAX_LENGTH
    assert _smooth_length(2 * (sequences.MAX_LENGTH // 4) - 1) == 2**24
    assert _smooth_length(2**24 - 1) == 2**24


def test_kernels_reject_a_raw_sequence_longer_than_max_length():
    # A longer raw sequence would ask for a transform past the table.
    seq = np.zeros(sequences.MAX_LENGTH + 1, dtype=np.int8)
    for call in (autocorrelation_fast, autocorrelation_naive, l4_norm_pow4):
        with pytest.raises(ValueError, match="exceeds MAX_LENGTH"):
            call(seq)


def test_autocorrelation_fast_all_ones_at_largest_ladder_length():
    # c_u = t - u is the largest |c_u| any length-t sign sequence can have
    t = 1_250_001
    assert _smooth_length(2 * t - 1) == 2_519_424 == 2**7 * 3**9
    ones = np.ones(t, dtype=np.int8)
    c = autocorrelation_fast(ones)
    assert c.dtype == np.int64
    assert (c == np.arange(t, 0, -1)).all()
    assert l4_norm_pow4(ones) == t * t + (t - 1) * t * (2 * t - 1) // 3


def test_sum_squares_is_exact_past_int64():
    big = 3_037_000_499  # largest v with v^2 < 2^63
    values = np.array(
        [big, -big, 2**31 - 1, -(2**31), 1, 0, -7] + [2**31 - 1] * 5, dtype=np.int64
    )
    exact = sum(v * v for v in values.tolist())
    assert exact > 2**63
    assert _sum_squares(values) == exact
    assert _sum_squares(values[4:7]) == 50
    assert _sum_squares(np.zeros(3, dtype=np.int64)) == 0
    # each square is 2^62: summed in one chunk, the pair would overflow int64
    assert _sum_squares(np.array([2**31, 2**31], dtype=np.int64)) == 2**63


def test_autocorrelation_fast_signals_precision_failure(monkeypatch):
    seq = [1, 1, -1]
    real_irfft = np.fft.irfft

    def noisy_irfft(*args, **kwargs):
        return real_irfft(*args, **kwargs) + 0.25

    monkeypatch.setattr(np.fft, "irfft", noisy_irfft)
    with pytest.raises(KernelPrecisionError):
        autocorrelation_fast(seq)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_autocorrelation_fast_equals_naive_for_any_round_block(block):
    # The rounding step runs through numpy's ufunc buffer, which must hold a
    # multiple of 16 elements: 16, 112 and 1024 values per block here, so
    # blocks smaller than t, not dividing t and larger than t are all met.
    rng = np.random.RandomState(29)
    with np.errstate():
        np.setbufsize(16 * block)
        for t in list(range(1, 65)) + [1000]:
            values = rng.choice([-1, 0, 1], size=t)
            expected = autocorrelation_naive(values.astype(np.int8))
            for seq in (values.tolist(), values.astype(np.int8), values.astype(np.int64)):
                c = autocorrelation_fast(seq)
                assert c.dtype == np.int64
                assert (c == expected).all()


@pytest.mark.parametrize("index", [0, 19])
def test_autocorrelation_fast_checks_every_value(monkeypatch, index):
    # t = 20: the first and the last value each trip the residual guard
    seq = np.random.RandomState(31).choice([-1, 1], size=20)
    real_irfft = np.fft.irfft

    def irfft_off_by_a_quarter_at_one_index(*args, **kwargs):
        out = real_irfft(*args, **kwargs)
        out[index] += 0.25
        return out

    monkeypatch.setattr(np.fft, "irfft", irfft_off_by_a_quarter_at_one_index)
    with pytest.raises(KernelPrecisionError, match="residual 2.500e-01 at length 20"):
        autocorrelation_fast(seq)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_autocorrelation_fast_rejects_a_nan_residual(monkeypatch):
    real_irfft = np.fft.irfft

    def irfft_with_a_nan(*args, **kwargs):
        out = real_irfft(*args, **kwargs)
        out[3] = np.nan
        return out

    monkeypatch.setattr(np.fft, "irfft", irfft_with_a_nan)
    with pytest.raises(KernelPrecisionError, match="residual nan at length 8"):
        autocorrelation_fast([1, -1, 1, 1, -1, -1, 1, 1])


def test_stacked_short_path_equals_the_1d_kernel_row_by_row():
    # t = 1 has a one-entry spectrum; 2**14 - 1 is the longest short path
    rng = np.random.RandomState(47)
    for t in list(range(1, 65)) + [2**14 - 1]:
        rows = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(5, t))
        stacked = sequences._short_correlation(rows)
        assert stacked.dtype == np.int64 and stacked.shape == (5, t)
        for row, c in zip(rows, stacked):
            assert (c == autocorrelation_fast(row)).all(), t


def test_l4_rows_equals_l4_norm_pow4_per_row():
    rng = np.random.RandomState(53)
    for t in (1, 2, 3, 17, 64, 1000, 2**14 - 1):
        for dtype in (np.int8, np.int64, np.uint8):
            values = [0, 1] if dtype == np.uint8 else [-1, 0, 1]
            rows = rng.choice(np.array(values, dtype=dtype), size=(4, t))
            norms = sequences._l4_rows(rows)
            assert norms.dtype == np.int64
            assert norms.tolist() == [l4_norm_pow4(row) for row in rows], (t, dtype)
    # a list of rows and a non-contiguous stack pass too
    assert sequences._l4_rows([[1, 1, -1], [1, 1, 1]]).tolist() == [11, 19]
    columns = np.array([[1, 1], [1, 1], [-1, 1]]).T
    assert not columns.flags.c_contiguous
    assert sequences._l4_rows(columns).tolist() == [11, 19]


@pytest.mark.parametrize(
    "bad",
    [
        np.ones((2, 2, 2), dtype=np.int8),
        np.ones(3, dtype=np.int8),
        np.ones((0, 3), dtype=np.int8),
        np.ones((3, 0), dtype=np.int8),
        np.ones((2, 3)),
        np.ones((2, 3), dtype=bool),
        np.array([[1, 0, 2]]),
        np.array([[1, -2, 0]]),
        np.ones((1, 2**14), dtype=np.int8),
    ],
    ids=["3-d", "1-d", "no rows", "empty rows", "float", "bool", "2", "-2", "2**14"],
)
def test_l4_rows_rejects_bad_stacks(bad):
    with pytest.raises(ValueError):
        sequences._l4_rows(bad)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_l4_rows_rejects_a_nan_in_one_row(monkeypatch):
    real_irfft = np.fft.irfft

    def irfft_with_a_nan_in_row_2(*args, **kwargs):
        out = real_irfft(*args, **kwargs)
        out[2, 5] = np.nan
        return out

    monkeypatch.setattr(np.fft, "irfft", irfft_with_a_nan_in_row_2)
    rows = np.random.RandomState(59).choice([-1, 1], size=(4, 9))
    with pytest.raises(KernelPrecisionError, match="residual nan at length 9"):
        sequences._l4_rows(rows)


def test_autocorrelation_fast_peak_memory():
    # The short path at n ~ 2t: the spectrum, the int64 result and the
    # irfft output, about 44t bytes.  The four-piece path at m ~ t/2: four
    # spectra, overwritten by the gap spectra, two irfft outputs and the
    # int64 result, at most 24t bytes live.
    # tracemalloc sees numpy's allocations only, not pocketfft's scratch
    # inside each transform.
    for t, bound in ((2**14 - 1, 48), (2**18, 30)):
        seq = np.random.RandomState(37).choice(np.array([-1, 1], dtype=np.int8), size=t)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            c = autocorrelation_fast(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c[0] == t
        assert peak <= bound * t, (t, peak / t)


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ([1, 1, -1], 11),  # 9 + 2*(0 + 1)
        ([1], 1),
    ],
)
def test_l4_norm_pow4_examples(coeffs, expected):
    assert l4_norm_pow4(coeffs) == expected
    assert l4_norm_pow4(coeffs, kernel="naive") == expected


def test_l4_norm_pow4_fekete_example():
    assert l4_norm_pow4(fekete_coeffs(FeketeSpec(7, 1, 7))) == 50  # 36 + 2*7


def test_l4_norm_pow4_rejects_unknown_kernel():
    with pytest.raises(ValueError):
        l4_norm_pow4([1], kernel="magic")


def test_l4_at_least_l2_squared():
    rng = np.random.RandomState(23)
    for _ in range(200):
        seq = rng.choice([-1, 0, 1], size=rng.randint(1, 80))
        assert l4_norm_pow4(seq) >= l2_norm_pow2(seq) ** 2


@pytest.mark.parametrize(
    "coeffs,expected",
    [([1, 1, -1], 3), ([0, 1, -1], 2), ([1] * 100, 100)],
)
def test_l2_norm_pow2_examples(coeffs, expected):
    assert l2_norm_pow2(coeffs) == expected


def test_merit_factor_examples():
    assert merit_factor([1, 1, -1]) == pytest.approx(4.5)
    assert merit_factor([1, 1]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        merit_factor([1])


@pytest.mark.parametrize(
    "spec,expected",
    [
        (FeketeSpec(3, 0, 3), 6),  # profile of [0,+1,-1] is [2,-1,0]
        (FeketeSpec(7, 1, 7), 50),
        (FeketeSpec(5, 1, 1), 1),
    ],
)
def test_char_sum_l4_examples(spec, expected):
    assert char_sum_l4(spec) == expected


def test_char_sum_l4_equals_autocorrelation_route():
    for p in primes_in(3, 7):
        for r in range(p):
            for t in range(1, 2 * p + 1):
                spec = FeketeSpec(p, r, t)
                assert char_sum_l4(spec) == l4_norm_pow4(fekete_coeffs(spec))


def char_sum_l4_by_loop(spec):
    """Oracle: the quadruple sum as a double loop over (j2, j3), with j4
    vectorized over the range that keeps j1 = j3 + j4 - j2 in [0, t)."""
    p, t = spec.p, spec.t
    table = legendre_table(p)
    residue = (np.arange(t, dtype=np.int64) + spec.r % p) % p
    total = 0
    for j2 in range(t):
        for j3 in range(t):
            lo = max(0, j2 - j3)
            hi = min(t, t + j2 - j3)
            if lo >= hi:
                continue
            j4 = np.arange(lo, hi, dtype=np.int64)
            j1 = j3 + j4 - j2
            product = (
                residue[j1] * residue[j2] % p * residue[j3] % p * residue[j4] % p
            )
            total += int(table[product].sum())
    return total


def test_char_sum_l4_equals_the_loop_oracle():
    specs = [
        FeketeSpec(p, r, t)
        for p in primes_in(3, 7)
        for r in range(p)
        for t in range(1, 2 * p + 1)
    ]
    for spec in specs + [FeketeSpec(61, 5, 64)]:
        assert char_sum_l4(spec) == char_sum_l4_by_loop(spec)


def test_char_sum_l4_prefixes_equal_the_loop_oracle_at_every_length():
    specs = [FeketeSpec(p, r, 2 * p) for p in primes_in(3, 7) for r in range(p)]
    for spec in specs + [FeketeSpec(61, 5, 64)]:
        sums = _char_sum_l4_prefixes(spec)
        assert sums.tolist() == [
            char_sum_l4_by_loop(FeketeSpec(spec.p, spec.r, t)) for t in range(1, spec.t + 1)
        ]
        assert char_sum_l4(spec) == sums[-1]


def test_char_sum_l4_rejects_oversize_t():
    with pytest.raises(ValueError):
        char_sum_l4(FeketeSpec(3, 0, 65))


@pytest.mark.parametrize(
    "t,m,expected",
    [(3, 1, 19), (3, 5, 9), (7, 7, 49)],
)
def test_periodic_lower_bound_examples(t, m, expected):
    assert periodic_lower_bound(t, m) == expected


def test_periodic_lower_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        periodic_lower_bound(0, 1)
    with pytest.raises(ValueError):
        periodic_lower_bound(3, 0)


def test_periodic_lower_bound_equals_all_ones_norm():
    for t in range(1, 30):
        assert periodic_lower_bound(t, 1) == l4_norm_pow4([1] * t)


def window_sum_sq_by_loop(t, period, offset):
    """Oracle: one term per window n, sum_n max(0, t - |offset - n period|)^2."""
    lo = (offset - t) // period
    hi = -(-(offset + t) // period)
    return sum(max(0, t - abs(offset - n * period)) ** 2 for n in range(lo, hi + 1))


def test_window_sum_sq_equals_the_loop():
    for t in range(1, 41):
        for period in range(1, 13):
            for offset in range(-50, 51):
                assert _window_sum_sq(t, period, offset) == window_sum_sq_by_loop(t, period, offset)


def test_periodic_lower_bound_of_a_huge_length():
    # t^2 + 2 sum_{j<t} j^2, where one term per window would take hours
    t = 10**12
    assert periodic_lower_bound(t, 1) == t * t + (t - 1) * t * (2 * t - 1) // 3


def test_littlewoodization_perturbation_bound():
    # quadrinomial expansion of the norm triangle inequality
    for p in primes_in(3, 31):
        for r in (0, p // 3):
            for t in (p // 2, p, 2 * p - 1):
                if t < 1:
                    continue
                f = fekete_coeffs(FeketeSpec(p, r, t))
                g = littlewoodize(f)
                v = math.ceil(t / p)
                norm_f = l4_norm_pow4(f) ** 0.25
                bound = (
                    4 * v * norm_f**3
                    + 6 * v**2 * norm_f**2
                    + 4 * v**3 * norm_f
                    + v**4
                )
                assert abs(l4_norm_pow4(g) - l4_norm_pow4(f)) <= bound + 1e-9
