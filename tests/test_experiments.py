import bisect
import cmath
import csv
import json
import math
import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from feketelab import experiments
from feketelab.asymptotics import ratio_limit_u
from feketelab.experiments import (
    _lemma_bounds,
    _lemma_counts,
    _round_half_away,
    export_records,
    five_term_decomposition,
    prime_ladder,
    run_convergence,
    technical_lemma_check,
)
from feketelab.primality import is_prime
from feketelab.sequences import (
    FeketeSpec,
    fekete_coeffs,
    l4_norm_pow4,
    littlewoodize,
    periodic_lower_bound,
)


def quadruple_count(t, accept):
    total = 0
    for j1 in range(t):
        for j2 in range(t):
            for j3 in range(t):
                j4 = j1 + j2 - j3
                if 0 <= j4 < t and accept(j1, j2, j3, j4):
                    total += 1
    return total


def test_decomposition_frozen_example():
    rep = five_term_decomposition(FeketeSpec(7, 1, 7))
    assert rep.A == rep.B == 49
    assert rep.C == 37
    assert rep.D == Fraction(-66)
    assert rep.E_actual == Fraction(-19)
    assert rep.E_normalized == pytest.approx(-19 / 49)


def test_decomposition_identity_is_exact():
    for p, r, t in ((11, 2, 5), (11, 2, 11), (13, 3, 19), (31, 7, 46)):
        spec = FeketeSpec(p, r, t)
        rep = five_term_decomposition(spec)
        exact = Fraction(l4_norm_pow4(fekete_coeffs(spec)))
        assert exact == rep.A + rep.B + rep.C + rep.D + rep.E_actual
        assert rep.A == rep.B


def test_decomposition_closed_forms_count_quadruples():
    # A counts quadruples with j1+j2 = j3+j4 and p | j4-j2; C counts those
    # with j1+j2 = j3+j4 = -2r mod p; D removes the unconstrained count twice.
    for p in (3, 5, 7):
        for r in (0, 1, 2):
            for t in (1, 3, p, p + 2, 2 * p):
                rep = five_term_decomposition(FeketeSpec(p, r, t))
                assert rep.A == quadruple_count(t, lambda a, b, c, d: (d - b) % p == 0)
                assert rep.C == quadruple_count(
                    t, lambda a, b, c, d: (a + b + 2 * r) % p == 0
                )
                assert rep.D == -Fraction(2, p) * quadruple_count(
                    t, lambda a, b, c, d: True
                )


@pytest.mark.parametrize(
    "p, r, t",
    [
        (10007, 0, 10_001),
        # (R0, T0) at p = 9461, rounded as run_convergence rounds them.
        (9461, 2092, 10008),
    ],
)
def test_decomposition_takes_lengths_past_ten_thousand(p, r, t):
    # FeketeSpec's MAX_LENGTH is the decomposition's only length rule.
    spec = FeketeSpec(p, r, t)
    rep = five_term_decomposition(spec)
    exact = l4_norm_pow4(fekete_coeffs(spec), kernel="naive")
    assert rep.A + rep.B + rep.C + rep.D + rep.E_actual == exact


def brute_lemma_sum(n, t):
    total = 0.0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                s = 0j
                for j2 in range(t):
                    for j3 in range(t):
                        for j4 in range(t):
                            j1 = j3 + j4 - j2
                            if 0 <= j1 < t:
                                s += cmath.exp(
                                    2j * cmath.pi * (-a * j2 + b * j3 + c * j4) / n
                                )
                total += abs(s)
    return total


def test_technical_lemma_trivial_case():
    res = technical_lemma_check(1, 1)
    assert res.G == pytest.approx(1.0, abs=1e-12)
    assert res.bound == pytest.approx(64.0)
    assert res.ok


def test_technical_lemma_examples_hold():
    for n, t in ((2, 1), (5, 5), (24, 32)):
        res = technical_lemma_check(n, t)
        assert res.ok
        # ln n > 0 here, so each exponent of the lemma constant shows
        assert res.bound == pytest.approx(
            64 * max(n, t) ** 3 * (1 + math.log(n)) ** 3, rel=1e-12
        )


def test_technical_lemma_matches_bruteforce():
    for n in (1, 2, 3, 4, 5):
        for t in (1, 2, 4, 6):
            grouped = technical_lemma_check(n, t).G
            assert grouped == pytest.approx(brute_lemma_sum(n, t), abs=1e-8)


def full_spectrum_lemma_sum(n, t):
    """Oracle: G from the full 3-D fftn of the (j2, j3, j4) residue counts."""
    j2, j3, j4 = np.indices((t, t, t)).reshape(3, -1)
    j1 = j3 + j4 - j2
    keep = (j1 >= 0) & (j1 < t)
    counts = np.zeros((n, n, n))
    np.add.at(counts, (j2[keep] % n, j3[keep] % n, j4[keep] % n), 1)
    return float(np.abs(np.fft.fftn(counts)).sum())


@pytest.mark.parametrize("t", [1, 2, 7, 32])
def test_technical_lemma_half_spectrum_equals_the_full_fftn(t):
    for n in range(1, 25):
        assert technical_lemma_check(n, t).G == pytest.approx(
            full_spectrum_lemma_sum(n, t), rel=1e-12
        )


def lemma_counts_by_enumeration(n, t):
    """Oracle: the residue counts of every triple (j2, j3, j4) in [0, t)^3
    with j1 = j3 + j4 - j2 in [0, t), enumerated at length t itself."""
    j2, j3, j4 = np.indices((t, t, t)).reshape(3, -1)
    j1 = j3 + j4 - j2
    keep = (j1 >= 0) & (j1 < t)
    counts = np.zeros(n**3, dtype=np.int64)
    np.add.at(counts, ((j2[keep] % n) * n + j3[keep] % n) * n + j4[keep] % n, 1)
    return counts


def test_lemma_running_counts_equal_a_direct_enumeration():
    for n in range(1, 25):
        for t, counts in enumerate(_lemma_counts(n, 32), 1):
            expected = lemma_counts_by_enumeration(n, t)
            assert (counts == expected).all(), (n, t)
            # every quadruple with j1 + j2 = j3 + j4 in [0, t)
            assert expected.sum() == (2 * t**3 + t) // 3
        assert t == 32


def test_lemma_bounds_are_the_checks_at_every_length():
    for n in (1, 2, 7, 24):
        assert list(_lemma_bounds(n, 32)) == [technical_lemma_check(n, t) for t in range(1, 33)]


def test_technical_lemma_rejects_out_of_range():
    with pytest.raises(ValueError):
        technical_lemma_check(25, 3)
    with pytest.raises(ValueError):
        technical_lemma_check(3, 33)
    with pytest.raises(ValueError):
        technical_lemma_check(0, 3)


def test_prime_ladder_shape():
    rungs = prime_ladder(100, 10_000, 8)
    assert len(rungs) == 8
    assert rungs[0] == 101
    assert all(is_prime(p) for p in rungs)
    assert all(b > a for a, b in zip(rungs, rungs[1:]))


def test_prime_ladder_needs_at_least_one_rung():
    with pytest.raises(ValueError, match="count >= 1"):
        prime_ladder(100, 200, 0)


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.one_of(st.integers(3, 10**5), st.integers(2**53, 2**63 - 1 - 10**5)),
    st.integers(0, 10**5),
    st.integers(1, 30),
)
@example(2**62 + 200, 10**6 - 200, 3)  # float(p_lo) = 2**62, and 2**62 + 135 is prime
def test_prime_ladder_is_strictly_increasing_primes(p_lo, width, count):
    rungs = prime_ladder(p_lo, p_lo + width, count)
    assert len(rungs) == count
    assert rungs[0] >= p_lo
    assert all(is_prime(p) for p in rungs)
    assert all(b > a for a, b in zip(rungs, rungs[1:]))


def test_prime_ladder_makes_one_prime_search_per_rung(monkeypatch):
    # 1000 rungs on [100, 200] collide on nearly every target
    calls, search = [], experiments.next_prime_at_least
    monkeypatch.setattr(experiments, "next_prime_at_least", lambda n: calls.append(n) or search(n))
    p_lo, p_hi, count = 100, 200, 1000
    rungs = prime_ladder(p_lo, p_hi, count)
    assert len(calls) == count
    # oracle: a sieve past the top rung, then the first prime at or above
    # both the target and the floor
    flags = bytearray([1]) * (rungs[-1] + 1)
    for n in range(2, math.isqrt(rungs[-1]) + 1):
        if flags[n]:
            flags[n * n :: n] = bytes(len(flags[n * n :: n]))
    primes = [n for n in range(3, len(flags)) if flags[n]]
    expected = []
    for i in range(count):
        target = math.ceil(p_lo * (p_hi / p_lo) ** (i / (count - 1)))
        floor = expected[-1] + 1 if expected else p_lo
        expected.append(primes[bisect.bisect_left(primes, max(target, floor))])
    assert rungs == expected


def test_run_convergence_record_fields():
    # at T = 1e-6, T * p rounds to 0 and every length is the floor 1
    for T in (1.0, 1e-6):
        records = run_convergence(0.25, T, 100, 400, 3)
        assert [rec.p for rec in records] == sorted(rec.p for rec in records)
        for rec in records:
            assert rec.r == round(0.25 * rec.p)
            assert rec.t == max(1, round(T * rec.p))
            g = littlewoodize(fekete_coeffs(FeketeSpec(rec.p, rec.r, rec.t)))
            assert rec.l4_pow4 == l4_norm_pow4(g)
            assert rec.ratio4 == pytest.approx(rec.l4_pow4 / rec.t**2)
            assert rec.ratio4 >= 1.0
            assert rec.abs_err == pytest.approx(abs(rec.ratio4 - rec.limit))
            assert rec.rel_err == pytest.approx(rec.abs_err / rec.limit)


def test_run_convergence_negative_R_rounding():
    records = run_convergence(-0.25, 1.0, 100, 200, 2)
    for rec in records:
        assert rec.r == -round(0.25 * rec.p)


@pytest.mark.parametrize(
    "x,expected",
    [("1/2", 1), ("-1/2", -1), ("2/5", 0), ("-2/5", 0)],
)
def test_round_half_away_sends_ties_away_from_zero(x, expected):
    assert _round_half_away(Fraction(x)) == expected


def test_run_convergence_rounds_the_exact_product_of_a_huge_R():
    # 1e308 * p overflows a float; the exact product is a multiple of p,
    # so the sequence is the unrotated one.
    for rec in run_convergence(1e308, 1.0, 100, 200, 2):
        assert rec.r == int(1e308) * rec.p
        assert rec.t == rec.p
        g = littlewoodize(fekete_coeffs(FeketeSpec(rec.p, 0, rec.t)))
        assert rec.l4_pow4 == l4_norm_pow4(g)


def test_run_convergence_records_python_floats_for_float32_arguments():
    rec = run_convergence(np.float32(0.25), np.float32(1.0), 100, 200, 2)[0]
    assert rec.limit == ratio_limit_u(0.25, 1.0)
    assert type(rec.limit) is float


@pytest.mark.parametrize("R, T", [("0.25", 1.0), (0.25, "1"), ("0.25", "1")])
def test_run_convergence_rejects_strings(R, T):
    # as every asymptotics function does
    with pytest.raises(TypeError, match="got str"):
        run_convergence(R, T, 100, 200, 1)


def test_run_convergence_validates_arguments():
    with pytest.raises(ValueError):
        run_convergence(0.25, 0.0, 100, 200, 4)
    # prime_ladder's count >= 1 is the one rung-count rule.
    (rec,) = run_convergence(0.25, 1.0, 100, 200, 1)
    assert (rec.p, rec.r, rec.t) == (101, 25, 101)
    with pytest.raises(ValueError, match="need count >= 1"):
        run_convergence(0.25, 1.0, 100, 200, 0)
    for bad in (2.5, "3", None, True):
        with pytest.raises(ValueError, match="^count must be an integer"):
            run_convergence(0.25, 1.0, 100, 200, bad)


@pytest.mark.parametrize("bad", [True, np.True_, 2.5, 3.0, np.float64(3.0)])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda x: periodic_lower_bound(x, 1), "t"),
        (lambda x: periodic_lower_bound(3, x), "m"),
        (lambda x: prime_ladder(x, 200, 2), "p_lo"),
        (lambda x: prime_ladder(3, x, 2), "p_hi"),
        (lambda x: prime_ladder(100, 200, x), "count"),
        (lambda x: technical_lemma_check(x, 3), "n"),
        (lambda x: technical_lemma_check(3, x), "t"),
    ],
    ids=["periodic-t", "periodic-m", "ladder-p_lo", "ladder-p_hi", "ladder-count", "lemma-n", "lemma-t"],
)
def test_integer_arguments_reject_bool_and_float(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(bad)


def test_integer_arguments_accept_numpy_integers():
    assert periodic_lower_bound(np.int64(7), np.int8(3)) == periodic_lower_bound(7, 3) == 83
    assert prime_ladder(np.int64(100), np.int32(200), np.uint8(2)) == prime_ladder(100, 200, 2)
    assert prime_ladder(100, 200, 2) == [101, 211]
    assert technical_lemma_check(np.int16(3), np.int64(4)) == technical_lemma_check(3, 4)


def large_t_inequality(p, t, r=0):
    """For t/p > 3/2, ||g||_4^4 >= periodic floor >= t^2 + 2 (t - p)^2.

    The Littlewood-ized sequence is p-periodic, so its norm is at least
    the periodic lower bound with period p, whose first three terms
    already give the closed-form threshold 1 + 2 (1 - p/t)^2 on the
    normalized norm; every comparison is in exact integers.
    """
    assert 2 * t > 3 * p
    l4 = l4_norm_pow4(littlewoodize(fekete_coeffs(FeketeSpec(p, r, t))))
    floor = periodic_lower_bound(t, p)
    return l4 >= floor >= t * t + 2 * (t - p) ** 2


def test_large_t_check_examples():
    assert large_t_inequality(7, 14, 0)
    assert large_t_inequality(11, 17, 3)


def test_large_t_ratio_beats_eleven_ninths():
    for p, t, r in ((7, 11, 0), (11, 18, 5), (13, 20, 2)):
        assert large_t_inequality(p, t, r)
        g_l4 = l4_norm_pow4(littlewoodize(fekete_coeffs(FeketeSpec(p, r, t))))
        assert g_l4 / t**2 > 11 / 9


def _sample_records():
    return run_convergence(0.25, 1.0, 100, 300, 2)


def test_export_csv_layout(tmp_path):
    records = _sample_records()
    out = tmp_path / "ladder.csv"
    export_records(records, "csv", out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,r,t,l4_pow4,ratio4,limit,abs_err,rel_err"
    assert len(lines) == len(records) + 1
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert int(rows[0]["p"]) == records[0].p
    assert float(rows[0]["ratio4"]) == pytest.approx(records[0].ratio4, rel=1e-14)


def test_export_json_round_trip(tmp_path):
    records = _sample_records()
    out = tmp_path / "ladder.json"
    export_records(records, "json", out)
    loaded = json.loads(out.read_text())
    assert len(loaded) == len(records)
    for row, rec in zip(loaded, records):
        assert row["p"] == rec.p and row["r"] == rec.r and row["t"] == rec.t
        assert row["l4_pow4"] == rec.l4_pow4
        for field in ("ratio4", "limit", "abs_err", "rel_err"):
            assert row[field] == float(f"{getattr(rec, field):.15g}")


def test_export_rejects_empty_and_bad_format(tmp_path):
    with pytest.raises(ValueError):
        export_records([], "csv", tmp_path / "x.csv")
    with pytest.raises(ValueError, match="no records"):
        export_records(iter([]), "csv", tmp_path / "x.csv")
    with pytest.raises(ValueError):
        export_records(_sample_records(), "xml", tmp_path / "x.xml")


def test_export_surfaces_io_failure_with_destination():
    records = _sample_records()
    bad = "/nonexistent-dir/out.csv"
    with pytest.raises(OSError, match="^cannot write records to /nonexistent-dir/out.csv: "):
        export_records(records, "csv", bad)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_failing_midway_leaves_no_partial_file(tmp_path, monkeypatch, fmt):
    import feketelab.experiments as experiments

    records = _sample_records()
    kept = tmp_path / "kept.csv"
    kept.write_text("previous contents\n")
    fresh = tmp_path / "fresh.csv"
    written = []

    class HalfThenFail:
        """A file handle whose write stores half the text, then fails."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            written.append(os.fstat(self.handle.fileno()).st_size)
            raise OSError("disk full")

    monkeypatch.setattr(
        experiments, "open", lambda *a, **k: HalfThenFail(open(*a, **k)), raising=False
    )
    for destination in (kept, fresh):
        with pytest.raises(OSError, match="disk full"):
            export_records(records, fmt, destination)
    assert len(written) == 2 and min(written) > 0
    monkeypatch.undo()

    def fail_to_render(x):
        raise ValueError("cannot render")

    monkeypatch.setattr(experiments, "sig15", fail_to_render)
    for destination in (kept, fresh):
        with pytest.raises(ValueError, match="cannot render"):
            export_records(records, fmt, destination)
    assert kept.read_text() == "previous contents\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["kept.csv"]


def test_export_reraises_a_non_os_error_and_leaves_no_temporary_file(tmp_path, monkeypatch):
    import feketelab.experiments as experiments

    records = _sample_records()

    def interrupted(src, dst):
        raise RuntimeError("interrupted before the rename")

    monkeypatch.setattr(experiments.os, "replace", interrupted)
    with pytest.raises(RuntimeError, match="interrupted before the rename"):
        export_records(records, "csv", tmp_path / "ladder.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_export_to_a_standard_stream_keeps_the_callers_earlier_output_first(tmp_path, stream):
    # The stream is made block-buffered, so "before" waits in its buffer
    # and reaches the file first only if export_records flushes the stream.
    if not os.path.exists(f"/dev/{stream}"):
        pytest.skip(f"needs /dev/{stream}")
    import feketelab.experiments as experiments

    fd = {"stdout": 1, "stderr": 2}[stream]
    program = (
        "import sys\n"
        "from feketelab.experiments import export_records, run_convergence\n"
        "records = run_convergence(0.25, 1.0, 100, 200, 2)\n"
        f"sys.{stream} = open({fd}, 'w', closefd=False)\n"
        f"sys.{stream}.write('before')\n"
        f"export_records(records, 'csv', '/dev/{stream}')\n"
        f"sys.{stream}.write('after')\n"
        f"sys.{stream}.flush()\n"
    )
    source = os.path.dirname(os.path.dirname(experiments.__file__))
    log = tmp_path / "log.txt"
    with open(log, "wb") as handle:
        subprocess.run(
            [sys.executable, "-c", program], **{stream: handle}, check=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=source),
        )
    expected = tmp_path / "expected.csv"
    export_records(run_convergence(0.25, 1.0, 100, 200, 2), "csv", expected)
    assert log.read_bytes() == b"before" + expected.read_bytes() + b"after"


def test_export_replaces_existing_file(tmp_path):
    out = tmp_path / "ladder.csv"
    out.write_text("stale\n" * 100)
    export_records(_sample_records(), "csv", out)
    assert out.read_text().startswith("p,r,t,")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ladder.csv"]


def test_export_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("stale\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    export_records(_sample_records(), "csv", link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text().startswith("p,r,t,")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "target.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("through_link", [False, True])
def test_export_to_a_fifo_writes_in_place(tmp_path, through_link):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    destination = fifo
    if through_link:
        destination = tmp_path / "link"
        destination.symlink_to(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    records = _sample_records()
    export_records(records, "csv", destination)
    reader.join(timeout=10)
    assert not reader.is_alive()
    lines = received[0].strip().splitlines()
    assert lines[0] == "p,r,t,l4_pow4,ratio4,limit,abs_err,rel_err"
    assert len(lines) == len(records) + 1
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert destination.is_symlink() == through_link
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        {"pipe", destination.name}
    )


@pytest.mark.parametrize("prefix", ["/dev/fd", "/proc/self/fd"])
def test_export_to_a_named_descriptor_writes_through_it(tmp_path, prefix):
    if not os.path.isdir(prefix):
        pytest.skip(f"needs {prefix}")
    records = _sample_records()
    reference = tmp_path / "reference.csv"
    export_records(records, "csv", reference)
    out = tmp_path / "three.txt"
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        os.write(fd, b"before\n")
        export_records(records, "csv", f"{prefix}/{fd}")
        os.write(fd, b"after\n")
    finally:
        os.close(fd)
    assert out.read_text() == "before\n" + reference.read_text() + "after\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["reference.csv", "three.txt"]
