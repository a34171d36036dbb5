import contextlib
import io
import json
import os
import socket
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from feketelab import experiments, sequences, suites
from feketelab.asymptotics import record_constants
from feketelab.cli import entry, main
from feketelab.primality import is_prime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_littlewood_example(capsys):
    code, out, err = run(capsys, "norm", "--p", "3", "--r", "0", "--t", "3", "--littlewood")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "t: 3",
        "l2_pow2: 3",
        "l4_pow4: 11",
        f"l4_over_l2: {11**0.25 / 3**0.5!r}",
        "merit_factor: 4.5",
    ]
    # the split spectral kernel at t = 1,225,511, near the record point
    code, out, _ = run(capsys, "norm", "--p", "1000003", "--r", "381888", "--t", "1225511")
    assert code == 0
    assert "l4_pow4: 2330464228007" in out.splitlines()


def test_norm_raw_example(capsys):
    code, out, _ = run(capsys, "norm", "--p", "7", "--r", "1", "--t", "7", "--raw")
    assert code == 0
    assert "l4_pow4: 50" in out
    assert "l2_pow2: 6" in out


def test_norm_kernels_agree(capsys):
    _, fast_out, _ = run(capsys, "norm", "--p", "13", "--r", "3", "--t", "20", "--fast")
    _, naive_out, _ = run(capsys, "norm", "--p", "13", "--r", "3", "--t", "20", "--naive")
    assert fast_out == naive_out


@pytest.mark.parametrize("mode,l2", [("--raw", 4999), ("--littlewood", 5000)])
def test_norm_kernels_agree_on_the_tiled_path(capsys, mode, l2):
    # 5000 coefficients, above the direct kernel's leaf of one np.correlate;
    # the raw sequence keeps its one zero, at j = 10007 - 9000
    assert 5000 > sequences._DIRECT_LEAF
    argv = ["norm", "--p", "10007", "--r", "9000", "--t", "5000", mode]
    fast_code, fast_out, _ = run(capsys, *argv, "--fast")
    naive_code, naive_out, _ = run(capsys, *argv, "--naive")
    assert fast_code == naive_code == 0
    assert f"l2_pow2: {l2}" in fast_out.splitlines()
    assert fast_out == naive_out


def test_norm_rejects_composite_modulus(capsys):
    code, _, err = run(capsys, "norm", "--p", "4", "--r", "0", "--t", "3")
    assert code == 2
    assert "odd prime" in err


def test_norm_rejects_a_modulus_too_large_for_its_table(capsys):
    # a prime below 2**63: its Legendre table would take 8 EiB
    code, out, err = run(capsys, "norm", "--p", "9223372036854775783", "--t", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Legendre table" in err
    assert "Traceback" not in err


def test_norm_rejects_a_length_above_the_cap_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "norm", "--p", "3", "--t", "33554433")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "MAX_LENGTH" in err
    assert "Traceback" not in err
    assert peak < 2**20


def test_scan_rejects_a_top_rung_above_the_cap_before_any_rung(tmp_path, capsys, monkeypatch):
    norms = []
    monkeypatch.setattr(experiments, "l4_norm_pow4", lambda *a, **k: norms.append(a))
    out_file = tmp_path / "runs.csv"
    code, out, err = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1",
        "--pmin", "1000", "--pmax", "40000000", "--count", "2",
        "--out", str(out_file),
    )
    assert code == 2 and out == ""
    assert "MAX_LENGTH" in err and "Traceback" not in err
    assert norms == []
    assert list(tmp_path.iterdir()) == []


def test_scan_rejects_a_prime_target_beyond_64_bits(tmp_path, capsys):
    # 10**400 / pmin does not fit in a float
    code, out, err = run(
        capsys,
        "scan", "--R", "0", "--T", "1", "--pmin", "3", "--pmax", str(10**400),
        "--count", "2", "--out", str(tmp_path / "runs.csv"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2^63" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kernel,spectral_calls", [("--fast", 1), ("--naive", 0)])
def test_norm_runs_one_kernel_once(capsys, monkeypatch, kernel, spectral_calls):
    # l4_norm_pow4 and autocorrelation_fast share one spectral body
    calls = []
    fast = sequences._autocorrelation

    def spy(f, held):
        calls.append(len(f))
        return fast(f, held)

    monkeypatch.setattr(sequences, "_autocorrelation", spy)
    code, out, _ = run(capsys, "norm", "--p", "13", "--r", "3", "--t", "20", kernel)
    assert code == 0 and "merit_factor: " in out
    assert calls == [20] * spectral_calls


def test_norm_degenerate_merit_factor(capsys):
    code, out, _ = run(capsys, "norm", "--p", "3", "--r", "1", "--t", "1")
    assert code == 0
    assert "merit_factor: undefined" in out


def test_norm_of_a_sequence_of_zeros(capsys):
    code, out, err = run(capsys, "norm", "--p", "3", "--r", "0", "--t", "1", "--raw")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "t: 1",
        "l2_pow2: 0",
        "l4_pow4: 0",
        "l4_over_l2: undefined (l2_pow2 is 0)",
        "merit_factor: undefined (l4_pow4 equals l2_pow2 squared)",
    ]


def test_limit_example(capsys):
    code, out, _ = run(capsys, "limit", "--R", "0.25", "--T", "1")
    assert code == 0
    assert out.strip() == "1.1666666666666667"


def test_limit_rejects_bad_T(capsys):
    code, _, err = run(capsys, "limit", "--R", "0.25", "--T", "0")
    assert code == 2 and "positive" in err


@pytest.mark.parametrize("R,T", [("0", "inf"), ("inf", "1"), ("0", "nan"), ("-inf", "1")])
def test_limit_rejects_non_finite_arguments(capsys, R, T):
    code, _, err = run(capsys, "limit", f"--R={R}", f"--T={T}")
    assert code == 2 and err.startswith("error:")


def test_limit_rejects_huge_T(capsys):
    code, _, err = run(capsys, "limit", "--R", "0", "--T", "1e18")
    assert code == 2 and "2**20" in err


def test_limit_accepts_large_T_below_the_bound(capsys):
    code, out, _ = run(capsys, "limit", "--R", "0", "--T", "1000")
    assert code == 0 and float(out) > 0


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"T0", "R0", "c", "merit_factor_limit", "u_at_minimum_minus_c"}
    assert payload["c"] < 22 / 19
    assert payload["merit_factor_limit"] > 6.34
    assert abs(payload["u_at_minimum_minus_c"]) < 1e-10


def test_constants_exits_4_when_the_record_checks_fail(capsys, monkeypatch):
    moved = suites.record_constants()._replace(c=22 / 19)
    monkeypatch.setattr(suites, "record_constants", lambda: moved)
    code, out, err = run(capsys, "constants")
    assert code == 4 and out == ""
    first, second = err.splitlines()
    assert first.startswith("FAIL record-constant: c=1.15789473684211 ")
    assert second.startswith("FAIL minimum-consistency: ")


def test_optimize_quick(capsys):
    code, out, _ = run(capsys, "optimize", "--grid-step", "0.015625", "--tol", "1e-7")
    assert code == 0
    values = dict(line.split(": ") for line in out.strip().splitlines())
    assert abs(float(values["u_star"]) - 1.157677431123647) < 1e-8


@pytest.mark.parametrize("tol", ["5e-324", "1e-300"])
def test_optimize_terminates_at_a_tiny_tolerance(capsys, monkeypatch, tol):
    # through entry(), the target of the feketelab console script
    argv = ["feketelab", "optimize", "--grid-step", "0.015625", "--tol", tol]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as stop:
        entry()
    assert stop.value.code == 0
    values = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    rc = record_constants()
    assert abs(float(values["R_star"]) - rc.R0) < 1e-6
    assert abs(float(values["T_star"]) - rc.T0) < 1e-6


def test_optimize_rejects_coarse_grid(capsys):
    code, _, err = run(capsys, "optimize", "--grid-step", "0.5")
    assert code == 2 and "grid step" in err


def test_optimize_rejects_too_fine_grid(capsys):
    code, _, err = run(capsys, "optimize", "--grid-step", "1e-4")
    assert code == 2 and "grid step" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_optimize_rejects_non_finite_tolerance(capsys, tol):
    code, out, err = run(capsys, "optimize", "--grid-step", "0.015625", f"--tol={tol}")
    assert code == 2 and out == ""
    assert "tolerance" in err and "Traceback" not in err


def test_limit_rejects_T_below_the_bound(capsys):
    code, out, err = run(capsys, "limit", "--R", "0.1", "--T", "1e-300")
    assert code == 2 and out == ""
    assert "2**-500" in err


def test_scan_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "runs.csv"
    code, out, _ = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1",
        "--pmin", "100", "--pmax", "10000", "--count", "8",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 9
    assert lines[0] == "p,r,t,l4_pow4,ratio4,limit,abs_err,rel_err"
    assert "wrote 8 records" in out


def test_scan_writes_one_row_for_count_1(tmp_path, capsys):
    out_file = tmp_path / "runs.csv"
    code, out, _ = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1",
        "--pmin", "100", "--pmax", "10000", "--count", "1",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "p,r,t,l4_pow4,ratio4,limit,abs_err,rel_err"
    assert [line.split(",")[:3] for line in lines[1:]] == [["101", "25", "101"]]
    assert "wrote 1 records" in out


def test_scan_rejects_count_0(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1",
        "--pmin", "100", "--pmax", "10000", "--count", "0",
        "--out", str(tmp_path / "runs.csv"),
    )
    assert code == 2 and out == ""
    assert "need count >= 1" in err
    assert not (tmp_path / "runs.csv").exists()


def test_scan_runs_a_dense_ladder_past_pmax(tmp_path, capsys):
    # 2000 rungs on [100, 10000] collide on most targets; each takes the
    # next prime above the previous rung, so the ladder ends past --pmax
    out_file = tmp_path / "runs.csv"
    code, out, _ = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1e-6",
        "--pmin", "100", "--pmax", "10000", "--count", "2000",
        "--out", str(out_file),
    )
    assert code == 0
    assert "wrote 2000 records" in out
    rows = out_file.read_text().strip().splitlines()[1:]
    primes = [int(row.split(",")[0]) for row in rows]
    assert len(primes) == 2000
    assert all(is_prime(p) for p in primes)
    assert all(b > a for a, b in zip(primes, primes[1:]))
    assert rows[-1].split(",")[:3] == ["17609", "4402", "1"]


def test_scan_json_format(tmp_path, capsys):
    out_file = tmp_path / "runs.json"
    code, _, _ = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1",
        "--pmin", "100", "--pmax", "400", "--count", "3",
        "--out", str(out_file), "--format", "json",
    )
    assert code == 0
    text = out_file.read_text()
    rows = json.loads(text)
    assert len(rows) == 3
    assert text == json.dumps(rows, indent=2) + "\n"


def test_scan_surfaces_io_failure(capsys):
    code, _, err = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1",
        "--pmin", "100", "--pmax", "200", "--count", "2",
        "--out", "/nonexistent-dir/runs.csv",
    )
    assert code == 2
    assert "nonexistent-dir" in err


def test_scan_accepts_a_rotation_fraction_whose_products_overflow(tmp_path, capsys):
    out_file = tmp_path / "runs.csv"
    code, out, err = run(
        capsys,
        "scan", "--R", "1e308", "--T", "1",
        "--pmin", "100", "--pmax", "200", "--count", "2",
        "--out", str(out_file),
    )
    assert code == 0 and err == ""
    assert "wrote 2 records" in out
    assert len(out_file.read_text().splitlines()) == 3


_SCAN_TO_STREAM = (
    "scan", "--R", "0.25", "--T", "1", "--pmin", "100", "--pmax", "200", "--count", "2",
)
needs_dev_streams = pytest.mark.skipif(
    not all(os.path.exists(path) for path in ("/dev/stdout", "/dev/stderr", "/dev/fd")),
    reason="needs /dev/stdout, /dev/stderr and /dev/fd",
)
# /dev/fd/N names the stream's own descriptor N, which the child inherits
stream_outs = pytest.mark.parametrize("out", ["/dev/stdout", "/dev/stderr", "/dev/fd/N"])


def _scan_between_lines(fd, out):
    """Write `before` to descriptor fd, run `python -m feketelab.cli scan
    ... --out OUT` in a subprocess whose OUT is fd, then write `after`.

    OUT /dev/stdout or /dev/stderr makes fd the child's standard output or
    error; /dev/fd/N passes fd down under its own number.  The standard
    streams that are not fd are piped.  Returns the exit code, the --out
    path given, and what each piped stream received, by name."""
    source = Path(experiments.__file__).resolve().parents[1]
    named = {"/dev/stdout": "stdout", "/dev/stderr": "stderr"}.get(out)
    out = out if named else f"/dev/fd/{fd}"
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    if named:
        streams[named] = fd
    os.write(fd, b"before\n")
    result = subprocess.run(
        [sys.executable, "-m", "feketelab.cli", *_SCAN_TO_STREAM, "--out", out],
        **streams,
        pass_fds=() if named else (fd,),
        env=dict(os.environ, PYTHONPATH=str(source)),
        timeout=120,
    )
    os.write(fd, b"after\n")
    piped = {name: getattr(result, name) for name in ("stdout", "stderr") if name != named}
    return result.returncode, out, piped


def _assert_scan_between_lines(tmp_path, code, out, piped, received):
    """fd received the CSV, and the summary line if it is standard output,
    between `before` and `after`; the pipes received the rest: the summary
    line on standard output, nothing on standard error."""
    assert code == 0, piped
    expected = tmp_path / "expected.csv"
    experiments.export_records(experiments.run_convergence(0.25, 1.0, 100, 200, 2), "csv", expected)
    summary = f"wrote 2 records to {out}\n".encode()
    into_fd = expected.read_bytes() + (summary if out == "/dev/stdout" else b"")
    into_pipes = {"stdout": summary, "stderr": b""}
    into_pipes = {name: data for name, data in into_pipes.items() if out != f"/dev/{name}"}
    assert received == b"before\n" + into_fd + b"after\n"
    assert piped == into_pipes


@needs_dev_streams
@stream_outs
def test_scan_to_dev_stdout_keeps_a_regular_files_earlier_and_later_lines(tmp_path, out):
    log = tmp_path / "log.txt"
    with open(log, "wb") as handle:
        code, out, piped = _scan_between_lines(handle.fileno(), out)
    _assert_scan_between_lines(tmp_path, code, out, piped, log.read_bytes())


@needs_dev_streams
@stream_outs
def test_scan_to_dev_stdout_writes_into_a_socket(tmp_path, out):
    ours, theirs = socket.socketpair()
    with ours, theirs:
        code, out, piped = _scan_between_lines(theirs.fileno(), out)
        theirs.close()
        received = b"".join(iter(lambda: ours.recv(65536), b""))
    _assert_scan_between_lines(tmp_path, code, out, piped, received)


@needs_dev_streams
@stream_outs
def test_scan_to_dev_stdout_writes_into_a_pipe(tmp_path, out):
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        try:
            code, out, piped = _scan_between_lines(write_end, out)
        finally:
            os.close(write_end)
        received = reader.read()
    _assert_scan_between_lines(tmp_path, code, out, piped, received)


def test_norm_reports_precision_failure(capsys, monkeypatch):
    import feketelab.cli as cli
    from feketelab.sequences import KernelPrecisionError

    def broken_norm(seq, kernel="fast"):
        raise KernelPrecisionError("rounding residual 1.0")

    monkeypatch.setattr(cli, "l4_norm_pow4", broken_norm)
    code, _, err = run(capsys, "norm", "--p", "7", "--r", "1", "--t", "7")
    assert code == 3
    assert "precision failure" in err


def test_verify_suite_lemma3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma3")
    assert code == 0
    assert out.startswith("PASS exponential-sum-bound")


def test_verify_suite_regions(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "regions")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS region-pieces",
        "PASS hj-specialization",
    ]


def test_verify_exits_1_and_counts_the_failed_checks(capsys, monkeypatch):
    monkeypatch.setattr(suites, "_gauss_sum_residuals", lambda p, js: np.full(js.size, float(p)))
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == len(suites.SUITES["all"]) == 13
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL gauss-identity: max residual/p=1.00e+00"
    ]
    assert err == "1 of 13 checks failed\n"


def test_unknown_suite_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert run(capsys, "norm", "--p", "7")[0] == 2


# Property: whatever the arguments, the CLI answers or exits cleanly with a
# documented code, and never lets an exception escape as a traceback.  Sizes
# stay small: p <= 200, t <= 300, |T| <= 1000, grid steps no finer than 1/64.
_NUMBERS = st.one_of(
    st.floats(-1000.0, 1000.0).map(repr),
    st.sampled_from(
        ["nan", "inf", "-inf", "0", "-0.0", "1e-300", "5e-324", "1e300", "1e308",
         "-1.7976931348623157e308", "x", ""]
    ),
)
_INTEGERS = st.one_of(
    st.integers(-5, 300).map(str),
    st.sampled_from(["-99999999999999999999999", "2.5", "x", ""]),
)


def _flags(**values):
    return st.fixed_dictionaries(values).map(
        lambda chosen: [f"--{name.replace('_', '-')}={value}" for name, value in chosen.items()]
    )


_ARGV = st.one_of(
    st.tuples(
        st.just(["norm"]),
        _flags(p=st.integers(-3, 200).map(str), r=_INTEGERS, t=st.integers(-2, 300).map(str)),
        st.lists(st.sampled_from(["--naive", "--fast", "--raw", "--littlewood"]), max_size=2),
    ),
    st.tuples(st.just(["limit"]), _flags(R=_NUMBERS, T=_NUMBERS)),
    st.tuples(
        st.just(["optimize"]),
        _flags(
            grid_step=st.sampled_from(["0.015625", "0.5", "1e-4", "nan", "-1", "x"]),
            tol=st.one_of(
                _NUMBERS, st.floats(allow_nan=True, allow_infinity=True).map(repr)
            ),
        ),
    ),
    st.tuples(
        st.just(["scan"]),
        _flags(
            R=_NUMBERS,
            T=_NUMBERS,
            pmin=st.integers(-5, 100).map(str),
            pmax=st.integers(-5, 200).map(str),
            count=st.integers(-1, 5).map(str),
        ),
        st.lists(st.sampled_from(["--format=csv", "--format=json", "--format=xml"]), max_size=1),
    ),
    st.tuples(st.just(["constants"])),
    st.tuples(st.just(["verify", "--suite"]), st.lists(st.sampled_from(["bogus", ""]), max_size=1)),
    st.tuples(st.lists(st.sampled_from(["--help", "frobnicate", "-x", "--"]), max_size=2)),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=300, deadline=None, database=None)
@given(_ARGV)
@example(["norm", "--p=3", "--r=0", "--t=1", "--raw"])
def test_cli_never_prints_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[:1] == ["scan"]:
            argv = argv + [f"--out={tmp}/runs.csv"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
