import json

import pytest

from feketelab import suites
from feketelab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_littlewood_example(capsys):
    code, out, _ = run(capsys, "norm", "--p", "3", "--r", "0", "--t", "3", "--littlewood")
    assert code == 0
    assert "l4_pow4: 11" in out
    assert "merit_factor: 4.5" in out


def test_norm_raw_example(capsys):
    code, out, _ = run(capsys, "norm", "--p", "7", "--r", "1", "--t", "7", "--raw")
    assert code == 0
    assert "l4_pow4: 50" in out
    assert "l2_pow2: 6" in out


def test_norm_kernels_agree(capsys):
    _, fast_out, _ = run(capsys, "norm", "--p", "13", "--r", "3", "--t", "20", "--fast")
    _, naive_out, _ = run(capsys, "norm", "--p", "13", "--r", "3", "--t", "20", "--naive")
    assert fast_out == naive_out


def test_norm_rejects_composite_modulus(capsys):
    code, _, err = run(capsys, "norm", "--p", "4", "--r", "0", "--t", "3")
    assert code == 2
    assert "odd prime" in err


def test_norm_degenerate_merit_factor(capsys):
    code, out, _ = run(capsys, "norm", "--p", "3", "--r", "1", "--t", "1")
    assert code == 0
    assert "merit_factor: undefined" in out


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


def test_optimize_rejects_coarse_grid(capsys):
    code, _, err = run(capsys, "optimize", "--grid-step", "0.5")
    assert code == 2 and "grid step" in err


def test_optimize_rejects_too_fine_grid(capsys):
    code, _, err = run(capsys, "optimize", "--grid-step", "1e-4")
    assert code == 2 and "grid step" in err


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


def test_scan_json_format(tmp_path, capsys):
    out_file = tmp_path / "runs.json"
    code, _, _ = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1",
        "--pmin", "100", "--pmax", "400", "--count", "3",
        "--out", str(out_file), "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out_file.read_text())) == 3


def test_scan_surfaces_io_failure(capsys):
    code, _, err = run(
        capsys,
        "scan", "--R", "0.25", "--T", "1",
        "--pmin", "100", "--pmax", "200", "--count", "2",
        "--out", "/nonexistent-dir/runs.csv",
    )
    assert code == 2
    assert "nonexistent-dir" in err


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


def test_unknown_suite_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert run(capsys, "norm", "--p", "7")[0] == 2
