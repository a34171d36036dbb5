"""Tests of the benchmark itself: short end-to-end runs and its output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import feketelab as F  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(workload):
    code, lines = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--short")
    res = json.loads(lines[-1])
    assert code == 0, lines
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = res["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_runs_repeat_their_counts(workload, tmp_path):
    metrics = []
    for run in range(2):
        spans = tmp_path / f"spans-{run}.jsonl"
        args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--short")
        code, lines = run_bench(*args, "--spans", str(spans))
        res = json.loads(lines[-1])
        assert code == 0 and res["correct"], lines
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        metrics.append(res["metrics"])
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        assert records and all(r["end"] >= r["start"] and r["parent"] < i for i, r in enumerate(records))
    counts = [name for name, m in metrics[0].items() if m["unit"] in ("count", "B", "ratio")]
    assert {name: metrics[0][name] for name in counts} == {name: metrics[1][name] for name in counts}


def test_without_sources_it_fails_before_printing_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("--workload", "limit-surface", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0 and lines == []


def test_mod8_identity_holds_for_sign_sequences():
    rng = np.random.default_rng(3000)
    for _ in range(3000):
        t = int(rng.integers(1, 200))
        c = F.autocorrelation_naive(rng.choice([-1, 1], size=t)).tolist()
        l4 = c[0] ** 2 + 2 * sum(v * v for v in c[1:])
        assert l4 % 8 == (t * t + 2 * (t // 2)) % 8


def _replace_field(text: str, row: int, field: str, value) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(field)] = str(value)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_norm_ladder_checks_fire_on_corrupt_ladders(tmp_path):
    w = workloads.NormLadder(5, True, str(tmp_path))
    w.op()
    good = w.collect()
    assert w.check([good]) == (w.units_per_op, 0, [])
    code, text = good[0]
    l4 = int(text.splitlines()[1].split(",")[3])
    # +1 breaks the mod-8 identity; +8 keeps it and only the O(t^2) kernel sees it.
    for delta in (1, 8):
        corrupt = [(code, _replace_field(text, 0, "l4_pow4", l4 + delta))] + good[1:]
        attempted, failed, notes = w.check([corrupt])
        assert failed == 1 and "l4_pow4" in notes[0]
    assert w.check([[(2, "")] + good[1:]])[1] == w.count
    assert w.check([None])[1] == w.units_per_op


def test_norm_ladder_envelope_fires_on_a_far_ratio(tmp_path):
    w = workloads.NormLadder(5, False, str(tmp_path))
    R, T = w.points[0]
    p = 1_000_003
    r, t = round(R * p), round(T * p)
    limit = F.ratio_limit_u(R, T)
    # A mod-8-consistent norm 1% off the limit: 10x outside the envelope at p ~ 1e6.
    l4 = round(1.01 * limit * t * t)
    l4 += ((t * t + 2 * (t // 2)) - l4) % 8
    row = {"p": p, "r": r, "t": t, "l4_pow4": l4, "ratio4": l4 / t**2, "limit": limit}
    msgs = w.check_rung(R, T, limit, {k: repr(v) for k, v in row.items()}, p - 1)
    assert len(msgs) == 1 and "envelope" in msgs[0]


def test_limit_surface_checks_fire_on_corrupt_batches():
    w = workloads.LimitSurface(7, True, "")
    w.op()
    values, regions, closed, best = w.collect()
    assert w.check([(values, regions, closed, best)]) == (w.units_per_op, 0, [])

    shifted = (best[0] + 1e-5, best[1], best[2])
    assert w.check([(values, regions, closed, shifted)])[1] == 1

    i = next(i for i, (_, T) in enumerate(w.points) if T < 1.5)
    low = list(values)
    low[i] = 2.0 - 4.0 * w.points[i][1] / 3.0 - 1e-6
    assert w.check([(low, regions, closed, best)])[1] == 1

    off = list(closed)
    off[0] += 1e-9
    assert w.check([(values, regions, off, best)])[1] == 1

    j = next(j for j, cell in enumerate(regions) if cell == "D4")
    moved = list(regions)
    moved[j] = "D3"
    assert w.check([(values, moved, closed, best)])[1] == 1


def test_verify_gate_checks_fire_on_fail_lines_and_exit_codes():
    w = workloads.VerifyGate(0, False, "")
    good = "".join(f"PASS {name}: ok\n" for name in w.expected)
    assert w.check([(0, good)]) == (13, 0, [])
    failing = good.replace("PASS kernel-equality", "FAIL kernel-equality")
    assert w.check([(1, failing)])[1] == 1
    assert w.check([(1, good)])[1] == 1
    assert w.check([(0, "")])[1] == 13


def test_record_point_matches_the_paper():
    R0, T0, c = workloads.record_point()
    assert math.isclose(c, 1.157677431123647, rel_tol=1e-14)
    assert math.isclose(T0, 1.0578279068478236, rel_tol=1e-14)
    assert math.isclose(R0, (3 - 2 * T0) / 4, rel_tol=1e-15)


def test_seeds_fix_the_inputs():
    for cls in (workloads.NormLadder, workloads.LimitSurface):
        assert cls(11, False, "").points == cls(11, False, "").points
        assert cls(11, False, "").points != cls(12, False, "").points
