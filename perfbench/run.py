"""feketelab benchmark: one workload per invocation, driven in a closed loop.

    python3 perfbench/run.py --workload norm-ladder --seed 1 --seconds 30 --trace 0

Workloads: norm-ladder, limit-surface, verify-gate (see perfbench/README.md).
One caller in one process runs the workload's operation back to back until
the next one would end after --seconds.  Outputs are checked after the timed
loop.  With --trace 0 the end-to-end metrics of BENCHMARK.json are reported,
their times scaled by a speed probe run between operations (see
perfbench/README.md); with --trace 1 untraced and traced operations
alternate and the per-layer metrics are reported instead.  The last line of
stdout is a JSON object with the keys correct, attempted, failed and metrics.

Exit codes: 0 every check passed, 1 a check failed, 2 the benchmark cannot
run (bad arguments, or no feketelab sources in src/ beside perfbench/).
"""

from __future__ import annotations

import os

# The workload process is single-threaded; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("norm-ladder", "limit-surface", "verify-gate")
SETUP_REPS = 7
# The host's speed drifts by up to ~2x over minutes, so run-to-run spreads of
# raw wall times reach up to ~0.35 of their median.  A fixed pure-Python loop
# (the speed probe) runs between operations, and the scaled metrics multiply
# each operation's wall time by PROBE_REF_S / probe time: the time the
# operation would take on a host that runs the probe in PROBE_REF_S.
PROBE_ITERATIONS = 100_000
PROBE_REF_S = 0.01
# Working set of the largest rung (p ~ 1e6): tables, FFT buffers, the
# autocorrelation as Python integers.
WORKING_SET_MB = 40


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--spans", help="traced runs: write every span to this file as JSON lines")
    return parser.parse_args(argv)


def clear_caches() -> None:
    """Empty every functools cache in the package, so each operation does
    the work a fresh `feketelab` process would."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("feketelab.") or mod is None:
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", "").startswith("feketelab"):
                obj.cache_clear()


def cache_counts() -> dict:
    """The package's cache counters; 0 where a cache no longer exists."""
    import feketelab

    table = getattr(feketelab, "legendre_table", None)
    prime = getattr(feketelab, "is_prime", None)
    info = table.cache_info() if hasattr(table, "cache_info") else None
    return {
        "legendre_hits": info.hits if info else 0,
        "legendre_misses": info.misses if info else 0,
        "legendre_bytes": tracing.cached_bytes(table) if table else 0,
        "is_prime_entries": prime.cache_info().currsize if hasattr(prime, "cache_info") else 0,
    }


def run_op(workload, tracer=None) -> dict:
    """One operation on empty caches; wall time excludes collecting outputs."""
    clear_caches()
    rec = {"traced": tracer is not None, "out": None}
    ok = False
    if tracer is not None:
        tracer.run_id += 1
    with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
        start = perf_counter()
        try:
            rec.update(workload.op(tracer))
            ok = True
        except Exception:  # counted as a failed operation by the checks
            traceback.print_exc()
        rec["wall"] = perf_counter() - start
    if ok:
        rec["out"] = workload.collect()
        rec["work"] = workload.work(rec["out"])
    if tracer is not None:
        rec["caches"] = cache_counts()
    return rec


def speed_probe() -> float:
    """Seconds the host takes for a fixed pure-Python loop."""
    start = perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        acc += math.sqrt(i) * 0.5
    return perf_counter() - start


def closed_loop(workload, seconds: float, tracer=None) -> list[dict]:
    """Back-to-back cycles until the next one would end after `seconds`.

    A cycle is one untraced operation, followed by one traced operation
    when a tracer is given.  At least one cycle runs.  Each operation's
    `probe` is the mean of the speed probes run just before and after it.
    """
    ops, cycles, distinct = [], [], []
    probes = [speed_probe()]
    start = perf_counter()
    while True:
        began = perf_counter()
        for traced in (None, tracer) if tracer is not None else (None,):
            rec = run_op(workload, traced)
            probes.append(speed_probe())
            rec["probe"] = (probes[-2] + probes[-1]) / 2
            # Equal outputs share one object, so holding them costs no memory
            # that grows with the number of operations.
            same = next((out for out in distinct if out == rec["out"]), None)
            if same is not None:
                rec["out"] = same
            elif rec["out"] is not None:
                distinct.append(rec["out"])
            ops.append(rec)
        cycles.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(cycles) > seconds:
            return ops


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing feketelab, raw and scaled
    by the speed probes around each; one unmeasured import first."""
    cmd = [sys.executable, "-c", "import feketelab"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # No timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which would quantize the measurement.
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    raw, scaled = [], []
    probe = speed_probe()
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(perf_counter() - start)
        after = speed_probe()
        scaled.append(raw[-1] * PROBE_REF_S / ((probe + after) / 2))
        probe = after
    return raw, scaled


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    for q in range(99, 0, -1):
        rank = -(-q * n // 100)
        if n - rank >= 10:
            return f"p{q}={sorted(values)[rank - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def timing_line(name: str, unit: str, values: list[float]) -> str:
    return f"{name} {statistics.median(values):.6g} {unit} (median, {tail(values)}, n={len(values)})"


def machine() -> dict:
    import numpy

    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    l3 = read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown"
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") and l3[:-1].isdigit() else None
    fits = l3_bytes is not None and l3_bytes >= WORKING_SET_MB * 2**20
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": "1 caller, 1 process; OMP/OpenBLAS/MKL threads = 1",
        "note": (
            f"working sets at p <= 1e6 (<= ~{WORKING_SET_MB} MB) "
            + ("fit in the L3, so no bandwidth metric is reported" if fits else "may exceed the L3")
        ),
    }


def timed_run(workload, args) -> tuple[dict, list[str]]:
    setup, setup_scaled = measure_setup()
    ops = closed_loop(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, notes = workload.check([op["out"] for op in ops])
    walls = [op["wall"] for op in ops]
    scaled = [op["wall"] * PROBE_REF_S / op["probe"] for op in ops]
    done = [op for op in ops if op["out"] is not None]
    rates = [op["work"] / op.get("work_s", op["wall"]) for op in done] or [0.0]
    scaled_rates = [rate * op["probe"] / PROBE_REF_S for rate, op in zip(rates, done)] or [0.0]
    lines = [
        f"{workload.name} seed={args.seed}: {len(ops)} x {workload.op_name} in {sum(walls):.3f} s, "
        "closed loop, 1 caller, caches emptied before each operation",
        timing_line("setup_s", "s", setup_scaled) + " [scaled by the speed probe]",
        timing_line("setup_raw_s", "s", setup),
        timing_line("op_s", "s", walls) + f" [one {workload.op_name}]",
        f"work_per_s {statistics.median(rates):.6g} 1/s (median, n={len(rates)}) [{workload.work_name}]",
        timing_line("probe_s", "s", [op["probe"] for op in ops]) + f" [speed probe, reference {PROBE_REF_S} s]",
        timing_line("op_scaled_s", "s", scaled),
        f"work_scaled_per_s {statistics.median(scaled_rates):.6g} 1/s (median, n={len(scaled_rates)})",
    ]
    optimize = [op["optimize_s"] for op in ops if "optimize_s" in op]
    if optimize:
        lines.append(timing_line("optimize_s", "s", optimize))
    if workload.name == "verify-gate":
        lines.append(timing_line("verify_s", "s", walls))
    lines += [
        f"peak_rss_mb {peak_rss_mb:.6g} MB",
        f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} units failed)",
    ]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_scaled_s": (statistics.median(scaled), "s"),
        "work_scaled_per_s": (statistics.median(scaled_rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result(attempted, failed, metrics), lines + notes


def traced_run(workload, args) -> tuple[dict, list[str]]:
    tracer = tracing.Tracer()
    ops = closed_loop(workload, args.seconds, tracer)
    attempted, failed, notes = workload.check([op["out"] for op in ops])
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    totals = tracing.span_totals(tracer.spans)
    layer = tracing.layer_metrics(totals, len(traced), traced[-1]["caches"])
    overhead = statistics.median(op["wall"] for op in traced) - statistics.median(op["wall"] for op in plain)
    layer["trace.overhead_s"] = overhead
    if args.spans:
        with open(args.spans, "w") as handle:
            for name, start, end, parent, run, work in tracer.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run, "work": work}) + "\n")
    units = per_layer_units()
    lines = [
        f"{workload.name} seed={args.seed}: {len(plain)} untraced + {len(traced)} traced x {workload.op_name}, "
        f"per-layer values per traced operation, tracing overhead {overhead:.6g} s",
    ]
    lines += [f"{name} {value:.6g} {units.get(name, '')}" for name, value in layer.items()]
    metrics = {name: (value, units.get(name, "")) for name, value in layer.items()}
    return result(attempted, failed, metrics), lines + notes


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "feketelab" / "__init__.py").is_file():
        print(f"perfbench: no feketelab sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import feketelab

    if Path(feketelab.__file__).resolve().parent != SRC / "feketelab":
        print(f"perfbench: feketelab imported from {feketelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.short, workdir)
        res, lines = (traced_run if args.trace else timed_run)(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print("machine " + json.dumps(machine()))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
