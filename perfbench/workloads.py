"""The benchmark's three workloads.

Each workload builds its inputs from a seed, runs one closed-loop
operation per call to ``op`` and returns the operation's outputs from
``collect``; ``check`` validates the collected outputs of a run after the
timed loop.  Checks count failed units (ladder rungs, library calls, gate
checks) against attempted ones.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
from time import perf_counter

import numpy as np

import feketelab as F
from feketelab import cli

from tracing import CHECK_NAMES

# Convergence ladders: 12 primes from about 1e4 to 1e6.
PMIN, PMAX, RUNGS = 10_000, 1_000_000, 12
# Rungs this short are re-derived with the O(t^2) kernel (<= ~0.26 s each).
NAIVE_MAX_T = 20_000
# Envelope of the ladder's relative error against u(R, T): rel_err * sqrt(p)
# peaked at 0.74 over (R0, T0), (1/4, 1) and 60 random points of D, 12 rungs
# each, at the commit that introduced this benchmark; the bound doubles it.
REL_ERR_ENVELOPE = 1.5
# Scalar limit-surface calls per batch.
SURFACE_POINTS = 20_000
REGION_NAMES = ("OUTSIDE", "D1", "D2", "D3", "D4", "D5", "D6")


def record_point() -> tuple[float, float, float]:
    """(R0, T0, c) from the paper's cubics, independently of the library."""
    T0 = float(sorted(np.roots([4.0, 0.0, -30.0, 27.0]).real)[1])
    c = float(min(np.roots([27.0, -498.0, 1164.0, -722.0]).real))
    return (3.0 - 2.0 * T0) / 4.0, T0, c


def _span(tracer, name: str, work: int = 0):
    return tracer.span(name, work) if tracer else contextlib.nullcontext()


def call_cli(argv: list[str], tracer) -> tuple[int, str]:
    """cli.main in-process with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), _span(tracer, "cli.main"):
        code = cli.main(argv)
    return code, out.getvalue()


def _round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def naive_l4(p: int, r: int, t: int) -> int:
    """Exact ||g||_4^4 of the Littlewood-ized sequence, with the sequence
    built here from Euler's criterion and correlated by the O(t^2) kernel."""
    half = (p - 1) // 2
    coeffs = np.array(
        [1 if x == 0 or pow(x, half, p) == 1 else -1 for x in ((j + r) % p for j in range(t))],
        dtype=np.int64,
    )
    c = F.autocorrelation_naive(coeffs).tolist()
    return c[0] ** 2 + 2 * sum(v * v for v in c[1:])


class NormLadder:
    """`feketelab scan` ladders at (R0, T0), (1/4, 1) and two seeded points."""

    name = "norm-ladder"
    work_name = "coeffs_per_s"
    op_name = "scan round"

    def __init__(self, seed: int, short: bool, workdir: str) -> None:
        rng = random.Random(seed)
        R0, T0, _ = record_point()
        # One seeded point below and one above T = 1.  T stays within 0.05 of
        # 3/4 and 5/4 so that every seed pads its top rungs to the same FFT
        # sizes and the work per round stays comparable across seeds.
        seeded = [(rng.uniform(0.0, 0.5), centre + rng.uniform(-0.05, 0.05)) for centre in (0.75, 1.25)]
        self.points = [(R0, T0), (0.25, 1.0)] + seeded
        self.pmin, self.pmax, self.count = (1009, 5003, 4) if short else (PMIN, PMAX, RUNGS)
        self.paths = [os.path.join(workdir, f"ladder-{i}.csv") for i in range(len(self.points))]
        self.units_per_op = self.count * len(self.points)

    def op(self, tracer=None) -> dict:
        codes = []
        for (R, T), path in zip(self.points, self.paths):
            argv = ["scan", "--R", repr(R), "--T", repr(T), "--pmin", str(self.pmin),
                    "--pmax", str(self.pmax), "--count", str(self.count), "--out", path]
            codes.append(call_cli(argv, tracer)[0])
        self._codes = codes
        return {}

    def collect(self):
        ladders = []
        for code, path in zip(self._codes, self.paths):
            try:
                with open(path, newline="") as handle:
                    ladders.append((code, handle.read()))
                os.remove(path)
            except FileNotFoundError:
                ladders.append((code, ""))
        return ladders

    def work(self, ladders) -> int:
        """Coefficients carried through the exact norm: the sum of t."""
        return sum(int(row["t"]) for _, text in ladders for row in csv.DictReader(io.StringIO(text)))

    def check(self, outputs) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        notes: list[str] = []
        memo: dict = {}
        for ladders in outputs:
            attempted += self.units_per_op
            if ladders is None:
                failed += self.units_per_op
                continue
            for point, ladder in zip(self.points, ladders):
                key = (point, ladder)
                if key not in memo:
                    memo[key] = self.check_ladder(point, *ladder)
                failed += len(memo[key])
                notes.extend(memo[key])
        return attempted, failed, sorted(set(notes))

    def check_ladder(self, point, code: int, text: str) -> list[str]:
        """One message per bad rung; every rung is bad if the scan failed."""
        R, T = point
        where = f"ladder at R={R!r} T={T!r}"
        rows = list(csv.DictReader(io.StringIO(text)))
        if code != 0 or len(rows) != self.count:
            return [f"{where}: exit code {code}, {len(rows)} rows"] * self.count
        limit = F.ratio_limit_u(R, T)
        bad = []
        previous = self.pmin - 1
        for row in rows:
            try:
                msgs = self.check_rung(R, T, limit, row, previous)
                if msgs:
                    bad.append(f"{where} p={row['p']}: " + "; ".join(msgs))
                previous = int(row["p"])
            except (KeyError, ValueError) as exc:
                bad.append(f"{where}: unreadable row {row!r}: {exc}")
        return bad

    def check_rung(self, R, T, limit, row, previous) -> list[str]:
        p, r, t, l4 = (int(row[k]) for k in ("p", "r", "t", "l4_pow4"))
        ratio4, row_limit = float(row["ratio4"]), float(row["limit"])
        msgs = []
        if not (p > previous and _is_prime(p)):
            msgs.append("prime rung out of order or composite")
        if r != _round_half_away(R * p) or t != max(1, _round_half_away(T * p)):
            msgs.append(f"(r, t) = ({r}, {t}) does not follow (R, T)")
        # ||g||_4^4 of any +-1 sequence of length t is t^2 + 2 floor(t/2) mod 8.
        if l4 % 8 != (t * t + 2 * (t // 2)) % 8:
            msgs.append(f"l4_pow4 {l4} breaks the mod-8 identity")
        if t <= NAIVE_MAX_T and l4 != naive_l4(p, r, t):
            msgs.append(f"l4_pow4 {l4} differs from the O(t^2) kernel")
        if abs(ratio4 - l4 / t**2) > 1e-14 * ratio4:
            msgs.append(f"ratio4 {ratio4!r} is not l4_pow4 / t^2")
        if abs(row_limit - limit) > 1e-14 * limit:
            msgs.append(f"limit {row_limit!r} is not u(R, T) = {limit!r}")
        if abs(ratio4 - limit) / limit > REL_ERR_ENVELOPE / math.sqrt(p):
            msgs.append(f"ratio4 {ratio4!r} outside the rel_err envelope of u = {limit!r}")
        return msgs


def in_fourth_cell(R: float, T: float) -> bool:
    """Domain of u4_closed_form: 1 <= T <= 3/2 and T + (R mod 1/2) <= 3/2."""
    return 1.0 <= T <= 1.5 and T + R % 0.5 <= 1.5


class LimitSurface:
    """Scalar u, region and fourth-cell calls on seeded points, then minimize_u."""

    name = "limit-surface"
    work_name = "u_evals_per_s"
    op_name = "surface batch"

    def __init__(self, seed: int, short: bool, workdir: str) -> None:
        rng = random.Random(seed)
        n = 200 if short else SURFACE_POINTS
        # R in [-2, 2], T in (0, 3].
        self.points = [(rng.uniform(-2.0, 2.0), 3.0 * (1.0 - rng.random())) for _ in range(n)]
        self.fourth = [pt for pt in self.points if in_fourth_cell(*pt)]
        self.grid = (1 / 64, 1e-9) if short else (1 / 512, 1e-9)
        self.units_per_op = 2 * len(self.points) + len(self.fourth) + 1

    def op(self, tracer=None) -> dict:
        u, region, u4 = F.ratio_limit_u, F.region_classify, F.u4_closed_form
        points, fourth = self.points, self.fourth
        with _span(tracer, "asymptotics.ratio_limit_u", len(points)):
            start = perf_counter()
            values = [u(R, T) for R, T in points]
            u_s = perf_counter() - start
        with _span(tracer, "asymptotics.region_classify", len(points)):
            regions = [region(R, T).name for R, T in points]
        with _span(tracer, "asymptotics.u4_closed_form", len(fourth)):
            closed = [u4(R, T) for R, T in fourth]
        with _span(tracer, "asymptotics.minimize_u"):
            start = perf_counter()
            best = F.minimize_u(*self.grid)
            optimize_s = perf_counter() - start
        self._out = (values, regions, closed, best)
        return {"work_s": u_s, "optimize_s": optimize_s}

    def collect(self):
        return self._out

    def work(self, out) -> int:
        return len(self.points)

    def check(self, outputs) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        notes: list[str] = []
        verdicts: dict = {}
        for out in outputs:
            attempted += self.units_per_op
            if out is None:
                failed += self.units_per_op
                continue
            # The closed loop hands equal outputs over as one object.
            if id(out) not in verdicts:
                verdicts[id(out)] = self.check_batch(*out)
            failed += len(verdicts[id(out)])
            notes.extend(verdicts[id(out)])
        return attempted, failed, sorted(set(notes))

    def check_batch(self, values, regions, closed, best) -> list[str]:
        bad = []
        if len(values) != len(self.points) or len(regions) != len(self.points):
            return [f"batch returned {len(values)} values, {len(regions)} regions"] * self.units_per_op
        for (R, T), value, cell in zip(self.points, values, regions):
            if value < 2.0 - 4.0 * T / 3.0 - 1e-12:
                bad.append(f"u({R!r}, {T!r}) = {value!r} below 2 - 4T/3")
            elif abs(F.ratio_limit_u(R + 0.5, T) - value) > 1e-10:
                bad.append(f"u({R!r}, {T!r}) not invariant under R -> R + 1/2")
            expected = (
                "OUTSIDE" if not 0.5 <= T <= 1.5
                else "D4" if 1.0 < T and T + R % 0.5 <= 1.5
                else "D1-D6 but not D4"
            )
            kind = cell if cell in ("OUTSIDE", "D4") else "D1-D6 but not D4"
            if kind != expected or cell not in REGION_NAMES:
                bad.append(f"region({R!r}, {T!r}) = {cell}, expected {expected}")
        u_of = dict(zip(self.points, values))
        for (R, T), value in zip(self.fourth, closed):
            if abs(value - u_of[(R, T)]) > 1e-12:
                bad.append(f"u4({R!r}, {T!r}) = {value!r} differs from u by more than 1e-12")
        R0, T0, c = record_point()
        r_star, t_star, u_star = best
        if not (abs(r_star - R0) < 1e-6 and abs(t_star - T0) < 1e-6 and abs(u_star - c) < 1e-8):
            bad.append(f"minimize_u returned {best!r}, expected ({R0!r}, {T0!r}, {c!r})")
        return bad


class VerifyGate:
    """`feketelab verify --suite all` in-process; the gate fixes its inputs."""

    name = "verify-gate"
    work_name = "checks_per_s"
    op_name = "verify run"

    def __init__(self, seed: int, short: bool, workdir: str) -> None:
        # The seed is recorded by the caller but has nothing to choose here.
        self.suite, self.expected = ("decomposition", ("decomposition",)) if short else ("all", CHECK_NAMES)
        self.units_per_op = len(self.expected)

    def op(self, tracer=None) -> dict:
        self._out = call_cli(["verify", "--suite", self.suite], tracer)
        return {}

    def collect(self):
        return self._out

    def work(self, out) -> int:
        return len(self.expected)

    def check(self, outputs) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        notes: list[str] = []
        for out in outputs:
            attempted += self.units_per_op
            if out is None:
                failed += self.units_per_op
                continue
            code, text = out
            passed = {line.split()[1].rstrip(":") for line in text.splitlines() if line.startswith("PASS ")}
            missing = [name for name in self.expected if name not in passed]
            notes.extend(f"no PASS line for {name}" for name in missing)
            notes.extend(line for line in text.splitlines() if not line.startswith("PASS "))
            if code != 0:
                notes.append(f"verify exited with {code}")
            failed += max(len(missing), 1 if code != 0 else 0)
        return attempted, failed, sorted(set(notes))


WORKLOADS = {w.name: w for w in (NormLadder, LimitSurface, VerifyGate)}
