"""In-memory spans around the calls that cross feketelab's module boundaries.

The library is not edited: a traced operation temporarily rebinds the
names that one module imported from another (``experiments.fekete_coeffs``,
``sequences.legendre_table``, ...) to wrappers that record a span, and
restores them afterwards.  Untraced operations run the original code.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import sys
from time import perf_counter

import numpy as np

# (defining module, function, span name).  Every other feketelab module that
# imported the function gets a traced binding.  The functions called from the
# limit surface's inner loops (ratio_limit_u, region_classify, quartic_char_sum)
# are left out: the gate calls them ~10^5 times, and the limit-surface workload
# times them directly around its own loop.
BOUNDARIES = (
    ("primality", "next_prime_at_least", "primality.next_prime_at_least"),
    ("characters", "legendre_table", "characters.legendre_table"),
    ("sequences", "fekete_coeffs", "sequences.fekete_coeffs"),
    ("sequences", "littlewoodize", "sequences.littlewoodize"),
    ("sequences", "l4_norm_pow4", "sequences.l4_norm_pow4"),
    ("sequences", "autocorrelation_fast", "sequences.autocorrelation_fast"),
    ("asymptotics", "minimize_u", "asymptotics.minimize_u"),
    ("experiments", "run_convergence", "experiments.run_convergence"),
    ("experiments", "export_records", "experiments.export_records"),
    ("suites", "run_suite", "suites.run_suite"),
)

# Bindings inside the defining module that are traced too: l4_norm_pow4 calls
# autocorrelation_fast through its own module, and the accumulation time is
# the l4_norm_pow4 span minus that child.
SAME_MODULE = {("sequences", "autocorrelation_fast")}

# Per-call work recorded on a span, for rates.
WORK = {"sequences.autocorrelation_fast": len}

CHECK_NAMES = (
    "record-constant",
    "minimum-consistency",
    "global-optimizer",
    "hj-specialization",
    "charsum-oracle",
    "decomposition",
    "weil-square-cases",
    "gauss-identity",
    "exponential-sum-bound",
    "periodic-bound",
    "kernel-equality",
    "convergence",
    "region-pieces",
)


class Tracer:
    """Spans as [name, start, end, parent index, run id, work] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _open(self, name: str, work: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.run_id, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, work: int = 0):
        rec = self._open(name, work)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        size = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, size(args[0]) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def wrap_check(self, fn):
        """Span named after the CheckResult the check returns."""

        @functools.wraps(fn)
        def traced():
            rec = self._open("suites.check", 0)
            try:
                result = fn()
                rec[0] = f"suites.{result.name}"
                return result
            finally:
                self._close(rec)

        return traced


def _package_modules() -> dict:
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("feketelab.") and mod is not None
    }


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the module-boundary calls and the gate's checks to traced
    wrappers for the duration of the block."""
    modules = _package_modules()
    patched = []
    for home, attr, span_name in BOUNDARIES:
        # A boundary the package no longer has is skipped; its metrics read 0.
        original = getattr(modules.get(home), attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(span_name, original)
        for mod_name, mod in modules.items():
            if getattr(mod, attr, None) is not original:
                continue
            if mod_name == home and (home, attr) not in SAME_MODULE:
                continue
            patched.append((mod, attr, original))
            setattr(mod, attr, wrapper)
    suites_table = getattr(modules.get("suites"), "SUITES", {})
    saved_suites = dict(suites_table)
    for key, checks in saved_suites.items():
        suites_table[key] = tuple(tracer.wrap_check(check) for check in checks)
    try:
        yield
    finally:
        suites_table.update(saved_suites)
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def cached_bytes(fn) -> int:
    """Bytes of the numpy arrays an lru_cache currently holds.

    The C lru_cache reports its keys and results to the garbage collector,
    so the cached tables are among its referents.
    """
    return sum(r.nbytes for r in gc.get_referents(fn) if isinstance(r, np.ndarray))


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy (inclusive) time, self time and work."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    totals: dict[str, dict] = {}
    for i, (name, start, end, _parent, _run, work) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0})
        entry["calls"] += 1
        entry["busy"] += end - start
        entry["self"] += end - start - child_time[i]
        entry["work"] += work
    return totals


def layer_metrics(totals: dict, ops: int, cache_counts: dict) -> dict[str, float]:
    """Per-layer metrics per traced operation, from span totals and the
    program's cache counters sampled around the traced operations."""

    def get(name, field):
        return totals.get(name, {}).get(field, 0) / ops

    fast = totals.get("sequences.autocorrelation_fast", {})
    hits, misses = cache_counts["legendre_hits"], cache_counts["legendre_misses"]
    metrics = {
        "primality.next_prime_at_least.busy_s": get("primality.next_prime_at_least", "busy"),
        "primality.is_prime.cache_entries": cache_counts["is_prime_entries"],
        "characters.legendre_table.busy_s": get("characters.legendre_table", "busy"),
        "characters.legendre_table.calls": get("characters.legendre_table", "calls"),
        "characters.legendre_table.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "characters.legendre_table.cached_bytes": cache_counts["legendre_bytes"],
        "sequences.fekete_coeffs.busy_s": get("sequences.fekete_coeffs", "busy"),
        "sequences.littlewoodize.busy_s": get("sequences.littlewoodize", "busy"),
        "sequences.autocorrelation_fast.busy_s": get("sequences.autocorrelation_fast", "busy"),
        "sequences.accumulate.busy_s": get("sequences.l4_norm_pow4", "self"),
        "sequences.autocorrelation_fast.coeffs_per_s": (
            fast["work"] / fast["busy"] if fast.get("busy") else 0.0
        ),
        "asymptotics.ratio_limit_u.us_per_call": _us_per_call(totals, "asymptotics.ratio_limit_u"),
        "asymptotics.region_classify.us_per_call": _us_per_call(
            totals, "asymptotics.region_classify"
        ),
        "asymptotics.minimize_u.busy_s": get("asymptotics.minimize_u", "busy"),
        "experiments.run_convergence.self_s": get("experiments.run_convergence", "self"),
        "experiments.export_records.busy_s": get("experiments.export_records", "busy"),
    }
    for check in CHECK_NAMES:
        metrics[f"suites.{check}.busy_s"] = get(f"suites.{check}", "busy")
    metrics["cli.main.self_s"] = get("cli.main", "self")
    metrics["trace.spans"] = sum(entry["calls"] for entry in totals.values()) / ops
    return metrics


def _us_per_call(totals: dict, name: str) -> float:
    entry = totals.get(name)
    return entry["busy"] / entry["work"] * 1e6 if entry and entry["work"] else 0.0
