"""Finite-p experiments: norm decomposition, bound checks, convergence ladders.

These routines measure how fast the exact integer norms approach the
limit surface, and verify the closed forms that drive the limit: the
five-term split of ||f||_4^4 and the complex-sum bound behind its error
term.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, get_type_hints

import numpy as np

from .asymptotics import _real, ratio_limit_u
from .primality import as_int, next_prime_at_least
from .sequences import (
    FeketeSpec,
    fekete_coeffs,
    l4_norm_pow4,
    littlewoodize,
    _window_sum_sq,
)

__all__ = [
    "DecompositionReport",
    "ExperimentRecord",
    "ExponentialSumBound",
    "export_records",
    "five_term_decomposition",
    "prime_ladder",
    "run_convergence",
    "technical_lemma_check",
]


@dataclass(frozen=True)
class DecompositionReport:
    """Split of the exact ||f_p^(r,t)||_4^4 into closed forms plus remainder.

    A = B = sum_n max(0, t - |n| p)^2 counts index quadruples whose
    difference is a multiple of p; C counts quadruples whose common sum
    is -2r mod p; D = -2t(2t^2+1)/(3p) removes the unconstrained count
    twice.  E_actual is whatever the closed forms leave over, and
    E_normalized = E_actual / p^2 must shrink as p grows.
    """

    A: int
    B: int
    C: int
    D: Fraction
    E_actual: Fraction
    E_normalized: float


def five_term_decomposition(spec: FeketeSpec) -> DecompositionReport:
    """Evaluate the closed forms and the exact remainder for one spec."""
    p, r, t = spec.p, spec.r, spec.t
    a_term = _window_sum_sq(t, p)
    c_term = _window_sum_sq(t, p, offset=t - 1 + 2 * r)
    d_term = Fraction(-2 * t * (2 * t * t + 1), 3 * p)
    exact = l4_norm_pow4(fekete_coeffs(spec))
    e_actual = Fraction(exact) - (a_term + a_term + c_term + d_term)
    return DecompositionReport(
        A=a_term,
        B=a_term,
        C=c_term,
        D=d_term,
        E_actual=e_actual,
        E_normalized=float(e_actual) / p**2,
    )


class ExponentialSumBound(NamedTuple):
    """Aggregate complex-sum magnitude G against 64 max(n,t)^3 (1+ln n)^3."""

    G: float
    bound: float
    ok: bool


def technical_lemma_check(n: int, t: int) -> ExponentialSumBound:
    """Exact check of the constrained-quadruple exponential-sum bound.

    G = sum over (a, b, c) in (Z/nZ)^3 of | sum of w^(-a j2 + b j3 + c j4)
    over 0 <= j1, j2, j3, j4 < t with j1 + j2 = j3 + j4 |, w = e^(2 pi i/n).
    Each quadruple is fixed by (j2, j3, j4) with j1 = j3 + j4 - j2 in
    [0, t), so the inner sum at (a, -b, -c) is the 3-D DFT of the counts
    of those triples by residue mod n; negating b and c permutes
    (Z/nZ)^3, so G is the sum of the DFT's magnitudes.  The counts are
    real, so the DFT at -k mirrors the one at k: rfftn keeps the planes
    0 <= c <= n/2 of the last axis, and the planes strictly inside that
    range stand for themselves and their mirror images.  The triples come
    from _lemma_triples, which the verify gate shares: it takes G at every
    length up to 32 from one running count per n (_lemma_bounds).
    """
    n, t = as_int(n, "n"), as_int(t, "t")
    if not 1 <= n <= 24:
        raise ValueError(f"need 1 <= n <= 24, got n={n}")
    if not 1 <= t <= 32:
        raise ValueError(f"need 1 <= t <= 32, got t={t}")
    *_, residue = _lemma_triples(n, t)
    return _lemma_bound(np.bincount(residue, minlength=n**3), n, t)


def _lemma_triples(n: int, t: int):
    """The triples (j2, j3, j4) in [0, t)^3 with j1 = j3 + j4 - j2 in
    [0, t): (j1, j2, j3, j4) broadcast over the cube, the mask of the
    triples kept, and the kept triples' flat residue indices
    ((j2 mod n) n + j3 mod n) n + j4 mod n.
    """
    # int16 holds j3 + j4 - j2 and the flat residue index below n^3 <= 13824
    j = np.arange(t, dtype=np.int16)
    j2, j3, j4 = j[:, None, None], j[None, :, None], j[None, None, :]
    j1 = j3 + j4 - j2
    inside = (j1 >= 0) & (j1 < t)
    residue = (((j2 % n) * n + j3 % n) * n + j4 % n)[inside]
    return (j1, j2, j3, j4), inside, residue


def _lemma_counts(n: int, t_max: int):
    """Yield, for t = 1 .. t_max, the counts by residue mod n of the triples
    (j2, j3, j4) that technical_lemma_check counts at length t, as one flat
    int64 array of n^3 entries, updated in place from one t to the next.

    A triple counts at every length above the largest index of its
    quadruple, as in sequences._char_sum_l4_prefixes.  So the triples of
    t_max are built once and sorted by that index, and each length adds
    the triples whose largest index is t - 1.
    """
    (j1, j2, j3, j4), inside, residue = _lemma_triples(n, t_max)
    largest = np.maximum(np.maximum(j1, j2), np.maximum(j3, j4))[inside]
    order = np.argsort(largest, kind="stable")
    residue = residue[order]
    ends = np.searchsorted(largest[order], np.arange(1, t_max + 1))
    counts = np.zeros(n**3, dtype=np.int64)
    start = 0
    for end in ends.tolist():
        counts += np.bincount(residue[start:end], minlength=n**3)
        start = end
        yield counts


def _lemma_bound(counts: np.ndarray, n: int, t: int) -> ExponentialSumBound:
    """G from the n^3 residue counts at length t, against its bound."""
    planes = np.abs(np.fft.rfftn(counts.reshape(n, n, n))).sum(axis=(0, 1))
    # Plane 0, and plane n/2 for even n, are their own mirror images.
    G = float(2.0 * planes.sum() - planes[0] - (planes[-1] if n % 2 == 0 else 0.0))
    bound = 64.0 * max(n, t) ** 3 * (1.0 + math.log(n)) ** 3
    return ExponentialSumBound(G=G, bound=bound, ok=G <= bound)


def _lemma_bounds(n: int, t_max: int):
    """technical_lemma_check(n, t) for t = 1 .. t_max, in order, from one
    run of _lemma_counts: one rfftn per length."""
    for t, counts in enumerate(_lemma_counts(n, t_max), 1):
        yield _lemma_bound(counts, n, t)


@dataclass(frozen=True)
class ExperimentRecord:
    """One convergence measurement at a single prime."""

    p: int
    r: int
    t: int
    l4_pow4: int
    ratio4: float
    limit: float
    abs_err: float
    rel_err: float


def _round_half_away(x: Fraction) -> int:
    """Nearest integer to the exact x, ties away from zero."""
    n = math.floor(abs(x) + Fraction(1, 2))
    return n if x >= 0 else -n


def prime_ladder(p_lo: int, p_hi: int, count: int) -> list[int]:
    """count primes on geometric targets from p_lo to p_hi.  Rung i is the
    smallest prime at or above its target and its floor: p_lo for the first
    rung, the previous rung plus one after it, so a dense ladder runs past
    p_hi.  One forward prime search per rung: time linear in count."""
    p_lo, p_hi, count = as_int(p_lo, "p_lo"), as_int(p_hi, "p_hi"), as_int(count, "count")
    if not (3 <= p_lo <= p_hi < 2**63):
        raise ValueError(f"need 3 <= p_lo <= p_hi < 2^63, got [{p_lo}, {p_hi}]")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    ratio = p_hi / p_lo
    rungs: list[int] = []
    for i in range(count):
        target = p_lo * ratio ** (i / (count - 1)) if count > 1 else p_lo
        rungs.append(next_prime_at_least(max(math.ceil(target), rungs[-1] + 1 if rungs else p_lo)))
    return rungs


def run_convergence(
    R: float, T: float, p_lo: int, p_hi: int, count: int
) -> list[ExperimentRecord]:
    """Exact normalized norms along a prime ladder against the limit u(R, T).

    For each prime the rotation and length round the exact products R*p
    and T*p half away from zero (length at least 1), so none overflows;
    the sequence is Littlewood-ized, and its exact fourth-power norm is
    divided by t^2.  The rungs run from the largest down, and the records
    are ordered by p.  A top rung longer than sequences.MAX_LENGTH raises
    ValueError before any rung runs.
    """
    # as asymptotics widens them, then as a Python float: Fraction takes no
    # numpy float32 or float16, and a str raises TypeError
    R, T = float(_real(R)), float(_real(T))
    limit = ratio_limit_u(R, T)
    # Every spec is validated, the top rung's length against MAX_LENGTH
    # included, before the first rung allocates anything.
    R, T = Fraction(R), Fraction(T)
    specs = [
        FeketeSpec(p, _round_half_away(R * p), max(1, _round_half_away(T * p)))
        for p in prime_ladder(p_lo, p_hi, count)
    ]
    # Largest first (t grows with p), so the top rung sizes l4_norm_pow4's
    # held workspace once for the whole ladder; the records are put back
    # in order of p.
    records = []
    for spec in reversed(specs):
        t = spec.t
        g = littlewoodize(fekete_coeffs(spec))
        l4 = l4_norm_pow4(g, kernel="fast")
        ratio4 = l4 / t**2
        abs_err = abs(ratio4 - limit)
        records.append(
            ExperimentRecord(
                p=spec.p,
                r=spec.r,
                t=t,
                l4_pow4=l4,
                ratio4=ratio4,
                limit=limit,
                abs_err=abs_err,
                rel_err=abs_err / limit,
            )
        )
    return records[::-1]


def sig15(x: float) -> float:
    """x rounded to the 15 significant digits every exported float carries."""
    return float(f"{x:.15g}")


def _render(records, format: str) -> str:
    """The records as CSV or JSON text, floats at 15 significant digits;
    the columns, and which are floats, are ExperimentRecord's fields."""
    fields = get_type_hints(ExperimentRecord)
    rows = [
        {name: sig15(getattr(rec, name)) if kind is float else getattr(rec, name)
         for name, kind in fields.items()}
        for rec in records
    ]
    if format == "json":
        return json.dumps(rows, indent=2) + "\n"
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(fields)
    for row in rows:
        writer.writerow(f"{v:.15g}" if isinstance(v, float) else v for v in row.values())
    return text.getvalue()


def export_records(records, format: str, destination) -> None:
    """Write records as CSV or JSON with floats at 15 significant digits.

    The text is rendered before any file is opened.  A destination that is
    the same file as descriptor 1 or 2 (/dev/stdout, /dev/stderr), or that
    names an open descriptor N as /dev/fd/N or /proc/self/fd/N, is written
    through that descriptor, and any other FIFO or character device is
    opened by name; both after sys.stdout and sys.stderr are flushed, so the
    caller's output keeps its order.  Anything else is written beside its
    target (a symlink is resolved, and stays a link) under a temporary name
    and renamed over it, so a failed write leaves no partial file behind.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to export")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    text = _render(records, format)
    in_place = temporary = None
    named = re.fullmatch(r"/(?:dev|proc/self)/fd/([0-9]+)", os.fsdecode(destination))
    with contextlib.suppress(OSError):
        info = os.stat(destination)
        if stat.S_ISFIFO(info.st_mode) or stat.S_ISCHR(info.st_mode):
            in_place = destination
        # the named descriptor wins, then descriptor 1, then 2
        for fd in (2, 1) + ((int(named[1]),) if named else ()):
            with contextlib.suppress(OSError):  # a closed descriptor matches nothing
                in_place = fd if os.path.samestat(info, os.fstat(fd)) else in_place
    try:
        if in_place is not None:
            sys.stdout.flush()
            sys.stderr.flush()
            with open(in_place, "w", newline="", closefd=not isinstance(in_place, int)) as handle:
                handle.write(text)
        else:
            target = os.path.realpath(destination)
            head, tail = os.path.split(target)
            temporary = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            with open(temporary, "x", newline="") as handle:
                handle.write(text)
            os.replace(temporary, target)
    except BaseException as exc:
        if temporary is not None:
            with contextlib.suppress(OSError):
                os.remove(temporary)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write records to {destination}: {exc}") from exc
        raise
