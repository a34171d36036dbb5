"""Command-line frontend.

Subcommands: norm, limit, constants, optimize, scan, verify.  Every
numeric path is a thin wrapper over the library; output is plain text
except where a flag selects CSV/JSON.  Exit codes: 0 success, 1
verification failure, 2 bad arguments, 3 kernel precision failure, 4
internal-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .asymptotics import minimize_u, ratio_limit_u, record_constants
from .experiments import export_records, run_convergence, sig15
from .sequences import (
    FeketeSpec,
    KernelPrecisionError,
    _merit_factor,
    fekete_coeffs,
    l2_norm_pow2,
    l4_norm_pow4,
    littlewoodize,
)
from .suites import SUITES, check_minimum_consistency, check_record_constants, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_PRECISION = 3
EXIT_INCONSISTENT = 4


def cmd_norm(args) -> int:
    spec = FeketeSpec(args.p, args.r, args.t)
    seq = fekete_coeffs(spec)
    if args.variant == "littlewood":
        seq = littlewoodize(seq)
    l4 = l4_norm_pow4(seq, kernel=args.kernel)
    l2 = l2_norm_pow2(seq)
    print(f"t: {spec.t}")
    print(f"l2_pow2: {l2}")
    print(f"l4_pow4: {l4}")
    if l2:
        print(f"l4_over_l2: {l4**0.25 / l2**0.5!r}")
    else:  # a raw sequence of zeros: r = 0 mod p and t = 1
        print("l4_over_l2: undefined (l2_pow2 is 0)")
    try:
        print(f"merit_factor: {_merit_factor(l2, l4)!r}")
    except ValueError:
        print("merit_factor: undefined (l4_pow4 equals l2_pow2 squared)")
    return EXIT_OK


def cmd_limit(args) -> int:
    print(repr(ratio_limit_u(args.R, args.T)))
    return EXIT_OK


def cmd_constants(args) -> int:
    results = (check_record_constants(), check_minimum_consistency())
    failed = [result for result in results if not result.passed]
    for result in failed:
        print(result.line(), file=sys.stderr)
    if failed:
        return EXIT_INCONSISTENT
    rc = record_constants()
    payload = {
        "T0": sig15(rc.T0),
        "R0": sig15(rc.R0),
        "c": sig15(rc.c),
        "merit_factor_limit": sig15(rc.merit_factor_limit),
        "u_at_minimum_minus_c": sig15(ratio_limit_u(rc.R0, rc.T0) - rc.c),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_optimize(args) -> int:
    r_star, t_star, u_star = minimize_u(args.grid_step, args.tol)
    print(f"R_star: {r_star!r}")
    print(f"T_star: {t_star!r}")
    print(f"u_star: {u_star!r}")
    return EXIT_OK


def cmd_scan(args) -> int:
    records = run_convergence(args.R, args.T, args.pmin, args.pmax, args.count)
    export_records(records, args.format, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for result in results:
        print(result.line())
    failed = sum(not result.passed for result in results)
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feketelab",
        description="Exact L4 norms of rotated Legendre-symbol sequences and "
        "their asymptotic limit surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="exact norms and merit factor of one sequence")
    p_norm.add_argument("--p", type=int, required=True, help="odd prime modulus")
    p_norm.add_argument("--r", type=int, default=0, help="cyclic rotation (any sign)")
    p_norm.add_argument("--t", type=int, required=True, help="sequence length >= 1")
    kernel = p_norm.add_mutually_exclusive_group()
    kernel.add_argument(
        "--fast", dest="kernel", action="store_const", const="fast", default="fast",
        help="spectral autocorrelation kernel (default)",
    )
    kernel.add_argument(
        "--naive", dest="kernel", action="store_const", const="naive",
        help="direct O(t^2) autocorrelation kernel",
    )
    variant = p_norm.add_mutually_exclusive_group()
    variant.add_argument(
        "--littlewood", dest="variant", action="store_const", const="littlewood",
        default="littlewood", help="replace zero coefficients by +1 (default)",
    )
    variant.add_argument(
        "--raw", dest="variant", action="store_const", const="raw",
        help="keep the raw Legendre-symbol coefficients",
    )
    p_norm.set_defaults(func=cmd_norm)

    p_limit = sub.add_parser("limit", help="evaluate the limit ratio u(R, T)")
    p_limit.add_argument("--R", type=float, required=True, help="rotation fraction")
    p_limit.add_argument("--T", type=float, required=True, help="length fraction in [2**-500, 2**20]")
    p_limit.set_defaults(func=cmd_limit)

    p_const = sub.add_parser("constants", help="record constants as JSON")
    p_const.set_defaults(func=cmd_constants)

    p_opt = sub.add_parser("optimize", help="minimize u over [0,1/2] x [1/2,3/2]")
    p_opt.add_argument("--grid-step", type=float, default=1 / 256, help="scan step in [2**-12, 1/64]")
    p_opt.add_argument("--tol", type=float, default=1e-9, help="refinement tolerance")
    p_opt.set_defaults(func=cmd_optimize)

    p_scan = sub.add_parser("scan", help="convergence ladder written to CSV/JSON")
    p_scan.add_argument("--R", type=float, required=True, help="rotation fraction")
    p_scan.add_argument("--T", type=float, required=True, help="length fraction in [2**-500, 2**20]")
    p_scan.add_argument("--pmin", type=int, required=True, help="smallest prime target")
    p_scan.add_argument("--pmax", type=int, required=True, help="largest prime target")
    p_scan.add_argument("--count", type=int, default=8, help="number of primes")
    p_scan.add_argument("--out", required=True, help="destination file path")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage / help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KernelPrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
