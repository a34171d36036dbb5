"""Exact L4 norms of Littlewood polynomials built from rotated
Legendre-symbol sequences, and the limit surface their normalized norms
converge to."""

from .asymptotics import (
    RecordConstants,
    Region,
    hj_specialization,
    limit_l4_normalized,
    minimize_u,
    normalize_R,
    ratio_limit_u,
    record_constants,
    region_classify,
    solve_cubic_root,
    u4_closed_form,
)
from .characters import (
    QuarticSumResult,
    gauss_sum_residual,
    is_square_polynomial,
    legendre,
    legendre_table,
    quartic_char_sum,
)
from .experiments import (
    DecompositionReport,
    ExperimentRecord,
    ExponentialSumBound,
    export_records,
    five_term_decomposition,
    prime_ladder,
    run_convergence,
    technical_lemma_check,
)
from .primality import is_prime, next_prime_at_least, primes_in
from .suites import CheckResult, SUITES, run_suite
from .sequences import (
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
)

__version__ = "0.1.0"
