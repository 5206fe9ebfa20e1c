"""Exact-arithmetic toolkit for Hurwitz zeta differences.

The difference F(m, x) = 2^m [zeta(-m, (1+x)/2) - zeta(-m, (2+x)/2)] is a
polynomial of degree m, and so is G(m, x) = m! * 2F1(-m, -x; 1; 2). This
package builds the lower-triangular matrices tying the two families
together, inverts them by two independent algorithms, and cross-validates
every identity with exact rational arithmetic.
"""
from __future__ import annotations

from .combinat import (
    bernoulli_number,
    bernoulli_poly,
    binomial,
    stirling1,
    stirling2,
)
from .etacheck import (
    EtaTriple,
    RouteDisagreementError,
    eta_cross_check,
    eta_via_coeff_row,
    eta_via_stirling2,
    eta_via_zeta,
)
from .numcore import (
    Basis,
    Poly,
    ZeroDenominatorError,
    format_rational,
    parse_rational,
    rational,
)
from .trimat import (
    DimensionMismatchError,
    LowerTriMatrix,
    SingularDiagonalError,
    invert_series,
    invert_substitution,
    mat_mul,
)
from .zetadiff import (
    DEFAULT_SAMPLES,
    CoeffReport,
    ExpectedSign,
    Route,
    SignPatternFinding,
    SignViolation,
    VerificationReport,
    combination_matrix,
    compare_stirling2_matrix,
    hyper_poly,
    hyper_poly_coeffs,
    scan_sign_pattern,
    verify_combination,
    verify_polynomial_forms,
    zeta_diff,
    zeta_diff_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "Poly",
    "ZeroDenominatorError",
    "rational",
    "parse_rational",
    "format_rational",
    "binomial",
    "bernoulli_number",
    "bernoulli_poly",
    "stirling1",
    "stirling2",
    "LowerTriMatrix",
    "DimensionMismatchError",
    "SingularDiagonalError",
    "mat_mul",
    "invert_substitution",
    "invert_series",
    "Route",
    "CoeffReport",
    "SignPatternFinding",
    "SignViolation",
    "ExpectedSign",
    "VerificationReport",
    "DEFAULT_SAMPLES",
    "zeta_diff",
    "hyper_poly",
    "zeta_diff_coeffs",
    "hyper_poly_coeffs",
    "combination_matrix",
    "verify_combination",
    "verify_polynomial_forms",
    "scan_sign_pattern",
    "compare_stirling2_matrix",
    "EtaTriple",
    "RouteDisagreementError",
    "eta_via_zeta",
    "eta_via_coeff_row",
    "eta_via_stirling2",
    "eta_cross_check",
]
