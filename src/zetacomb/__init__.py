"""Exact-arithmetic toolkit for Hurwitz zeta differences.

The difference F(m, x) = 2^m [zeta(-m, (1+x)/2) - zeta(-m, (2+x)/2)] is a
polynomial of degree m, and so is G(m, x) = m! * 2F1(-m, -x; 1; 2). This
package builds the lower-triangular matrices tying the two families
together, inverts them by two independent algorithms, and cross-validates
every identity with exact rational arithmetic.

``import zetacomb`` loads none of the modules below. A name is loaded on
first use (PEP 562): ``from zetacomb import X``, or ``zetacomb.X``, imports
X's home module (the key of ``_EXPORTS`` that lists X) and what that home
imports, and keeps X in the package namespace. ``zetacomb.zetadiff`` and
the other homes load the same way. ``zetacomb.cli`` loads every module;
its ``run`` is the one program entry, behind ``python -m zetacomb`` and
the ``zetacomb`` script.
"""

__version__ = "0.1.0"

# home module -> its public names, in ``__all__`` order: the one list of them;
# each home's ``__all__`` is its entry here
_EXPORTS = {
    "numcore": ("Basis", "Poly"),
    "combinat": ("binomial", "bernoulli_number", "bernoulli_poly", "stirling1", "stirling2"),
    "trimat": (
        "LowerTriMatrix",
        "DimensionMismatchError",
        "SingularDiagonalError",
        "mat_mul",
        "invert_substitution",
        "invert_series",
    ),
    "zetadiff": (
        "CoeffReport",
        "SignPatternFinding",
        "SignViolation",
        "ExpectedSign",
        "CombinationViolation",
        "VerificationReport",
        "DEFAULT_SAMPLES",
        "zeta_diff",
        "hyper_poly",
        "zeta_diff_coeffs",
        "hyper_poly_coeffs",
        "combination_matrix",
        "paper_matrices",
        "verify_combination",
        "verify_polynomial_forms",
        "scan_sign_pattern",
        "compare_stirling2_matrix",
    ),
    "etacheck": (
        "RouteDisagreementError",
        "eta_via_zeta",
        "eta_via_coeff_row",
        "eta_via_stirling2",
        "eta_cross_check",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    home = _HOMES.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
