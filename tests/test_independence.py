"""The cross-check routes' independence claims, checked by what each route enters.

Each route runs once under ``sys.setprofile`` with every cache cleared first:
``combination_matrix``'s (and with it the Riordan table), and fresh Bernoulli
and Stirling tables, since a cached Bernoulli row skips ``number``. The
qualified names of the zetacomb functions it enters must miss every table its
docstring says it never reads, and must hit one it does read, so that a hook
that saw nothing cannot pass.
"""
from __future__ import annotations

import importlib
import sys

import pytest

import zetacomb
from zetacomb import combinat, etacheck, zetadiff

M = 12


def _qualified_names() -> dict:
    """code object -> "home.qualname", for every function and method of the homes."""
    names = {}
    for home in zetacomb._EXPORTS:
        module = importlib.import_module(f"zetacomb.{home}")
        for value in vars(module).values():
            for func in (value, *(vars(value).values() if isinstance(value, type) else ())):
                # a classmethod, a cached_property, an lru_cache wrapper: the function inside
                func = getattr(func, "__func__", getattr(func, "func", getattr(func, "__wrapped__", func)))
                if getattr(func, "__module__", None) == module.__name__ and hasattr(func, "__code__"):
                    names[func.__code__] = f"{home}.{func.__qualname__}"
    return names


NAMES = _qualified_names()


def entered(route, *args) -> set[str]:
    """The qualified names of the zetacomb functions ``route(*args)`` enters."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    zetadiff.combination_matrix.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        tangent = combinat._TangentTable()
        patch.setattr(combinat, "_TANGENT_TABLE", tangent)
        patch.setattr(zetadiff, "_TANGENT_TABLE", tangent)
        patch.setattr(combinat, "_STIRLING_ROWS", {"first": {0: (1,)}, "second": {0: (1,)}})
        sys.setprofile(hook)
        try:
            route(*args)
        finally:
            sys.setprofile(None)
            zetadiff.combination_matrix.cache_clear()
    return {NAMES[code] for code in codes if code in NAMES}


# each table, as the names that read it: a function, or every method of a class
RIORDAN = ("zetadiff.combination_matrix", "zetadiff._combination_matrix", "zetadiff._RiordanTable")
BERNOULLI = ("combinat.bernoulli_number", "combinat._TangentTable")
STIRLING = ("combinat.stirling1", "combinat.stirling2", "combinat._stirling_row")


def reads(names: set[str], table: tuple[str, ...]) -> list[str]:
    return sorted(n for n in names if any(n == t or n.startswith(t + ".") for t in table))


# route -> (the tables its docstring says it never reads, a function it must enter)
CLAIMS = {
    "paper_matrices": (zetadiff.paper_matrices, RIORDAN, "zetadiff.zeta_diff_coeffs"),
    "eta_via_zeta": (etacheck.eta_via_zeta, RIORDAN + STIRLING, "combinat._TangentTable.number"),
    "eta_via_stirling2": (etacheck.eta_via_stirling2, RIORDAN + BERNOULLI, "combinat._stirling_row"),
    "eta_via_coeff_row": (etacheck.eta_via_coeff_row, BERNOULLI + STIRLING, "zetadiff._RiordanTable.packed"),
    # the sample check compares point values with the matrix, never with the tables' rows
    "verify_combination": (
        zetadiff.verify_combination,
        ("zetadiff.zeta_diff_coeffs", "zetadiff.hyper_poly_coeffs"),
        "zetadiff.hyper_poly",
    ),
}


@pytest.mark.parametrize("route", CLAIMS)
def test_each_route_reads_none_of_the_tables_it_claims_to_avoid(route):
    run, forbidden, witness = CLAIMS[route]
    names = entered(run, M)
    assert witness in names
    assert reads(names, forbidden) == []


# Tables that several routes share, each with the routes that read it and the
# reason a fault in it is still caught. A wrong Bernoulli number reaches every
# F table at once (all four paper routes and the forms check build them from
# it), but the forms check's F_shift + F_mono = I and F_shift -> F_mono pin F
# by the Hurwitz equation alone, so no wrong F table passes it; eta_via_zeta,
# which reads it too, is compared with two routes that do not. A wrong Bernoulli
# row reaches only zeta_diff's point values, and verify_combination compares
# those with the matrix the forms check proves, so the fault is a violation.
SHARED = {
    "combinat._TangentTable.number": {
        "paper_matrices", "eta_via_zeta", "verify_polynomial_forms", "verify_combination",
    },
    "combinat._TangentTable.row": {"verify_combination"},
}
READERS = {
    **{route: run for route, (run, _, _) in CLAIMS.items()},
    "verify_polynomial_forms": zetadiff.verify_polynomial_forms,
}


def test_the_shared_tables_have_the_readers_on_record():
    names = {route: entered(run, M) for route, run in READERS.items()}
    assert {table: {r for r in READERS if table in names[r]} for table in SHARED} == SHARED
