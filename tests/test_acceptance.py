"""Acceptance gate: one test per numbered criterion, zero tolerance throughout.

Every comparison is exact rational equality. Each test prints a
[PASS]/[FAIL] line through the ``acceptance`` fixture; the conftest echoes
all of them in a terminal section after the run.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial

import _tables_m9 as tables
from zetacomb import cli
from zetacomb.combinat import bernoulli_number, binomial, stirling1, stirling2
from zetacomb.etacheck import eta_cross_check, eta_via_coeff_row, eta_via_stirling2
from zetacomb.numcore import Basis
from zetacomb.trimat import (
    LowerTriMatrix,
    invert_series,
    invert_substitution,
    mat_mul,
)
from zetacomb.zetadiff import (
    DEFAULT_SAMPLES,
    combination_matrix,
    compare_stirling2_matrix,
    hyper_poly_coeffs,
    paper_matrices,
    scan_sign_pattern,
    verify_combination,
    zeta_diff_coeffs,
)


def test_criterion_1_fixture_reproduction(acceptance):
    failures = []
    built = {
        "F monomial": (zeta_diff_coeffs(9, Basis.MONOMIAL), tables.A10),
        "G monomial": (hyper_poly_coeffs(9, Basis.MONOMIAL), tables.B10),
        "F shifted": (zeta_diff_coeffs(9, Basis.SHIFTED), tables.A10_SHIFTED),
        "G shifted": (hyper_poly_coeffs(9, Basis.SHIFTED), tables.B10_SHIFTED),
        "G monomial inverse": (
            invert_substitution(tables.matrix(tables.B10)),
            tables.B10_INV,
        ),
        "G shifted inverse": (
            invert_series(tables.matrix(tables.B10_SHIFTED)),
            tables.B10_SHIFTED_INV,
        ),
        "combination": (combination_matrix(9).matrix, tables.PRODUCT10),
    }
    for name, (got, table) in built.items():
        if got != tables.matrix(table):
            failures.append(name)
    acceptance(
        1,
        "m = 9 tables reproduced entrywise (both bases, inverses, product)",
        not failures,
        f"mismatched: {failures}",
    )


def test_criterion_2_route_agreement(acceptance):
    failures = []
    for m in range(31):
        production = combination_matrix(m).matrix
        if any(route != production for route in paper_matrices(m).values()):
            failures.append(f"routes diverge at m={m}")
    for m in range(1, 21):
        if zeta_diff_coeffs(m, Basis.MONOMIAL) == zeta_diff_coeffs(m, Basis.SHIFTED):
            failures.append(f"F tables coincide at m={m}")
        if hyper_poly_coeffs(m, Basis.MONOMIAL) == hyper_poly_coeffs(m, Basis.SHIFTED):
            failures.append(f"G tables coincide at m={m}")
    acceptance(
        2,
        "the paper's four routes agree with the production matrix for m <= 30; "
        "basis tables differ for 1 <= m <= 20",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_3_combination_identity(acceptance):
    failures = []
    for m in range(31):
        report = verify_combination(m)
        if report.samples != DEFAULT_SAMPLES:
            failures.append(f"m={m}: checked at {report.samples}")
        elif not report.passed:
            v = report.violations[0]
            failures.append(f"m={m}: row {v.row} at {v.sample}, residual {v.residual}")
    acceptance(
        3,
        "combination identity holds at {0, 1/2, 1, 2, 7/3} for m <= 30",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_4_eta_block(acceptance):
    failures = []
    etas = eta_cross_check(30)  # raises unless its three routes agree on every value
    for m, (eta, expected) in enumerate(zip(etas, tables.eta_values())):
        if eta != expected:
            failures.append(f"m={m} block mismatch")
    for m, eta in enumerate(etas):
        if m >= 2 and m % 2 == 0 and eta != 0:
            failures.append(f"eta(-{m}) nonzero")
    acceptance(
        4,
        "eta(-m) block reproduced for m <= 9; even-m values vanish through m = 30",
        not failures,
        "; ".join(failures[:3]),
    )


def _random_lower(rng: random.Random, dim: int, strict: bool) -> LowerTriMatrix:
    rows = []
    for i in range(dim):
        row = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(i)
        ]
        if strict:
            row.append(Fraction(0))
        else:
            num = rng.choice([x for x in range(-20, 21) if x != 0])
            row.append(Fraction(num, rng.randint(1, 20)))
        rows.append(row)
    return LowerTriMatrix.from_rows(rows)


def test_criterion_5_inversion_property_suite(acceptance):
    rng = random.Random(20260817)
    failures = []
    for trial in range(100):
        m = _random_lower(rng, rng.randint(1, 12), strict=False)
        eye = LowerTriMatrix.identity(m.dim)
        by_sub = invert_substitution(m)
        by_series = invert_series(m)
        if by_sub != by_series:
            failures.append(f"trial {trial}: methods disagree")
        if mat_mul(m, by_sub) != eye or mat_mul(by_sub, m) != eye:
            failures.append(f"trial {trial}: inverse does not round-trip")
    for trial in range(100):
        strict = _random_lower(rng, rng.randint(1, 12), strict=True)
        power = LowerTriMatrix.identity(strict.dim)
        for _ in range(strict.dim):
            power = mat_mul(power, strict)
        if any(power.entries):
            failures.append(f"strict trial {trial}: L^n != 0")
    acceptance(
        5,
        "100 random inversions agree and round-trip; 100 strict matrices nilpotent",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_6_combinatorics_suite(acceptance):
    failures = []
    for n in range(1, 21):
        if sum(binomial(n + 1, k) * bernoulli_number(k) for k in range(n + 1)) != 0:
            failures.append(f"Bernoulli recurrence fails at n={n}")
    for n in range(3, 22, 2):
        if bernoulli_number(n) != 0:
            failures.append(f"B_{n} != 0")
    points = [Fraction(2 * t - 15, 4) for t in range(16)]
    for n in range(16):
        for z in points:
            expanded = sum(stirling1(n, k) * z**k for k in range(n + 1))
            direct = Fraction(1)
            for step in range(n):
                direct *= z - step
            if expanded != direct:
                failures.append(f"falling-factorial expansion fails at n={n}, z={z}")
    for k in range(16):
        for j in range(k + 1):
            if stirling1(k + 1, j + 1) != stirling1(k, j) - k * stirling1(k, j + 1):
                failures.append(f"shift identity fails at k={k}, j={j}")
    for n in range(11):
        for m in range(11):
            total = sum(stirling1(n, k) * stirling2(k, m) for k in range(n + 1))
            if total != (1 if n == m else 0):
                failures.append(f"orthogonality fails at n={n}, m={m}")
    acceptance(
        6,
        "Bernoulli recurrence and odd vanishing; Stirling expansion, shift identity, orthogonality",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_7_sign_pattern(acceptance):
    verified = scan_sign_pattern(9)
    exploratory = scan_sign_pattern(40)
    print("exploratory sign-pattern scan to m = 40:")
    print(json.dumps(cli._document(exploratory)))
    acceptance(
        7,
        "sign pattern clean through m = 9; exploratory scan to m = 40 completed",
        verified.violations == () and exploratory.checked == 820,
        f"verified violations: {len(verified.violations)}",
    )


def test_criterion_8_same_sums_different_matrices(acceptance):
    failures = []
    if compare_stirling2_matrix(0) is not None:
        failures.append("m=0 tables should coincide")
    for m in range(1, 21):
        if compare_stirling2_matrix(m) is None:
            failures.append(f"m={m}: no differing entry found")
    for m in range(31):
        if eta_via_coeff_row(m) != eta_via_stirling2(m):
            failures.append(f"m={m}: weighted row sum != Stirling route")
    acceptance(
        8,
        "Stirling-2 matrix differs entrywise for 1 <= m <= 20 yet row sums match to m = 30",
        not failures,
        "; ".join(failures[:3]),
    )


def test_row_sum_identity_backs_criterion_4():
    # the weighted row sums used by criterion 4 really are row-m dot factorials
    mat = combination_matrix(9).matrix
    for m in range(10):
        row_sum = sum(
            (mat.get(m, j) * factorial(j) for j in range(m + 1)), Fraction(0)
        )
        assert row_sum == eta_via_coeff_row(m)
