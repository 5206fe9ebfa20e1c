from __future__ import annotations

import functools
import json
import math
import random
import sys
import threading
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _tables_m9 as tables
import oracles
from strategies import non_dyadic
from zetacomb import cli, zetadiff
from zetacomb.combinat import stirling2
from zetacomb.etacheck import RouteDisagreementError, eta_cross_check, eta_via_coeff_row
from zetacomb.numcore import Basis
from zetacomb.trimat import LowerTriMatrix, _scaled_rows, invert_series, invert_substitution, mat_mul
from zetacomb.zetadiff import (
    DEFAULT_SAMPLES,
    CoeffReport,
    CombinationViolation,
    ExpectedSign,
    SignPatternFinding,
    SignViolation,
    combination_matrix,
    compare_stirling2_matrix,
    hyper_poly,
    hyper_poly_coeffs,
    paper_matrices,
    scan_sign_pattern,
    verify_combination,
    verify_polynomial_forms,
    zeta_diff,
    zeta_diff_coeffs,
)

SAMPLES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)]


# --- the two function families -------------------------------------------------


def test_zeta_diff_m0_is_constant_half():
    for x in SAMPLES:
        assert zeta_diff(0, x) == Fraction(1, 2)


def test_zeta_diff_point_values():
    assert zeta_diff(1, 0) == Fraction(1, 4)
    assert zeta_diff(2, 0) == 0
    assert zeta_diff(3, 0) == Fraction(-1, 8)


dyadic = st.builds(Fraction, st.integers(-(10**4), 10**4), st.integers(0, 12).map(lambda k: 1 << k))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.one_of(dyadic, non_dyadic, st.integers(-20, -1).map(Fraction)))
@example(40, Fraction(-7, 3))
@example(2, Fraction(0))
def test_zeta_diff_is_its_bernoulli_definition(m, x):
    # zeta(-m, a) = -B_{m+1}(a)/(m+1) (DLMF 25.11.14), with B_{m+1} summed from
    # the series oracle's numbers, never from the tangent table zeta_diff reads
    def bernoulli(z):
        return oracles.bernoulli_poly_power_sum(m + 1, z)

    assert zeta_diff(m, x) == 2**m * (bernoulli((x + 2) / 2) - bernoulli((x + 1) / 2)) / (m + 1)


def test_hyper_poly_m0_is_one():
    for x in SAMPLES:
        assert hyper_poly(0, x) == 1


def test_hyper_poly_linear():
    # G(1, x) = 1 + 2x
    assert hyper_poly(1, 3) == 7
    assert hyper_poly(1, Fraction(1, 2)) == 2


@st.composite
def hyper_points(draw):
    """(m, x): non-dyadic rationals, negative integers, and nonnegative
    integers below m, where the hypergeometric sum stops early."""
    m = draw(st.integers(0, 24))
    below_m = st.integers(0, m - 1) if m else st.just(0)
    return m, draw(st.one_of(non_dyadic, st.integers(-20, -1), below_m))


@settings(max_examples=80, deadline=None)
@given(hyper_points())
@example((0, Fraction(-7, 3)))
@example((6, 2))
def test_hyper_poly_matches_rising_factorial_oracle(case):
    m, x = case
    assert hyper_poly(m, x) == oracles.hyper_poly_rising(m, x)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 30), non_dyadic)
def test_euler_form_row_evaluates_to_zeta_diff(m, x):
    row = zeta_diff_coeffs(m, Basis.MONOMIAL).row(m)
    assert oracles.poly_eval_fraction(row, x) == zeta_diff(m, x)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 29), non_dyadic)
def test_hyper_poly_obeys_delannoy_recurrence(n, x):
    assert hyper_poly(n + 1, x) == (2 * x + 1) * hyper_poly(n, x) + n * n * hyper_poly(n - 1, x)


def test_hyper_poly_at_zero_is_factorial():
    for m in range(13):
        assert hyper_poly(m, 0) == math.factorial(m)


# --- coefficient builders vs frozen tables --------------------------------------


def test_zeta_diff_coeffs_monomial_fixture():
    assert zeta_diff_coeffs(9, Basis.MONOMIAL) == tables.matrix(tables.A10)


def test_hyper_poly_coeffs_monomial_fixture():
    assert hyper_poly_coeffs(9, Basis.MONOMIAL) == tables.matrix(tables.B10)


def test_zeta_diff_coeffs_shifted_fixture():
    assert zeta_diff_coeffs(9, Basis.SHIFTED) == tables.matrix(tables.A10_SHIFTED)


def test_hyper_poly_coeffs_shifted_fixture():
    assert hyper_poly_coeffs(9, Basis.SHIFTED) == tables.matrix(tables.B10_SHIFTED)


def test_diagonal_laws():
    for m in range(13):
        a_mono = zeta_diff_coeffs(m, Basis.MONOMIAL)
        a_shift = zeta_diff_coeffs(m, Basis.SHIFTED)
        b_mono = hyper_poly_coeffs(m, Basis.MONOMIAL)
        b_shift = hyper_poly_coeffs(m, Basis.SHIFTED)
        for i in range(m + 1):
            assert a_mono.get(i, i) == Fraction(1, 2)
            assert a_shift.get(i, i) == Fraction(1, 2)
            assert b_mono.get(i, i) == 2**i
            assert b_shift.get(i, i) == 2**i


def test_hyper_poly_coeffs_first_column():
    # column 0 of the monomial table is G(i, 0) = i!
    b = hyper_poly_coeffs(12, Basis.MONOMIAL)
    for i in range(13):
        assert b.get(i, 0) == math.factorial(i)


def test_builders_expand_their_functions():
    # row i of each table must reproduce the function it encodes
    m = 7
    a = zeta_diff_coeffs(m, Basis.MONOMIAL)
    b = hyper_poly_coeffs(m, Basis.MONOMIAL)
    for i in range(m + 1):
        for x in SAMPLES:
            assert sum(a.get(i, j) * x**j for j in range(i + 1)) == zeta_diff(i, x)
            assert sum(b.get(i, j) * x**j for j in range(i + 1)) == hyper_poly(i, x)


@pytest.mark.parametrize(
    ("basis", "oracle"),
    [
        (Basis.MONOMIAL, oracles.zeta_diff_coeffs_monomial_sums),
        (Basis.SHIFTED, oracles.zeta_diff_coeffs_shifted_sums),
    ],
)
def test_euler_form_matches_bernoulli_sums(basis, oracle):
    expected = oracle(30)
    for m in range(31):
        assert zeta_diff_coeffs(m, basis).rows() == expected[: m + 1]


@pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.SHIFTED])
def test_recurrence_matches_stirling_sum(basis):
    expected = oracles.hyper_poly_coeffs_stirling(40, basis is Basis.SHIFTED)
    for m in range(41):
        assert hyper_poly_coeffs(m, basis).rows() == expected[: m + 1]


# --- the combination matrix ------------------------------------------------------


def test_combination_matrix_m0():
    assert combination_matrix(0).matrix.rows() == [(Fraction(1, 2),)]


def test_combination_matrix_fixture_entries():
    mat = combination_matrix(9).matrix
    assert mat == tables.matrix(tables.PRODUCT10)
    assert mat.get(9, 1) == Fraction(691, 4)
    assert mat.get(8, 2) == Fraction(-55)


def test_combination_matrix_diagonal():
    mat = combination_matrix(11).matrix
    for i in range(12):
        assert mat.get(i, i) == Fraction(1, 2 ** (i + 1))


def test_routes_agree():
    for m in range(9):
        assert all(route == combination_matrix(m).matrix for route in paper_matrices(m).values()), m


def test_riordan_route_matches_paper_route_to_64():
    routes = paper_matrices(64).values()
    for m in range(65):
        # every table, inverse and product is lower-triangular, so a route's matrix
        # at m is the leading block of its matrix at 64: the first entries, packed
        size = (m + 1) * (m + 2) // 2
        production = combination_matrix(m).matrix.entries
        assert all(route.entries[:size] == production for route in routes), m


def test_route_names_the_four_paper_routes():
    assert list(paper_matrices(3)) == ["monomial", "monomial-series", "shifted", "shifted-series"]


def test_paper_matrix_is_built_afresh_and_adds_no_cache_entry():
    combination_matrix.cache_clear()
    first = paper_matrices(5)
    again = paper_matrices(5)
    assert first == again
    assert all(first[route] is not again[route] for route in first)
    assert combination_matrix.cache_info().currsize == 0
    assert zetadiff._RIORDAN_TABLE._entries == []


def test_paper_matrices_build_each_basis_table_once(monkeypatch):
    calls = []

    def counted(build):
        def wrapper(m, basis):
            calls.append((build.__name__, Basis(basis).value))
            return build(m, basis)

        return wrapper

    for build in (zeta_diff_coeffs, hyper_poly_coeffs):
        monkeypatch.setattr(zetadiff, build.__name__, counted(build))
    combination_matrix.cache_clear()
    production = combination_matrix(6).matrix
    routes = paper_matrices(6)
    # one F and one G table per basis, shared by that basis's two routes
    assert sorted(calls) == sorted(
        (build, basis.value) for build in ("zeta_diff_coeffs", "hyper_poly_coeffs") for basis in Basis
    )
    assert all(route == production for route in routes.values())
    # the routes read no cache: the production matrix is still the one entry
    assert combination_matrix.cache_info().currsize == 1


def test_combination_matrix_cache_keys_on_value_not_spelling():
    combination_matrix.cache_clear()
    reports = [combination_matrix(13), combination_matrix(m=13), combination_matrix(13)]
    info = combination_matrix.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    assert reports[0] is reports[1] is reports[2]


def test_combination_matrix_makes_m_an_int_before_the_cache():
    combination_matrix.cache_clear()
    report = combination_matrix(True)
    assert report.m == 1 and type(report.m) is int
    assert combination_matrix(1) is report
    assert json.dumps(cli._document(combination_matrix(1))).startswith('{"m": 1, ')


@pytest.mark.parametrize("warm", [False, True])
def test_combination_matrix_rejects_a_float_m(warm):
    combination_matrix.cache_clear()
    if warm:
        combination_matrix(2)
    with pytest.raises(TypeError):
        combination_matrix(2.0)


@functools.cache
def _tanh_powers():
    # V(n, k) = n! [s^n] tanh(s)^k by power-series products; rows 0..49 cover m <= 48
    return oracles.tanh_power_series(49)


def _riordan_closed_form(m):
    # built independently of the table: a_ij = V(i+1, j+1) / ((j+1)! 2^(i+1))
    v = _tanh_powers()
    return LowerTriMatrix(
        m + 1,
        (Fraction(v[i + 1][j + 1], math.factorial(j + 1) * 2 ** (i + 1))
         for i in range(m + 1) for j in range(i + 1)),
    )


def _visit(order, top):
    ms = list(range(top + 1))
    if order == "descending":
        ms.reverse()
    elif order == "shuffled":
        random.Random(top + 1).shuffle(ms)
    return ms


ORDERS = ["ascending", "descending", "shuffled"]


@pytest.mark.parametrize("order", ORDERS)
def test_riordan_table_matches_closed_form_in_any_visit_order(order):
    ms = _visit(order, 40)
    combination_matrix.cache_clear()
    for m in ms:
        assert combination_matrix(m).matrix == _riordan_closed_form(m), m


def test_riordan_table_builds_each_entry_once():
    combination_matrix.cache_clear()
    large = combination_matrix(64).matrix.entries
    small = combination_matrix(30).matrix.entries
    assert len(small) == 496
    assert all(a is b for a, b in zip(small, large))


def test_cache_clear_empties_riordan_table():
    combination_matrix(20)
    scan_sign_pattern(20)
    combination_matrix.cache_clear()
    assert combination_matrix.cache_info().currsize == 0
    table = zetadiff._RIORDAN_TABLE
    assert table._entries == []
    assert table._v_row == [1]
    assert table._powers == [1]
    assert table._violations == []
    assert table._counts == []


# Once the table holds m = 10 it keeps the nonzero half of U row 11,
# v[i] = U(11, 11 - 2i), and a larger m steps that row on; U(n, n) =
# U(n-1, n-1), so a fault below its diagonal stays below the diagonal of
# every later row, and a fault on it moves every later one.


@pytest.mark.parametrize("k", range(1, 11, 2))
def test_a_fault_below_the_diagonal_of_the_u_row_fails_every_check(k):
    combination_matrix.cache_clear()
    try:
        combination_matrix(10)
        zetadiff._RIORDAN_TABLE._v_row[(11 - k) // 2] += 1  # U(11, k)
        assert cli.main(["coeffs", "--check-all-routes", "--m", "20"]) == 1
        assert not verify_polynomial_forms(20)
        # the weighted sum of row i is (U(i, 0) + U(i, 1))/2^{i+1}, so the eta
        # route first sees the fault at U(11, k) in row max(11, 10 + k) <= 20
        with pytest.raises(RouteDisagreementError):
            eta_cross_check(20)
    finally:
        combination_matrix.cache_clear()


def test_a_fault_on_the_diagonal_of_the_u_row_is_refused():
    combination_matrix.cache_clear()
    try:
        combination_matrix(10)
        zetadiff._RIORDAN_TABLE._v_row[0] += 1  # U(11, 11)
        with pytest.raises(ValueError, match=r"diagonal entry 11 must be 1/2\^12"):
            combination_matrix(20)
    finally:
        combination_matrix.cache_clear()


def _packed_index(i, j):
    return i * (i + 1) // 2 + j


def _doctor(entries, cells):
    # flip the sign of each (i, j) (a zero becomes 1), so each breaks the pattern
    for i, j in cells:
        k = _packed_index(i, j)
        entries[k] = -entries[k] or Fraction(1)


def _oracle_violations(entries, m):
    # rows 0..m of the packed entries classified by the sign theorem itself
    return tuple(SignViolation(i, j, v, ExpectedSign(e)) for i, j, v, e in oracles.sign_violations(entries, m))


def _full_scan(m, entries):
    return SignPatternFinding(max_m=m, checked=m * (m + 1) // 2, violations=_oracle_violations(entries, m))


def _doctor_shared_table(m, cells):
    # grow the process-wide table to m and doctor it; every later miss reads it
    combination_matrix.cache_clear()
    zetadiff._RIORDAN_TABLE.packed(m)
    _doctor(zetadiff._RIORDAN_TABLE._entries, cells)


@pytest.mark.parametrize("order", ORDERS)
def test_default_scan_reports_a_doctored_table_entry_from_its_row_on(order):
    try:
        _doctor_shared_table(64, [(17, 5)])  # i - j = 12: must be positive
        value = zetadiff._RIORDAN_TABLE._entries[_packed_index(17, 5)]
        assert value < 0
        doctored = SignViolation(17, 5, value, ExpectedSign.POSITIVE)
        for m in _visit(order, 64):
            assert scan_sign_pattern(m).violations == ((doctored,) if m >= 17 else ()), m
    finally:
        combination_matrix.cache_clear()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "cells", [[], [(1, 0), (17, 5), (40, 38), (40, 39), (64, 0), (64, 63)], [(33, 0), (50, 2), (64, 2)]]
)
def test_default_scan_matches_a_full_scan_of_the_matrix(order, cells):
    try:
        _doctor_shared_table(64, cells)
        for m in _visit(order, 64):
            full = _full_scan(m, combination_matrix(m).matrix.entries)
            assert scan_sign_pattern(m) == full, m
            assert len(full.violations) == sum(i <= m for i, _ in cells), m
    finally:
        combination_matrix.cache_clear()


def test_cache_clear_empties_the_per_row_sign_store():
    try:
        combination_matrix.cache_clear()
        assert scan_sign_pattern(30).violations == ()
        # after a clear, rows 0..30 are classified again, the doctored one included
        _doctor_shared_table(30, [(9, 4)])
        assert [(v.i, v.j) for v in scan_sign_pattern(30).violations] == [(9, 4)]
    finally:
        combination_matrix.cache_clear()


def test_a_row_is_classified_once_per_process():
    try:
        combination_matrix.cache_clear()
        zetadiff._RIORDAN_TABLE.packed(40)
        assert scan_sign_pattern(30).violations == ()
        # row 20 is classified already, so only the fault in row 35 is seen
        _doctor(zetadiff._RIORDAN_TABLE._entries, [(20, 4), (35, 1)])
        assert [(v.i, v.j) for v in scan_sign_pattern(40).violations] == [(35, 1)]
        # doctored before any scan, both rows are classified with their faults
        _doctor_shared_table(40, [(20, 4), (35, 1)])
        assert [(v.i, v.j) for v in scan_sign_pattern(40).violations] == [(20, 4), (35, 1)]
    finally:
        combination_matrix.cache_clear()


def test_riordan_table_grows_consistently_under_threads():
    # the table doctors cells (i, i-1) as it grows them, so the sign scan has
    # violations to report; half the threads scan before they grow, half after
    cells = [(i, i - 1) for i in range(1, 49, 3)]

    class Doctored(zetadiff._RiordanTable):
        def _grow(self, m):
            start = len(self._entries)
            super()._grow(m)
            new = range(start, len(self._entries))
            _doctor(self._entries, [(i, j) for i, j in cells if _packed_index(i, j) in new])

    table = Doctored()
    expected = list(_riordan_closed_form(48).entries)
    _doctor(expected, cells)
    prefixes = [expected[: _packed_index(m + 1, 0)] for m in range(49)]
    scans = [_oracle_violations(prefixes[m], m) for m in range(49)]
    wrong = []

    def ascend(scan_first):
        for m in range(49):
            checks = [(table.packed, prefixes[m]), (table.sign_violations, scans[m])]
            for call, want in checks[::-1] if scan_first else checks:
                if call(m) != want:
                    wrong.append(m)

    threads = [threading.Thread(target=ascend, args=(k % 2 == 0,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert table.packed(48) == expected
    assert table.sign_violations(48) == scans[48]


def test_fraction_keeps_the_two_slots_the_table_writes_and_reads():
    assert Fraction.__slots__ == ("_numerator", "_denominator"), (
        "fractions.Fraction no longer keeps _numerator and _denominator: "
        "zetadiff._RiordanTable._grow, the table's readers and numcore._over_lcm must fall "
        "back to the public constructor and the numerator and denominator properties"
    )


def test_each_table_entry_to_200_is_the_fraction_of_the_public_constructor():
    # U(n, k) stepped here by its recurrence; entry U(n, k)/2^n, built through the
    # slots, must be Fraction(U(n, k), 2^n) down to its hash and its text
    combination_matrix.cache_clear()
    entries = combination_matrix(200).matrix.entries
    u, index = [1], 0
    for n in range(1, 202):
        padded = [*u, 0, 0]
        u = [0, *(padded[k - 1] - k * (k + 1) * padded[k + 1] for k in range(1, n + 1))]
        for c in u[1:]:
            got, want = entries[index], Fraction(c, 1 << n)
            assert type(got) is Fraction, (n, c)
            assert (got.numerator, got.denominator, hash(got), str(got)) == (
                want.numerator, want.denominator, hash(want), str(want),
            ), (n, c)
            assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1, (n, c)
            index += 1
    assert index == len(entries)
    assert str(entries[_packed_index(8, 2)]) == "-55"  # reduces to an integer
    assert any(e.numerator < 0 for e in entries)


def test_table_entries_share_one_denominator_per_power_of_two():
    combination_matrix.cache_clear()
    entries = combination_matrix(120).matrix.entries
    powers = zetadiff._RIORDAN_TABLE._powers
    assert powers == [1 << p for p in range(122)]
    assert all(e._denominator is powers[e._denominator.bit_length() - 1] for e in entries if e)


def test_riordan_miss_wraps_the_table_entries():
    combination_matrix.cache_clear()
    for m in (9, 3, 20):
        entries = zetadiff._RIORDAN_TABLE.packed(m)
        matrix = combination_matrix(m).matrix
        assert type(matrix.entries) is tuple
        assert matrix == LowerTriMatrix(m + 1, entries)
        assert all(a is b for a, b in zip(matrix.entries, entries, strict=True))


def test_riordan_miss_checks_the_diagonal_of_the_table():
    try:
        combination_matrix.cache_clear()
        combination_matrix(3)
        zetadiff._RIORDAN_TABLE.packed(12)
        zetadiff._RIORDAN_TABLE._entries[_packed_index(5, 5)] = Fraction(1, 32)
        for m in (5, 12, 8):
            with pytest.raises(ValueError, match=r"^diagonal entry 5 must be 1/2\^6$"):
                combination_matrix(m)
        assert combination_matrix(4).matrix == _riordan_closed_form(4)
    finally:
        combination_matrix.cache_clear()


# --- answers kept on the report ------------------------------------------------------


def _fresh_answers(m):
    # each answer recomputed from the published matrix, by the plain forms
    matrix = combination_matrix(m).matrix
    eta = sum((a * math.factorial(j) for j, a in enumerate(matrix.row(m))), Fraction(0))
    return (
        _full_scan(m, matrix.entries),
        eta,
        oracles.first_stirling2_mismatch_fraction(matrix, stirling2),
    )


def _kept_answers(m):
    return scan_sign_pattern(m), eta_via_coeff_row(m), compare_stirling2_matrix(m)


def test_repeat_calls_return_the_kept_object():
    combination_matrix.cache_clear()
    for m in (0, 1, 17):
        first, again = _kept_answers(m), _kept_answers(m)
        assert all(a is b for a, b in zip(first, again)), m
    assert scan_sign_pattern(17) is scan_sign_pattern(max_m=17)


@pytest.mark.parametrize("order", ORDERS)
def test_kept_answers_equal_a_fresh_computation(order):
    combination_matrix.cache_clear()
    for m in _visit(order, 64):
        assert _kept_answers(m) == _fresh_answers(m), m
        assert _kept_answers(m) == _fresh_answers(m), m  # now off the report


def test_kept_answers_follow_a_doctored_table_after_cache_clear():
    try:
        combination_matrix.cache_clear()
        clean = {m: _kept_answers(m) for m in (1, 20)}
        assert clean[1] == (_full_scan(1, combination_matrix(1).matrix.entries), Fraction(1, 4), (1, 0))
        assert clean[20][1] == 0
        combination_matrix.cache_clear()
        zetadiff._RIORDAN_TABLE.packed(20)
        entries = zetadiff._RIORDAN_TABLE._entries
        entries[_packed_index(1, 0)] = Fraction(1, 2)  # the Stirling candidate's value
        entries[_packed_index(20, 3)] = Fraction(1)  # i - j odd: must be zero
        for m in (1, 20):
            scan, eta, first_mismatch = _kept_answers(m)
            assert (scan, eta, first_mismatch) == _fresh_answers(m), m
            assert first_mismatch == (1, 1)
            assert [(v.i, v.j) for v in scan.violations] == [(1, 0), (20, 3)][: 1 + (m == 20)]
        assert eta_via_coeff_row(1) == Fraction(3, 4)
        assert eta_via_coeff_row(20) == 6  # 3! * 1
    finally:
        combination_matrix.cache_clear()


def _answers_on(report):
    # the cached properties live in the instance dict, beside the fields
    return {name: value for name, value in vars(report).items() if name not in report._fields}


def test_kept_answers_do_not_change_the_report_value(capsys):
    combination_matrix.cache_clear()
    assert cli.main(["coeffs", "--m", "9"]) == 0
    capsys.readouterr()
    filled = combination_matrix(9)
    assert _answers_on(filled) == {}  # coeffs reads no answer off the report
    answers = _kept_answers(9)
    assert all(a is b for a, b in zip(_kept_answers(9), answers))  # the kept objects
    # the three session calls, each made twice, kept exactly their three answers
    assert sorted(map(id, _answers_on(filled).values())) == sorted(map(id, answers))
    empty = CoeffReport(m=9, matrix=filled.matrix)
    assert _answers_on(empty) == {}
    assert filled == empty and hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)
    assert cli._document(filled) == cli._document(empty)


@pytest.mark.parametrize("m", [0, 1, 5, 20, 40])
def test_g_inverse_matches_tanh_closed_form(m):
    # G^-1 = [2/(e^s+1), tanh(s/2)] in powers of x, and 2/(e^s+1) = 1 - tanh(s/2),
    # so G^-1[i][j] = (V(i, j) - V(i, j+1)) / (j! 2^i); V(i, i+1) = 0
    v = [row + [0] for row in _tanh_powers()[: m + 1]]
    closed = LowerTriMatrix(
        m + 1,
        (Fraction(v[i][j] - v[i][j + 1], math.factorial(j) * 2**i)
         for i in range(m + 1) for j in range(i + 1)),
    )
    g = hyper_poly_coeffs(m, Basis.MONOMIAL)
    assert invert_substitution(g) == closed
    assert invert_series(g) == closed


def _midpoint_tables(m):
    f_c = LowerTriMatrix.from_rows(oracles.zeta_diff_coeffs_midpoint(m))
    g_c = LowerTriMatrix.from_rows(oracles.hyper_poly_coeffs_midpoint(m))
    return f_c, g_c


@pytest.mark.parametrize("x", [Fraction(0), Fraction(7, 3)])
def test_midpoint_rows_evaluate_to_zeta_diff_and_hyper_poly(x):
    f_c, g_c = _midpoint_tables(12)
    u = x + Fraction(1, 2)
    for i in range(13):
        assert oracles.poly_eval_fraction(f_c.row(i), u) == zeta_diff(i, x)
        assert oracles.poly_eval_fraction(g_c.row(i), u) == hyper_poly(i, x)


def test_combination_matrix_carries_the_midpoint_g_table_to_the_f_table():
    # a fifth check of A, in powers of u = x + 1/2, a basis the library never builds;
    # A's zeros at odd i - j follow there from parity, as both tables are checkerboard
    f_c, g_c = _midpoint_tables(40)
    a = combination_matrix(40).matrix
    assert mat_mul(a, g_c) == f_c
    doctored = list(a.entries)
    doctored[_packed_index(31, 12)] = Fraction(1, 2**32)  # i - j odd: a zero of A
    assert mat_mul(LowerTriMatrix(a.dim, doctored), g_c) != f_c


def test_combination_matrix_rejects_negative_m():
    with pytest.raises(ValueError):
        combination_matrix(-1)
    with pytest.raises(ValueError):
        paper_matrices(-1)


def test_coeff_report_json_round_trip():
    report = combination_matrix(5)
    doc = json.loads(json.dumps(cli._document(report)))
    assert list(doc) == ["m", "matrix"]
    assert doc["m"] == 5
    assert doc == cli._document(report)
    assert doc["matrix"] == cli._document(paper_matrices(5)["shifted-series"])


def test_coeff_report_rejects_wrong_size():
    with pytest.raises(ValueError, match=r"matrix has dim 3, expected m \+ 1 = 8"):
        CoeffReport(m=7, matrix=combination_matrix(2).matrix)


def test_coeff_report_rejects_bad_diagonal():
    wrong = LowerTriMatrix.identity(3)
    with pytest.raises(ValueError):
        CoeffReport(m=2, matrix=wrong)


@pytest.mark.parametrize("wrong", [Fraction(-1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 8), 0])
def test_coeff_report_rejects_a_wrong_diagonal_entry(wrong):
    rows = [list(row) for row in combination_matrix(3).matrix.rows()]
    rows[1][1] = wrong
    with pytest.raises(ValueError, match=r"^diagonal entry 1 must be 1/2\^2$"):
        CoeffReport(m=3, matrix=LowerTriMatrix.from_rows(rows))
    rows[1][1] = "2/8"  # the right value, spelled unreduced
    report = CoeffReport(m=3, matrix=LowerTriMatrix.from_rows(rows))
    assert report.matrix.get(1, 1) == Fraction(1, 4)


# --- verification ------------------------------------------------------------------


def _plant(monkeypatch, tables=None, matrix=None):
    """Plant a fault where the checks read: ``tables`` (F_mono, G_mono, F_shift,
    G_shift) are what ``zeta_diff_coeffs`` and ``hyper_poly_coeffs`` return
    per basis, and ``matrix`` is the matrix of ``combination_matrix``."""
    if tables is not None:
        f_mono, g_mono, f_shift, g_shift = tables
        for name, mono, shift in (("zeta_diff_coeffs", f_mono, f_shift), ("hyper_poly_coeffs", g_mono, g_shift)):

            def build(m, basis=Basis.MONOMIAL, mono=mono, shift=shift):
                table = mono if Basis(basis) is Basis.MONOMIAL else shift
                assert table.dim == m + 1
                return table

            monkeypatch.setattr(zetadiff, name, build)
    if matrix is not None:
        report = CoeffReport(matrix.dim - 1, matrix)

        def planted(m):
            assert m == report.m
            return report

        monkeypatch.setattr(zetadiff, "combination_matrix", planted)


def test_verify_combination_default_window():
    for m in (0, 1, 9):
        report = verify_combination(m)
        assert report.passed
        assert report.violations == ()
        assert report.samples == DEFAULT_SAMPLES
    with pytest.raises(TypeError):
        verify_combination(3, DEFAULT_SAMPLES)


def test_verify_combination_m0_custom_sample(monkeypatch):
    monkeypatch.setattr(zetadiff, "DEFAULT_SAMPLES", (Fraction(17),))
    report = verify_combination(0)
    assert report.passed
    assert report.samples == (Fraction(17),)


def test_verify_combination_m1(monkeypatch):
    monkeypatch.setattr(zetadiff, "DEFAULT_SAMPLES", (Fraction(0),))
    report = verify_combination(1)
    assert report.passed
    assert report.samples == (Fraction(0),)


def test_verify_combination_detects_tampering(monkeypatch):
    good = combination_matrix(3).matrix
    rows = [list(r) for r in good.rows()]
    rows[1][0] += 1
    rows[3][0] += Fraction(1, 3)
    bad = LowerTriMatrix.from_rows(rows)
    _plant(monkeypatch, matrix=bad)
    report = verify_combination(3)
    assert not report.passed
    # G(0, x) = 1, so adding d in column 0 of row i leaves the residual -d at
    # every point; violations come row by row, points in order
    assert report.violations == tuple(
        CombinationViolation(i, x, -d) for i, d in ((1, 1), (3, Fraction(1, 3))) for x in DEFAULT_SAMPLES
    )


def _five_sample_blind_matrix():
    # P(x) = prod (x - s) over the five default samples has degree 5 < 6, so adding
    # its G-expansion to row 6 of A moves F(6, .) - sum_j a_6j G(j, .) by -P: zero
    # at every default sample, and the row is decided only by m + 2 = 8 points
    m = 6
    poly = [Fraction(1)]  # monomial coefficients of P, lowest first
    for s in DEFAULT_SAMPLES:
        poly = [lower - s * c for lower, c in zip([0, *poly], [*poly, 0])]
    # x^k = sum_j B_inv[k][j] G(j, x), with B the monomial G table
    b_inv = invert_substitution(hyper_poly_coeffs(m, Basis.MONOMIAL))
    expansion = [sum(c * b_inv.get(k, j) for k, c in enumerate(poly)) for j in range(m + 1)]
    assert expansion[m] == 0  # the diagonal stays 1/2^7
    rows = [list(r) for r in combination_matrix(m).matrix.rows()]
    rows[m] = [a + c for a, c in zip(rows[m], expansion)]
    return LowerTriMatrix.from_rows(rows)


def test_verify_combination_five_samples_miss_a_fault_that_eight_points_find(monkeypatch):
    m = 6
    doctored = _five_sample_blind_matrix()
    assert doctored != combination_matrix(m).matrix
    _plant(monkeypatch, matrix=doctored)
    assert verify_combination(m).passed
    eight = tuple(Fraction(p, 3) for p in range(-3, 5))
    monkeypatch.setattr(zetadiff, "DEFAULT_SAMPLES", eight)
    report = verify_combination(m)
    assert report.samples == eight
    assert not report.passed
    p_at = lambda x: math.prod(x - s for s in DEFAULT_SAMPLES)  # noqa: E731
    assert report.violations == tuple(
        CombinationViolation(m, x, -p_at(x)) for x in eight if x not in DEFAULT_SAMPLES
    )


def test_verify_fails_a_matrix_that_five_samples_miss(monkeypatch, capsys):
    # the exact product A G_mono = F_mono in the forms check decides every x
    _plant(monkeypatch, matrix=_five_sample_blind_matrix())
    assert verify_combination(6).passed
    assert cli.main(["verify", "--m", "6"]) == 1
    assert capsys.readouterr() == (
        "combination identity: PASS (m = 6, samples: 0, 1/2, 1, 2, 7/3)\npolynomial forms: FAIL\n",
        "polynomial forms check failed at m=6\n",
    )


def test_verify_report_json_shape(capsys):
    assert cli.main(["verify", "--m", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"m", "samples", "pass", "violations", "polynomial_forms_pass"}
    assert doc["pass"] is True
    assert doc["violations"] == []


def test_verify_polynomial_forms():
    assert verify_polynomial_forms(0)
    assert verify_polynomial_forms(3)
    assert verify_polynomial_forms(9)


def _fixture_tables():
    # the hand-entered m = 9 tables, in the order (F_mono, G_mono, F_shift, G_shift)
    return [tables.matrix(t) for t in (tables.A10, tables.B10, tables.A10_SHIFTED, tables.B10_SHIFTED)]


def test_verify_polynomial_forms_fixture_matrices(monkeypatch):
    _plant(monkeypatch, tables=_fixture_tables())
    assert verify_polynomial_forms(9)


def _planted_cells():
    # first and last row, first column and diagonal; the (5, 2) cases keep
    # the bare table position as their id
    for position in range(4):
        for cell in ((5, 2), (0, 0), (9, 0), (9, 9)):
            name = str(position) if cell == (5, 2) else f"{position}-at-{cell[0]}-{cell[1]}"
            yield pytest.param(position, cell, id=name)


@pytest.mark.parametrize(("position", "cell"), _planted_cells())
def test_verify_polynomial_forms_rejects_wrong_table(monkeypatch, position, cell):
    mats = _fixture_tables()
    rows = [list(r) for r in mats[position].rows()]
    i, j = cell
    rows[i][j] += Fraction(1, 3)
    mats[position] = LowerTriMatrix.from_rows(rows)
    _plant(monkeypatch, tables=mats)
    assert not verify_polynomial_forms(9)


def _form_tables(m):
    return (
        zeta_diff_coeffs(m, Basis.MONOMIAL),
        hyper_poly_coeffs(m, Basis.MONOMIAL),
        zeta_diff_coeffs(m, Basis.SHIFTED),
        hyper_poly_coeffs(m, Basis.SHIFTED),
    )


def test_verify_polynomial_forms_rejects_tables_that_rebase_but_miss_f(monkeypatch):
    # F + 1 in both bases: each shifted row still rebases onto its monomial
    # row (F_shift -> F_mono holds), yet F_shift + F_mono = I does not, and with
    # the true A neither does A G_mono = F_mono
    m = 9
    mats = list(_form_tables(m))
    for position in (0, 2):
        rows = [list(r) for r in mats[position].rows()]
        for row in rows:
            row[0] += 1
        mats[position] = LowerTriMatrix.from_rows(rows)
    for i in range(m + 1):
        assert oracles.taylor_shift(mats[2].row(i), 1) == mats[0].row(i)
    _plant(monkeypatch, tables=mats)
    assert not verify_polynomial_forms(m)


@pytest.mark.parametrize(
    ("m", "row"),
    [
        # F(0, x) = 1/2; the wrong constant is 3/2
        (0, [Fraction(3, 2)]),
        # F(1, x) = -1/4 + (x+1)/2; the wrong row is -7/12 + 3(x+1)/2
        (1, [Fraction(-7, 12), Fraction(3, 2)]),
    ],
    ids=["m0-constant", "m1-linear"],
)
def test_verify_polynomial_forms_rejects_a_wrong_shifted_f_row(monkeypatch, m, row):
    # the fault sits in the shifted F table, which the product A G_mono = F_mono
    # does not read: F_shift + F_mono = I and F_shift -> F_mono both catch it
    mats = list(_form_tables(m))
    rows = [list(r) for r in mats[2].rows()]
    assert rows[m] != row
    rows[m] = row
    mats[2] = LowerTriMatrix.from_rows(rows)
    _plant(monkeypatch, tables=mats)
    assert not verify_polynomial_forms(m)


@pytest.mark.parametrize("build", [zeta_diff_coeffs, hyper_poly_coeffs])
def test_shifted_rows_rebase_onto_monomial_rows(build):
    # the forms check's F_shift -> F_mono and G_shift -> G_mono, checked
    # through oracles.taylor_shift, Fraction Horner steps independent of
    # numcore._newton_to_powers: a row p(t) in powers of t = x+1 is p(x+1) in
    # powers of x
    m = 30
    shifted, monomial = build(m, Basis.SHIFTED), build(m, Basis.MONOMIAL)
    for i in range(m + 1):
        assert oracles.taylor_shift(shifted.row(i), 1) == monomial.row(i), i


def test_verify_polynomial_forms_rejects_a_swapped_g_table(monkeypatch):
    wrong = list(_form_tables(4))
    wrong[1] = wrong[3]  # the shifted G table where the monomial one belongs
    _plant(monkeypatch, tables=wrong)
    assert not verify_polynomial_forms(4)


def _broken_identities(tables, a):
    """The identities of the forms check that the tables (F_mono, G_mono, F_shift,
    G_shift) and the matrix ``a`` break, by name, decided by the Fraction oracles."""
    f_mono, g_mono, f_shift, g_shift = (t.rows() for t in tables)
    # a row in powers of x+1 is p(t), t = x+1; in powers of x it is p(x+1)
    rebased = lambda rows: [oracles.taylor_shift(row, 1) for row in rows]  # noqa: E731
    holds = {
        "F": all(
            s + f == (i == j) for i, pair in enumerate(zip(f_shift, f_mono)) for j, (s, f) in enumerate(zip(*pair))
        ),
        "F shift": rebased(f_shift) == f_mono,
        "G": g_mono == oracles.hyper_poly_coeffs_stirling(a.dim - 1, shifted=False),
        "G shift": rebased(g_shift) == g_mono,
        "A": oracles.mat_mul_fraction(a, tables[1]) == f_mono,
    }
    return {name for name, ok in holds.items() if not ok}


def _plus(table, cells, delta):
    rows = [list(r) for r in table.rows()]
    for i, j in cells:
        rows[i][j] += delta
    return LowerTriMatrix.from_rows(rows)


def _f_plus_one(m, f_mono, g_mono, f_shift, g_shift):
    # a constant is the same in both bases; row 0 is left alone to keep a_00 = 1/2
    f_mono, f_shift = (_plus(t, [(i, 0) for i in range(1, m + 1)], 1) for t in (f_mono, f_shift))
    return (f_mono, g_mono, f_shift, g_shift), mat_mul(f_mono, invert_substitution(g_mono))


def _f_mono_plus_e(m, f_mono, g_mono, f_shift, g_shift):
    f_mono = _plus(f_mono, [(5, 2)], Fraction(1, 3))
    f_shift = LowerTriMatrix(m + 1, map(sub, LowerTriMatrix.identity(m + 1).entries, f_mono.entries))
    return (f_mono, g_mono, f_shift, g_shift), mat_mul(f_mono, invert_substitution(g_mono))


def _g_mono_plus_e(m, f_mono, g_mono, f_shift, g_shift):
    g_mono = _plus(g_mono, [(5, 2)], 1)
    pascal_inv = LowerTriMatrix(
        m + 1, ((-1) ** (i - j) * math.comb(i, j) for i in range(m + 1) for j in range(i + 1))
    )
    return (f_mono, g_mono, f_shift, mat_mul(g_mono, pascal_inv)), mat_mul(f_mono, invert_substitution(g_mono))


def _g_shift_plus_e(m, f_mono, g_mono, f_shift, g_shift):
    return (f_mono, g_mono, f_shift, _plus(g_shift, [(5, 2)], 1)), combination_matrix(m).matrix


def _a_plus_e(m, *tables):
    return tables, _plus(combination_matrix(m).matrix, [(7, 3)], Fraction(1, 2**8))


def _one_identity_faults():
    # each fault at two sizes; the m = 9 cases keep the bare fault name as their id
    faults = [
        (_f_plus_one, "F", "f-plus-one"),
        (_f_mono_plus_e, "F shift", "f-mono-plus-e"),
        (_g_mono_plus_e, "G", "g-mono-plus-e"),
        (_g_shift_plus_e, "G shift", "g-shift-plus-e"),
        (_a_plus_e, "A", "a-plus-e"),
    ]
    for plant, broken, name in faults:
        for m in (9, 14):
            yield pytest.param(m, plant, broken, id=name if m == 9 else f"{name}-at-{m}")


@pytest.mark.parametrize(("m", "plant", "broken"), _one_identity_faults())
def test_verify_polynomial_forms_rejects_a_fault_that_breaks_one_identity(monkeypatch, m, plant, broken):
    # each fault keeps every identity of the check but one, so none of the
    # five can be dropped without some test here passing a wrong table
    tables, a = plant(m, *_form_tables(m))
    assert _broken_identities(tables, a) == {broken}
    _plant(monkeypatch, tables=tables, matrix=a)
    assert not verify_polynomial_forms(m)


@pytest.mark.parametrize(
    ("position", "broken"),
    [(0, {"F", "F shift", "A"}), (1, {"G", "G shift", "A"}), (2, {"F", "F shift"}), (3, {"G shift"})],
    ids=["f-mono-over-3", "g-mono-over-3", "f-shift-over-3", "g-shift-over-3"],
)
def test_verify_polynomial_forms_rejects_a_fault_that_moves_only_a_scale(monkeypatch, position, broken):
    # T/3 has exactly the integer rows of T, over three times its scale, so a
    # check that compared the rows and dropped the scales would pass it
    m = 9
    mats = list(_form_tables(m))
    rows, scale = _scaled_rows(mats[position])
    mats[position] = LowerTriMatrix(m + 1, (e / 3 for e in mats[position].entries))
    assert _scaled_rows(mats[position]) == (rows, 3 * scale)
    assert _broken_identities(mats, combination_matrix(m).matrix) == broken
    _plant(monkeypatch, tables=mats)
    assert not verify_polynomial_forms(m)


# --- sign pattern scan ----------------------------------------------------------------


def test_scan_sign_pattern_clean_to_9():
    finding = scan_sign_pattern(9)
    assert finding.max_m == 9
    assert finding.violations == ()
    assert finding.checked == sum(i for i in range(10))  # strictly-below-diagonal count


def test_scan_sign_pattern_m0():
    finding = scan_sign_pattern(0)
    assert finding.checked == 0
    assert finding.violations == ()


def test_scan_sign_pattern_flags_doctored_matrix():
    try:
        combination_matrix.cache_clear()
        zetadiff._RIORDAN_TABLE.packed(4)
        entries = zetadiff._RIORDAN_TABLE._entries
        entries[_packed_index(1, 0)] = Fraction(5)  # i-j odd: must be zero
        entries[_packed_index(2, 0)] = Fraction(5)  # i-j == 2 mod 4: must be negative
        entries[_packed_index(4, 0)] = Fraction(-5)  # i-j == 0 mod 4: must be positive
        finding = scan_sign_pattern(4)
        got = {(v.i, v.j): v.expected for v in finding.violations}
        assert got == {
            (1, 0): ExpectedSign.ZERO,
            (2, 0): ExpectedSign.NEGATIVE,
            (4, 0): ExpectedSign.POSITIVE,
        }
    finally:
        combination_matrix.cache_clear()


def test_sign_finding_json():
    doc = cli._document(scan_sign_pattern(3))
    assert doc == {"max_m": 3, "checked": 6, "violations": []}


# --- the near-miss comparison -----------------------------------------------------------


def test_compare_stirling2_m0_matches():
    assert compare_stirling2_matrix(0) is None


def test_compare_stirling2_first_difference():
    assert compare_stirling2_matrix(1) == (1, 0)
    assert compare_stirling2_matrix(2) == (1, 0)


def test_compare_stirling2_always_differs_for_positive_m():
    for m in range(1, 13):
        assert compare_stirling2_matrix(m) is not None



def test_compare_stirling2_matches_the_fraction_candidates_to_64():
    for m in range(65):
        matrix = combination_matrix(m).matrix
        assert compare_stirling2_matrix(m) == oracles.first_stirling2_mismatch_fraction(matrix, stirling2), m


def test_the_stirling_and_lah_triangles_of_the_oracle_match_their_closed_forms():
    s2, lah = oracles.stirling2_rows(20), oracles.lah_rows(20)
    for n in range(21):
        for k in range(n + 1):
            explicit = sum((-1) ** (k - t) * math.comb(k, t) * t**n for t in range(k + 1)) // math.factorial(k)
            assert s2[n][k] == explicit, (n, k)
            closed = math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k) if k else int(n == 0)
            assert lah[n][k] == closed, (n, k)


def test_combination_matrix_is_the_stirling_lah_product_to_64():
    # the product shares no table with the library; the matrix at m is the
    # leading block of the matrix at 64, so this covers every m <= 64
    assert combination_matrix(64).matrix.rows() == oracles.combination_matrix_stirling_lah(64)


@pytest.mark.parametrize("n, k", [(1, 1), (9, 4), (40, 2), (65, 65)])
def test_a_fault_in_one_lah_number_breaks_the_stirling_lah_product(n, k):
    lah = oracles.lah_rows(65)
    lah[n][k] += 1
    assert combination_matrix(64).matrix.rows() != oracles.combination_matrix_stirling_lah(64, lah)


def test_compare_stirling2_moves_past_a_doctored_entry():
    try:
        combination_matrix.cache_clear()
        zetadiff._RIORDAN_TABLE.packed(4)
        zetadiff._RIORDAN_TABLE._entries[_packed_index(1, 0)] = Fraction(1, 2)
        assert compare_stirling2_matrix(0) is None
        for m in (1, 4):
            matrix = combination_matrix(m).matrix
            assert compare_stirling2_matrix(m) == (1, 1)
            assert oracles.first_stirling2_mismatch_fraction(matrix, stirling2) == (1, 1)
    finally:
        combination_matrix.cache_clear()
