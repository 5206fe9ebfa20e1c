from __future__ import annotations

import math
import random
import sys
import threading
from fractions import Fraction

import pytest

import _tables_m9 as tables
import oracles
from zetacomb import etacheck
from zetacomb.etacheck import (
    RouteDisagreementError,
    eta_cross_check,
    eta_via_coeff_row,
    eta_via_stirling2,
    eta_via_zeta,
)
from zetacomb.zetadiff import (
    combination_matrix,
    compare_stirling2_matrix,
    scan_sign_pattern,
    zeta_diff,
)


def test_eta_via_zeta_values():
    assert eta_via_zeta(0) == Fraction(1, 2)
    assert eta_via_zeta(2) == 0
    assert eta_via_zeta(3) == Fraction(-1, 8)


def test_eta_via_zeta_is_the_bernoulli_form_of_zeta_at_one():
    # eta(-m) = (1 - 2^{m+1}) zeta(-m) with zeta(-m) = -B_{m+1}(1)/(m+1), and
    # B_n(1) = sum_k C(n, k) B_k, each B_k from the series oracle
    bern = oracles.bernoulli_series(31)
    for m in range(31):
        b_at_one = sum(math.comb(m + 1, k) * bern[k] for k in range(m + 2))
        assert eta_via_zeta(m) == (1 - 2 ** (m + 1)) * -b_at_one / (m + 1)


def test_eta_via_coeff_row_values():
    assert eta_via_coeff_row(1) == Fraction(1, 4)
    assert eta_via_coeff_row(4) == 0
    assert eta_via_coeff_row(5) == Fraction(1, 4)


def test_eta_via_stirling2_values():
    assert eta_via_stirling2(0) == Fraction(1, 2)
    assert eta_via_stirling2(1) == Fraction(1, 4)
    assert eta_via_stirling2(6) == 0


def test_coeff_row_route_is_function_at_zero():
    for m in range(16):
        assert eta_via_coeff_row(m) == zeta_diff(m, 0)


def test_cross_check_matches_fixture():
    # it returns only values on which all three routes agreed
    assert eta_cross_check(9) == tables.eta_values()


def test_cross_check_builds_one_matrix(monkeypatch):
    sizes = []

    def counting(m):
        sizes.append(m)
        return combination_matrix(m)

    monkeypatch.setattr(etacheck, "combination_matrix", counting)
    etas = eta_cross_check(12)
    assert sizes == [12]
    assert etas == [eta_via_coeff_row(m) for m in range(13)]


def test_even_positive_m_vanishes_odd_does_not():
    for m, eta in enumerate(eta_cross_check(20)):
        if m == 0:
            continue
        if m % 2 == 0:
            assert eta == 0
        else:
            assert eta != 0


def test_disagreement_raises(monkeypatch):
    monkeypatch.setattr(etacheck, "eta_via_stirling2", lambda m: Fraction(99))
    with pytest.raises(RouteDisagreementError) as info:
        eta_cross_check(2)
    err = info.value
    assert err.m == 0
    assert err.values.keys() == {"via_zeta", "via_coeff_rows", "via_stirling2"}
    assert err.values["via_stirling2"] == Fraction(99)
    assert "via_stirling2=99" in str(err)
    assert "m=0" in str(err)


def test_eta_via_coeff_row_repeat_returns_the_kept_value():
    combination_matrix.cache_clear()
    report = combination_matrix(11)
    assert vars(report).keys() == {"m", "matrix"}  # no answer kept yet
    first = eta_via_coeff_row(11)
    assert eta_via_coeff_row(11) is first
    # the sum is kept as the report's one cached property, beside its fields
    assert vars(report).keys() == {"m", "matrix", "_eta"} and vars(report)["_eta"] is first
    combination_matrix.cache_clear()
    assert eta_via_coeff_row(11) == first


@pytest.mark.parametrize("m", [0, 1, 2, 7, 30, 64, 200])
def test_eta_via_stirling2_matches_the_fraction_sum(m):
    # the route's own formula, summed term by term over the oracle's Stirling-2 row
    s2 = oracles.stirling2_rows(m + 1)[m + 1]
    terms = (Fraction((-1) ** j * s2[j + 1] * math.factorial(j), 2 ** (j + 1)) for j in range(m + 1))
    assert eta_via_stirling2(m) == sum(terms, Fraction(0))


@pytest.mark.parametrize("m", [0, 1, 2, 7, 30, 64, 200])
def test_weighted_row_sum_matches_the_fraction_sum(m):
    row = combination_matrix(m).matrix.row(m)
    plain = sum((a * math.factorial(j) for j, a in enumerate(row)), Fraction(0))
    assert etacheck._weighted_row_sum(row) == plain
    doctored = tuple(a or Fraction(1, 3) for a in row)  # no zero left
    plain = sum((a * math.factorial(j) for j, a in enumerate(doctored)), Fraction(0))
    assert etacheck._weighted_row_sum(doctored) == plain


def test_threads_interleaving_the_session_calls_agree():
    # eight threads call the four session functions at every m in 0..40 in their
    # own shuffled order; every thread must see the single-threaded answers
    calls = (combination_matrix, eta_via_coeff_row, scan_sign_pattern, compare_stirling2_matrix)
    ms = range(41)
    combination_matrix.cache_clear()
    expected = {(k, m): call(m) for m in ms for k, call in enumerate(calls)}
    combination_matrix.cache_clear()
    seen = [{} for _ in range(8)]

    def session(index):
        work = [(k, m) for m in ms for k in range(len(calls))] * 2
        random.Random(index).shuffle(work)
        for k, m in work:
            seen[index].setdefault((k, m), []).append(calls[k](m))

    threads = [threading.Thread(target=session, args=(index,)) for index in range(8)]
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
    for results in seen:
        assert results.keys() == expected.keys()
        for key, values in results.items():
            assert values == [expected[key]] * 2, key
