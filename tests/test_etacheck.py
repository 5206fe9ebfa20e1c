from __future__ import annotations

from fractions import Fraction

import pytest

import _tables_m9 as tables
from zetacomb import etacheck
from zetacomb.etacheck import (
    RouteDisagreementError,
    eta_cross_check,
    eta_via_coeff_row,
    eta_via_stirling2,
    eta_via_zeta,
    to_json_rows,
)
from zetacomb.zetadiff import combination_matrix, zeta_diff


def test_eta_via_zeta_values():
    assert eta_via_zeta(0) == Fraction(1, 2)
    assert eta_via_zeta(2) == 0
    assert eta_via_zeta(3) == Fraction(-1, 8)


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
    triples = eta_cross_check(9)
    assert [t.m for t in triples] == list(range(10))
    for triple, expected in zip(triples, tables.eta_values()):
        assert triple.via_zeta == expected
        assert triple.via_coeff_rows == expected
        assert triple.via_stirling2 == expected
        assert triple.routes_agree


def test_cross_check_builds_one_matrix(monkeypatch):
    sizes = []

    def counting(m):
        sizes.append(m)
        return combination_matrix(m)

    monkeypatch.setattr(etacheck, "combination_matrix", counting)
    triples = eta_cross_check(12)
    assert sizes == [12]
    assert [t.via_coeff_rows for t in triples] == [eta_via_coeff_row(m) for m in range(13)]


def test_even_positive_m_vanishes_odd_does_not():
    for triple in eta_cross_check(20):
        if triple.m == 0:
            continue
        if triple.m % 2 == 0:
            assert triple.via_zeta == 0
        else:
            assert triple.via_zeta != 0


def test_disagreement_raises(monkeypatch):
    monkeypatch.setattr(etacheck, "eta_via_stirling2", lambda m: Fraction(99))
    with pytest.raises(RouteDisagreementError) as info:
        eta_cross_check(2)
    err = info.value
    assert err.m == 0
    assert err.values["via_stirling2"] == Fraction(99)
    assert "via_stirling2=99" in str(err)
    assert "m=0" in str(err)


def test_to_json_rows():
    rows = to_json_rows(eta_cross_check(3))
    assert rows == [
        {"m": 0, "eta": "1/2", "routes_agree": True},
        {"m": 1, "eta": "1/4", "routes_agree": True},
        {"m": 2, "eta": "0", "routes_agree": True},
        {"m": 3, "eta": "-1/8", "routes_agree": True},
    ]
