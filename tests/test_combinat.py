from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import non_dyadic
from zetacomb import combinat
from zetacomb.combinat import (
    _TangentTable,
    bernoulli_number,
    bernoulli_poly,
    stirling1,
    stirling2,
)


def _race(work):
    """Run work(index) in four threads at a tiny switch interval; re-raise their errors."""
    errors = []

    def run(index):
        try:
            work(index)
        except Exception as exc:  # a thread's error would otherwise only be printed
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(index,)) for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    if errors:
        raise errors[0]


def test_bernoulli_small():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_matches_series_oracle():
    assert [bernoulli_number(n) for n in range(15)] == oracles.bernoulli_series(14)


def test_tangent_table_matches_series_oracle_across_extensions():
    # a fresh table grown to n = 10, extended to 200, then asked below its end
    table = _TangentTable()
    expected = oracles.bernoulli_series(150)
    assert [table.number(n) for n in range(11)] == expected[:11]
    # von Staudt-Clausen: the primes p with (p - 1) | 200; the sign of B_2k is (-1)^(k+1)
    b_200 = table.number(200)
    assert b_200 < 0 and b_200.denominator == 2 * 3 * 5 * 11 * 41 * 101
    assert table.number(50) == expected[50]
    assert [table.number(n) for n in range(151)] == expected


def test_tangent_table_grows_consistently_under_threads():
    # each thread grows a fresh table to n = 400 and reads rows on the way; two
    # unguarded growers would both append the same (B_2j, 0) pair
    single = _TangentTable()
    single.number(400)
    table = _TangentTable()

    def grow(index):
        for n in range(index, 401, 40):
            table.row(n)
        table.number(400)

    _race(grow)
    assert table._numbers == single._numbers
    assert table._rows == {n: single.row(n) for n in table._rows}


def test_bernoulli_odd_vanishing():
    for n in range(3, 20, 2):
        assert bernoulli_number(n) == 0


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    for n in range(1, 21):
        total = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
        assert total == 0


def test_bernoulli_negative():
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_bernoulli_poly_values():
    assert bernoulli_poly(1, 0) == Fraction(-1, 2)
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_poly(0, Fraction(9, 7)) == 1


def test_bernoulli_poly_at_one():
    for n in range(13):
        assert bernoulli_poly(n, 1) == (-1) ** n * bernoulli_number(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.one_of(non_dyadic, st.integers(-20, 20)))
@example(0, Fraction(-7, 3))
def test_bernoulli_poly_matches_power_sum_oracle(n, z):
    assert bernoulli_poly(n, z) == oracles.bernoulli_poly_power_sum(n, z)


def test_bernoulli_poly_reflection():
    z = Fraction(3, 5)
    for n in range(13):
        assert bernoulli_poly(n, 1 - z) == (-1) ** n * bernoulli_poly(n, z)


def test_stirling1_values():
    assert stirling1(0, 0) == 1
    assert stirling1(3, 1) == 2
    assert stirling1(3, 2) == -3
    assert stirling1(4, 2) == 11
    assert stirling1(3, 0) == 0
    assert stirling1(2, 5) == 0


def test_stirling1_negative():
    with pytest.raises(ValueError):
        stirling1(-2, 0)


def test_stirling1_are_falling_factorial_coeffs():
    for n in range(16):
        assert [stirling1(n, k) for k in range(n + 1)] == oracles.falling_factorial_coeffs(n)


def test_stirling1_expansion_evaluates():
    # (z)_n = sum_k s(n, k) z^k at off-grid points
    points = [Fraction(t, 5) for t in range(-8, 8)]
    for n in range(9):
        for z in points:
            expanded = sum(stirling1(n, k) * z**k for k in range(n + 1))
            assert expanded == oracles.falling_factorial(z, n)


def test_stirling1_shift_identity():
    # s(k+1, j+1) = s(k, j) - k * s(k, j+1)
    for k in range(16):
        for j in range(k + 1):
            assert stirling1(k + 1, j + 1) == stirling1(k, j) - k * stirling1(k, j + 1)


def test_stirling2_values():
    assert stirling2(4, 2) == 7
    assert stirling2(2, 1) == 1
    assert stirling2(2, 2) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0


def test_stirling2_counts_partitions():
    for n in range(10):
        for k in range(n + 1):
            assert stirling2(n, k) == oracles.count_partitions(n, k)


def test_stirling_rows_grow_safely_under_threads(monkeypatch):
    # four threads ask for interleaved rows of a fresh table; an unguarded scan
    # for the highest stored row would meet a dict another thread is growing
    monkeypatch.setattr(combinat, "_STIRLING_ROWS", {"first": {0: (1,)}, "second": {0: (1,)}})
    seen = []

    def ask(index):
        seen.extend(stirling2(n, 1) for n in range(index + 1, 601, 4))

    _race(ask)
    assert seen == [1] * 600
    rows = combinat._STIRLING_ROWS["second"]
    assert [rows[n][2] for n in (2, 300, 600)] == [2**(n - 1) - 1 for n in (2, 300, 600)]


def test_stirling1_large_n():
    # s(n, 1) = (-1)^(n-1) (n-1)!; n is beyond the default recursion limit
    assert stirling1(1500, 1) == -factorial(1499)
    assert stirling1(1500, 1500) == 1


def test_stirling_orthogonality():
    # sum_k s(n, k) S(k, m) = [n == m]
    for n in range(11):
        for m in range(11):
            total = sum(stirling1(n, k) * stirling2(k, m) for k in range(n + 1))
            assert total == (1 if n == m else 0)


def test_falling_factorial():
    assert oracles.falling_factorial(5, 3) == 60
    assert oracles.falling_factorial(Fraction(17, 3), 0) == 1
    assert oracles.falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert oracles.falling_factorial(3, 5) == 0


def test_rising_factorial():
    assert oracles.rising_factorial(2, 3) == 24
    assert oracles.rising_factorial(-3, 4) == 0
    assert oracles.rising_factorial(Fraction(-1, 2), 2) == Fraction(-1, 4)


@given(st.fractions(min_value=-100, max_value=100, max_denominator=20), st.integers(0, 12))
def test_rising_is_reflected_falling(z, n):
    assert oracles.rising_factorial(z, n) == (-1) ** n * oracles.falling_factorial(-z, n)


def test_tanh_power_triangle_small_rows():
    # tanh s = s - s^3/3 + 2 s^5/15 - ...
    expected = [
        [1],
        [0, 1],
        [0, 0, 2],
        [0, -2, 0, 6],
        [0, 0, -16, 0, 24],
        [0, 16, 0, -120, 0, 120],
    ]
    assert oracles.tanh_power_series(5) == expected
