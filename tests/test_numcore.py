from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import non_dyadic
from zetacomb.numcore import Basis, Poly, _newton_to_powers, _over_lcm

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def test_eval_monomial():
    assert Poly((1, 2)).eval(3) == 7


def test_eval_shifted():
    assert Poly((1, 2), Basis.SHIFTED).eval(0) == 3


def test_eval_degree_one_hyper_row():
    # 1 + 2x is the x-expansion of 1! * 2F1(-1, -x; 1; 2)
    assert Poly((1, 2)).eval(Fraction(1, 2)) == 2


def test_zero_poly():
    p = Poly((0, 0, 0))
    assert p.coeffs == () and p.degree == -1
    assert p.eval(Fraction(22, 7)) == 0


def test_trailing_zeros_trimmed():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((1, 2, 0, 0)).degree == 1


@pytest.mark.parametrize("coeffs", [(0.1,), (Fraction(1, 3), 0.1)], ids=["alone", "beside a Fraction"])
def test_a_float_coefficient_is_a_type_error(coeffs):
    with pytest.raises(TypeError, match="^a coefficient must be exact, not float: 0.1$"):
        Poly(coeffs)


def test_rebase_x():
    p = Poly((0, 1)).rebase(Basis.SHIFTED)
    assert p == Poly((-1, 1), Basis.SHIFTED)


def test_rebase_constant():
    assert Poly((Fraction(5, 3),)).rebase(Basis.SHIFTED).coeffs == (Fraction(5, 3),)
    assert Poly((4,), Basis.SHIFTED).rebase(Basis.MONOMIAL).coeffs == (Fraction(4),)


def test_rebase_same_basis_is_identity():
    p = Poly((1, 2, 3))
    assert p.rebase(Basis.MONOMIAL) is p


poly_coeffs = st.lists(rationals, min_size=0, max_size=13)


@given(poly_coeffs)
def test_rebase_round_trip(coeffs):
    p = Poly(tuple(coeffs))
    assert p.rebase(Basis.SHIFTED).rebase(Basis.MONOMIAL) == p


@given(poly_coeffs)
def test_rebase_preserves_evaluation(coeffs):
    p = Poly(tuple(coeffs))
    q = p.rebase(Basis.SHIFTED)
    # 13 distinct points suffice for degree <= 12
    for t in range(-6, 7):
        x = Fraction(t, 3)
        assert p.eval(x) == q.eval(x)


@settings(max_examples=80)
@given(poly_coeffs, st.one_of(non_dyadic, st.integers(-50, 50)), st.sampled_from(Basis))
@example([], Fraction(-2, 3), Basis.SHIFTED)
@example([Fraction(5, 7)], Fraction(-1), Basis.SHIFTED)
def test_eval_matches_fraction_horner_oracle(coeffs, x, basis):
    t = x + 1 if basis is Basis.SHIFTED else x
    assert Poly(tuple(coeffs), basis).eval(x) == oracles.poly_eval_fraction(coeffs, t)


@settings(max_examples=80)
@given(st.lists(st.one_of(non_dyadic, st.integers(-50, 50)), max_size=13), st.sampled_from(Basis))
@example([], Basis.SHIFTED)
def test_rebase_matches_taylor_shift_oracle(coeffs, basis):
    # powers of x -> powers of x+1 is a shift by -1, and back by +1
    target, shift = (Basis.SHIFTED, -1) if basis is Basis.MONOMIAL else (Basis.MONOMIAL, 1)
    expected = Poly(oracles.taylor_shift(coeffs, shift), target)
    assert Poly(tuple(coeffs), basis).rebase(target) == expected


@settings(max_examples=80)
@given(st.lists(st.lists(st.integers(-(10**12), 10**12), max_size=13), max_size=3))
@example([])
@example([[], [7], [0, 0, 5]])
def test_newton_to_powers_matches_the_fraction_oracles(rows):
    # falling factorials at nodes 0, 1, 2, ...; powers of x+1 at nodes -1
    size = max(map(len, rows), default=0)
    falling, shifted = [list(row) for row in rows], [list(row) for row in rows]
    _newton_to_powers(falling, range(size))
    _newton_to_powers(shifted, [-1] * size)
    for row, by_falling, by_shift in zip(rows, falling, shifted):
        expected = [0] * len(row)
        for k, c in enumerate(row):
            for j, f in enumerate(oracles.falling_factorial_coeffs(k)):
                expected[j] += c * f
        assert by_falling == expected
        assert tuple(by_shift) == oracles.taylor_shift(row, 1)


@given(st.lists(st.one_of(rationals, non_dyadic, st.just(Fraction(0))), max_size=20))
@example([])
@example([Fraction(0), Fraction(-3, 4), Fraction(5, 6), Fraction(-7)])
def test_over_lcm_puts_values_over_the_lcm_of_their_denominators(values):
    nums, scale = _over_lcm(values)
    if not values:
        assert (nums, scale) == ([], 1)
    assert scale == reduce(lambda a, b: a * b // gcd(a, b), (v.denominator for v in values), 1)
    assert all(type(c) is int for c in nums)
    assert [Fraction(c, scale) for c in nums] == values


class _Tagged(Fraction):
    """A ``Fraction`` subclass: it inherits the slots that ``_over_lcm`` reads."""


def _over_lcm_by_properties(values):
    # _over_lcm as it was, through the public numerator and denominator
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


@given(st.lists(st.one_of(rationals, non_dyadic, st.integers(-50, 50).map(Fraction), rationals.map(_Tagged))))
@example([])
@example([Fraction(-55), _Tagged(-3, 4), Fraction(5, 6), Fraction(0)])
def test_over_lcm_reads_the_slots_as_the_properties_would(values):
    assert _over_lcm(values) == _over_lcm_by_properties(values)
