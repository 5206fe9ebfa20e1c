"""Dirichlet eta at nonpositive integers, by three independent routes.

eta(-m) is reached (1) through eta(z) = (1 - 2^{1-z}) zeta(z) with the
Bernoulli closed form of zeta at negative integers, (2) as the weighted
row sum sum_j a_{m,j} j! of the combination matrix (F(m, 0) = eta(-m) and
G(j, 0) = j!), and (3) as an alternating Stirling-second-kind sum. The
three must agree exactly; any mismatch is an implementation bug and is
raised, never returned.
"""
from __future__ import annotations

from fractions import Fraction

from . import _EXPORTS
from .combinat import _require_nonnegative, _stirling_row, bernoulli_number
from .zetadiff import _weighted_row_sum, combination_matrix

__all__ = _EXPORTS["etacheck"]


class RouteDisagreementError(ArithmeticError):
    """Two eta routes returned different values for the same m."""

    def __init__(self, m: int, values: dict[str, Fraction]):
        self.m = m
        self.values = values
        detail = ", ".join(f"{name}={value}" for name, value in sorted(values.items()))
        super().__init__(f"eta routes disagree at m={m}: {detail}")


def eta_via_zeta(m: int) -> Fraction:
    """eta(-m) = (1 - 2^{m+1}) zeta(-m), zeta(-m) = -B_{m+1}(1)/(m+1).

    B_n(1) = (-1)^n B_n for every n when B_1 = -1/2, so the Bernoulli
    polynomial at 1 is read off the Bernoulli number, and m = 0 takes the
    same formula (eta(0) = 1/2 falls out, no special case).
    """
    m = _require_nonnegative(m, "m")
    return (-1) ** (m + 1) * bernoulli_number(m + 1) * Fraction(2 ** (m + 1) - 1, m + 1)


def eta_via_coeff_row(m: int) -> Fraction:
    """Weighted row sum: eta(-m) = sum_j a_{m,j} j!.

    Sums row m of ``combination_matrix(m)``. The sum is kept on that
    report, a ``functools.cached_property``, so a repeat call returns the
    same object until ``combination_matrix.cache_clear``.
    """
    return combination_matrix(m)._eta


def eta_via_stirling2(m: int) -> Fraction:
    """eta(-m) = sum_{j=0}^{m} (-1)^j / 2^{j+1} * S(m+1, j+1) * j!, over one Stirling-2 row.

    Summed by Horner from j = m down, multiplying only by j + 1.
    """
    m = _require_nonnegative(m, "m")
    row, acc = _stirling_row("second", m + 1), 0
    for j in range(m, -1, -1):
        acc = (row[j + 1] << (m - j)) - (j + 1) * acc
    return Fraction(acc, 1 << (m + 1))


def eta_cross_check(max_m: int) -> list[Fraction]:
    """[eta(0), eta(-1), ..., eta(-max_m)]; raises on any route disagreement.

    The coefficient-row route reads row m of the one matrix of size
    max_m: row m of the combination matrix does not depend on its size.
    """
    max_m = _require_nonnegative(max_m, "max_m")
    matrix = combination_matrix(max_m).matrix
    etas = []
    for m in range(max_m + 1):
        values = {
            "via_zeta": eta_via_zeta(m),
            "via_coeff_rows": _weighted_row_sum(matrix.row(m)),
            "via_stirling2": eta_via_stirling2(m),
        }
        if len(set(values.values())) != 1:
            raise RouteDisagreementError(m, values)
        etas.append(values["via_zeta"])
    return etas
