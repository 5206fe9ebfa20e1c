"""Number-theoretic sequences: Bernoulli and Stirling numbers.

Conventions used throughout:

* Bernoulli numbers follow B_1 = -1/2, i.e. B_n = B_n(0) for the
  polynomials generated by z*e^{tz}/(e^z - 1).
* Stirling numbers of the first kind are the *signed* ones: the
  coefficients of the falling factorial, <z>_n = sum_k s(n,k) z^k.
* n and k are read through ``operator.index``; a negative n is a ``ValueError``.
* A point z is read exactly by ``Fraction``; a ``float`` is a ``TypeError`` (``numcore._require_exact``).
* All tables are built by integer recurrence; the Bernoulli and Stirling ones grow as
  they are asked for, under a lock, so threads may share them. Only ``_bernoulli_at``
  reads a Bernoulli row. An independent slow oracle for each (series division,
  polynomial expansion, partition enumeration) lives in the test suite, never here.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import index
from threading import Lock

from . import _EXPORTS
from .numcore import _over_lcm, _require_exact

__all__ = _EXPORTS["combinat"]


def _require_nonnegative(value: int, name: str) -> int:
    """The paper's domain: every size m, max_m or n is in N_0. Returns the size
    as an ``int``, through ``operator.index`` if it is not one (``True`` is 1,
    ``2.0`` a ``TypeError``); a negative size is a ``ValueError``."""
    if type(value) is not int:
        value = index(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    return value


def _entry(n: int, k: int) -> tuple[int, int]:
    """A triangle's (n, k): n checked as a size, k read through ``operator.index``."""
    return _require_nonnegative(n, "n"), k if type(k) is int else index(k)


class _TangentTable:
    """Bernoulli numbers from the tangent numbers, grown as they are asked for.

    T_j = a(j, j) = 1, 2, 16, 272, ... in Brent & Harvey's integer triangle
    ("Fast computation of Bernoulli, tangent and secant numbers", 2011):
    a(1, j) = (j-1)! and a(k, j) = (j-k) a(k, j-1) + (j-k+2) a(k-1, j).
    Only the last column is kept. B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j-1)),
    and B_2j+1 = 0. Per n asked for, ``row`` keeps c_k = d C(n,k) B_k and
    the scale d, the lcm of the denominators of B_0..B_n.
    """

    def __init__(self) -> None:
        # two threads growing at once would each append the same numbers; a
        # row built twice is the same row, and reads of built values need no lock
        self._lock = Lock()
        self._column: list[int] = []
        self._numbers = [Fraction(1), Fraction(-1, 2)]
        self._rows: dict[int, tuple[tuple[int, ...], int]] = {}

    def number(self, n: int) -> Fraction:
        if n >= len(self._numbers):
            with self._lock:
                while len(self._numbers) <= n:
                    # a(j, j-1) is not stored; its factor is 0
                    j = len(self._column) + 1
                    column = [factorial(j - 1)]
                    for k, left in zip(range(2, j + 1), [*self._column[1:], 0]):
                        column.append((j - k) * left + (j - k + 2) * column[-1])
                    self._column = column
                    b_2j = Fraction((-1) ** (j - 1) * 2 * j * column[-1], (4**j - 1) << (2 * j))
                    self._numbers += [b_2j, Fraction(0)]
        return self._numbers[n]

    def row(self, n: int) -> tuple[tuple[int, ...], int]:
        if n not in self._rows:
            self.number(n)
            nums, scale = _over_lcm(self._numbers[: n + 1])
            self._rows[n] = (tuple(comb(n, k) * c for k, c in enumerate(nums)), scale)
        return self._rows[n]


_TANGENT_TABLE = _TangentTable()


def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2, read off the tangent numbers (``_TangentTable``).

    >>> bernoulli_number(12)
    Fraction(-691, 2730)
    """
    n = _require_nonnegative(n, "n")
    return _TANGENT_TABLE.number(n)


def _bernoulli_at(n: int, p: int, q: int) -> tuple[int, int]:
    """(a, D) with B_n(p/q) = a / D and D = d q^n for q > 0, on integers:
    with the table's row c_k = d C(n,k) B_k,

        d q^n B_n(p/q) = sum_k c_k p^{n-k} q^k,

    which a homogeneous Horner pass over k sums with two integer products
    per step. ``bernoulli_poly`` and ``zetadiff.zeta_diff`` both run it."""
    row, scale = _TANGENT_TABLE.row(n)
    acc, q_power = 0, 1
    for c in row:
        acc = acc * p + c * q_power
        q_power *= q
    return acc, scale * q**n


def bernoulli_poly(n: int, z) -> Fraction:
    """B_n(z) = sum_k C(n,k) B_k z^{n-k}, evaluated exactly at rational z,
    by one integer pass (``_bernoulli_at``) and one ``Fraction`` at the end."""
    n = _require_nonnegative(n, "n")
    zq = _require_exact(z, "a point")
    return Fraction(*_bernoulli_at(n, zq.numerator, zq.denominator))


# kind -> {n: row n}, seeded with row 0; rows are added as they are asked for,
# under the lock, so that no thread scans a dict that another is growing
_STIRLING_ROWS: dict[str, dict[int, tuple[int, ...]]] = {"first": {0: (1,)}, "second": {0: (1,)}}
_STIRLING_LOCK = Lock()


def _stirling_row(kind: str, n: int) -> tuple[int, ...]:
    # kind "first": s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)
    # kind "second": S(n,k) = S(n-1,k-1) + k S(n-1,k)
    # Iterates up from the highest stored row below n and stores only row n,
    # so a single large n needs neither deep recursion nor every lower row.
    rows = _STIRLING_ROWS[kind]
    if n in rows:
        return rows[n]
    with _STIRLING_LOCK:
        start = max(r for r in rows if r < n)
        row = rows[start]
        for r in range(start + 1, n + 1):
            prev = row + (0,)
            if kind == "first":
                row = (0,) + tuple(prev[k - 1] - (r - 1) * prev[k] for k in range(1, r + 1))
            else:
                row = (0,) + tuple(prev[k - 1] + k * prev[k] for k in range(1, r + 1))
        rows[n] = row
    return row


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind; 0 outside 0 <= k <= n.

    >>> stirling1(3, 2)
    -3
    """
    n, k = _entry(n, k)
    return _stirling_row("first", n)[k] if 0 <= k <= n else 0


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 outside 0 <= k <= n.

    >>> stirling2(4, 2)
    7
    """
    n, k = _entry(n, k)
    return _stirling_row("second", n)[k] if 0 <= k <= n else 0

