"""Number-theoretic sequences: binomials, Bernoulli, Stirling, tanh powers,
factorial powers.

Conventions used throughout:

* Bernoulli numbers follow B_1 = -1/2, i.e. B_n = B_n(0) for the
  polynomials generated by z*e^{tz}/(e^z - 1).
* Stirling numbers of the first kind are the *signed* ones: the
  coefficients of the falling factorial, <z>_n = sum_k s(n,k) z^k.
* All tables are built by recurrence; the Bernoulli and Stirling ones
  are memoized, the tanh-power triangle is built per call. An
  independent slow oracle for each (series division, polynomial
  expansion, partition enumeration) lives in the test suite, never here.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

__all__ = [
    "binomial",
    "bernoulli_number",
    "bernoulli_poly",
    "stirling1",
    "stirling2",
    "tanh_power_triangle",
    "falling_factorial",
    "rising_factorial",
]


def binomial(n: int, k: int) -> int:
    """C(n, k), with 0 outside 0 <= k <= n. Requires n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from the recurrence sum_{k=0}^{n} C(n+1,k) B_k = 0.

    >>> bernoulli_number(12)
    Fraction(-691, 2730)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


def bernoulli_poly(n: int, z) -> Fraction:
    """B_n(z) = sum_k C(n,k) B_k z^{n-k}, evaluated exactly at rational z.

    Runs on integers: with z = p/q and d the lcm of the denominators of
    B_0..B_n, the terms c_k = d C(n,k) B_k are integers and

        d q^n B_n(z) = sum_k c_k p^{n-k} q^k,

    which a homogeneous Horner pass over k sums with two integer products
    per step. One ``Fraction`` is built at the end.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    zq = Fraction(z)
    p, q = zq.numerator, zq.denominator
    bern = [bernoulli_number(k) for k in range(n + 1)]
    scale = lcm(*(b.denominator for b in bern))
    acc = 0
    q_power = 1
    for k, b in enumerate(bern):
        acc = acc * p + comb(n, k) * b.numerator * (scale // b.denominator) * q_power
        q_power *= q
    return Fraction(acc, scale * q**n)


# kind -> {n: row n}, seeded with row 0; rows are added as they are asked for
_STIRLING_ROWS: dict[str, dict[int, tuple[int, ...]]] = {"first": {0: (1,)}, "second": {0: (1,)}}


def _stirling_row(kind: str, n: int) -> tuple[int, ...]:
    # kind "first": s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)
    # kind "second": S(n,k) = S(n-1,k-1) + k S(n-1,k)
    # Iterates up from the highest stored row below n and stores only row n,
    # so a single large n needs neither deep recursion nor every lower row.
    rows = _STIRLING_ROWS[kind]
    if n in rows:
        return rows[n]
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
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling_row("first", n)[k]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 outside 0 <= k <= n.

    >>> stirling2(4, 2)
    7
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling_row("second", n)[k]


def tanh_power_triangle(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of the integers V(n, k) = n! [s^n] tanh(s)^k, 0 <= k <= n.

    Since d/ds tanh^k = k (tanh^{k-1} - tanh^{k+1}), the rows obey

        V(n, k) = k (V(n-1, k-1) - V(n-1, k+1)),   V(0, k) = [k = 0]

    (Hoffman, Amer. Math. Monthly 1995). V(n, k) is 0 when n - k is odd.
    Built per call; nothing is kept.

    >>> tanh_power_triangle(3)[3]
    [0, -2, 0, 6]
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0, 0]
        rows.append([0, *(k * (prev[k - 1] - prev[k + 1]) for k in range(1, n + 1))])
    return rows


def falling_factorial(z, n: int) -> Fraction:
    """<z>_n = z (z-1) ... (z-n+1); empty product 1 when n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    zq = Fraction(z)
    acc = Fraction(1)
    for k in range(n):
        acc *= zq - k
    return acc


def rising_factorial(z, n: int) -> Fraction:
    """(z)_n = z (z+1) ... (z+n-1); equals (-1)^n <-z>_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    zq = Fraction(z)
    acc = Fraction(1)
    for k in range(n):
        acc *= zq + k
    return acc
