"""Regenerate reference.json, the values every benchmark request is checked against.

    python3 perfbench/make_reference.py

It does not import zetacomb. The combination matrix comes from the closed
form of the exponential Riordan array,

    a[i][j] = V(i+1, j+1) / ((j+1)! 2^(i+1)),
    V(n, k) = k (V(n-1, k-1) - V(n-1, k+1)),  V(0, k) = [k = 0],

where V is the integer triangle of the derivative polynomials of tanh.
The eta values come from their own Bernoulli recurrence and must equal the
weighted row sums sum_j a[m][j] j!; the run stops if they do not. The
matrices are prefix-stable, so one table up to MAX_M answers every m.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

MAX_M = 64
PATH = Path(__file__).with_name("reference.json")


def combination_rows(max_m: int) -> list[list[Fraction]]:
    n_top = max_m + 1
    v = [[0] * (n_top + 2) for _ in range(n_top + 1)]
    v[0][0] = 1
    for n in range(1, n_top + 1):
        for k in range(1, n + 1):
            v[n][k] = k * (v[n - 1][k - 1] - v[n - 1][k + 1])
    return [
        [Fraction(v[i + 1][j + 1], factorial(j + 1) * 2 ** (i + 1)) for j in range(i + 1)]
        for i in range(n_top)
    ]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        b.append(-sum(comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return b


def stirling2_rows(n_max: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([(prev[k - 1] if k else 0) + k * prev[k] for k in range(n + 1)])
    return rows


def first_stirling2_mismatch(rows: list[list[Fraction]], s2: list[list[int]], m: int):
    for i in range(m + 1):
        for j in range(i + 1):
            if rows[i][j] != Fraction((-1) ** j * s2[i + 1][j + 1], 2 ** (j + 1)):
                return [i, j]
    return None


def sign_violations(rows: list[list[Fraction]]) -> list[int]:
    """Cumulative count of sign-pattern violations in rows 0..m, per m."""
    out, total = [], 0
    for i, row in enumerate(rows):
        for j, value in enumerate(row[:i]):
            d = i - j
            expected = 0 if d % 2 else (-1 if d % 4 == 2 else 1)
            sign = (value > 0) - (value < 0)
            total += sign != expected
        out.append(total)
    return out


def build() -> dict:
    rows = combination_rows(MAX_M)
    bern = bernoulli_numbers(MAX_M + 1)
    eta = []
    for m in range(MAX_M + 1):
        # B_{m+1}(1) = B_{m+1} except B_1(1) = +1/2
        b_at_1 = -bern[1] if m == 0 else bern[m + 1]
        via_zeta = (1 - 2 ** (m + 1)) * (-b_at_1 / (m + 1))
        via_rows = sum(a * factorial(j) for j, a in enumerate(rows[m]))
        if via_zeta != via_rows:
            raise SystemExit(f"eta(-{m}) disagrees: {via_zeta} vs {via_rows}")
        eta.append(via_zeta)
    s2 = stirling2_rows(MAX_M + 1)
    return {
        "max_m": MAX_M,
        "matrix": [[str(a) for a in row] for row in rows],
        "eta": [str(e) for e in eta],
        "sign_violations": sign_violations(rows),
        "stirling2_first_mismatch": [
            first_stirling2_mismatch(rows, s2, m) for m in range(MAX_M + 1)
        ],
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(build(), separators=(",", ":")) + "\n")
    print(f"wrote {PATH}")
