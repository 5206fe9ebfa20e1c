"""Slow, independent oracles used only by the test suite.

Each one reaches its value by a route genuinely different from the
library implementation: series division instead of the binomial
recurrence, polynomial expansion instead of the Stirling recurrence,
explicit partition enumeration instead of the triangle, the paper's
Stirling double sum for the G table instead of its three-term recurrence,
tanh as the quotient of the sinh and cosh series instead of the derivative
recurrence of its powers, the combination matrix as a Stirling-Lah product
instead of the U table. The
``Fraction`` evaluators at the end (rising factorials for G, powers for
B_n(z), Horner for a polynomial, the power-by-power Neumann sum for an
inverse, the Taylor shift for a change of basis and the candidate-by-
candidate Stirling comparison) are the plain forms the integer kernels
replaced. The sign scan's oracle, ``sign_violations``, reads the sign
theorem off i - j directly instead of the library's table of signs by
(i - j) mod 4. The midpoint tables read F and G in powers of u = x + 1/2,
a basis the library never builds: F from the Euler numbers, G from its
three-term recurrence with no mixing term.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def bernoulli_series(n: int) -> list[Fraction]:
    """B_0..B_n as k! times the degree-k coefficients of z/(e^z - 1).

    The series is the reciprocal of (e^z - 1)/z = sum z^k/(k+1)!, computed
    by exact power-series division.
    """
    a = [Fraction(1, factorial(k + 1)) for k in range(n + 1)]
    t = [Fraction(0)] * (n + 1)
    t[0] = Fraction(1)
    for k in range(1, n + 1):
        t[k] = -sum(a[i] * t[k - i] for i in range(1, k + 1))
    return [factorial(k) * t[k] for k in range(n + 1)]


def tanh_power_series(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of n! [s^n] tanh(s)^k for 0 <= k <= n.

    tanh is the exact power-series quotient sinh/cosh to degree n_max, and
    tanh^k is the product of k copies of it, truncated at degree n_max.
    """
    sinh = [Fraction(n % 2, factorial(n)) for n in range(n_max + 1)]
    cosh = [Fraction(1 - n % 2, factorial(n)) for n in range(n_max + 1)]
    tanh: list[Fraction] = []
    for n in range(n_max + 1):
        # cosh[0] = 1, so sinh = cosh * tanh gives each coefficient in turn
        tanh.append(sinh[n] - sum(cosh[i] * tanh[n - i] for i in range(1, n + 1)))
    power = [Fraction(1)] + [Fraction(0)] * n_max
    columns = []
    for _ in range(n_max + 1):
        columns.append(power)
        power = [sum(power[i] * tanh[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
    rows = []
    for n in range(n_max + 1):
        values = [factorial(n) * columns[k][n] for k in range(n + 1)]
        assert all(v.denominator == 1 for v in values)
        rows.append([v.numerator for v in values])
    return rows


def falling_factorial_coeffs(n: int) -> list[int]:
    """Coefficients of z(z-1)...(z-n+1) by direct polynomial multiplication.

    Index = power of z; the signed first-kind Stirling numbers are exactly
    these coefficients.
    """
    coeffs = [1]
    for k in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] += -k * c
        coeffs = nxt
    return coeffs


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


def count_partitions(n: int, k: int) -> int:
    """Number of partitions of an n-set into k blocks, by enumerating
    restricted-growth strings (one per partition). Exponential; keep n small.
    """
    if n == 0:
        return 1 if k == 0 else 0
    total = 0
    stack = [(1, 0)]  # (next element, max block index used so far)
    while stack:
        i, mx = stack.pop()
        if i == n:
            if mx + 1 == k:
                total += 1
            continue
        for b in range(mx + 2):
            stack.append((i + 1, max(mx, b)))
    return total


def mat_mul_fraction(a, b):
    """Lower-triangular product with one Fraction operation per term.

    Works on anything with ``dim`` and ``get(i, j)``; returns packed rows.
    """
    return [
        tuple(
            sum((a.get(i, k) * b.get(k, j) for k in range(j, i + 1)), Fraction(0))
            for j in range(i + 1)
        )
        for i in range(a.dim)
    ]


def invert_substitution_fraction(m):
    """Inverse of a lower-triangular matrix by Fraction forward substitution,
    solving M X = I column by column; returns packed rows.
    """
    n = m.dim
    out = [[Fraction(0)] * (i + 1) for i in range(n)]
    for j in range(n):
        out[j][j] = 1 / m.get(j, j)
        for i in range(j + 1, n):
            acc = sum((m.get(i, k) * out[k][j] for k in range(j, i)), Fraction(0))
            out[i][j] = -acc / m.get(i, i)
    return [tuple(row) for row in out]


def zeta_diff_coeffs_monomial_sums(m: int) -> list[tuple[Fraction, ...]]:
    """Rows of F(i, x) in powers of x, by the Bernoulli double sum

        (2^i/(i+1)) sum_{k=j}^{i} C(i+1,k+1) C(k+1,j) (2^{k-j+1}-1)/2^{k+1} B_{i-k}.
    """
    bern = bernoulli_series(m)
    return [
        tuple(
            Fraction(2**i, i + 1)
            * sum(
                (
                    comb(i + 1, k + 1)
                    * comb(k + 1, j)
                    * Fraction(2 ** (k - j + 1) - 1, 2 ** (k + 1))
                    * bern[i - k]
                    for k in range(j, i + 1)
                ),
                Fraction(0),
            )
            for j in range(i + 1)
        )
        for i in range(m + 1)
    ]


def zeta_diff_coeffs_shifted_sums(m: int) -> list[tuple[Fraction, ...]]:
    """Rows of F(i, x) in powers of x+1, by the Bernoulli sum

        sum_{k=0}^{i-j} C(i,k) 2^{k-1} B_k/(i-k+1) C(i-k+1,j).
    """
    bern = bernoulli_series(m)
    return [
        tuple(
            sum(
                (
                    comb(i, k)
                    * Fraction(2) ** (k - 1)
                    * bern[k]
                    / (i - k + 1)
                    * comb(i - k + 1, j)
                    for k in range(i - j + 1)
                ),
                Fraction(0),
            )
            for j in range(i + 1)
        )
        for i in range(m + 1)
    ]


def hyper_poly_coeffs_stirling(m: int, shifted: bool) -> list[tuple[int, ...]]:
    """Rows of G(i, x) in powers of x (or of x+1 when ``shifted``), by the
    paper's double sum

        entry(i, j) = sum_{k=j}^{i} 2^k (i-k)! C(i,k)^2 s(k+h, j+h),  h = 0 resp. 1,

    with the signed Stirling numbers s read off the falling factorials.
    """
    h = int(shifted)
    s = [falling_factorial_coeffs(n) for n in range(m + 1 + h)]
    return [
        tuple(
            sum(2**k * factorial(i - k) * comb(i, k) ** 2 * s[k + h][j + h] for k in range(j, i + 1))
            for j in range(i + 1)
        )
        for i in range(m + 1)
    ]


def hyper_poly_rising(m: int, x) -> Fraction:
    """G(m, x) = m! sum_k (-m)_k (-x)_k 2^k/(k!)^2, each term from two
    ``Fraction`` rising factorials.
    """
    xq = Fraction(x)
    return factorial(m) * sum(
        (
            rising_factorial(-m, k) * rising_factorial(-xq, k) * Fraction(2**k, factorial(k) ** 2)
            for k in range(m + 1)
        ),
        Fraction(0),
    )


def bernoulli_poly_power_sum(n: int, z) -> Fraction:
    """B_n(z) = sum_k C(n,k) B_k z^{n-k}, one ``Fraction`` power per term,
    with B_k from the series oracle.
    """
    zq = Fraction(z)
    bern = bernoulli_series(n)
    return sum((comb(n, k) * bern[k] * zq ** (n - k) for k in range(n + 1)), Fraction(0))


def poly_eval_fraction(coeffs, x) -> Fraction:
    """sum_j coeffs[j] x^j by ``Fraction`` Horner steps."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def invert_series_neumann(m):
    """Inverse of a lower-triangular matrix with nonzero diagonal as the
    (dim-1)-term Neumann sum [sum_k (-N)^k] D^{-1}, N = D^{-1}(M - D), one
    power at a time in ``Fraction`` arithmetic; returns packed rows.
    """
    n = m.dim
    d = [m.get(i, i) for i in range(n)]
    nmat = [[m.get(i, j) / d[i] if j < i else Fraction(0) for j in range(n)] for i in range(n)]
    total = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power = [row[:] for row in total]
    for k in range(1, n):
        power = [
            [sum((power[i][t] * nmat[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        sign = -1 if k % 2 else 1
        total = [[total[i][j] + sign * power[i][j] for j in range(n)] for i in range(n)]
    return [tuple(total[i][j] / d[j] for j in range(i + 1)) for i in range(n)]


def taylor_shift(coeffs, a) -> tuple[Fraction, ...]:
    """Coefficients of p(t + a) from those of p(t), by repeated ``Fraction``
    Horner steps: the plain form of ``numcore._newton_to_powers`` with every
    node -a, which ``Poly.rebase`` and the shifted-table identities of
    ``verify_polynomial_forms`` run.
    """
    out = [Fraction(c) for c in coeffs]
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return tuple(out)


def first_stirling2_mismatch_fraction(matrix, stirling2):
    """First row-major (i, j) where ``matrix`` differs from the candidate
    (-1)^j S(i+1, j+1) / 2^{j+1}, or None: one ``Fraction`` candidate and one
    ``get`` per entry, the plain form of ``compare_stirling2_matrix``. The
    Stirling numbers come from ``stirling2``, since the comparison, not the
    numbers, is under test.
    """
    for i in range(matrix.dim):
        for j in range(i + 1):
            candidate = Fraction((-1) ** j * stirling2(i + 1, j + 1), 2 ** (j + 1))
            if matrix.get(i, j) != candidate:
                return (i, j)
    return None


def stirling2_rows(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of S(n, k), by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = [*rows[-1], 0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    return rows


def lah_rows(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of the unsigned Lah numbers L(n, k) = C(n-1, k-1) n!/k!,
    by L(n+1, k) = (n+k) L(n, k) + L(n, k-1)."""
    rows = [[1]]
    for n in range(n_max):
        prev = [*rows[-1], 0]
        rows.append([0] + [(n + k) * prev[k] + prev[k - 1] for k in range(1, n + 2)])
    return rows


def combination_matrix_stirling_lah(m: int, lah=None) -> list[tuple[Fraction, ...]]:
    """Rows 0..m of (a_{i,j}) as the product S D L of three triangles:

        a_{i,j} = sum_{r=j}^{i} S(i+1, r+1) (-1)^{r-j} L(r+1, j+1) / 2^{r+1}.

    Arrays [h', h] multiply by composing their h, and tanh(s/2) = y/(1+y)
    with y = (e^s - 1)/2: S = [e^s, e^s - 1] holds the S(i+1, r+1),
    D = [1/2, s/2] and L = [1/(1+s)^2, s/(1+s)] the signed Lah numbers.
    S and L come from their own recurrences; ``lah`` replaces L's rows
    (``lah_rows(m + 1)``), so a planted fault can be tried.
    """
    s2 = stirling2_rows(m + 1)
    lah = lah_rows(m + 1) if lah is None else lah
    return [
        tuple(
            Fraction(
                sum(s2[i + 1][r + 1] * (-1) ** (r - j) * lah[r + 1][j + 1] << (i - r) for r in range(j, i + 1)),
                1 << (i + 1),
            )
            for j in range(i + 1)
        )
        for i in range(m + 1)
    ]


def sign_violations(entries, m: int) -> list[tuple]:
    """The strictly below-diagonal entries of rows 0..m of the packed
    row-major ``entries`` whose sign is not the sign theorem's, row-major, as
    (i, j, value, expected) with expected "positive", "negative" or "zero".

    The theorem read directly: the sign of a_{i,j} is (-1)^{(i-j)/2} when
    i - j is even and zero when it is odd. Each value's sign is its
    comparison with 0, and the entries are walked by a running index.
    """
    names = {1: "positive", -1: "negative", 0: "zero"}
    found = []
    k = 0
    for i in range(m + 1):
        for j in range(i + 1):
            value = entries[k]
            k += 1
            d = i - j
            want = 0 if d % 2 else (-1) ** (d // 2)
            if j < i and (value > 0) - (value < 0) != want:
                found.append((i, j, value, names[want]))
    return found


def euler_numbers(n: int) -> list[int]:
    """E_0..E_n, the Euler (secant) numbers, signed: 1, 0, -1, 0, 5, 0, -61, ...

    From their recurrence: sum_{k=0}^{n} C(n, k) E_k = 0 for every even
    n > 0, and E_k = 0 for every odd k.
    """
    e = [0] * (n + 1)
    e[0] = 1
    for k in range(2, n + 1, 2):
        e[k] = -sum(comb(k, i) * e[i] for i in range(0, k, 2))
    return e


def zeta_diff_coeffs_midpoint(m: int) -> list[tuple[Fraction, ...]]:
    """Rows of F(i, x) in powers of u = x + 1/2: C(i, j) E_{i-j} / 2^{i-j+1}.

    F(i, x) = E_i(x + 1)/2 with E_i the Euler polynomial, and
    E_i(y) = sum_k C(i, k) E_k/2^k (y - 1/2)^{i-k}.
    """
    e = euler_numbers(m)
    return [
        tuple(Fraction(comb(i, j) * e[i - j], 2 ** (i - j + 1)) for j in range(i + 1))
        for i in range(m + 1)
    ]


def hyper_poly_coeffs_midpoint(m: int) -> list[tuple[int, ...]]:
    """Rows of G(i, x) in powers of u = x + 1/2, by G(n+1) = 2u G(n) + n^2 G(n-1),
    G(0) = 1 and G(1) = 2u.
    """
    rows = [[1], [0, 2]][: m + 1]
    for n in range(1, m):
        shifted = [0, *(2 * c for c in rows[n])]
        rows.append([c + n * n * (rows[n - 1][j] if j < n else 0) for j, c in enumerate(shifted)])
    return [tuple(row) for row in rows]
