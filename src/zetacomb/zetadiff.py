"""Hurwitz zeta differences as combinations of hypergeometric polynomials.

The two families of functions:

    F(m, x) = 2^m [zeta(-m, (1+x)/2) - zeta(-m, (2+x)/2)]
    G(m, x) = m! * 2F1(-m, -x; 1; 2)        (terminating, degree m in x)

Both are degree-m polynomials in x, so there is a unique lower-triangular
coefficient matrix (a_{i,j}) with F(i, .) = sum_j a_{i,j} G(j, .) and
diagonal a_{i,i} = 1/2^{i+1}. The production matrix is read in closed
form off the integer triangle U(n, k) = n!/k! [s^n] tanh(s)^k:

    a_{i,j} = U(i+1, j+1) / 2^{i+1},

because the matrix is the exponential Riordan array
[2e^s/(e^s+1)^2, tanh(s/2)] (see ``combination_matrix``, the one cached
function; each report keeps the answers read off it as
``functools.cached_property``s, ``CoeffReport``).
The paper's construction, A = F G^{-1}, stays as four cross-check routes,
built in one call (``paper_matrices``): the row-coefficient matrices of F
(from the Euler form) and of G (by its three-term recurrence in m) in two
bases (powers of x, powers of x+1), with G inverted by two algorithms.
They are rebuilt on every call and never read the Riordan table, so they
stay independent cross-checks; all four must agree with the production
matrix exactly. The tables are proved by exact identities that never
evaluate F or G (``verify_polynomial_forms``).

Everything is exact; there is no floating point anywhere.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial
from operator import add, mul
from threading import Lock

from . import _EXPORTS
from .combinat import _bernoulli_at, _require_nonnegative, _stirling_row, bernoulli_number
from .numcore import Basis, _newton_to_powers, _over_lcm, _require_exact, _Value
from .trimat import LowerTriMatrix, _scaled_product, _scaled_rows, invert_series, invert_substitution, mat_mul

__all__ = _EXPORTS["zetadiff"]

#: The fixed points of ``verify_combination``: integers, a dyadic, a non-dyadic rational.
DEFAULT_SAMPLES: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(7, 3),
)


def zeta_diff(m: int, x) -> Fraction:
    """F(m, x), exactly, by the closed Bernoulli form.

    With zeta(-m, a) = -B_{m+1}(a)/(m+1) (DLMF 25.11.14), n = m+1 and
    x = p/q, F = 2^m (B_n((p+2q)/2q) - B_n((p+q)/2q))/n: two integer passes
    of ``combinat._bernoulli_at``, each over the same row d C(n, k) B_k, so
    both values share the denominator d (2q)^n. The form is polynomial in x,
    so any rational x is accepted (a ``float`` is a ``TypeError``); agreement
    with the Hurwitz-zeta definition is claimed only for x > -1, where both
    half-arguments stay positive.
    """
    m = _require_nonnegative(m, "m")
    xq = _require_exact(x, "a point")
    p, q = xq.numerator, xq.denominator
    upper, den = _bernoulli_at(m + 1, p + 2 * q, 2 * q)
    lower, _ = _bernoulli_at(m + 1, p + q, 2 * q)
    return Fraction(2**m * (upper - lower), (m + 1) * den)


def hyper_poly(m: int, x) -> Fraction:
    """G(m, x) = m! * sum_{k<=m} (-m)_k (-x)_k 2^k / (k!)^2, exactly.

    A direct sum, independent of the recurrence that builds the G table.
    The terms t_k have the ratio t_{k+1}/t_k = 2(k-m)(k-x)/(k+1)^2, so
    with x = p/q the sum nests Horner-style as

        1 + r_0 (1 + r_1 (1 + ... (1 + r_{m-1}))),  r_k = a_k / b_k,
        a_k = 2(k-m)(kq-p),  b_k = q(k+1)^2,

    and is accumulated as one integer numerator over the integer product
    of the b_k. A nonnegative integer x < m makes a_x = 0, which cuts the
    sum off there. One ``Fraction`` is built at the end.
    """
    m = _require_nonnegative(m, "m")
    xq = _require_exact(x, "a point")
    p, q = xq.numerator, xq.denominator
    num = den = 1
    for k in range(m - 1, -1, -1):
        b = q * (k + 1) ** 2
        num = num * 2 * (k - m) * (k * q - p) + den * b
        den *= b
    return Fraction(factorial(m) * num, den)


def zeta_diff_coeffs(m: int, basis: Basis = Basis.MONOMIAL) -> LowerTriMatrix:
    """Row i = coefficients of F(i, x) in the requested basis; dim m+1.

    F is an Euler polynomial: E_n(x) = 2^{n+1}/(n+1) [B_{n+1}((x+1)/2) -
    B_{n+1}(x/2)] (DLMF 24.4), so F(i, x) = E_i(x+1)/2. The Euler
    polynomials are an Appell sequence (DLMF 24.2, generating function
    2e^{xt}/(e^t+1)), so E_i(x+h) = sum_j C(i,j) E_{i-j}(h) x^j. In powers
    of x (h = 1) and in powers of x+1 (h = 0):

        monomial: entry(i, j) = C(i,j) E_{i-j}(1)/2
        shifted:  entry(i, j) = C(i,j) E_{i-j}(0)/2

    with E_n(0) = -2(2^{n+1}-1) B_{n+1}/(n+1) and E_n(1) = (-1)^n E_n(0)
    (DLMF 24.4; B_1 = -1/2 makes the first formula hold at n = 0 too).
    Each entry is one product; the diagonal is 1/2 in both bases.
    """
    m = _require_nonnegative(m, "m")
    basis = Basis(basis)
    # E_n(0)/2 = e[n]/scale for 0 <= n <= m, over the lcm of their denominators
    e, scale = _over_lcm([-(2 ** (n + 1) - 1) * bernoulli_number(n + 1) / (n + 1) for n in range(m + 1)])
    if basis is Basis.MONOMIAL:
        e = [-v if n % 2 else v for n, v in enumerate(e)]
    return LowerTriMatrix(m + 1, (Fraction(comb(i, j) * e[i - j], scale) for i in range(m + 1) for j in range(i + 1)))


def hyper_poly_coeffs(m: int, basis: Basis = Basis.MONOMIAL) -> LowerTriMatrix:
    """Row i = coefficients of G(i, x) in the requested basis; dim m+1.

    Built by the three-term recurrence in the degree,

        G(n+1, x) = (2x+1) G(n, x) + n^2 G(n-1, x),   G(0, x) = 1,

    which is Gauss's contiguous relation in the first parameter (DLMF
    15.5(ii)) at a = -n, b = -x, c = 1, z = 2, multiplied by n!. In powers
    of t, with t = x (monomial) or t = x+1 (shifted), the factor 2x+1 is
    2t + c with c = +1 resp. -1, so each integer row is

        row_{n+1}[j] = 2 row_n[j-1] + c row_n[j] + n^2 row_{n-1}[j],

    O(m^2) integer additions for the table. The diagonal is 2^i in both
    bases, so these matrices are always invertible. The falling-factorial
    form G(i, x) = sum_k 2^k (i-k)! C(i,k)^2 (x)_k proves the monomial table
    (``verify_polynomial_forms``); the paper's Stirling form, entry(i, j) =
    sum_k 2^k (i-k)! C(i,k)^2 s(k+h, j+h), h = 0 resp. 1, is the test oracle.
    """
    m = _require_nonnegative(m, "m")
    c = 1 if Basis(basis) is Basis.MONOMIAL else -1
    prev: list[int] = []
    row = [1]
    packed = [1]
    for n in range(m):
        # t * row_n, row_n and row_{n-1}, each padded to length n+2
        row, prev = [
            2 * t_term + c * r + n * n * p
            for t_term, r, p in zip([0, *row], [*row, 0], [*prev, 0, 0])
        ], row
        packed += row
    return LowerTriMatrix(m + 1, packed)


class CoeffReport(_Value):
    """The combination matrix at m.

    A report also keeps the answers read off its matrix, each a
    ``functools.cached_property``: the eta row sum, the default sign scan
    and the Stirling comparison at its m are each computed on the first
    read and returned as the same object after that. They are not fields,
    so they play no part in ``==``, ``hash`` or ``repr``.
    """

    _fields = ("m", "matrix")
    m: int
    matrix: LowerTriMatrix

    def __init__(self, m: int, matrix: LowerTriMatrix) -> None:
        m = _require_nonnegative(m, "m")
        if matrix.dim != m + 1:
            raise ValueError(f"matrix has dim {matrix.dim}, expected m + 1 = {m + 1}")
        entries = matrix.entries
        for i in range(m + 1):
            d = entries[i * (i + 3) // 2]  # the (i, i) entry
            if not (d._numerator == 1 and d._denominator == 1 << (i + 1)):
                raise ValueError(f"diagonal entry {i} must be 1/2^{i + 1}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def _eta(self) -> Fraction:
        return _weighted_row_sum(self.matrix.row(self.m))

    @cached_property
    def _sign_finding(self) -> SignPatternFinding:
        # the report's entries are the table's own, sliced off it on its miss
        m = self.m
        violations = _RIORDAN_TABLE.sign_violations(m)
        return SignPatternFinding(max_m=m, checked=m * (m + 1) // 2, violations=violations)

    @cached_property
    def _stirling2_mismatch(self) -> tuple[int, int] | None:
        entries = iter(self.matrix.entries)
        for i in range(self.m + 1):
            for j, s, a in zip(range(i + 1), _stirling_row("second", i + 1)[1:], entries):
                if a._numerator << (j + 1) != (-s if j % 2 else s) * a._denominator:
                    return (i, j)
        return None


def _weighted_row_sum(row: tuple[Fraction, ...]) -> Fraction:
    # sum_j a_j j! with a_j = c_j / d over the lcm d of the denominators,
    # nested by Horner as c_0 + 1 (c_1 + 2 (c_2 + ...)): each step multiplies by the small j
    nums, scale = _over_lcm(row)
    acc = 0
    for j in range(len(nums) - 1, 0, -1):
        acc = (acc + nums[j]) * j
    return Fraction(acc + nums[0], scale)


_ZERO = Fraction(0)


class _RiordanTable:
    """The packed entries of (a_{i,j}), grown row by row as they are asked for,
    and the sign violations among them, classified once.

    a_{i,j} = U(i+1, j+1) / 2^{i+1} (see ``combination_matrix``) with the
    integers U(n, k) = n!/k! [s^n] tanh(s)^k, a partial Bell polynomial of
    tanh's integer EGF coefficients (Comtet, "Advanced Combinatorics", 1974,
    3.3). Since d/ds tanh^k = k (tanh^{k-1} - tanh^{k+1}) (Hoffman, Amer.
    Math. Monthly 1995), dividing by k! gives

        U(n, k) = U(n-1, k-1) - k(k+1) U(n-1, k+1),   U(0, k) = [k = 0].

    U(n, k) = 0 when n - k is odd, so only the nonzero half of the last U
    row is kept, v[i] = U(n, k) with k = n - 2i >= 1, stepped as
    v[i] - k(k+1) v[i-1]; the zeros are placed by parity as ``_ZERO``, and
    the paper's routes and the forms check still prove them. Each nonzero
    entry, an integer over 2^n, is reduced by a shift by U's trailing zero
    bits, with no gcd, and written through its ``Fraction`` slots, with one
    shared ``int`` per power of two as denominators. The entries do not
    depend on m, so the matrix at m is the leading block of the matrix at
    any larger m: the first (m+1)(m+2)/2 packed row-major entries. A larger
    m steps v on for the new rows alone, published by one ``extend``.

    The sign scan is a prefix too: the violations of the rows classified so
    far are kept row-major in one list, with a running count per row, so
    each row is classified once per process and a scan to m is one slice.
    It reads the published entries, so it still sees a doctored table.
    """

    def __init__(self) -> None:
        # two threads growing at once would each append the same rows
        self._lock = Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            self._v_row = [1]  # U(n, n - 2i) of U row n; matrix rows 0..n-1 are built
            self._powers = [1]  # 1 << p for p <= n, the entries' denominators
            self._entries: list[Fraction] = []
            self._violations: list[SignViolation] = []  # of the classified rows, row-major
            self._counts: list[int] = []  # entry i: how many violations rows 0..i hold

    def packed(self, m: int) -> list[Fraction]:
        size = (m + 1) * (m + 2) // 2
        with self._lock:
            if len(self._entries) < size:
                self._grow(m)
            return self._entries[:size]

    def sign_violations(self, m: int) -> tuple[SignViolation, ...]:
        """The strictly below-diagonal entries of rows 0..m whose sign breaks
        the pattern, row-major; each row is classified once."""
        with self._lock:
            found, counts = self._violations, self._counts
            if len(counts) <= m:
                self._grow(m)  # builds nothing if rows 0..m are already there
                for i in range(len(counts), m + 1):
                    base = i * (i + 1) // 2
                    row = self._entries[base : base + i]
                    rev = [value._numerator for value in reversed(row)]  # by d = i - j = 1, 2, ...
                    # a row with a d = 4 entry (i >= 4) that keeps the pattern passes three tests in C
                    if i < 4 or any(rev[0::2]) or max(rev[1::4]) >= 0 or min(rev[3::4]) <= 0:
                        for j, value in enumerate(row):
                            sign, expected = _PATTERN[(i - j) % 4]
                            num = value._numerator
                            if (num > 0) - (num < 0) != sign:
                                found.append(SignViolation(i, j, value, expected))
                    counts.append(len(found))
            return tuple(found[: counts[m]])

    def _grow(self, m: int) -> None:
        v, powers, new = self._v_row, self._powers, []
        for n in range(len(powers), m + 2):
            powers.append(1 << n)
            v = [v[0], *(a - k * (k + 1) * b for a, b, k in zip([*v[1:], 0], v, range(n - 2, 0, -2)))]
            halves = []
            for c in v:  # t = min(trailing zero bits of c, n); a 0 (a doctored row) is 0/1
                low = c | powers[n]
                t = (low & -low).bit_length() - 1
                value = object.__new__(Fraction)
                value._numerator, value._denominator = c >> t, powers[n - t]
                halves.append(value)
            row = [_ZERO] * n
            row[n - 1 :: -2] = halves
            new += row
        self._entries.extend(new)
        self._v_row = v


_RIORDAN_TABLE = _RiordanTable()


def combination_matrix(m: int) -> CoeffReport:
    """The unique (a_{i,j}) with F(i, .) = sum_j a_{i,j} G(j, .), dim m+1.

    Read in closed form. With the exponential Riordan array [g, h],
    entry(n, k) = n!/k! [s^n] g(s) h(s)^k (Shapiro et al., "The Riordan
    group", 1991), the F table in powers of x is [e^t/(e^t+1), t] (Appell,
    DLMF 24.2) and the G table is [1/(1-t), 2 artanh t] (Delannoy), so
    A = F G^{-1} = [2e^s/(e^s+1)^2, tanh(s/2)]. Since g = h', entry (i, j)
    is (i+1)!/(j+1)! [s^{i+1}] tanh(s/2)^{j+1} = U(i+1, j+1)/2^{i+1} with
    the integers U stepped row by row (``_RiordanTable``): O(m^2) integer
    steps and one ``Fraction`` per nonzero entry, reduced by a shift, with no
    gcd; the zeros (i - j odd) are placed by parity, and the four routes and
    ``verify_polynomial_forms`` still prove them.

    Cached on the value of m: ``combination_matrix(9)`` and
    ``combination_matrix(m=9)`` share one entry, and an m that is not an
    ``int`` goes through ``combinat._require_nonnegative`` before the lookup
    (``True`` is 1, ``2.0`` a ``TypeError``; an ``int`` is checked on a miss).
    A miss slices its entries off one table (``_RiordanTable``), so a smaller
    matrix shares the very entries of a larger one, and validates the report
    all the same. ``cache_clear`` empties the cache and that table, with the
    rows ``scan_sign_pattern`` has classified.
    """
    if type(m) is not int:
        m = _require_nonnegative(m, "m")
    return _combination_matrix(m)


@lru_cache(maxsize=None)
def _combination_matrix(m: int) -> CoeffReport:
    _require_nonnegative(m, "m")
    # the table's entries are exact Fractions already: wrap a copy of them
    return CoeffReport(m, LowerTriMatrix._of_fractions(m + 1, tuple(_RIORDAN_TABLE.packed(m))))


def _cache_clear() -> None:
    _combination_matrix.cache_clear()
    _RIORDAN_TABLE.clear()


combination_matrix.cache_info = _combination_matrix.cache_info
combination_matrix.cache_clear = _cache_clear


def paper_matrices(m: int) -> dict[str, LowerTriMatrix]:
    """The paper's A = F G^{-1}, dim m+1, by its four routes: keyed by each
    basis's value with G inverted by forward substitution, and by that value
    with a ``"-series"`` suffix by the finite Neumann series. Each basis's F
    and G tables are built afresh, once per call, and the Riordan table is
    never read: independent cross-checks of ``combination_matrix``."""
    routes = {}
    for basis in Basis:
        f, g = zeta_diff_coeffs(m, basis), hyper_poly_coeffs(m, basis)
        routes[basis.value] = mat_mul(f, invert_substitution(g))
        routes[f"{basis.value}-series"] = mat_mul(f, invert_series(g))
    return routes


CombinationViolation = namedtuple("CombinationViolation", "row sample residual")


class VerificationReport(namedtuple("VerificationReport", "m samples passed violations")):
    """Residuals of F(i, x) - sum_j a_{i,j} G(j, x) over rows and samples."""

    __slots__ = ()


def verify_combination(m: int) -> VerificationReport:
    """Check the combination identity of ``combination_matrix(m)`` row by row
    at the fixed points ``DEFAULT_SAMPLES``; ``verify_polynomial_forms``
    proves it at every x.

    F and G are evaluated directly (Bernoulli closed form, terminating
    hypergeometric sum), independently of how the matrix was built. Pass
    means every residual is exactly zero. Each residual is an integer dot
    product, a ``Fraction`` only when nonzero; violations come row by row,
    points in order.
    """
    m = _require_nonnegative(m, "m")
    report = combination_matrix(m)
    rows, scale = _scaled_rows(report.matrix)
    g_at = []
    for x in DEFAULT_SAMPLES:
        g, den = _over_lcm([hyper_poly(j, x) for j in range(m + 1)])
        g_at.append((g, scale * den))
    violations = []
    for i, row in enumerate(rows):
        for x, (g, den) in zip(DEFAULT_SAMPLES, g_at):
            f = zeta_diff(i, x)
            residual = f.numerator * den - f.denominator * sum(map(mul, row, g))
            if residual:
                violations.append(CombinationViolation(i, x, Fraction(residual, f.denominator * den)))
    return VerificationReport(
        m=m, samples=DEFAULT_SAMPLES, passed=not violations, violations=tuple(violations)
    )


def verify_polynomial_forms(m: int) -> bool:
    """Prove the four coefficient tables and A, the matrix of
    ``combination_matrix(m)``, by exact matrix identities at no point.

    Each table and A is read once as integer rows over its lcm of denominators, in
    lowest terms, so equal pairs are equal matrices. Each -> rewrites rows in
    powers of x by ``numcore._newton_to_powers``, an integer change of basis with
    an integer inverse, which keeps that lcm: a row in powers of x+1 is its Newton
    form at nodes -1, and the terminating 2F1 sum G(i, x) = sum_k D(i, k) (x)_k,
    D(i, k) = 2^k (i-k)! C(i, k)^2 and D(i, k+1) = D(i, k) 2(i-k)/(k+1)^2, is one
    at nodes 0, 1, 2, ... The Hurwitz equation zeta(s, a) = zeta(s, a+1) + a^{-s}
    (DLMF 25.11(i)) gives F(i, x) + F(i, x+1) = (x+1)^i; p -> p(t-1) + p(t) is
    invertible, so F_shift + F_mono = I and F_shift -> F_mono fix F, D -> G_mono
    fixes G, G_shift -> G_mono fixes G_shift, and A G_mono = F_mono proves
    F(i, x) = sum_j a_{i,j} G(j, x) at every x. No identity reads the Bernoulli
    numbers or the G recurrence that build the tables; a table at m is the leading
    block of the table at any larger m, so a pass at m covers every smaller m.
    """
    m = _require_nonnegative(m, "m")
    f_mono, g_mono, f_shift, g_shift = (
        _scaled_rows(build(m, basis)) for basis in Basis for build in (zeta_diff_coeffs, hyper_poly_coeffs)
    )
    product_ok = _scaled_product(_scaled_rows(combination_matrix(m).matrix), g_mono) == f_mono
    d = [[factorial(i)] for i in range(m + 1)]
    for i, row in enumerate(d):
        for k in range(i):
            row.append(row[k] * 2 * (i - k) // (k + 1) ** 2)
    sum_ok = f_shift[1] == f_mono[1] and all(
        [*map(add, s, t)] == [0] * i + [f_mono[1]] for i, (s, t) in enumerate(zip(f_shift[0], f_mono[0]))
    )
    for rows, nodes in ((f_shift[0], [-1] * m), (d, range(m)), (g_shift[0], [-1] * m)):
        _newton_to_powers(rows, nodes)
    return sum_ok and f_shift == f_mono and (d, 1) == g_mono and g_shift == g_mono and product_ok


class ExpectedSign(enum.Enum):
    ZERO = "zero"
    NEGATIVE = "negative"
    POSITIVE = "positive"


SignViolation = namedtuple("SignViolation", "i j value expected")


class SignPatternFinding(namedtuple("SignPatternFinding", "max_m checked violations")):
    """Below-diagonal sign classification of the combination matrix.

    The pattern, by d = i-j: zero when d is odd, negative when d = 2 mod 4,
    positive when d = 0 mod 4. It is a theorem. The entries are
    a_{i,j} = U(i+1, j+1) / 2^{i+1} with U(n, k) = n!/k! [u^n] tanh(u)^k
    (see ``combination_matrix``), and tanh(u)^k = (-I)^k tan(I u)^k with
    I^2 = -1. The odd coefficients of tan are positive, so n!/k! [u^n] tan^k
    = T(n, k) is positive when n >= k and n - k is even, and 0 otherwise.
    Hence U(n, k) = I^{n-k} T(n, k): sign (-1)^{(n-k)/2} when n - k is
    even, 0 when n - k is odd, and sign a_{i,j} = (-1)^{(i-j)/2}. The zeros
    also follow from parity alone: A = [sech^2(s/2)/2, tanh(s/2)] has an
    even g and an odd h, so column j, g h^j / j!, has the parity of j, and
    the table places them by it. The scan is a regression check of the
    built matrix against the theorem; its zero test guards a doctored table.
    """

    __slots__ = ()


# by (i - j) % 4: the sign of the numerator of a_{i,j}, and its name
_PATTERN = (
    (1, ExpectedSign.POSITIVE),
    (0, ExpectedSign.ZERO),
    (-1, ExpectedSign.NEGATIVE),
    (0, ExpectedSign.ZERO),
)


def scan_sign_pattern(max_m: int) -> SignPatternFinding:
    """Classify every strictly below-diagonal entry of ``combination_matrix(max_m)``
    against the sign pattern.

    The violations are read off the Riordan table, which classifies each
    row once per process and keeps its violations
    (``_RiordanTable.sign_violations``): a scan to m classifies only the rows
    no earlier scan reached and joins those of rows 0..m. The finding is kept
    on that report, a ``functools.cached_property``, so a repeat call
    returns the same object until ``combination_matrix.cache_clear``.
    """
    # the report is still built (and validated and cached) on a miss
    return combination_matrix(_require_nonnegative(max_m, "max_m"))._sign_finding


def compare_stirling2_matrix(m: int) -> tuple[int, int] | None:
    """First (row-major) index where the combination matrix differs from
    the candidate (-1)^j S(i+1, j+1) / 2^{j+1}, or None if they coincide.

    The diagonals agree only in absolute value: the combination matrix
    has 1/2^{i+1} and the candidate (-1)^i/2^{i+1} (at m = 3, 1/2, 1/4,
    1/8, 1/16 against 1/2, -1/4, 1/8, -1/16). Every weighted row sum with
    factorial weights agrees: the candidate is the exponential Riordan
    array [e^s/2, (1-e^s)/2], and for both arrays the row sums
    sum_j entry(i, j) j! have the generating function g/(1-h) =
    e^s/(e^s+1). The matrices still differ for every m >= 1, because h
    differs from tanh(s/2), and the first mismatch is always (1, 0):
    a_{1,0} = U(2, 1)/4 = 0, while the candidate is S(2, 1)/2 = 1/2. At
    m = 0 both are [[1/2]]. Both factor through S = (S(i+1, r+1)) and
    D = diag(1/2^{r+1}): the candidate is S D diag((-1)^j), and A = S D L
    with L the signed Lah numbers (-1)^{r-j} L(r+1, j+1).

    Reads ``combination_matrix(m)``; entry p/q equals the candidate iff
    p 2^{j+1} = (-1)^j S(i+1, j+1) q, so no candidate ``Fraction`` is
    built. The answer is kept on that report, a
    ``functools.cached_property`` (see ``CoeffReport``).
    """
    return combination_matrix(m)._stirling2_mismatch
