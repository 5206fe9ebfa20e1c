"""Exact lower-triangular matrix algebra.

Matrices are stored packed row-major (row i holds columns 0..i), so the
zero upper triangle is unrepresentable rather than merely asserted.
Two independent inverses are provided: forward substitution, and a
finite series built on the split M = D + L with L strictly lower. There
N = D^{-1}L is nilpotent (N^dim = 0), so (I + N)^{-1} is the finite sum
of (-N)^k for k < dim, which the doubling product

    (I + N)^{-1} = (I - N)(I + N^2)(I + N^4) ... (I + N^{2^{r-1}}),  2^r >= dim,

collects with about 2 log2(dim) products instead of dim. The series
inverse never uses substitution, so the two check each other.

The product and both inverses run on integers, not on ``Fraction``s.
Each operand is scaled to an integer matrix by the lcm of its
denominators, and the series inverse's N = D^{-1}L by one lcm, that of
the diagonal; every intermediate is an integer matrix over one scale, and
one ``Fraction`` is built per output entry.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul

from . import _EXPORTS
from .numcore import _over_lcm, _require_exact, _Value

__all__ = _EXPORTS["trimat"]


class DimensionMismatchError(ValueError):
    """Operands have different dimensions."""


class SingularDiagonalError(ValueError):
    """A zero diagonal entry makes the matrix non-invertible."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero diagonal entry at index {index}")


class LowerTriMatrix(_Value):
    """Immutable lower-triangular rational matrix, packed row-major.

    ``entries`` has length dim*(dim+1)//2; ``entries[i*(i+1)//2 + j]`` is
    the (i, j) entry for j <= i. Entries above the diagonal are zero by
    construction and not stored. Each entry is read exactly by ``Fraction``,
    and a ``float`` entry is a ``TypeError`` (``numcore._require_exact``).
    """

    _fields = ("dim", "entries")
    dim: int
    entries: tuple[Fraction, ...]

    def __init__(self, dim: int, entries: Iterable) -> None:
        dim = index(dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        # one reader for every entry: a Fraction (a subclass too) is kept as
        # the same object, and any other entry is read by _require_exact
        packed = tuple(e if isinstance(e, Fraction) else _require_exact(e, "an entry") for e in entries)
        if len(packed) != dim * (dim + 1) // 2:
            raise ValueError(f"need {dim * (dim + 1) // 2} packed entries, got {len(packed)}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", packed)

    @classmethod
    def _of_fractions(cls, dim: int, packed: tuple[Fraction, ...]) -> LowerTriMatrix:
        """Wrap ``packed``, which the caller guarantees is a tuple of exactly
        dim*(dim+1)//2 ``Fraction``s, without checking it again."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", packed)
        return self

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable]) -> LowerTriMatrix:
        """Build from triangular rows; row i must hold exactly i+1 entries."""
        packed: list[Fraction] = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != i + 1:
                raise ValueError(f"row {i} must have {i + 1} entries, got {len(row)}")
            packed.extend(row)
        return cls(len(rows), packed)

    @classmethod
    def from_func(cls, dim: int, fn: Callable[[int, int], Fraction]) -> LowerTriMatrix:
        return cls(dim, (fn(i, j) for i in range(dim) for j in range(i + 1)))

    @classmethod
    def identity(cls, dim: int) -> LowerTriMatrix:
        return cls.from_func(dim, lambda i, j: Fraction(1 if i == j else 0))

    def get(self, i: int, j: int) -> Fraction:
        """Entry (i, j) of the full square matrix (zero above the diagonal)."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"index ({i}, {j}) out of range for dim {self.dim}")
        if j > i:
            return Fraction(0)
        return self.entries[i * (i + 1) // 2 + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        """Packed row i (the first i+1 columns)."""
        if not 0 <= i < self.dim:
            raise IndexError(f"index {i} out of range for dim {self.dim}")
        start = i * (i + 1) // 2
        return self.entries[start : start + i + 1]

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.dim)]


def _scaled_rows(m: LowerTriMatrix) -> tuple[list[list[int]], int]:
    """Integer rows of d*M and the scale d, the lcm of M's denominators."""
    flat, scale = _over_lcm(m.entries)
    return [flat[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] for i in range(m.dim)], scale


def _scaled_product(a: tuple[list[list[int]], int], b: tuple[list[list[int]], int]):
    """(A B, s t) for a = (A, s) and b = (B, t), divided by the gcd of all of it."""
    (a_rows, a_scale), (b_rows, b_scale) = a, b
    n = len(a_rows)
    # b_cols[j][k - j] = b[k][j] for k >= j
    b_cols = [[b_rows[k][j] for k in range(j, n)] for j in range(n)]
    rows = [[sum(map(mul, a_row[j:], b_cols[j])) for j in range(i + 1)] for i, a_row in enumerate(a_rows)]
    g = gcd(a_scale * b_scale, *(v for row in rows for v in row))
    return [[v // g for v in row] for row in rows], a_scale * b_scale // g


def mat_mul(a: LowerTriMatrix, b: LowerTriMatrix) -> LowerTriMatrix:
    """Exact product; lower-triangular times lower-triangular stays lower."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} and {b.dim}")
    rows, scale = _scaled_product(_scaled_rows(a), _scaled_rows(b))
    return LowerTriMatrix(a.dim, (Fraction(v, scale) for row in rows for v in row))


def _require_invertible(m: LowerTriMatrix) -> None:
    for i in range(m.dim):
        if m.get(i, i) == 0:
            raise SingularDiagonalError(i)


def invert_substitution(m: LowerTriMatrix) -> LowerTriMatrix:
    """Inverse by forward substitution, solving M X = I column by column.

    Runs on the integer matrix d*M; M^{-1} = d (d*M)^{-1}. Each column is
    held as integers over one denominator D. Row i solves for -s/p (dot
    product s, pivot p), and only f = p/gcd(s, p), the part of p that does
    not divide s, joins D, so D follows the column's own denominators.
    """
    _require_invertible(m)
    n = m.dim
    rows, scale = _scaled_rows(m)
    out: list[list[Fraction]] = [[] for _ in range(n)]
    for j in range(n):
        col, den = [], 1
        for i, row in enumerate(rows[j:], start=j):
            rhs = den if i == j else -sum(map(mul, row[j:i], col))
            g = gcd(rhs, row[i])
            f = row[i] // g
            if f != 1:
                col = [y * f for y in col]
                den *= f
            col.append(rhs // g)
        for i, value in enumerate(col, start=j):
            out[i].append(Fraction(value * scale, den))
    return LowerTriMatrix.from_rows(out)


def invert_series(m: LowerTriMatrix) -> LowerTriMatrix:
    """Inverse via the finite series on the D + L split, by doubling.

    With N = D^{-1} L strictly lower (hence N^dim = 0),
    M^{-1} = (I + N)^{-1} D^{-1} and (I + N)^{-1} = sum_{k<dim} (-N)^k.
    After r factors, (I - N)(I + N^2)...(I + N^{2^{r-1}}) equals the sum
    over k < 2^r, so the loop squares the power and multiplies in one
    factor until 2^r >= dim. Each factor is a pair (integer rows R, scale
    s) standing for R/s; N and I - N start over one scale, the lcm of the
    diagonal.
    """
    _require_invertible(m)
    n = m.dim
    rows, scale = _scaled_rows(m)
    diag = [row[-1] for row in rows]
    p = lcm(*diag)
    strict = [[v * (p // d) for v in row[:-1]] for row, d in zip(rows, diag)]
    power = ([[*row, 0] for row in strict], p)
    total = ([[-v for v in row] + [p] for row in strict], p)
    terms = 2
    while terms < n:
        power = _scaled_product(power, power)
        # I + N^k = (W + s I)/s for N^k = W/s
        w, s = power
        total = _scaled_product(total, ([[*row[:-1], s] for row in w], s))
        terms *= 2
    # times D^{-1} = diag(scale / diag)
    t_rows, t_scale = total
    return LowerTriMatrix(
        n, (Fraction(v * scale, t_scale * diag[j]) for row in t_rows for j, v in enumerate(row))
    )
