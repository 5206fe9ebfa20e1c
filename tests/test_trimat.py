from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _tables_m9 as tables
import oracles
from zetacomb import cli
from zetacomb.numcore import Basis
from zetacomb.trimat import (
    DimensionMismatchError,
    LowerTriMatrix,
    SingularDiagonalError,
    invert_series,
    invert_substitution,
    mat_mul,
)
from zetacomb.zetadiff import hyper_poly_coeffs

entries = st.fractions(min_value=-30, max_value=30, max_denominator=12)
nonzero = entries.filter(lambda q: q != 0)


def tri_matrices(dims=st.integers(1, 10), diag=nonzero):
    def build(draw):
        n = draw(dims)
        rows = []
        for i in range(n):
            row = [draw(entries) for _ in range(i)]
            row.append(draw(diag))
            rows.append(row)
        return LowerTriMatrix.from_rows(rows)

    return st.composite(lambda draw: build(draw))()


def diagonal(values):
    n = len(values)
    return LowerTriMatrix(n, (Fraction(values[i] if i == j else 0) for i in range(n) for j in range(i + 1)))


def strict_parts(dims=st.integers(1, 10)):
    return tri_matrices(dims=dims, diag=st.just(Fraction(0)))


@st.composite
def tri_pairs(draw, dims=st.integers(1, 8)):
    n = draw(dims)
    fixed = st.just(n)
    return draw(tri_matrices(dims=fixed, diag=entries)), draw(tri_matrices(dims=fixed, diag=entries))


# --- construction & access ---------------------------------------------------


def test_from_rows_shape_checked():
    for rows, message in (
        ([[1, 2]], "row 0 must have 1 entries, got 2"),
        ([[1], [2]], "row 1 must have 2 entries, got 1"),
        ([[1], [2, 3, 4]], "row 1 must have 2 entries, got 3"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LowerTriMatrix.from_rows(rows)


def test_entries_length_checked():
    with pytest.raises(ValueError):
        LowerTriMatrix(dim=2, entries=(Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        LowerTriMatrix(dim=0, entries=())


class _Tagged(Fraction):
    """A ``Fraction`` subclass, which the constructor keeps as the very object."""


def _construct_as_before(dim, entries):
    # the constructor before its one-pass check for exact Fractions: entry by entry
    packed = tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)
    if len(packed) != dim * (dim + 1) // 2:
        raise ValueError(f"need {dim * (dim + 1) // 2} packed entries, got {len(packed)}")
    return packed


def _outcome(build):
    try:
        packed = build()
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)
    return packed, [type(e) for e in packed]


@pytest.mark.parametrize(
    "entries",
    [
        (1, -2, 3),
        ("1/2", "-3/4", "5"),
        (Fraction(1, 2), 2, "3/4"),
        (_Tagged(1, 2), Fraction(1, 3), _Tagged(-2)),
        (True, 0, "3/2"),
        ("1/2", "x", 3),
        (1, None, 2),
        ("1/0", 1, 1),
        ("1/2", 3),
        (Fraction(1), Fraction(2)),
    ],
)
def test_constructor_converts_and_rejects_entries_as_before(entries):
    new = _outcome(lambda: LowerTriMatrix(2, entries).entries)
    assert new == _outcome(lambda: _construct_as_before(2, entries))
    if not isinstance(new[0], type):
        built = LowerTriMatrix(2, entries).entries
        assert all(a is b for a, b in zip(built, entries) if isinstance(b, Fraction))


@pytest.mark.parametrize(
    "dim, entries, bad",
    [(2, (True, 0, 1.5), 1.5), (1, (0.1,), 0.1), (2, (Fraction(1), 0.1, 2), 0.1)],
    ids=["beside-true", "alone", "beside-fractions"],
)
def test_constructor_refuses_a_float_entry(dim, entries, bad):
    # 0.1 would be kept as its binary value 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=f"^an entry must be exact, not float: {bad!r}$"):
        LowerTriMatrix(dim, entries)


def test_constructor_keeps_a_tuple_of_exact_fractions():
    entries = (Fraction(1, 2), Fraction(0), Fraction(-3, 4))
    assert LowerTriMatrix(2, iter(entries)).entries == entries
    assert all(kept is given for kept, given in zip(LowerTriMatrix(2, entries).entries, entries))


def test_get_above_diagonal_is_zero():
    m = LowerTriMatrix.from_rows([[1], [2, 3]])
    assert m.get(0, 1) == 0
    assert m.get(1, 0) == 2


def test_get_out_of_range():
    m = LowerTriMatrix.identity(2)
    with pytest.raises(IndexError):
        m.get(2, 0)
    with pytest.raises(IndexError):
        m.get(0, -1)


@pytest.mark.parametrize("i", [3, 5, -1])
def test_row_out_of_range(i):
    m = LowerTriMatrix.identity(3)
    with pytest.raises(IndexError, match=f"index {i} out of range for dim 3"):
        m.row(i)


def test_diagonal_entries():
    b = tables.matrix(tables.B10)
    assert [row[-1] for row in b.rows()] == [Fraction(2) ** i for i in range(10)]


# --- arithmetic ---------------------------------------------------------------


def test_identity_is_neutral():
    b = tables.matrix(tables.B10)
    eye = LowerTriMatrix.identity(10)
    assert mat_mul(eye, b) == b
    assert mat_mul(b, eye) == b


def test_dimension_mismatch():
    a = LowerTriMatrix.identity(2)
    b = LowerTriMatrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        mat_mul(a, b)


def test_strict_lower_cube_vanishes():
    strict = LowerTriMatrix.from_rows([[0], [5, 0], [7, -2, 0]])
    assert not any(mat_mul(mat_mul(strict, strict), strict).entries)


def test_diagonal_times_diagonal():
    d1 = diagonal([2, 3])
    d2 = diagonal([Fraction(1, 2), Fraction(1, 3)])
    assert mat_mul(d1, d2) == LowerTriMatrix.identity(2)


@settings(max_examples=60)
@given(tri_pairs())
@example((LowerTriMatrix.from_rows([[Fraction(-2, 3)]]), LowerTriMatrix.from_rows([[Fraction(5, 7)]])))
def test_mat_mul_matches_fraction_oracle(pair):
    a, b = pair
    assert mat_mul(a, b).rows() == oracles.mat_mul_fraction(a, b)


@settings(max_examples=40)
@given(strict_parts())
def test_strict_lower_is_nilpotent(strict):
    n = strict.dim
    power = LowerTriMatrix.identity(n)
    for _ in range(n):
        power = mat_mul(power, strict)
    assert not any(power.entries)


@settings(max_examples=40)
@given(strict_parts(dims=st.integers(1, 8)))
def test_neumann_inverts_unitriangular(strict):
    n = strict.dim
    m = LowerTriMatrix(n, (strict.get(i, j) + (i == j) for i in range(n) for j in range(i + 1)))
    total = LowerTriMatrix.from_rows(oracles.invert_series_neumann(m))
    assert mat_mul(m, total) == LowerTriMatrix.identity(n)


# --- inversion ----------------------------------------------------------------


def test_invert_identity():
    eye = LowerTriMatrix.identity(5)
    assert invert_series(eye) == eye
    assert invert_substitution(eye) == eye


def test_invert_diagonal():
    d = diagonal([2, 4, 8])
    expected = diagonal([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    assert invert_substitution(d) == expected
    assert invert_series(d) == expected


def test_invert_2x2_closed_form():
    a, b, c = Fraction(3), Fraction(-7, 2), Fraction(5)
    m = LowerTriMatrix.from_rows([[a], [b, c]])
    inv = invert_substitution(m)
    assert inv.rows() == [(1 / a,), (-b / (a * c), 1 / c)]


def test_singular_diagonal_reports_first_zero_index():
    m = LowerTriMatrix.from_rows([[1], [2, 0], [3, 4, 0]])
    with pytest.raises(SingularDiagonalError) as info:
        invert_substitution(m)
    assert info.value.index == 1
    with pytest.raises(SingularDiagonalError) as info:
        invert_series(m)
    assert info.value.index == 1


def test_methods_agree_on_fixture():
    b = tables.matrix(tables.B10_SHIFTED)
    assert invert_substitution(b) == invert_series(b)


@settings(max_examples=40)
@given(tri_matrices(dims=st.integers(1, 8)))
def test_methods_agree(m):
    assert invert_substitution(m) == invert_series(m)


@settings(max_examples=60)
@given(tri_matrices(dims=st.integers(1, 8)))
@example(LowerTriMatrix.from_rows([[Fraction(-5, 9)]]))
def test_substitution_matches_fraction_oracle(m):
    assert invert_substitution(m).rows() == oracles.invert_substitution_fraction(m)


@settings(max_examples=40)
@given(tri_matrices(dims=st.integers(1, 8)))
@example(LowerTriMatrix.from_rows([[Fraction(-5, 9)]]))
def test_series_matches_neumann_oracle(m):
    assert invert_series(m).rows() == oracles.invert_series_neumann(m)


# a negative, non-dyadic diagonal: the pivots' signs and odd factors
# must reach the common denominators of both integer kernels
negative_non_dyadic = st.builds(
    Fraction, st.integers(-(10**3), -1), st.integers(3, 200).filter(lambda d: d & (d - 1))
)


@settings(max_examples=60)
@given(tri_matrices(dims=st.integers(1, 8), diag=negative_non_dyadic))
@example(LowerTriMatrix.from_rows([[Fraction(-5, 9)], [Fraction(2, 3), Fraction(-7, 6)]]))
def test_inverses_match_fraction_oracle_on_negative_non_dyadic_diagonals(m):
    expected = oracles.invert_substitution_fraction(m)
    assert invert_substitution(m).rows() == expected
    assert invert_series(m).rows() == expected


@pytest.mark.parametrize("basis", list(Basis))
def test_inverses_agree_on_g_at_m64(basis):
    g = hyper_poly_coeffs(64, basis)
    assert invert_substitution(g) == invert_series(g)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 9, 16, 17])
def test_series_matches_substitution_at_doubling_edges(dim):
    # positive strict entries keep every power of N up to N^(dim-1)
    # nonzero, so the doubling loop runs to its 2^r >= dim bound
    m = LowerTriMatrix(dim, (Fraction(i + j + 1, 2 * j + 3) for i in range(dim) for j in range(i + 1)))
    assert invert_series(m) == invert_substitution(m)


@settings(max_examples=40)
@given(tri_matrices(dims=st.integers(1, 8)))
def test_inverse_round_trips(m):
    eye = LowerTriMatrix.identity(m.dim)
    inv = invert_substitution(m)
    assert mat_mul(m, inv) == eye
    assert mat_mul(inv, m) == eye


# --- rendering, which the CLI alone does ----------------------------------------


def test_json_round_trip():
    b = tables.matrix(tables.B10_INV)
    doc = cli._document(b)
    assert doc["dim"] == 10
    assert doc["rows"][3] == ["1/4", "-1/4", "-3/8", "1/8"]
    assert json.loads(json.dumps(doc)) == doc


def test_csv_has_explicit_zeros():
    m = LowerTriMatrix.from_rows([[Fraction(1, 2)], [0, 2]])
    assert cli._csv_grid(m) == "1/2,0\n0,2\n"
