"""Exact scalars and dense one-variable polynomials.

Every quantity in this package is a ``fractions.Fraction``: arithmetic is
exact and canonical (reduced form, positive denominator, unique zero), so
matrix entries can be compared structurally against reference tables. Hot
paths build and read one through its ``_numerator`` and ``_denominator``
slots: on Python 3.10-3.13 its public properties are Python calls. The one
float rule is ``_require_exact``: a point, coefficient or entry is read by
``Fraction``, and a binary ``float`` is a ``TypeError``.

A :class:`Poly` carries a basis tag because the same function is expanded
here both in powers of x and in powers of (x+1); ``rebase`` converts
between the two by ``_newton_to_powers``, the package's one change of basis.

``_Value`` is the small immutable-value base that ``Poly``,
``trimat.LowerTriMatrix`` and ``zetadiff.CoeffReport`` share in place of
``dataclasses``, whose import and generated code would cost every cold
CLI call about 20 ms.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from . import _EXPORTS

__all__ = _EXPORTS["numcore"]


class Basis(enum.Enum):
    """Which power basis a coefficient vector refers to."""

    MONOMIAL = "monomial"        # powers of x
    SHIFTED = "shifted"          # powers of (x + 1)


def _require_exact(value, what: str) -> Fraction:
    """``value`` as a ``Fraction``: an ``int``, ``Fraction``, ``Decimal`` or string
    as ``Fraction`` reads it. A ``float`` is a ``TypeError`` naming ``what``, article
    included ("a point"), because its exact binary value is not the decimal it
    prints (0.1 is not 1/10)."""
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact, not float: {value!r}")
    return Fraction(value)


def _over_lcm(values) -> tuple[list[int], int]:
    """(c, d) with values[k] = c[k]/d and d the lcm of the denominators;
    ``([], 1)`` for no values. ``values`` is read twice: pass a sequence,
    of ``Fraction``s only (a subclass too), since their slots are read."""
    scale = lcm(*(v._denominator for v in values))
    return [v._numerator * (scale // v._denominator) for v in values], scale


def _newton_to_powers(rows: list[list[int]], nodes) -> None:
    """Rewrite integer rows read in the Newton basis prod_{t<k} (x - nodes[t])
    in powers of x, in place, by Horner from the top: q <- c_k + (x - nodes[k]) q.
    Nodes of -1 read powers of x+1; nodes 0, 1, 2, ... falling factorials."""
    for c in rows:
        for k in range(len(c) - 2, -1, -1):
            node = nodes[k]
            for j in range(k, len(c) - 1):
                c[j] -= node * c[j + 1]


class _Value:
    """Base of the validating value types: immutable, equal by value.

    A subclass names its fields in ``_fields`` and sets them in ``__init__``
    with ``object.__setattr__``; after that, assignment and deletion raise
    ``AttributeError``. Two instances are equal when they are of the same
    class and their fields are equal, and the hash follows the fields. An
    instance never equals one of another class, so a ``Poly`` is never a
    ``LowerTriMatrix`` and never a tuple.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")


class Poly(_Value):
    """Dense rational polynomial; ``coeffs[j]`` multiplies the j-th basis power.

    Trailing zero coefficients are trimmed on construction, so the zero
    polynomial has an empty coefficient tuple and equality is structural.
    """

    _fields = ("coeffs", "basis")
    coeffs: tuple[Fraction, ...]
    basis: Basis

    def __init__(self, coeffs, basis: Basis = Basis.MONOMIAL) -> None:
        cs = tuple(_require_exact(c, "a coefficient") for c in coeffs)
        end = len(cs)
        while end > 0 and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])
        object.__setattr__(self, "basis", Basis(basis))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def eval(self, x) -> Fraction:
        """Exact value at x, honouring the basis tag.

        Runs on integers: with the basis variable t = p/q (t = x, or x + 1
        in the shifted basis) and d*p having integer coefficients c_j,

            d q^n p(t) = sum_j c_j p^j q^{n-j},

        summed by a homogeneous Horner pass from the leading coefficient.
        One ``Fraction`` is built per call.

        >>> Poly((1, 2)).eval(3)
        Fraction(7, 1)
        >>> Poly((1, 2), Basis.SHIFTED).eval(0)
        Fraction(3, 1)
        """
        t = _require_exact(x, "a point")
        if self.basis is Basis.SHIFTED:
            t = t + 1
        if not self.coeffs:
            return Fraction(0)
        coeffs, scale = _over_lcm(self.coeffs)
        p, q = t.numerator, t.denominator
        acc = 0
        q_power = 1
        for c in reversed(coeffs):
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc, scale * q ** self.degree)

    def rebase(self, target: Basis) -> Poly:
        """Same function, expressed in the other basis.

        Writing p(x) = sum c_j x^j as sum d_j (x+1)^j is a Taylor shift of
        the coefficients by -1 (by +1 the other way): the Newton form in x+1
        at nodes 1 (-1 back), run by ``_newton_to_powers`` on the integers of
        d*p (``_over_lcm``), with one ``Fraction`` per coefficient at the end.
        """
        target = Basis(target)
        if target is self.basis:
            return self
        out, scale = _over_lcm(self.coeffs)
        _newton_to_powers([out], [1 if target is Basis.SHIFTED else -1] * len(out))
        return Poly((Fraction(c, scale) for c in out), target)
