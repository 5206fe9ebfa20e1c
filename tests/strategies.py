"""Hypothesis strategies shared by the property tests."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

# rationals whose denominators are not powers of two, so an integer kernel
# cannot lean on a dyadic common denominator
non_dyadic = st.builds(
    Fraction,
    st.integers(-(10**4), 10**4),
    st.integers(3, 10**3).filter(lambda d: d & (d - 1)),
)
