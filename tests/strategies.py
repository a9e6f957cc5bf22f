"""Hypothesis strategies shared by the property tests."""

from fractions import Fraction as F

from hypothesis import strategies as st

from rkpos.tableau import ButcherTableau

SMALL = st.sampled_from([F(0), F(-1, 4), F(1, 4), F(1, 3), F(1, 2), F(2, 3),
                         F(3, 4), F(1), F(3, 2), F(2)])


@st.composite
def small_tableaux(draw):
    """Strictly lower-triangular tableaux with m <= 3 stages from SMALL."""
    m = draw(st.integers(1, 3))
    a = tuple(tuple(draw(SMALL) if j < i else F(0) for j in range(m))
              for i in range(m))
    return ButcherTableau(a=a, b=tuple(draw(SMALL) for _ in range(m)))
