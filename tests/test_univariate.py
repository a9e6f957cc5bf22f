import random
from fractions import Fraction as F

import pytest

from rkpos.univariate import (DESCENT_LIMIT, Cut, UniPoly, descend,
                              first_negative_cut)
from rkpos.univariate import _simplest_between

TOL = F(1, 2 ** 40)


def P(*coeffs):
    return UniPoly.from_coeffs(coeffs)


def test_eval_and_normalization():
    p = UniPoly.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert p(F(3)) == 7


def test_no_negativity_returns_none():
    assert first_negative_cut(P(1, 0, 1)) is None  # 1 + x^2
    assert first_negative_cut(P(0, 1)) is None  # x
    assert first_negative_cut(P(2)) is None  # positive constant


def test_simple_linear_cut_exact():
    # 1 - x turns negative right after 1
    cut = first_negative_cut(P(1, -1))
    assert cut.exact == 1


def test_rational_root_snapping():
    # (3/7 - x)(5 + x): first negativity at 3/7
    cut = first_negative_cut(P(F(15, 7), F(3, 7) - F(5), F(-1)))
    assert cut.exact == F(3, 7)


def test_double_root_is_not_a_cut():
    # (x - 1)^2 touches zero but stays nonnegative; first cut at 2 from (2 - x)
    p = P(2, -5, 4, -1)  # (2 - x)(x - 1)^2
    cut = first_negative_cut(p)
    assert cut.exact == 2


def test_interval_cut_brackets_irrational():
    # 2 - x^2 goes negative after sqrt(2)
    cut = first_negative_cut(P(2, 0, -1))
    assert cut.exact is None
    assert cut.hi - cut.lo <= TOL
    assert cut.lo ** 2 <= 2 <= cut.hi ** 2


def test_leading_negative_zero_coeff_rejected():
    with pytest.raises(ValueError):
        first_negative_cut(P(0, -1))


def test_random_products_of_linear_factors():
    rng = random.Random(7)
    for _ in range(25):
        roots = sorted(F(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(3))
        # p = prod (r - x): positive at 0, first sign change at the
        # smallest odd-multiplicity root
        def mul(p, q):
            out = [F(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            return out

        poly = [F(1)]
        for r in roots:
            poly = mul(poly, [r, F(-1)])
        cut = first_negative_cut(UniPoly.from_coeffs(poly))
        odd_roots = []
        for r in set(roots):
            if roots.count(r) % 2 == 1:
                odd_roots.append(r)
        if odd_roots:
            assert cut.exact == min(odd_roots)
        else:
            assert cut is None


def test_simplest_between():
    assert _simplest_between(F(1, 3), F(1, 2)) == F(2, 5)
    assert _simplest_between(F(2, 7), F(3, 7)) == F(1, 3)
    got = _simplest_between(F(140, 99), F(142, 99))
    assert F(140, 99) < got < F(142, 99)
    assert got == F(10, 7)


def test_cut_bounds_are_ordered():
    cut = first_negative_cut(P(3, 0, 0, -1), tol=F(1, 2 ** 20))
    assert isinstance(cut, Cut)
    lo = cut.exact if cut.exact is not None else cut.lo
    hi = cut.exact if cut.exact is not None else cut.hi
    assert 0 < lo <= hi


def test_descent_is_bounded():
    probes = []

    def never_fails(x):
        probes.append(x)
        return None

    with pytest.raises(AssertionError, match="still holds at 3"):
        descend(never_fails, F(3), F(1))
    assert len(probes) == DESCENT_LIMIT
