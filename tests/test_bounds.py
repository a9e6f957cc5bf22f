import random
from fractions import Fraction as F

from hypothesis import example, given, settings

from rkpos.bounds import (_constraint_polys, radius_abs_monotonicity,
                          ssp_coefficient, ssp_feasible, stability_polynomial)
from rkpos.gamma import compute_gamma
from rkpos.tableau import (ButcherTableau, erk22, erk33_case1, erk33_case2,
                           erk33_case3, forward_euler, rk4_classical)

from strategies import small_tableaux


def erk22_ssp(a: F) -> F:
    if a < F(1, 2):
        return F(0)
    if a <= 1:
        return 2 - 1 / a
    return 1 / a


def case2_ssp(a: F) -> F:
    if a < F(3, 8) or a > F(3, 4):
        return F(0)
    if a <= F(9, 16):
        return F(8 * a - 3, 2)
    return 3 - 4 * a


def test_stability_polynomial_truncated_exponential():
    # order-p methods with m = p stages: phi = sum z^k / k!
    assert stability_polynomial(forward_euler()).coeffs == (F(1), F(1))
    for a in (F(1, 2), F(1), F(2)):
        assert stability_polynomial(erk22(a)).coeffs == (F(1), F(1), F(1, 2))
    assert stability_polynomial(erk33_case2(F(9, 16))).coeffs == \
        (F(1), F(1), F(1, 2), F(1, 6))
    assert stability_polynomial(rk4_classical()).coeffs == \
        (F(1), F(1), F(1, 2), F(1, 6), F(1, 24))


def _dense(m):
    """The criterion-12 generic tableau a_ij = 1/(2+i+j), b = 1/m."""
    return ButcherTableau(
        a=tuple(tuple(F(1, 2 + i + j) if j < i else F(0) for j in range(m))
                for i in range(m)),
        b=(F(1, m),) * m)


@settings(max_examples=60)
@given(small_tableaux())
@example(_dense(20))  # 2^20 - 1 chains: quick only when summed by stage
def test_stability_polynomial_is_the_resolvent(t):
    # phi(z) = 1 + z b^T (I - zA)^{-1} e, with y = (I - zA)^{-1} e solved
    # by forward substitution.
    phi = stability_polynomial(t)
    for z in (F(-2), F(-1, 3), F(1, 2), F(3)):
        y = []
        for i in range(t.m):
            y.append(1 + z * sum(t.a[i][j] * y[j] for j in range(i)))
        assert phi(z) == 1 + z * sum(bi * yi for bi, yi in zip(t.b, y))


def test_radius_closed_values():
    assert radius_abs_monotonicity(forward_euler()).exact == 1
    assert radius_abs_monotonicity(erk22(F(1))).exact == 1
    assert radius_abs_monotonicity(erk33_case1(F(1, 2), F(3, 4))).exact == 1
    assert radius_abs_monotonicity(rk4_classical()).exact == 1


def test_radius_float_oracle():
    # float bisection on phi4 and derivatives as an independent check
    import math

    def ok(r):
        c = [1.0, 1.0, 0.5, 1 / 6, 1 / 24]
        for j in range(5):
            val = sum(c[k] * math.comb(k, j) * (-r) ** (k - j)
                      for k in range(j, 5))
            if val < -1e-12:
                return False
        return True

    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    assert abs(lo - float(radius_abs_monotonicity(rk4_classical()).exact)) < 1e-9


def test_erk22_ssp_closed_form_25_points():
    rng = random.Random(6)
    pts = {F(1, 4), F(2, 5), F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2), F(2)}
    while len(pts) < 25:
        pts.add(F(rng.randint(1, 48), rng.randint(1, 16)))
    for a in sorted(pts):
        assert ssp_coefficient(erk22(a)).exact == erk22_ssp(a), a


def test_case2_ssp_closed_form():
    for a in (F(5, 16), F(3, 8), F(7, 16), F(1, 2), F(9, 16), F(5, 8),
              F(3, 4), F(1)):
        assert ssp_coefficient(erk33_case2(a)).exact == case2_ssp(a), a


def test_case3_and_rk4_ssp_zero():
    for a in (F(1, 2), F(1), F(2)):
        assert ssp_coefficient(erk33_case3(a)).exact == 0
    assert ssp_coefficient(rk4_classical()).exact == 0


def test_feasibility_is_monotone_below_the_coefficient():
    for t in (erk22(F(1)), erk22(F(3, 2)), erk33_case2(F(9, 16))):
        c = ssp_coefficient(t).exact
        assert c > 0
        for k in range(1, 5):
            assert ssp_feasible(t, c * F(k, 4))
        assert not ssp_feasible(t, c + F(1, 1000))
        assert not ssp_feasible(t, c * 2)


def test_ssp_below_gamma_upwind():
    from rkpos.gamma import compute_gamma
    for t in (forward_euler(), erk22(F(3, 4)), erk22(F(1)), erk22(F(5, 4)),
              erk33_case1(F(1, 2), F(3, 4)), erk33_case2(F(1, 2)),
              erk33_case2(F(9, 16)), erk33_case3(F(1)), rk4_classical()):
        c = ssp_coefficient(t)
        g = compute_gamma(t)
        cv = c.exact if c.exact is not None else c.upper
        gv = g.exact if g.exact is not None else g.lower
        assert cv <= gv or g.is_zero and cv == 0


def test_interval_width_bounded_by_tol():
    tol = F(1, 2 ** 40)
    for t in (erk22(F(7, 5)), erk33_case2(F(21, 32))):
        res = ssp_coefficient(t, tol=tol)
        if res.exact is None:
            assert res.upper - res.lower <= tol


def _ends(result):
    """(lo, hi) of a gamma certificate or bound; hi is None for +inf."""
    if result.exact is not None:
        return result.exact, result.exact
    return result.lower, None if result.unbounded else result.upper


@settings(max_examples=200)
@given(small_tableaux())
def test_bounds_chain_on_random_tableaux(t):
    # C <= gamma <= R(phi), compared by bracket ends: when C = gamma = R is
    # one irrational value, their brackets overlap and neither upper end
    # need lie below the other's lower end.
    c = ssp_coefficient(t)
    c_lo, _ = _ends(c)
    g_lo, g_hi = _ends(compute_gamma(t))
    _, r_hi = _ends(radius_abs_monotonicity(t))
    assert g_hi is None or c_lo <= g_hi
    assert r_hi is None or g_lo <= r_hi
    if c.unbounded:
        assert g_hi is None
    if g_hi is None:
        assert r_hi is None


@settings(max_examples=60)
@given(small_tableaux())
def test_feasibility_matches_the_constraint_polynomials(t):
    """ssp_feasible(t, r) holds exactly where every constraint polynomial
    of the polynomial route is nonnegative at r."""
    constraints = [p for _, p in _constraint_polys(t)]
    for r in (F(0), F(1, 7), F(1, 2), F(1), F(3, 2), F(3)):
        assert ssp_feasible(t, r) == all(p(r) >= 0 for p in constraints)
