import random
from fractions import Fraction as F

import pytest

from rkpos.bounds import radius_abs_monotonicity
from rkpos.gamma import (compute_gamma, condition_at, gamma_zero_test,
                         in_bowtie, region_scan, sampled_upper_bound,
                         subset_bits, sweep)
from rkpos.polygen import centered, generate, heat, upwind
from rkpos.tableau import (ButcherTableau, erk22, erk33_case1, erk33_case2,
                           erk33_case3, forward_euler, rk4_classical)


def erk22_gamma(a: F) -> F:
    if a < F(1, 2):
        return F(0)
    if a <= 1:
        return F(1)
    return 1 / a


def case2_gamma(a: F) -> F:
    if a < F(3, 8) or a > F(3, 4):
        return F(0)
    if a < F(1, 2):
        return 2 * a
    return F(1)


def test_forward_euler_gamma_one():
    cert = compute_gamma(forward_euler())
    assert cert.exact == 1


def test_erk22_closed_form_25_points():
    rng = random.Random(2)
    pts = {F(1, 4), F(2, 5), F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2), F(2)}
    while len(pts) < 25:
        pts.add(F(rng.randint(1, 48), rng.randint(1, 16)))
    for a in sorted(pts):
        cert = compute_gamma(erk22(a))
        assert cert.exact == erk22_gamma(a), a


def test_case2_closed_form_25_points():
    rng = random.Random(4)
    pts = {F(5, 16), F(3, 8), F(7, 16), F(1, 2), F(5, 8), F(3, 4), F(1)}
    while len(pts) < 25:
        pts.add(F(rng.randint(1, 32), rng.randint(17, 32)))
    for a in sorted(pts):
        cert = compute_gamma(erk33_case2(a))
        assert cert.exact == case2_gamma(a), a


def test_case3_zero_everywhere():
    for a in (F(1, 2), F(1), F(2), F(-1), F(7, 3)):
        cert = compute_gamma(erk33_case3(a))
        assert cert.is_zero
        w = cert.witness
        assert w is not None and w.value < 0


def test_rk4_gamma_zero():
    assert compute_gamma(rk4_classical()).is_zero


def test_centered_gamma_zero():
    assert compute_gamma(erk22(F(1)), centered).is_zero
    assert compute_gamma(forward_euler(), centered).is_zero


def test_heat_gamma_values():
    for a in (F(1, 2), F(3, 4), F(1)):
        assert compute_gamma(erk22(a), heat).exact == F(1, 2)
    for a in (F(1, 4), F(2)):
        cert = compute_gamma(erk22(a), heat)
        hi = cert.exact if cert.exact is not None else cert.upper
        assert hi < F(1, 2)
    # vertex necessary condition 1/(2 alpha) binds at alpha = 2
    assert compute_gamma(erk22(F(2)), heat).exact == F(1, 4)


def test_condition_monotone_ladder():
    ps = generate(erk22(F(3, 2)), upwind)
    gamma = F(2, 3)
    for k in range(1, 9):
        assert condition_at(ps, gamma * F(k, 8)) is None
    for bump in (F(1, 2 ** 10), F(1, 7), F(1)):
        w = condition_at(ps, gamma + bump)
        assert w is not None and w.value < 0


def generic(m):
    """The criterion-12 construction: a_ij = 1/(2+i+j) below the diagonal, b = 1/m."""
    a = [[F(1, 2 + i + j) if j < i else 0 for j in range(m)] for i in range(m)]
    return ButcherTableau(a=tuple(tuple(F(x) for x in row) for row in a),
                          b=tuple(F(1, m) for _ in range(m)), name=f"generic{m}")


def test_certificate_soundness():
    cases = [(erk22(F(5, 4)), upwind), (erk33_case2(F(7, 16)), upwind),
             (erk33_case1(F(1, 2), F(3, 4)), upwind),
             # Irrational gamma: interval certificates with n = 3, 6 and 9.
             (generic(2), upwind), (generic(3), upwind), (generic(3), heat)]
    for t, stencil in cases:
        ps = generate(t, stencil)
        cert = compute_gamma(ps)
        lo = cert.exact if cert.exact is not None else cert.lower
        assert condition_at(ps, lo) is None
        w = cert.witness
        if w is not None:
            bits = subset_bits(w.subset, cert.n_vars)
            point = {v: (w.delta if b == "1" else F(0))
                     for v, b in zip(ps.vars, bits)}
            assert ps.polys[w.offset].eval(point) == w.value < 0


def brute_force_gamma(ps, tol=F(1, 2 ** 20)):
    """Bisection on condition_at with naive per-vertex substitution."""
    def holds(d):
        n = len(ps.vars)
        for poly in ps.polys.values():
            for s in range(2 ** n):
                pt = {v: (d if s >> i & 1 else F(0))
                      for i, v in enumerate(ps.vars)}
                if poly.eval(pt) < 0:
                    return False
        return True

    if not holds(tol):
        return F(0), F(0)
    lo, hi = tol, F(1)
    while holds(hi):
        lo, hi = hi, hi * 2
        if hi > 8:
            return lo, None
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("t", [erk22(F(3, 4)), erk22(F(7, 4)),
                               erk33_case2(F(13, 32))],
                         ids=lambda t: t.name)
def test_against_brute_force_oracle(t):
    ps = generate(t, upwind)
    cert = compute_gamma(ps)
    lo, hi = brute_force_gamma(ps)
    val = cert.exact if cert.exact is not None else cert.lower
    assert lo <= val
    if hi is not None:
        assert val <= hi


def test_gamma_below_radius_of_absolute_monotonicity():
    for t in (forward_euler(), erk22(F(1, 2)), erk22(F(1)), erk22(F(2)),
              erk33_case2(F(9, 16)), erk33_case3(F(1)), rk4_classical()):
        cert = compute_gamma(t)
        g = cert.exact if cert.exact is not None else cert.upper
        r = radius_abs_monotonicity(t)
        rv = r.upper if not r.unbounded else None
        if rv is not None:
            assert g <= rv


def test_sampled_upper_bound_is_witness():
    ps = generate(erk33_case3(F(1)), upwind)
    w = sampled_upper_bound(ps)
    assert w is not None
    bits = subset_bits(w.subset, len(ps.vars))
    point = {v: (w.delta if b == "1" else F(0)) for v, b in zip(ps.vars, bits)}
    assert ps.polys[w.offset].eval(point) == w.value < 0


def test_sweep_skips_singular_points():
    rows = sweep("ERK22", F(-1, 4), F(1, 2), F(1, 4))
    by_alpha = {r.alpha: r for r in rows}
    assert by_alpha[F(0)].skipped is not None
    assert by_alpha[F(1, 2)].cert.exact == 1


def test_in_bowtie():
    assert in_bowtie(F(1), F(1, 2))
    assert in_bowtie(F(1, 2), F(3, 4))
    assert not in_bowtie(F(1, 3), F(2, 3))
    assert not in_bowtie(F(1), F(1, 4))


def test_region_scan_examples():
    cells = {(c.alpha, c.beta): c for c in region_scan(points=[
        (F(1), F(1, 2)), (F(1, 2), F(3, 4)), (F(1, 3), F(2, 3)),
        (F(1), F(1, 4)), (F(1, 2), F(1, 2)),
    ])}
    c = cells[(F(1), F(1, 2))]
    assert c.in_region and c.condition_holds
    c = cells[(F(1, 2), F(3, 4))]
    assert c.in_region and c.condition_holds
    c = cells[(F(1, 3), F(2, 3))]
    assert not c.in_region and not c.gamma_positive
    c = cells[(F(1), F(1, 4))]
    assert not c.in_region and not c.condition_holds
    assert cells[(F(1, 2), F(1, 2))].skipped is not None  # alpha = beta
