import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from rkpos.bounds import radius_abs_monotonicity
from rkpos.gamma import (compute_gamma, condition_at, gamma_zero_test,
                         in_bowtie, region_scan, subset_bits, sweep)
from rkpos.multilinear import MultilinearPoly, VarTag
from rkpos.polygen import PropagationSet, centered, generate, heat, upwind
from rkpos.tableau import (ButcherTableau, erk22, erk33_case1, erk33_case2,
                           erk33_case3, forward_euler, rk4_classical)
from rkpos.univariate import min_first_negativity

from oracle import coded
from strategies import small_tableaux


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


def assert_witness_evaluates(ps, w, n_vars):
    bits = subset_bits(w.subset, n_vars)
    point = {v: (w.delta if b == "1" else F(0)) for v, b in zip(ps.vars, bits)}
    assert ps.polys[w.offset].eval(point) == w.value < 0


def test_generic_six_stage_upwind_bracket():
    # n = 21; the bracket was recorded with full-width vertex tables.
    ps = generate(generic(6), upwind)
    cert = compute_gamma(ps)
    assert (cert.lower, cert.upper, cert.exact) == (
        F(72806229997269445, 2**55), F(18201557499322559, 2**53), None)
    assert cert.n_vars == 21 and condition_at(ps, cert.lower) is None
    assert_witness_evaluates(ps, cert.witness, cert.n_vars)


def test_generic_five_stage_heat_certifies():
    # n = 25: 2^25 columns per polynomial at full width, 476 K over supports.
    ps = generate(generic(5), heat)
    cert = compute_gamma(ps)
    assert cert.n_vars == 25 and not cert.unbounded
    assert cert.upper - cert.lower <= F(1, 2**40)
    assert_witness_evaluates(ps, cert.witness, cert.n_vars)


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
        if cert.witness is not None:
            assert_witness_evaluates(ps, cert.witness, cert.n_vars)


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


@settings(max_examples=60, deadline=None)
@given(small_tableaux(), st.sampled_from([upwind, heat]))
def test_refinement_matches_exhaustive_cuts(t, stencil):
    """The refined certificate agrees with the minimum over every vertex
    restriction of every P_i."""
    ps = generate(t, stencil)
    tol = F(1, 2 ** 40)
    cert = compute_gamma(ps, tol=tol)
    family = {poly.vertex_restriction(s) for poly in ps.polys.values()
              for s in range(2 ** len(ps.vars))}
    found = min_first_negativity(enumerate(family), tol)
    if found is None:
        assert cert.unbounded and cert.upper is None and cert.witness is None
        return
    ref, _ = found
    assert not cert.unbounded
    assert cert.upper - cert.lower <= tol and ref.upper - ref.lower <= tol
    assert cert.lower <= ref.upper and ref.lower <= cert.upper
    if cert.exact is not None and ref.exact is not None:
        assert cert.exact == ref.exact
    assert condition_at(ps, cert.lower) is None
    assert_witness_evaluates(ps, cert.witness, cert.n_vars)


def _term_set(terms):
    """A PropagationSet over x = xi[1,0], y = xi[1,1] from {tags: coeff}."""
    x, y = VarTag(1, 0), VarTag(1, 1)
    named = {"x": x, "y": y}
    polys = {offset: coded((x, y), {frozenset(named[c] for c in k): v
                                    for k, v in p.items()})
             for offset, p in enumerate(terms)}
    return PropagationSet(forward_euler(), upwind, (x, y), polys)


def test_unbounded_iff_no_negative_term():
    ps = _term_set([{"": F(1), "x": F(2), "xy": F(1, 3)}, {"y": F(1)}])
    cert = compute_gamma(ps)
    assert cert.unbounded and cert.upper is None and cert.witness is None
    assert str(cert).startswith("gamma = +inf")
    # 1 + 2x - xy: the xy vertex gives 1 + 2d - d^2, negative past 1 + sqrt 2.
    ps = _term_set([{"": F(1), "x": F(2), "xy": F(-1)}, {"y": F(1)}])
    cert = compute_gamma(ps)
    assert not cert.unbounded and cert.exact is None
    assert (cert.lower - 1) ** 2 < 2 < (cert.upper - 1) ** 2
    assert cert.witness.value < 0


def naive_condition(ps, delta):
    """First (offset, subset, value) with a negative vertex restriction at
    delta, by direct substitution, or None."""
    for offset in ps.offsets:
        poly = ps.polys[offset]
        for s in range(2 ** len(ps.vars)):
            value = poly.vertex_restriction(s)(delta)
            if value < 0:
                return offset, s, value
    return None


def witness_triple(ps, delta):
    w = condition_at(ps, delta)
    if w is None:
        return None
    assert w.delta == delta
    return w.offset, w.subset, w.value


@st.composite
def multilinear_sets(draw):
    """Up to 3 random polynomials in n <= 6 variables; in about half of the
    sets, coefficients of 2**62 and more make object vertex tables."""
    n = draw(st.integers(1, 6))
    tags = tuple(VarTag(1, k) for k in range(n))
    coeff = st.fractions(-4, 4, max_denominator=12)
    if draw(st.booleans()):
        coeff = st.one_of(coeff, st.sampled_from(
            [F(2**62 + 1), F(-(2**63) - 5), F(-(2**70), 3)]))
    polys = {}
    for offset in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.integers(0, 2**n - 1), coeff,
                                     max_size=8))
        polys[offset] = MultilinearPoly(tags, {c: v for c, v in terms.items() if v})
    return PropagationSet(forward_euler(), upwind, tags, polys)


DELTAS = st.one_of(
    st.integers(1, 2**42).map(lambda k: F(k, 2**40)),
    st.builds(lambda j, k: F(j, 2**k), st.integers(1, 7), st.integers(20, 400)),
    st.builds(lambda j, k: F(j * 2**k), st.integers(1, 7), st.integers(50, 300)),
)


def _pell_delta():
    """a/b with a^2 - 2 b^2 = 1 and b > 2**50."""
    a, b = 3, 2
    while b <= 2**50:
        a, b = 3 * a + 4 * b, 2 * a + 3 * b
    return F(a, b)


def _cubic_set():
    tags = tuple(VarTag(1, k) for k in range(3))
    return PropagationSet(forward_euler(), upwind, tags, {
        0: MultilinearPoly(tags, {0b001: F(1), 0b010: F(1)}),
        1: MultilinearPoly(tags, {0b111: F(-1)}),
    })


def _gapped_set(terms):
    """One polynomial over four variables, given as {subset code: coeff}."""
    tags = tuple(VarTag(1, k) for k in range(4))
    return PropagationSet(forward_euler(), upwind, tags,
                          {0: MultilinearPoly(tags, terms)})


@settings(max_examples=150)
@given(multilinear_sets(), DELTAS)
# At the Pell delta the xy vertex of 1 - xy/2 is -1/(2 b^2), about 2^-101 of
# its terms, and delta^2 rounds to 2.0 in float64.
@example(_term_set([{"": F(1), "xy": F(-1, 2)}]), _pell_delta())
# At 2^-400 the -xyz vertex's delta^3 underflows float64 to 0.
@example(_cubic_set(), F(1, 2**400))
# 1 - x0 x2 uses variables 0 and 2: its first negative vertex is column 0b11
# of its support table, global subset 0b0101.
@example(_gapped_set({0b0000: F(1), 0b0101: F(-1)}), F(2))
def test_condition_at_matches_naive_evaluation(ps, delta):
    """condition_at reports the same first negative vertex as direct
    evaluation, at a drawn delta and at both ends of gamma's bracket."""
    cert = compute_gamma(ps)
    for d in (delta, cert.lower, cert.upper):
        if d is not None:
            assert witness_triple(ps, d) == naive_condition(ps, d), d


def test_zero_witness_names_the_global_vertex():
    # x3 - x0 x2: the vertex {x0, x2} is column 0b11 of the support table
    # (variables 0, 2, 3) and global subset 0b0101.
    ps = _gapped_set({0b1000: F(1), 0b0101: F(-1)})
    w = gamma_zero_test(ps)
    assert (w.offset, w.subset) == (0, 0b0101)
    assert_witness_evaluates(ps, w, 4)
    assert compute_gamma(ps).witness == w


def test_condition_at_tiny_delta_on_int64_tables():
    # A zero row (the constant row of an off-centre P_i) still multiplies
    # den^maxdeg, which passes int64 at a 2^-32 denominator.
    ps = generate(erk22(F(1)), upwind)
    delta = F(1, 2**32)
    assert witness_triple(ps, delta) is None
    assert naive_condition(ps, delta) is None


def test_gamma_below_radius_of_absolute_monotonicity():
    for t in (forward_euler(), erk22(F(1, 2)), erk22(F(1)), erk22(F(2)),
              erk33_case2(F(9, 16)), erk33_case3(F(1)), rk4_classical()):
        cert = compute_gamma(t)
        g = cert.exact if cert.exact is not None else cert.upper
        r = radius_abs_monotonicity(t)
        rv = r.upper if not r.unbounded else None
        if rv is not None:
            assert g <= rv


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
