import functools
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import rkpos.gamma as gamma_module
from rkpos.bounds import radius_abs_monotonicity, ssp_feasible
from rkpos.errors import CapacityError, InputError, ParameterDomainError
from rkpos.gamma import (SWEEP_POINT_COST, _STACK_BYTES, _failing_cells, _frange,
                         _germs, _limbs, compute_gamma, condition_at, gamma_zero_test,
                         in_bowtie, region_scan, subset_bits, sweep)
from rkpos.multilinear import TABLE_BYTES, MultilinearPoly, VarTag, planes
from rkpos.polygen import (PropagationSet, StencilSpec, centered, generate,
                           heat, layout, upwind)
from rkpos.tableau import (ButcherTableau, chain_weights, erk22, erk33_case1,
                           erk33_case2, erk33_case3, forward_euler,
                           make_family, rk4_classical)
from rkpos.univariate import UniPoly

from oracle import coded, min_first_negativity, scaled, sweep_per_point
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
        polys[offset] = MultilinearPoly(
            tags, *scaled({c: v for c, v in terms.items() if v}))
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
        0: MultilinearPoly(tags, {0b001: 1, 0b010: 1}),
        1: MultilinearPoly(tags, {0b111: -1}),
    })


def _gapped_set(terms):
    """One polynomial over four variables, given as {subset code: coeff}."""
    tags = tuple(VarTag(1, k) for k in range(4))
    return PropagationSet(forward_euler(), upwind, tags,
                          {0: MultilinearPoly(tags, *scaled(terms))})


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


def naive_zero_test(ps):
    """(offset, subset) of the first vertex restriction, over every global
    subset, whose lowest nonzero coefficient is negative, or None."""
    for offset in ps.offsets:
        poly = ps.polys[offset]
        for s in range(2 ** len(ps.vars)):
            lowest = next((c for c in poly.vertex_restriction(s).coeffs if c), 0)
            if lowest < 0:
                return offset, s
    return None


@st.composite
def staged_sets(draw):
    """Up to 3 random polynomials over 2 or 3 stages of up to 3 offsets
    each, with at most one variable of each stage in a term, as in
    generated sets, so that a whole stage's run of variables is
    eliminated; in about half of the sets, coefficients of 2**62 and more
    make object vertex tables."""
    widths = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(2, 3)))]
    tags = tuple(VarTag(j, o) for j, w in enumerate(widths, 1) for o in range(w))
    bit = {tag: 1 << i for i, tag in enumerate(tags)}
    coeff = st.fractions(-4, 4, max_denominator=12)
    if draw(st.booleans()):
        coeff = st.one_of(coeff, st.sampled_from(
            [F(2**62 + 1), F(-(2**63) - 5), F(-(2**70), 3)]))
    pick = st.tuples(*[st.sampled_from([None, *range(w)]) for w in widths])
    polys = {}
    for offset in range(draw(st.integers(1, 3))):
        terms = {}
        for offsets, c in draw(st.lists(st.tuples(pick, coeff), max_size=10)):
            terms[sum(bit[VarTag(j, o)] for j, o in enumerate(offsets, 1)
                      if o is not None)] = c
        polys[offset] = MultilinearPoly(
            tags, *scaled({c: v for c, v in terms.items() if v}))
    return PropagationSet(forward_euler(), upwind, tags, polys)


def _staged_example():
    """1 - x y + x z over x = xi[1,0] and y, z = xi[2,0], xi[2,1]: the
    block {y, z} is eliminated, and the first negative vertex {x, y}
    lies past the block's all-zero corner."""
    x, y, z = VarTag(1, 0), VarTag(2, 0), VarTag(2, 1)
    return PropagationSet(forward_euler(), upwind, (x, y, z), {0: coded(
        (x, y, z), {frozenset(): F(1), frozenset([x, y]): F(-1),
                    frozenset([x, z]): F(1)})})


@settings(max_examples=150)
@given(staged_sets(), DELTAS)
@example(_staged_example(), F(2))
def test_eliminated_check_matches_every_vertex(ps, delta):
    """On stage-structured sets, where the checks eliminate blocks of
    more than one variable, condition_at reports the first negative
    vertex over every global subset, at a drawn delta and at both ends of
    gamma's bracket."""
    cert = compute_gamma(ps)
    for d in (delta, cert.lower, cert.upper):
        if d is not None:
            assert witness_triple(ps, d) == naive_condition(ps, d), d


@settings(max_examples=150)
@given(staged_sets())
@example(_staged_example())
def test_eliminated_zero_test_matches_every_vertex(ps):
    """On stage-structured sets, gamma_zero_test names the first vertex
    over every global subset whose lowest nonzero coefficient is
    negative."""
    w = gamma_zero_test(ps)
    assert (None if w is None else (w.offset, w.subset)) == naive_zero_test(ps)
    if w is not None:
        g = ps.polys[w.offset].vertex_restriction(w.subset)
        assert w.delta > 0 and g(w.delta) == w.value < 0


@settings(max_examples=150)
@given(multilinear_sets())
# 2 - x1 x3 + x0 x1 x3: the support (1, 3) of the negative term is gapped.
@example(_gapped_set({0b0000: F(2), 0b1010: F(-1), 0b1011: F(1)}))
@example(_gapped_set({0b0100: F(1), 0b0101: F(-1)}))
def test_zero_test_matches_naive_scan(ps):
    """gamma_zero_test names the first restriction, in global subset order,
    whose lowest nonzero coefficient is negative, and its witness is
    negative there."""
    w = gamma_zero_test(ps)
    assert (None if w is None else (w.offset, w.subset)) == naive_zero_test(ps)
    if w is not None:
        g = ps.polys[w.offset].vertex_restriction(w.subset)
        assert w.delta > 0 and g(w.delta) == w.value < 0


def test_zero_witness_names_the_global_vertex():
    # x3 - x0 x2: the vertex {x0, x2} is column 0b11 of the support table
    # (variables 0, 2, 3) and global subset 0b0101.
    ps = _gapped_set({0b1000: F(1), 0b0101: F(-1)})
    w = gamma_zero_test(ps)
    assert (w.offset, w.subset) == (0, 0b0101)
    assert_witness_evaluates(ps, w, 4)
    assert compute_gamma(ps).witness == w


def test_each_set_builds_its_tables_once(monkeypatch):
    built = []
    build = MultilinearPoly.vertex_table
    monkeypatch.setattr(MultilinearPoly, "vertex_table",
                        lambda poly: built.append(poly) or build(poly))
    ps = generate(erk33_case2(F(9, 16)), upwind)
    gamma_zero_test(ps)
    condition_at(ps, 1)
    assert compute_gamma(ps).exact == 1
    assert len(built) == len(ps.polys)


def test_six_stage_heat_and_eight_stage_upwind_fit_the_budget():
    for stencil, m in ((heat, 6), (upwind, 8)):
        ps = generate(generic(m), stencil)
        assert sum(p.table_bytes() for p in ps.polys.values()) <= TABLE_BYTES


@pytest.mark.parametrize("stencil, m", [(upwind, 9), (heat, 7)])
def test_over_budget_sets_raise_before_allocating(stencil, m):
    """Nine-stage upwind (22 GiB of tables) and seven-stage heat (34 GiB)
    raise CapacityError with no table memory allocated."""
    ps = generate(generic(m), stencil)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"over the {TABLE_BYTES}-byte budget"):
            condition_at(ps, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


NUMERATORS = st.one_of(
    st.integers(-2**10, 2**10),
    *[st.builds(lambda sign, e, b=b: sign * (2**b + e), st.sampled_from([-1, 1]),
                st.integers(-8, 8)) for b in (47, 48, 62, 63, 100)],
    *[st.integers(-2**b, 2**b) for b in (48, 62, 100)])


@st.composite
def block_polys(draw):
    """One polynomial over a stage-1 block of up to 3 variables, no two in
    a term, and up to 3 variables of later stages, with numerators near
    2**48 and 2**62 and past them, so that its table has several planes."""
    block = tuple(VarTag(1, o) for o in range(draw(st.integers(0, 3))))
    others = tuple(VarTag(2 + j, 0) for j in range(draw(st.integers(0, 3))))
    tags = block + others
    terms = {}
    for one, rest, c in draw(st.lists(st.tuples(
            st.integers(-1, len(block) - 1), st.integers(0, 2**len(others) - 1),
            NUMERATORS), max_size=10)):
        code = (1 << one if one >= 0 else 0) | rest << len(block)
        terms[code] = c
    return MultilinearPoly(tags, {code: c for code, c in terms.items() if c})


@settings(max_examples=200, deadline=None)
@given(block_polys(), st.integers(0, 2**400), st.integers(1, 2**400))
def test_limb_signs_and_cell_sums_match_python_ints(poly, num, den):
    """The limbs of a table at delta carry the sign of every column's
    Python-int dot with the powers, and the failing cells are those whose
    slice 0 plus negative slices is negative; the zero test's planes give
    the same germs as the recombined Python-int rows."""
    delta = F(num, den)
    num, den = delta.numerator, delta.denominator
    _, table = poly.vertex_table()
    count, width, bound = planes(poly.magnitude, len(poly.terms))
    k, top = poly.block[1], poly.maxdeg
    exact = [[sum(int(table[d * count + count - 1 - q, col]) << width * q
                  for q in range(count)) for col in range(table.shape[1])]
             for d in range(top + 1)]
    values = [sum(exact[d][col] * num**d * den ** (top - d) for d in range(top + 1))
              for col in range(table.shape[1])]
    _, limbs, bits = _limbs(delta, top, count, width, bound)
    rows = (limbs @ table)[None]
    assert (_germs(rows, bits, len(limbs))[0] < 0).tolist() == [v < 0 for v in values]
    cells = [values[c:c + k + 1] for c in range(0, len(values), k + 1)]
    least = [c[0] + sum(min(0, v) for v in c[1:]) < 0 for c in cells]
    assert _failing_cells(rows, k, bits, len(limbs))[0].tolist() == least
    germs = [[row[col] for row in exact] for col in range(table.shape[1])]
    cells = [germs[c:c + k + 1] for c in range(0, len(germs), k + 1)]
    zero = [0] * (top + 1)
    least = [[sum(g) for g in zip(c[0], *[s for s in c[1:] if s < zero])] < zero
             for c in cells]
    assert _failing_cells(table[None], k, width, count)[0].tolist() == least


@pytest.mark.parametrize("tol", [F(0), F(-1), 0])
def test_nonpositive_tol_is_refused_before_generate(monkeypatch, tol):
    ps = generate(generic(3), upwind)

    def refuse(*args):
        raise AssertionError("generate or the zero test called")

    monkeypatch.setattr(gamma_module, "generate", refuse)
    monkeypatch.setattr(gamma_module, "gamma_zero_test", refuse)
    for source in (generic(3), ps):
        with pytest.raises(InputError, match="tolerance must be positive"):
            compute_gamma(source, upwind, tol=tol)


def test_set_budget_is_checked_before_any_table(monkeypatch):
    def refuse(poly):
        raise AssertionError("vertex_table called")

    monkeypatch.setattr(MultilinearPoly, "vertex_table", refuse)
    ps = generate(generic(9), upwind)
    with pytest.raises(CapacityError, match="P_4's over 29 support variables"):
        condition_at(ps, 1)


@pytest.mark.parametrize("call", [
    lambda: condition_at(generate(erk22(1), upwind), 0.5),
    lambda: region_scan(points=[(F(1), F(1, 2))], delta=0.5),
    lambda: ssp_feasible(erk22(1), 0.5),
    lambda: StencilSpec({1: 0.5, 0: -0.5}),
    lambda: UniPoly.from_coeffs([0.5, 1]),
    lambda: in_bowtie(0.6, 0.7),
    lambda: sweep("ERK22", 0.5, 1, 0.25),
    lambda: compute_gamma(erk22(1), upwind, tol=1e-12),
    lambda: condition_at(generate(erk22(1), upwind), True),
    lambda: in_bowtie(F(3, 4), "x"),
], ids=["condition_at", "region_scan", "ssp_feasible", "StencilSpec",
        "from_coeffs", "in_bowtie", "sweep", "compute_gamma-tol",
        "condition_at-bool", "in_bowtie-text"])
def test_public_functions_take_exact_rationals_only(call):
    with pytest.raises(InputError):
        call()


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


SWEEP_KINDS = ["ERK22", "ERK33_CaseII", "ERK33_CaseIII"]
SWEEP_TOLS = [F(1, 2**4), F(1, 2**10), F(1, 2**40)]


@st.composite
def sweep_grids(draw):
    """(kind, lo, hi, step) of a sweep of up to 12 points with small
    denominators around the families' singular point 0."""
    den = draw(st.sampled_from([1, 2, 4, 8, 16, 64]))
    lo = F(draw(st.integers(-2 * den, 2 * den)), den)
    step = F(draw(st.integers(1, 2 * den)), den)
    return (draw(st.sampled_from(SWEEP_KINDS)), lo,
            lo + (draw(st.integers(1, 12)) - 1) * step, step)


@settings(max_examples=40, deadline=None)
@given(sweep_grids(), st.sampled_from(["upwind", "centered", "heat"]), st.sampled_from(SWEEP_TOLS),
       st.booleans())
# The singular point 0, gamma = 0 points, and ERK22's pattern change at 1/2
# (b1 = 0 drops the chain of stage 1 alone).
@example(("ERK22", F(-1, 2), F(2), F(1, 8)), "upwind", F(1, 2**40), True)
@example(("ERK22", F(-1, 2), F(2), F(1, 8)), "heat", F(1, 2**4), True)
@example(("ERK33_CaseIII", F(-1, 2), F(1), F(1, 4)), "centered", F(1, 2**10), True)
# 73 points of one pattern, past two chunks of 32 heat sets, and 0.
@example(("ERK33_CaseII", F(-1, 4), F(2), F(1, 32)), "heat", F(1, 2**40), True)
@example(("ERK33_CaseII", F(-1, 4), F(2), F(1, 32)), "heat", F(1, 2**4), False)
def test_sweep_matches_the_per_point_oracle(grid, stencil, tol, with_ssp):
    """Every row of the stacked sweep equals the row of a sweep that
    generates and certifies its points one at a time."""
    stencil = STENCILS[stencil]
    assert (sweep(*grid, stencil=stencil, tol=tol, with_ssp=with_ssp)
            == sweep_per_point(*grid, stencil, tol, with_ssp))


def test_sweep_points_are_charged_their_cost():
    # The certify-many sweeps (113 and 49 points) are admitted; a
    # 50,001-point axis is admitted for a region, not for a sweep.
    assert len(_frange(F(1, 4), F(2), F(1, 64), cost=SWEEP_POINT_COST)) == 113
    assert len(_frange(F(1, 4), F(1), F(1, 64), cost=SWEEP_POINT_COST)) == 49
    assert len(_frange(F(1, 2), F(1), F(1, 100000))) == 50001
    with pytest.raises(CapacityError, match="50001 points"):
        _frange(F(1, 2), F(1), F(1, 100000), cost=SWEEP_POINT_COST)
    # A point's cuts are bisected down to tol: at 1e-1000 (3,321 bits of
    # 1/tol) it is charged 84 times as much, so 40 points are admitted and
    # 196 are not.
    tol = F(1, 10**1000)
    assert len(sweep("ERK22", F(1, 8), F(5), F(1, 8), tol=tol)) == 40
    with pytest.raises(CapacityError, match=r"196 points \(charged 1680 each\)"):
        sweep("ERK22", F(1, 8), F(5), F(1, 40), tol=tol)


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


# Case I points: gamma > 0 with the condition holding or failing at 1,
# gamma = 0, beta = 2/3 (b2 = 0, so fewer variables) and singular points.
CASE1_POINTS = [(F(1), F(1, 2)), (F(7, 8), F(1, 2)), (F(1, 2), F(5, 8)),
                (F(5, 8), F(3, 4)), (F(1, 2), F(2, 3)), (F(3, 4), F(2, 3)),
                (F(1), F(2, 3)), (F(1, 2), F(1, 2)), (F(2, 3), F(1, 2))]
# Numerators past int64, so that the last chunk of each grid holds Python ints.
HUGE_POINTS = [(F(1, 2) + F(1, 2**70), F(5, 8)), (F(1) - F(1, 2**70), F(1, 2))]
# The points above cycled past the largest chunk (upwind's), then the huge
# ones: the earlier chunks are int64, and a row misplaced across a chunk
# boundary meets a different point.
REGION_GRID = (CASE1_POINTS + [(F(3, 4), F(5, 8)), (F(5, 8), F(7, 8)),
                               (F(9, 10), F(3, 5))]) * 24 + HUGE_POINTS
STENCILS = {s.name: s for s in (upwind, centered, heat)}


@functools.cache
def _case1_set(stencil, alpha, beta):
    """(set, naive zero test passes) for a Case I point, once per module."""
    ps = generate(make_family("ERK33_CaseI", (alpha, beta)), STENCILS[stencil])
    return ps, naive_zero_test(ps) is None


def _chunk(stencil, alpha, beta):
    """The points of one chunk of `region_scan` for this point's pattern."""
    chains = tuple(c for c, _ in chain_weights(erk33_case1(alpha, beta)))
    entries = sum(p.table_entries() for p in layout(chains, stencil).products().values())
    return max(1, _STACK_BYTES // (8 * entries))


@pytest.mark.parametrize("delta", [F(0), F(1, 3), F(1), F(2), F(2**70, 3)])
def test_region_cells_match_both_checks(delta):
    """Every region cell, on every stencil, agrees with the per-set checks
    and with direct substitution over every global subset."""
    for stencil in STENCILS.values():
        assert len(REGION_GRID) > 2 * _chunk(stencil, F(1), F(1, 2))
        cells = region_scan(points=REGION_GRID, stencil=stencil, delta=delta)
        assert [(c.alpha, c.beta) for c in cells] == REGION_GRID
        kinds, seen = set(), {}
        for c in cells:
            if c.skipped is not None:
                assert c.condition_holds is None and c.gamma_positive is None
                continue
            got = (c.condition_holds, c.gamma_positive)
            if (c.alpha, c.beta) in seen:
                assert got == seen[c.alpha, c.beta]
                continue
            seen[c.alpha, c.beta] = got
            ps, naive_positive = _case1_set(stencil.name, c.alpha, c.beta)
            holds = condition_at(ps, delta) is None
            positive = gamma_zero_test(ps) is None
            assert got == (holds, positive)
            assert got == (naive_condition(ps, delta) is None, naive_positive)
            kinds.add(got)
        if delta == 1 and stencil is upwind:
            assert kinds == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("points", [
    [(F(1, 2), F(1, 2)), (F(2, 3), F(1, 2))],  # every point singular
    [(F(1, 2), F(1, 2)), (F(1, 2), F(5, 8))],  # the valid point has gamma = 0
])
def test_region_scan_rejects_negative_delta(points):
    with pytest.raises(ParameterDomainError):
        region_scan(points=points, delta=F(-1))
