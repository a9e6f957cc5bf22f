import inspect
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rkpos.errors import InputError
from rkpos.multilinear import MultilinearPoly, VarTag
from rkpos.polygen import (BUILTIN_STENCILS, PropagationSet, StencilSpec,
                           _check_unity, centered, generate, heat, layout,
                           symmetry_report, term_count, upwind, x_labels)
from rkpos.tableau import (chain_weights, erk22, erk33_case1, erk33_case2,
                           erk33_case3, forward_euler, rk4_classical)

from oracle import generate_alt, scaled
from strategies import small_tableaux

METHODS = [
    forward_euler(),
    erk22(F(1)),
    erk22(F(3, 4)),
    erk33_case1(F(1, 2), F(3, 4)),
    erk33_case2(F(9, 16)),
    erk33_case3(F(1)),
    rk4_classical(),
]
STENCILS = [upwind, centered, heat]


def vertices(ps):
    n = len(ps.vars)
    for s in range(2 ** n):
        yield {v: F(s >> i & 1) for i, v in enumerate(ps.vars)}


def poly_equals_formula(poly, ps, formula):
    """Exact equality of multilinear polynomials via all 0/1 vertices."""
    return all(poly.eval(pt) == formula(pt) for pt in vertices(ps))


def test_stencil_properties():
    assert upwind.radius == 1 and upwind.dx_power == 1
    assert heat.radius == 1 and heat.dx_power == 2
    assert centered.is_skew_symmetric()
    assert not upwind.is_skew_symmetric()
    for s in STENCILS:
        assert s.is_consistent()
    assert set(BUILTIN_STENCILS) == {"upwind", "centered", "heat"}


def test_stencil_rejects_inconsistent():
    from rkpos.errors import PreconditionError
    with pytest.raises(PreconditionError):
        StencilSpec({0: F(1)}, name="bad")
    assert not StencilSpec({0: F(1)}).is_consistent()  # custom: allowed


@pytest.mark.parametrize("t", METHODS, ids=lambda t: t.name)
@pytest.mark.parametrize("s", STENCILS, ids=lambda s: s.name)
def test_partition_of_unity(t, s):
    ps = generate(t, s)
    total = {}
    for poly in ps.polys.values():
        for code, coeff in poly.terms.items():
            total[code] = total.get(code, F(0)) + F(coeff, poly.scale)
    assert {c: v for c, v in total.items() if v != 0} == {0: F(1)}


@pytest.mark.parametrize("t", METHODS, ids=lambda t: t.name)
@pytest.mark.parametrize("s", STENCILS, ids=lambda s: s.name)
def test_two_generators_agree(t, s):
    a = generate(t, s)
    b = generate_alt(t, s)
    assert a.offsets == b.offsets
    for i in a.offsets:
        assert a.polys[i] == b.polys[i]


@settings(max_examples=40)
@given(small_tableaux(),
       st.sampled_from(STENCILS + [StencilSpec({2: 1, 0: -3, -1: 2})]))
def test_random_tableaux_unity_and_generators_agree(t, s):
    """Sum_i P_i = 1 and generate == generate_alt beyond the METHODS list."""
    test_partition_of_unity(t, s)
    test_two_generators_agree(t, s)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_tableaux(), min_size=2, max_size=8),
       st.sampled_from(STENCILS))
def test_stacked_tables_match_each_sets_table(tableaux, stencil):
    """Each row of a stack built from one layout is, divided by its own
    scale, that tableau's own vertex table of P_d."""
    chains = [list(chain_weights(t)) for t in tableaux]
    pattern = tuple(stages for stages, _ in chains[0])
    shared = [(t, [w for _, w in c]) for t, c in zip(tableaux, chains)
              if tuple(stages for stages, _ in c) == pattern]
    lay = layout(pattern, stencil)
    rows = [lay.numerators(weights) for _, weights in shared]
    for d, poly in lay.products().items():
        numerators = [[factors[c] * cprod for c, cprod in lay.terms[d].values()]
                      for _, factors in rows]
        magnitude = max(sum(map(abs, row)) for row in numerators)
        stack = poly.vertex_tables(np.array(numerators, dtype=object), magnitude)
        for (t, _), (scale, _), got in zip(shared, rows, stack):
            own_scale, own = generate(t, stencil).polys[d].vertex_table()
            assert got.shape == own.shape
            assert [[F(int(v), scale) for v in row] for row in got] == \
                [[F(int(v), own_scale) for v in row] for row in own]


@settings(max_examples=40)
@given(small_tableaux(), st.sampled_from(STENCILS + [StencilSpec({2: 1, 0: -3, -1: 2})]))
def test_term_count_is_the_number_of_generated_terms(t, s):
    """The count from the nonzero pattern of A and b, checked against
    TERMS before generate builds anything, is exactly what it builds."""
    assert term_count(t, s) == sum(len(p.terms) for p in generate(t, s).polys.values())


@pytest.mark.parametrize("coeffs", [{0: 1}, {2: 1, 0: -3, -1: 1}])
def test_inconsistent_stencil_warns_at_the_caller(coeffs):
    """Sum_i P_i != 1 for an inconsistent custom stencil: both generators
    warn, attributed to this file, and still agree."""
    for t in (erk22(F(3, 4)), erk33_case1(F(1, 2), F(3, 4))):
        with pytest.warns(UserWarning, match="sum of propagation "
                          "polynomials is not 1") as record:
            test_two_generators_agree(t, StencilSpec(coeffs))
        assert [w.filename for w in record] == [__file__] * 2


def test_inconsistent_stencil_warns_at_the_calling_line():
    with pytest.warns(UserWarning, match="sum of propagation") as record:
        line = inspect.currentframe().f_lineno + 1
        generate(erk22(F(3, 4)), StencilSpec({2: 1, 0: -3, -1: 1}))
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]


@pytest.mark.parametrize("polys", [
    [{0: F(1, 3)}, {0: F(2, 3) + F(1, 10**30)}],
    [{0: F(1)}, {5: F(1, 7)}, {5: F(-1, 6)}],
    [{0: F(1)}, {3: F(1, 2)}],
    [{0: F(1, 2)}],
])
def test_unity_check_raises_for_a_broken_sum(polys):
    with pytest.raises(AssertionError, match="do not sum to 1"):
        _check_unity(upwind, coded3(polys))


def coded3(polys):
    """MultilinearPolys over three variables from {subset code: Fraction}."""
    tags = tuple(VarTag(1, k) for k in range(3))
    return [MultilinearPoly(tags, *scaled(terms)) for terms in polys]


def test_unity_check_sums_over_the_common_denominator():
    _check_unity(upwind, coded3([{0: F(1, 3), 5: F(1, 7)}, {0: F(2, 3)},
                                 {5: F(-1, 14)}, {5: F(-1, 14)}, {6: F(0)}]))


def test_consistent_custom_stencil_does_not_warn():
    s = StencilSpec({2: 1, 0: -3, -1: 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gen in (generate, generate_alt):
            gen(erk33_case1(F(1, 2), F(3, 4)), s)


def test_erk22_upwind_printed_polynomials():
    for alpha in (F(1, 2), F(3, 4), F(1), F(3, 2), F(2)):
        t = erk22(alpha)
        ps = generate(t, upwind)
        b1, b2, a21 = t.b[0], t.b[1], t.a[1][0]
        # canonical order: x1 = xi1[k-1], x2 = xi1[k], x3 = xi2[k]
        x1, x2, x3 = ps.vars
        assert poly_equals_formula(
            ps.polys[0], ps,
            lambda p: 1 - b1 * p[x2] - b2 * p[x3] + a21 * b2 * p[x2] * p[x3])
        assert poly_equals_formula(
            ps.polys[1], ps,
            lambda p: b1 * p[x2] + b2 * p[x3]
            - a21 * b2 * p[x1] * p[x3] - a21 * b2 * p[x2] * p[x3])
        assert poly_equals_formula(
            ps.polys[2], ps, lambda p: a21 * b2 * p[x1] * p[x3])


def test_three_stage_upwind_printed_polynomials():
    for t in (erk33_case1(F(1, 2), F(3, 4)), erk33_case2(F(9, 16)),
              erk33_case3(F(1))):
        ps = generate(t, upwind)
        b1, b2, b3 = t.b
        a21, a31, a32 = t.a[1][0], t.a[2][0], t.a[2][1]
        x, y, z, u, v, w = ps.vars  # xi1[k-2..k], xi2[k-1..k], xi3[k]
        assert poly_equals_formula(
            ps.polys[0], ps,
            lambda p: 1 - b1 * p[z] - b2 * p[v] + a21 * b2 * p[z] * p[v]
            - b3 * p[w] + a31 * b3 * p[z] * p[w] + a32 * b3 * p[v] * p[w]
            - a32 * a21 * b3 * p[z] * p[v] * p[w])
        assert poly_equals_formula(
            ps.polys[1], ps,
            lambda p: b1 * p[z] + b2 * p[v] - a21 * b2 * p[y] * p[v]
            - a21 * b2 * p[z] * p[v] + b3 * p[w] - a31 * b3 * p[y] * p[w]
            - a32 * b3 * p[u] * p[w] + a32 * a21 * b3 * p[y] * p[u] * p[w]
            - a31 * b3 * p[z] * p[w] - a32 * b3 * p[v] * p[w]
            + a32 * a21 * b3 * p[y] * p[v] * p[w]
            + a32 * a21 * b3 * p[z] * p[v] * p[w])
        assert poly_equals_formula(
            ps.polys[2], ps,
            lambda p: a21 * b2 * p[y] * p[v] + a31 * b3 * p[y] * p[w]
            + a32 * b3 * p[u] * p[w] - a32 * a21 * b3 * p[x] * p[u] * p[w]
            - a32 * a21 * b3 * p[y] * p[u] * p[w]
            - a32 * a21 * b3 * p[y] * p[v] * p[w])
        assert poly_equals_formula(
            ps.polys[3], ps,
            lambda p: a32 * a21 * b3 * p[x] * p[u] * p[w])


def test_rk4_upwind_p3_printed_polynomial():
    ps = generate(rk4_classical(), upwind)
    labels = x_labels(ps)
    assert [labels[v] for v in ps.vars] == [f"x_{i}" for i in range(1, 11)]
    # canonical order: xi1[k-3..k], xi2[k-2..k], xi3[k-1..k], xi4[k]
    x = dict(zip(range(1, 11), ps.vars))
    assert poly_equals_formula(
        ps.polys[3], ps,
        lambda p: F(1, 24) * (
            2 * p[x[2]] * p[x[6]] * p[x[9]]
            + 2 * p[x[5]] * p[x[8]] * p[x[10]]
            - p[x[1]] * p[x[5]] * p[x[8]] * p[x[10]]
            - p[x[2]] * p[x[5]] * p[x[8]] * p[x[10]]
            - p[x[2]] * p[x[6]] * p[x[8]] * p[x[10]]
            - p[x[2]] * p[x[6]] * p[x[9]] * p[x[10]]))


def test_erk22_heat_printed_polynomials():
    for alpha in (F(1, 4), F(1, 2), F(3, 4), F(1), F(2)):
        ps = generate(erk22(alpha), heat)
        assert ps.offsets == [-2, -1, 0, 1, 2]
        x, y, z, u = ps.vars  # xi1[k-1], xi1[k], xi1[k+1], xi2[k]
        a = alpha
        checks = {
            -2: lambda p: p[u] * p[z] / 2,
            -1: lambda p: (p[u] - p[y]
                           - 2 * a * (p[y] * p[u] + p[u] * p[z] - p[y])) / (2 * a),
            0: lambda p: (p[u] * (a * p[x] + 4 * a * p[y] + a * p[z] - 2)
                          + 2 * (a - 2 * a * p[y] + p[y])) / (2 * a),
            1: lambda p: (p[u] - p[y]
                          - 2 * a * (p[x] * p[u] + p[y] * p[u] - p[y])) / (2 * a),
            2: lambda p: p[x] * p[u] / 2,
        }
        for i, formula in checks.items():
            assert poly_equals_formula(ps.polys[i], ps, formula)


def test_symmetry_report_centered():
    for t in METHODS:
        if t.m <= 3:
            rep = symmetry_report(generate(t, centered))
            assert rep and all(rep.values())


def test_forward_euler_polynomials():
    ps = generate(forward_euler(), upwind)
    v = ps.vars[0]
    assert ps.polys[0].eval({v: F(1, 3)}) == F(2, 3)
    assert ps.polys[1].eval({v: F(1, 3)}) == F(1, 3)


WIDE = StencilSpec({2: F(1, 3), 1: F(1, 2), -1: F(-1, 2), -2: F(-1, 3)})


@settings(max_examples=40)
@given(small_tableaux())
def test_symmetry_report_wide_stencil(t):
    """A skew stencil with an even offset: terms of P_{-j} map to P_j with
    the sign (-1)^|T|, not (-1)^j."""
    rep = symmetry_report(generate(t, WIDE))
    assert rep and all(rep.values())


def test_symmetry_report_wide_erk22():
    assert symmetry_report(generate(erk22(F(1)), WIDE)) == {j: True for j in range(5)}


def test_symmetry_report_detects_a_broken_term():
    for t in METHODS:
        ps = generate(t, centered)
        p1 = ps.polys[1]
        code = min(p1.terms)
        # One doubled numerator, then every coefficient halved through the
        # scale alone: the numerators still mirror those of P_{-1}.
        half = MultilinearPoly(p1.vars, p1.terms, 2 * p1.scale)
        assert half.terms == p1.terms and half.scale != p1.scale
        for p in (MultilinearPoly(p1.vars, {**p1.terms, code: 2 * p1.terms[code]},
                                  p1.scale), half):
            broken = PropagationSet(t, centered, ps.vars, {**ps.polys, 1: p})
            rep = symmetry_report(broken)
            assert rep[1] is False
            assert all(v for j, v in rep.items() if j != 1)
