import hashlib
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from rkpos.errors import InputError
from rkpos.univariate import (DESCENT_LIMIT, Cut, UniPoly, descend,
                              first_negative_cut, refine, refinement)
from rkpos.univariate import (_horner, _primitive, _simplest_between,
                              _sturm_chain, _variations)

import oracle

TOL = F(1, 2 ** 40)

RATIONALS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 6)


def P(*coeffs):
    return UniPoly.from_coeffs(coeffs)


def test_eval_and_normalization():
    p = UniPoly.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert p(F(3)) == 7
    q = UniPoly.from_coeffs([F(1, 2), F(3, 4), 0])
    assert (q.ints, q.scale) == ((2, 3), 4)
    assert UniPoly((6, 9, 0), 12) == q


def _fraction_horner(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@given(st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=7),
       st.integers(1, 10 ** 9), RATIONALS)
def test_unipoly_ints_over_one_scale(ints, scale, x):
    """ints and scale round-trip through from_coeffs, and evaluation is the
    Fraction Horner over the coefficients ints[d] / scale."""
    p = UniPoly(tuple(ints), scale)
    coeffs = [F(c, scale) for c in ints]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert p.coeffs == tuple(coeffs)
    q = UniPoly.from_coeffs(p.coeffs)
    assert (q.ints, q.scale) == (p.ints, p.scale) and q == p
    assert p(x) == _fraction_horner(coeffs, x)


@pytest.mark.parametrize("ints, scale", [
    ((1, F(1, 2)), 1), ((1, 2.0), 1), ((True, 1), 1), ((1, 2), 0),
    ((1, 2), -3), ((1, 2), True), ((1, 2), 2.0)])
def test_numerators_must_be_ints_over_a_positive_scale(ints, scale):
    with pytest.raises(InputError):
        UniPoly(ints, scale)


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


def _mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_random_products_of_linear_factors():
    rng = random.Random(7)
    for _ in range(25):
        roots = sorted(F(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(3))
        # p = prod (r - x): positive at 0, first sign change at the
        # smallest odd-multiplicity root
        poly = [F(1)]
        for r in roots:
            poly = _mul(poly, [r, F(-1)])
        cut = first_negative_cut(UniPoly.from_coeffs(poly))
        odd_roots = []
        for r in set(roots):
            if roots.count(r) % 2 == 1:
                odd_roots.append(r)
        if odd_roots:
            assert cut.exact == min(odd_roots)
        else:
            assert cut is None


@given(st.lists(RATIONALS, min_size=1, max_size=7).filter(any), RATIONALS,
       st.lists(RATIONALS, max_size=3))
def test_integer_sign_matches_exact_value(coeffs, x, roots):
    # Roots are multiplied in as (x - r) factors, so x = r is an exact zero.
    for r in roots:
        coeffs = _mul(coeffs, [-r, F(1)])
    p = UniPoly.from_coeffs(coeffs)
    for point in [x, *roots]:
        value = _fraction_horner(coeffs, point)
        sign = _horner(p.ints, point.numerator, point.denominator)
        assert (sign > 0) - (sign < 0) == (value > 0) - (value < 0)


SMALL_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(st.lists(SMALL_RATIONALS, min_size=1, max_size=5).filter(any),
       st.lists(SMALL_RATIONALS, max_size=3), st.integers(1, 3),
       st.lists(RATIONALS, max_size=4))
def test_integer_sturm_chain_matches_fraction_chain(coeffs, roots, power, points):
    """The integer Sturm chain of a polynomial with repeated roots counts
    the distinct roots between two non-roots as the reference chain of its
    squarefree part does: at drawn points and at points beside the roots
    multiplied in."""
    for r in roots:
        for _ in range(power):
            coeffs = _mul(coeffs, [-r, F(1)])
    p = UniPoly.from_coeffs(coeffs)
    ref_chain = oracle._sturm_chain(oracle._squarefree(p))
    chain = _sturm_chain(_primitive(list(p.ints)))

    def ref_variations(x):
        signs = [s for s in ((q(x) > 0) - (q(x) < 0) for q in ref_chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    near = [r + e for r in roots for e in (F(-1, 10 ** 3), F(1, 10 ** 3))]
    xs = sorted({x for x in [*points, *near, F(-10 ** 7), F(10 ** 7)] if p(x) != 0})
    for a, b in combinations(xs, 2):
        assert (_variations(chain, a) - _variations(chain, b)
                == ref_variations(a) - ref_variations(b))


def _pinned_corpus():
    """Seeded polynomials, positive right of 0, with rational roots (some
    doubled), irrational roots of irreducible quadratics, or no root."""
    rng = random.Random(20261018)
    for _ in range(60):
        factors = [[F(rng.randint(1, 40), rng.randint(1, 12)), F(-1)]
                   for _ in range(rng.randint(0, 3))]
        if factors and rng.random() < 0.4:
            factors.append(factors[0])  # a doubled root
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:  # c - x^2: irrational root unless c is a square
                c = F(rng.choice([2, 3, 5, 6, 7, 10, 11]) * rng.randint(1, 5) ** 2,
                      rng.randint(1, 9))
                factors.append([c, F(0), F(-1)])
            else:  # x^2 + b x + c with b^2 < 4c: no real root
                b = F(rng.randint(-6, 6), rng.randint(1, 4))
                factors.append([b * b / 4 + F(rng.randint(1, 9), rng.randint(1, 9)),
                                b, F(1)])
        poly = [F(0)] * rng.randint(0, 2) + [F(rng.randint(1, 9), rng.randint(1, 9))]
        for factor in factors:
            poly = _mul(poly, factor)
        yield UniPoly.from_coeffs(poly)


# Digest of the corpus cuts, recorded with the Fraction-arithmetic search
# that preceded integer sign evaluation: 101 exact, 49 interval, 30 none.
PINNED_CUTS = "dc1eeb41b36eb15da9f57e9668153ab1adeeaaacdf3cc968cac04f72bfe0c524"


def test_first_negative_cut_is_pinned():
    hasher = hashlib.sha256()
    for poly in _pinned_corpus():
        for tol in (F(1, 2 ** 4), F(1, 2 ** 10), F(1, 2 ** 40)):
            cut = first_negative_cut(poly, tol)
            key = None if cut is None else (cut.exact, cut.lo, cut.hi)
            hasher.update(repr(key).encode())
    assert hasher.hexdigest() == PINNED_CUTS


def test_repeated_roots_cut_at_the_factorization_reference():
    """Roots of multiplicity up to 4, with root-free quadratic factors:
    the divided Sturm chain still finds the first root of odd cumulative
    multiplicity, exactly."""
    rng = random.Random(18)
    for _ in range(200):
        roots = {F(rng.randint(1, 40), rng.randint(1, 12)): rng.randint(1, 4)
                 for _ in range(rng.randint(1, 4))}
        poly = [F(0)] * rng.randint(0, 2) + [F(rng.randint(1, 9), rng.randint(1, 9))]
        for r, mult in roots.items():
            for _ in range(mult):
                poly = _mul(poly, [r, F(-1)])
        if rng.random() < 0.5:  # x^2 + b x + c with b^2 < 4c
            b = F(rng.randint(-6, 6), rng.randint(1, 4))
            poly = _mul(poly, [b * b / 4 + F(1, rng.randint(1, 9)), b, F(1)])
        want = oracle.first_negative_root(roots)
        cut = first_negative_cut(UniPoly.from_coeffs(poly))
        assert (None if cut is None else cut.exact) == want, roots
    # (1 - x)^2 (2 - x)^3: the double root is a touch, the triple a cut.
    p = UniPoly.from_coeffs(_mul(_mul([F(1), F(-2), F(1)], [F(2), F(-1)]),
                                 _mul([F(2), F(-1)], [F(2), F(-1)])))
    assert first_negative_cut(p).exact == 2 == oracle.first_negative_root({F(1): 2, F(2): 3})


ROOTS = st.fractions(min_value=-4, max_value=4, max_denominator=16).filter(bool)


@st.composite
def factored_polys(draw):
    """x**j times (1 - x / r)**m for drawn roots r and multiplicities m in
    1..4, times root-free quadratics x**2 + b x + c, b**2 < 4c; sometimes
    one coefficient is moved by 1/10**6, which splits roots into close
    irrational ones.  The lowest-order coefficient stays positive."""
    poly = [F(0)] * draw(st.integers(0, 2)) + [F(1)]
    for r in draw(st.lists(ROOTS, max_size=3)):
        for _ in range(draw(st.integers(1, 4))):
            poly = _mul(poly, [F(1), -1 / r])
    for _ in range(draw(st.integers(0, 1))):
        b = draw(st.fractions(-2, 2, max_denominator=8))
        poly = _mul(poly, [b * b / 4 + draw(st.sampled_from([F(1, 16), F(1, 2), F(3)])),
                           b, F(1)])
    if draw(st.booleans()):
        poly[draw(st.integers(0, len(poly) - 1))] += draw(st.sampled_from([-1, 1])) * F(1, 10**6)
    p = UniPoly.from_coeffs(poly)
    assume(not p.negative_germ)
    return p


@settings(max_examples=300)
@given(factored_polys())
def test_first_negative_cut_matches_the_recursive_search(p):
    """The one pass returns the (exact, lo, hi), or None, of the recursive
    search in `oracle`, at coarse and at fine tol."""
    for tol in (F(1, 2**2), F(1, 2**4), F(1, 2**10), F(1, 2**40)):
        assert first_negative_cut(p, tol) == oracle.first_negative_cut_search(p, tol), tol


def test_sturm_chain_is_divided_by_its_last_member():
    # (1 - x)^2 (3 - x): the chain of a polynomial with a double root ends
    # at a constant once divided by gcd(p, p') = 1 - x.
    p = [3, -7, 5, -1]
    chain = _sturm_chain(p)
    assert len(chain[-1]) == 1 and len(chain[0]) == 3


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


def test_negative_germ_and_its_witness():
    assert P(0, -1, 5).negative_germ
    assert not P(0, 1, -5).negative_germ and not P(0).negative_germ
    # -x + 5 x^2 is negative on (0, 1/5): 1, 1/2 and 1/4 hold, 1/8 fails.
    assert P(0, -1, 5).germ_witness() == F(1, 8)


def _first_negative_label(polys, probes=None):
    def fails(r):
        if probes is not None:
            probes.append(r)
        return next((label for label, p in polys.items() if p(r) < 0), None)
    return fails


def test_refine_cuts_the_keys_of_failure_records():
    polys = {"a": P(2, -1), "b": P(1, -1)}
    first = _first_negative_label(polys)

    def fails(r):
        label = first(r)
        return None if label is None else (label, r)

    cut, key, n_cut, failure = refine(polys.__getitem__, fails, lambda w: w[0],
                                      polys, TOL)
    assert (cut.exact, key, n_cut, failure) == (1, "b", 2, ("b", 1 + TOL))


def test_refine_zero_key_binds_at_0_and_is_confirmed():
    polys = {"a": P(1, 1), "b": P(0, -1, 5)}
    probes = []
    cut, key, n_cut, failure = refine(polys.__getitem__,
                                      _first_negative_label(polys, probes),
                                      lambda label: label, polys, TOL, zero="b")
    assert (cut.exact, key, n_cut, failure) == (0, "b", 0, "b")
    assert probes == [TOL]


def test_refine_without_a_turning_candidate_is_unbounded():
    polys = {"a": P(1, 1), "b": P(2)}
    assert refine(polys.__getitem__, _first_negative_label(polys),
                  lambda label: label, polys, TOL) is None


@pytest.mark.parametrize("tol", [F(0), F(-1)])
@pytest.mark.parametrize("zero", [None, "a"])
def test_refine_rejects_a_nonpositive_tol(tol, zero):
    polys = {"a": P(-1, 1)}
    with pytest.raises(InputError, match="tolerance must be positive"):
        refine(polys.__getitem__, _first_negative_label(polys),
               lambda label: label, polys, tol, zero)


def test_refine_rejects_a_named_key_whose_cut_is_not_lower():
    polys = {"a": P(1, -1), "b": P(2, -1)}
    with pytest.raises(AssertionError, match="restriction b fails at 1"):
        refine(polys.__getitem__, lambda r: "b", lambda label: label, ["a"], TOL)


def test_refine_confirmation_needs_a_failure_above_the_cut():
    polys = {"a": P(1, -1)}
    with pytest.raises(AssertionError, match="still holds at 1"):
        refine(polys.__getitem__, lambda r: None, lambda label: label, polys, TOL)


def _drive_by_hand(steps, fails, asked):
    """Run a `refinement` generator, answering each delta it yields."""
    try:
        delta = next(steps)
        while True:
            asked.append(delta)
            delta = steps.send(fails(delta))
    except StopIteration as stop:
        return stop.value


def test_refinement_driven_by_hand_matches_refine():
    polys = {"a": P(2, -1), "b": P(1, -1)}
    first = _first_negative_label(polys)

    def fails(r):
        label = first(r)
        return None if label is None else (label, r)

    asked = []
    got = _drive_by_hand(refinement(polys.__getitem__, lambda w: w[0], polys, TOL),
                         fails, asked)
    assert got == refine(polys.__getitem__, fails, lambda w: w[0], polys, TOL)
    assert got == (Cut(F(1), F(1), F(1)), "b", 2, ("b", 1 + TOL))
    assert asked == [2, 1, 1 + TOL]
    # A check that never fails: the same error past DESCENT_LIMIT halvings.
    polys = {"a": P(1, -1)}
    raised = []
    for run in (lambda: refine(polys.__getitem__, lambda r: None, lambda label: label,
                               polys, TOL),
                lambda: _drive_by_hand(refinement(polys.__getitem__, lambda label: label,
                                                  polys, TOL), lambda r: None, asked)):
        with pytest.raises(AssertionError, match="still holds at 1") as exc:
            run()
        raised.append(str(exc.value))
    assert raised[0] == raised[1]
    assert len(asked) == 3 + 1 + DESCENT_LIMIT
