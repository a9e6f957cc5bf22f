"""Exact univariate polynomials over the rationals.

Houses the vertex-restriction polynomials g_S(delta) and the machinery for
locating the first point on (0, oo) where such a polynomial turns negative:
Sturm-chain root counting, sign-variation bisection, and rational-root
snapping.  The search needs only signs: each polynomial it evaluates is
scaled once to integer coefficients, and its sign at num/den is that of
the integer den**deg * p(num/den), computed by homogeneous Horner.  The
bisection that narrows a bracket to `tol` runs on integer numerators over
one shared denominator and builds Fractions only for the `Cut` it
returns.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

from .errors import InputError

__all__ = ["UniPoly", "Cut", "descend", "first_negative_cut", "min_first_negativity"]

K = TypeVar("K")
W = TypeVar("W")

# Halvings allowed to `descend`.  Callers' checks typically fail at the
# first probe; the cap leaves room for coefficient ratios up to 2**256 and
# turns a check that never fails into an error instead of a hang.
DESCENT_LIMIT = 256


@dataclass(frozen=True)
class UniPoly:
    """Dense polynomial in one variable; coeffs[d] is the degree-d coefficient."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Sequence[Union[int, Fraction]]) -> "UniPoly":
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return UniPoly(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly.from_coeffs([d * c for d, c in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"({c})*d^{d}" if d else f"({c})")
        return " + ".join(parts)


def _divmod(f: list[Fraction], g: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """(quotient, remainder) of f by g: dense coefficient lists, g nonzero."""
    f = f[:]
    while f and f[-1] == 0:
        f.pop()
    dg = len(g) - 1
    quotient = [Fraction(0)] * max(len(f) - dg, 0)
    while len(f) > dg:
        q = f[-1] / g[-1]
        shift = len(f) - 1 - dg
        quotient[shift] = q
        for i, gi in enumerate(g):
            f[shift + i] -= q * gi
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return quotient, f


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        _, r = _divmod(list(chain[-2].coeffs), list(chain[-1].coeffs))
        chain.append(UniPoly.from_coeffs([-c for c in r]))
    return chain[:-1]


def _integer_multiple(coeffs: Sequence[Fraction]) -> list[int]:
    """Coprime integer coefficients of a positive multiple of the polynomial.

    The multiple has the polynomial's sign at every point.  `coeffs` must
    not be all zero.
    """
    scale = lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    content = gcd(*ints)
    return [c // content for c in ints]


def _sign(ints: Sequence[int], num: int, den: int) -> int:
    """Sign (-1, 0 or 1) of p(num / den) for den > 0; ints[d] is p's degree-d
    coefficient.

    Homogeneous Horner computes sum_d ints[d] * num**d * den**(deg - d),
    which is den**deg * p(num / den) and so has the same sign.
    """
    acc = ints[-1]
    power = 1
    for c in reversed(ints[:-1]):
        power *= den
        acc = acc * num + c * power
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign(p, x.numerator, x.denominator) for p in chain) if s]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _squarefree(p: UniPoly) -> UniPoly:
    # p / gcd(p, p'); same distinct roots, all simple.
    g = list(p.coeffs)
    h = list(p.derivative().coeffs)
    while h:
        g, h = h, _divmod(g, h)[1]
    if len(g) <= 1:
        return p
    return UniPoly.from_coeffs(_divmod(list(p.coeffs), g)[0])


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in the open interval (lo, hi).

    Stern-Brocot descent on integer numerators and denominators; requires
    0 <= lo < hi.  Each level splits off the whole part w of the interval
    (a/b, c/d), answers w + 1 if that lies inside, and otherwise recurses
    on the reciprocal of the fractional parts, (d/c, b/a).
    """
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    wholes = []
    while True:
        whole = a // b
        if (whole + 1) * d < c:
            num, den = whole + 1, 1
            break
        a, c = a - whole * b, c - whole * d
        if a == 0:
            # (0, c/d): 1/k for the smallest k with 1/k < c/d.
            k = d // c + 1
            num, den = whole * k + 1, k
            break
        wholes.append(whole)
        a, b, c, d = d, c, b, a
    for whole in reversed(wholes):
        num, den = whole * num + den, num
    return Fraction(num, den)


@dataclass(frozen=True)
class Cut:
    """First delta > 0 where a polynomial goes negative.

    exact is set when the cut point was identified as a rational; otherwise
    (lo, hi) brackets it: the polynomial is nonnegative on [0, lo] and
    provably negative somewhere in (lo, hi].
    """

    exact: Optional[Fraction]
    lo: Fraction
    hi: Fraction

    @property
    def lower(self) -> Fraction:
        return self.exact if self.exact is not None else self.lo

    @property
    def upper(self) -> Fraction:
        return self.exact if self.exact is not None else self.hi


def first_negative_cut(p: UniPoly, tol: Fraction = Fraction(1, 2**40)) -> Optional[Cut]:
    """inf{delta > 0 : p(delta) < 0}, assuming p >= 0 immediately right of 0.

    Returns None when p never goes negative on (0, oo).  The lowest-order
    nonzero coefficient of p must be positive (callers run the zero test
    first); violating that raises ValueError.  A nonpositive `tol` raises
    InputError, since bisection to it would never end.
    """
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    coeffs = list(p.coeffs)
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    if k == len(coeffs):
        return None  # identically zero
    if coeffs[k] < 0:
        raise ValueError("polynomial is negative immediately right of 0")
    h = UniPoly.from_coeffs(coeffs[k:])  # delta^k factor dropped; h(0) > 0
    if all(c >= 0 for c in h.coeffs):
        return None
    hs = _squarefree(h)
    chain = [_integer_multiple(q.coeffs) for q in _sturm_chain(hs)]
    h_ints, hs_ints = _integer_multiple(h.coeffs), chain[0]
    lead = h.coeffs[-1]
    bound = 1 + max(abs(c / lead) for c in h.coeffs)  # all real roots < bound

    def nroots(a: Fraction, b: Fraction) -> int:
        # Distinct roots of h in (a, b); endpoints must not be roots.
        return _variations(chain, a) - _variations(chain, b)

    def nonroot_between(a: Fraction, b: Fraction) -> Fraction:
        t = (a + b) / 2
        while _sign(hs_ints, t.numerator, t.denominator) == 0:
            t = (a + t) / 2
        return t

    def refine_bracket(a: Fraction, neg: Fraction) -> Cut:
        # Single root of h in (a, neg); h(a) > 0, h(neg) < 0.  The bracket
        # is (lo / den, hi / den) with den = q * 2**j, q the lcm of the
        # ends' denominators; halving it doubles den and keeps hi - lo.
        den = lcm(a.denominator, neg.denominator)
        lo = a.numerator * (den // a.denominator)
        hi = neg.numerator * (den // neg.denominator)
        while (hi - lo) * tol.denominator > tol.numerator * den:
            mid = lo + hi
            den *= 2
            sign = _sign(h_ints, mid, den)
            if sign == 0:
                root = Fraction(mid, den)
                return Cut(exact=root, lo=root, hi=root)
            if sign < 0:
                lo, hi = 2 * lo, mid
            else:
                lo, hi = mid, 2 * hi
        a, neg = Fraction(lo, den), Fraction(hi, den)
        # A rational root with modest denominator is the simplest rational
        # in a tight enough bracket; accept the candidate only if it is
        # genuinely a root.
        cand = _simplest_between(a, neg)
        if _sign(h_ints, cand.numerator, cand.denominator) == 0:
            return Cut(exact=cand, lo=cand, hi=cand)
        return Cut(exact=None, lo=a, hi=neg)

    def single_root(a: Fraction, b: Fraction) -> Optional[Cut]:
        # Exactly one distinct root r of h in (a, b); h(a) > 0, endpoints non-roots.
        while True:
            mid = (a + b) / 2
            if _sign(hs_ints, mid.numerator, mid.denominator) == 0:
                after = nonroot_between(mid, b)
                if _sign(h_ints, after.numerator, after.denominator) < 0:
                    return Cut(exact=mid, lo=mid, hi=mid)
                return None  # touches zero, stays nonnegative
            if _sign(h_ints, mid.numerator, mid.denominator) < 0:
                return refine_bracket(a, mid)
            if nroots(a, mid) == 1:
                # Root lies left of mid with h(mid) > 0: an even touch.
                return None
            a = mid

    def search(a: Fraction, b: Fraction) -> Optional[Cut]:
        # First negativity of h in (a, b); h(a) > 0, endpoints non-roots.
        n = nroots(a, b)
        if n == 0:
            return None  # no roots, so h keeps the sign it has at a
        if n == 1:
            return single_root(a, b)
        t = nonroot_between(a, b)
        left = search(a, t)
        if left is not None:
            return left
        return search(t, b)  # h(t) > 0 since (a, t) held no negativity

    result = search(Fraction(0), bound)
    if result is None and lead < 0:
        raise AssertionError("negative leading coefficient but no cut found")
    return result


def min_first_negativity(
    family: Iterable[tuple[K, UniPoly]], tol: Fraction
) -> Optional[tuple[Cut, K]]:
    """inf{delta > 0 : some member of `family` is negative at delta}.

    `family` holds (key, polynomial) pairs.  Returns None when no member
    ever turns negative on (0, oo), else the combined cut and the key of
    the binding member (the smallest key among ties).  A member whose
    lowest-order nonzero coefficient is negative binds at exactly 0.
    Otherwise the minimum is exact only when the smallest exact cut is no
    larger than the `lo` of every interval cut, since an interval cut
    could hide a first negativity anywhere in (lo, hi].  A nonpositive
    `tol` raises InputError, as in `first_negative_cut`.
    """
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    cuts = []
    for key, p in family:
        if next((c for c in p.coeffs if c != 0), 0) < 0:
            return Cut(Fraction(0), Fraction(0), Fraction(0)), key
        cut = first_negative_cut(p, tol)
        if cut is not None:
            cuts.append((cut, key))
    if not cuts:
        return None
    exact = min(((c.exact, key) for c, key in cuts if c.exact is not None),
                default=None)
    if exact is not None and all(exact[0] <= c.lo for c, _ in cuts
                                 if c.exact is None):
        return Cut(exact[0], exact[0], exact[0]), exact[1]
    upper, key = min((c.upper, key) for c, key in cuts)
    return Cut(None, min(c.lower for c, _ in cuts), upper), key


def descend(
    fails: Callable[[Fraction], Optional[W]], point: Fraction, step: Fraction
) -> W:
    """The first failure of an exact check at point + step / 2**k, k >= 0.

    `fails(x)` returns None where the check holds and a failure record
    where it does not.  Callers know the check fails on some interval
    (point, point + eta), so the descent ends; past DESCENT_LIMIT
    halvings it raises AssertionError naming the point and the step.
    """
    step = Fraction(step)
    for _ in range(DESCENT_LIMIT):
        failure = fails(point + step)
        if failure is not None:
            return failure
        step /= 2
    raise AssertionError(
        f"exact check still holds at {point} + {step} after "
        f"{DESCENT_LIMIT} halvings"
    )
