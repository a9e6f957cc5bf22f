"""Exact univariate polynomials over the rationals.

Houses the vertex-restriction polynomials g_S(delta) and the machinery for
locating the first point on (0, oo) where such a polynomial turns negative:
Sturm-chain root counting, sign-variation bisection, and rational-root
snapping.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _rem(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    # Remainder of f by g, dense coefficient lists, g nonzero.
    f = f[:]
    while f and f[-1] == 0:
        f.pop()
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        q = f[-1] / lg
        shift = len(f) - 1 - dg
        for i, gi in enumerate(g):
            f[shift + i] -= q * gi
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return f


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        r = _rem(list(chain[-2].coeffs), list(chain[-1].coeffs))
        chain.append(UniPoly.from_coeffs([-c for c in r]))
    return chain[:-1]


def _variations(chain: list[UniPoly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = p(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _squarefree(p: UniPoly) -> UniPoly:
    # p / gcd(p, p'); same distinct roots, all simple.
    g = list(p.coeffs)
    h = list(p.derivative().coeffs)
    while h:
        g, h = h, _rem(g, h)
    if len(g) <= 1:
        return p
    quotient: list[Fraction] = [Fraction(0)] * (len(p.coeffs) - len(g) + 1)
    f = list(p.coeffs)
    dg = len(g) - 1
    while f and len(f) - 1 >= dg:
        q = f[-1] / g[-1]
        quotient[len(f) - 1 - dg] = q
        shift = len(f) - 1 - dg
        for i, gi in enumerate(g):
            f[shift + i] -= q * gi
        while f and f[-1] == 0:
            f.pop()
    return UniPoly.from_coeffs(quotient)


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in the open interval (lo, hi).

    Stern-Brocot descent; requires 0 <= lo < hi.
    """
    whole = lo.numerator // lo.denominator
    if Fraction(whole + 1) < hi:
        return Fraction(whole + 1)
    frac_lo = lo - whole
    frac_hi = hi - whole
    if frac_lo == 0:
        # (0, frac_hi): 1/n for the smallest n with 1/n < frac_hi.
        return whole + Fraction(1, frac_hi.denominator // frac_hi.numerator + 1)
    return whole + 1 / _simplest_between(1 / frac_hi, 1 / frac_lo)


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
    chain = _sturm_chain(hs)
    lead = h.coeffs[-1]
    bound = 1 + max(abs(c / lead) for c in h.coeffs)  # all real roots < bound

    def nroots(a: Fraction, b: Fraction) -> int:
        # Distinct roots of h in (a, b); endpoints must not be roots.
        return _variations(chain, a) - _variations(chain, b)

    def nonroot_between(a: Fraction, b: Fraction) -> Fraction:
        t = (a + b) / 2
        while hs(t) == 0:
            t = (a + t) / 2
        return t

    def refine_bracket(a: Fraction, neg: Fraction) -> Cut:
        # Single root of h in (a, neg); h(a) > 0, h(neg) < 0.
        while neg - a > tol:
            mid = (a + neg) / 2
            v = h(mid)
            if v == 0:
                return Cut(exact=mid, lo=mid, hi=mid)
            if v < 0:
                neg = mid
            else:
                a = mid
        # A rational root with modest denominator is the simplest rational
        # in a tight enough bracket; accept the candidate only if it is
        # genuinely a root.
        cand = _simplest_between(a, neg)
        if h(cand) == 0:
            return Cut(exact=cand, lo=cand, hi=cand)
        return Cut(exact=None, lo=a, hi=neg)

    def single_root(a: Fraction, b: Fraction) -> Optional[Cut]:
        # Exactly one distinct root r of h in (a, b); h(a) > 0, endpoints non-roots.
        while True:
            mid = (a + b) / 2
            if hs(mid) == 0:
                after = nonroot_between(mid, b)
                if h(after) < 0:
                    return Cut(exact=mid, lo=mid, hi=mid)
                return None  # touches zero, stays nonnegative
            v = h(mid)
            if v < 0:
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
