"""Exact univariate polynomials over the rationals.

Houses the vertex-restriction polynomials g_S(delta) and the machinery for
locating the first point on (0, oo) where such a polynomial turns negative:
one left-to-right pass that isolates roots by Sturm counts, bisects the
first crossing and settles whether it is rational on the grid of 1/|lead|,
else snaps it to a rational root.  A `UniPoly` holds integer
numerators over one positive scale, so the pass reads signs straight from
them: the sign of p at num/den is that of the integer den**deg *
p(num/den), computed by homogeneous Horner, which evaluation shares.  The
bisection runs on integer numerators over one shared denominator.
`refine`, behind gamma, C and R(phi), finds and confirms the sup of a
monotone exact check by cutting only the restrictions that the check
names; as the generator `refinement` it leaves the checks to its caller,
so that many refinements share them.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import dropwhile
from math import gcd, lcm
from typing import Callable, Generator, Iterable, Optional, Sequence, TypeVar, Union

from .errors import InputError, rational

__all__ = ["UniPoly", "Cut", "DEFAULT_TOL", "descend", "descent", "first_negative_cut",
           "positive_tol", "refine", "refinement"]

K = TypeVar("K")
W = TypeVar("W")

# Halvings allowed to `descend`.  Callers' checks typically fail at the
# first probe; the cap leaves room for coefficient ratios up to 2**256 and
# turns a check that never fails into an error instead of a hang.
DESCENT_LIMIT = 256

# Width to which an irrational cut point is bracketed, unless callers say.
DEFAULT_TOL = Fraction(1, 2**40)


@dataclass(frozen=True)
class UniPoly:
    """Dense polynomial in one variable: p(x) = sum_d ints[d] x**d / scale.

    `ints` are integer numerators, without trailing zeros, and `scale` is a
    positive integer; construction reduces them to lowest terms.  A
    numerator that is not an int (a Fraction, a float or a bool) or a
    nonpositive scale raises InputError.  `from_coeffs` takes rationals,
    and `coeffs` gives them back.
    """

    ints: tuple[int, ...]
    scale: int = 1

    def __post_init__(self):
        ints, scale = list(self.ints), self.scale
        if type(scale) is not int or scale <= 0 or any(type(c) is not int for c in ints):
            raise InputError(f"need int numerators over a positive int scale, got "
                             f"{ints!r} over {scale!r}")
        while ints and ints[-1] == 0:
            ints.pop()
        common = gcd(scale, *ints)
        object.__setattr__(self, "ints", tuple(c // common for c in ints))
        object.__setattr__(self, "scale", scale // common)

    @staticmethod
    def from_coeffs(coeffs: Sequence[Union[int, Fraction]]) -> "UniPoly":
        """The polynomial with coefficients coeffs[d], exact rationals."""
        c = [rational(x) for x in coeffs]
        scale = lcm(*[x.denominator for x in c])
        return UniPoly(tuple(x.numerator * (scale // x.denominator) for x in c), scale)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """coeffs[d] is the degree-d coefficient."""
        return tuple(Fraction(c, self.scale) for c in self.ints)

    def __call__(self, x: Fraction) -> Fraction:
        x = rational(x)
        value = _horner(self.ints, x.numerator, x.denominator)
        return Fraction(value, self.scale * x.denominator ** max(len(self.ints) - 1, 0))

    @property
    def negative_germ(self) -> bool:
        """Whether the lowest-order nonzero coefficient is negative, that
        is, p < 0 on some interval (0, eps)."""
        return next((c for c in self.ints if c), 0) < 0

    def germ_witness(self) -> Fraction:
        """The first 1 / 2**k, k >= 0, where p < 0; needs `negative_germ`."""
        return descend(lambda d: d if self(d) < 0 else None, Fraction(0), Fraction(1))


def _horner(ints: Sequence[int], num: int, den: int) -> int:
    """den**deg * p(num / den) for den > 0, where ints[d] is p's degree-d
    coefficient: homogeneous Horner sums ints[d] * num**d * den**(deg - d).
    It has the sign of p(num / den)."""
    if not ints:
        return 0
    acc, power = ints[-1], 1
    for c in ints[-2::-1]:
        power *= den
        acc = acc * num + c * power
    return acc


def _pseudo_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of |lc(g)|**k * f by g, k >= 0, for integer
    lists, f without trailing zeros and g nonzero.  Scaling by |lc(g)|, not
    lc(g), flips no sign: both are positive multiples of the Euclidean ones
    (Collins, JACM 14, 1967; Brown & Traub, JACM 18, 1971)."""
    scale, sign, dg = abs(g[-1]), (g[-1] > 0) - (g[-1] < 0), len(g) - 1
    quotient = [0] * max(len(f) - dg, 0)
    while len(f) > dg:
        c, shift = f[-1] * sign, len(f) - 1 - dg
        quotient = [scale * x for x in quotient]
        quotient[shift] += c
        f = [scale * x for x in f]
        for i, gi in enumerate(g):
            f[shift + i] -= c * gi
        while f and f[-1] == 0:
            f.pop()
    return quotient, f


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients; p nonzero."""
    content = gcd(*p)
    return [c // content for c in p]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm chain p, p', -rem(p, p'), ... of a primitive p, each member
    primitive and a positive multiple of the Euclidean one, then divided
    by its last member.  For p not squarefree the last member is a
    multiple of gcd(p, p'), which divides every member, so each primitive
    pseudo-quotient is the exact quotient; the quotients have lower degree
    and the same sign variations at every point that is not a root of p,
    so they count the distinct roots of p between two such points."""
    chain, nxt = [p], [d * c for d, c in enumerate(p)][1:]
    while nxt:
        chain.append(_primitive(nxt))
        nxt = [-c for c in _pseudo_divmod(chain[-2], chain[-1])[1]]
    if len(chain[-1]) > 1:
        chain = [_primitive(_pseudo_divmod(f, chain[-1])[0]) for f in chain]
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    values = (_horner(p, x.numerator, x.denominator) for p in chain)
    signs = [v > 0 for v in values if v]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


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


def first_negative_cut(p: UniPoly, tol: Fraction = DEFAULT_TOL) -> Optional[Cut]:
    """inf{delta > 0 : p(delta) < 0}, assuming p >= 0 immediately right of 0.

    Returns None when p never goes negative on (0, oo).  The lowest-order
    nonzero coefficient of p must be positive (callers run the zero test
    first); violating that raises ValueError.  A nonpositive `tol` raises
    InputError, since bisection to it would never end.

    One pass, left to right, over (0, bound), bound past every real root of
    h = p / delta**k: Sturm counts split it at non-root midpoints into
    pieces that each hold one distinct root, and h > 0 at each piece's
    left end.  A piece whose right end is positive holds a touch and is
    skipped.  The first whose right end is negative is bisected: a
    midpoint where h = 0 is the exact cut; otherwise halving goes on until
    the upper end is a midpoint where h < 0, and then until the width is
    at most `tol`.  A bracket whose simplest rational is a root snaps to
    it, unless the rational-root grid has decided the crossing first.
    """
    tol = positive_tol(tol)
    if p.negative_germ:
        raise ValueError("polynomial is negative immediately right of 0")
    h = list(dropwhile(lambda c: c == 0, p.ints))  # delta^k factor dropped; h(0) > 0
    if all(c >= 0 for c in h):
        return None  # identically zero, or positive on (0, oo)
    h = _primitive(h)
    # One chain, of h itself: h has the zeros of its squarefree part.
    chain, lead = _sturm_chain(h), h[-1]
    bound = Fraction(abs(lead) + max(map(abs, h)), abs(lead))  # > every real root

    def value(x: Fraction) -> int:
        # A positive multiple of h(x).
        return _horner(h, x.numerator, x.denominator)

    a, ends = Fraction(0), [bound]  # the piece (a, ends[-1]); h(a) > 0
    while ends:
        b = ends[-1]
        roots = _variations(chain, a) - _variations(chain, b)
        if roots > 1:
            t = (a + b) / 2
            while value(t) == 0:
                t = (a + t) / 2
            ends.append(t)
        elif roots == 1 and value(b) < 0:
            break
        else:
            a = ends.pop()  # no root, or a touch: h(b) > 0
    else:
        if lead < 0:
            raise AssertionError("negative leading coefficient but no cut found")
        return None
    # The crossing in (a, b) is bracketed by (lo / den, hi / den): halving
    # doubles den and keeps hi - lo.
    den = lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    # A rational root of h has a denominator dividing L = |lead|, so once the
    # bracket is narrower than 1/L its one multiple of 1/L, if any, is the
    # crossing or the crossing is irrational.  Under L**2 * tol < 1 a snap to
    # the simplest rational would find that same root.
    scale = abs(lead)
    grid, snap = scale * scale * tol.numerator < tol.denominator, True
    negative_mid = False
    while not negative_mid or (hi - lo) * tol.denominator > tol.numerator * den:
        if grid and (hi - lo) * scale < den:
            grid = snap = False
            k = lo * scale // den + 1
            if k * den < hi * scale and _horner(h, k, scale) == 0:
                root = Fraction(k, scale)
                return Cut(exact=root, lo=root, hi=root)
        mid, den = lo + hi, 2 * den
        sign = _horner(h, mid, den)
        if sign == 0:
            root = Fraction(mid, den)
            return Cut(exact=root, lo=root, hi=root)
        if sign < 0:
            lo, hi, negative_mid = 2 * lo, mid, True
        else:
            lo, hi = mid, 2 * hi
    a, b = Fraction(lo, den), Fraction(hi, den)
    # A rational root with modest denominator is the simplest rational in a
    # tight enough bracket.
    cand = _simplest_between(a, b) if snap else None
    if cand is not None and value(cand) == 0:
        return Cut(exact=cand, lo=cand, hi=cand)
    return Cut(exact=None, lo=a, hi=b)


def positive_tol(tol) -> Fraction:
    """tol as an exact rational, or InputError unless it is positive."""
    tol = rational(tol)
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    return tol


def refine(restriction: Callable[[K], UniPoly], fails: Callable[[Fraction], Optional[W]],
           key: Callable[[W], K], candidates: Iterable[K], tol: Fraction = DEFAULT_TOL,
           zero: Optional[K] = None) -> Optional[tuple[Cut, K, int, W]]:
    """`refinement` with each delta it asks for checked by `fails`."""
    return _drive(refinement(restriction, key, candidates, tol, zero), fails)


def refinement(restriction: Callable[[K], UniPoly], key: Callable[[W], K],
               candidates: Iterable[K], tol: Fraction = DEFAULT_TOL, zero: Optional[K] = None
               ) -> Generator[Fraction, Optional[W], Optional[tuple[Cut, K, int, W]]]:
    """sup{delta >= 0 : a monotone exact check holds at delta}, confirmed,
    as a generator that yields each delta to check and is sent None where
    the check holds, else a record whose `key` names a restriction
    negative there.

    The check holds on [0, delta] wherever it holds at delta.  A `zero`
    key binds at 0.  Otherwise the check holds just right of 0, and the
    first candidate whose restriction turns negative is cut, then, while
    the check fails at the cut's lower end, the key it names.  `descent`
    from the lower end, by the bracket's width or by `tol`, confirms the
    answer.  Returns (cut, binding key, restrictions cut, confirming
    failure), or None when no candidate turns negative.  `tol` must be
    positive.
    """
    tol = positive_tol(tol)
    cut, bind, n_cut = Cut(Fraction(0), Fraction(0), Fraction(0)), zero, 0
    if zero is None:
        for bind in candidates:
            cut, n_cut = first_negative_cut(restriction(bind), tol), n_cut + 1
            if cut is not None:
                break
        else:
            return None
        # A failing key's restriction is negative at cut.lower, so its cut
        # lies strictly lower: no key repeats and the loop is bounded.
        while (failure := (yield cut.lower)) is not None:
            failing = key(failure)
            below = first_negative_cut(restriction(failing), tol)
            if below is None or below.lower >= cut.lower:
                raise AssertionError(
                    f"restriction {failing} fails at {cut.lower} but its cut is {below}")
            cut, bind, n_cut = below, failing, n_cut + 1
    return cut, bind, n_cut, (yield from descent(cut.lower, cut.upper - cut.lower or tol))


def descend(
    fails: Callable[[Fraction], Optional[W]], point: Fraction, step: Fraction
) -> W:
    """`descent` with each point checked by `fails`."""
    return _drive(descent(point, step), fails)


def descent(point: Fraction, step: Fraction) -> Generator[Fraction, Optional[W], W]:
    """The first failure of an exact check at point + step / 2**k, k >= 0,
    as a generator that yields each point and is sent None where the
    check holds, else a failure record.  Callers know the check fails on
    some interval (point, point + eta), so the descent ends; past
    DESCENT_LIMIT halvings it raises AssertionError naming the point and
    the step.
    """
    point, step = rational(point), rational(step)
    for _ in range(DESCENT_LIMIT):
        failure = yield point + step
        if failure is not None:
            return failure
        step /= 2
    raise AssertionError(
        f"exact check still holds at {point} + {step} after "
        f"{DESCENT_LIMIT} halvings"
    )


def _drive(steps: Generator, fails: Callable):
    """What a `refinement` or `descent` returns when `fails` answers each
    delta it yields."""
    try:
        delta = next(steps)
        while True:
            delta = steps.send(fails(delta))
    except StopIteration as stop:
        return stop.value
