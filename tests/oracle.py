"""Test oracles: `generate_alt`, the P_i from the Neumann expansion of the
stage equations, independent of `rkpos.polygen.generate` but for the shared
Sum_i P_i = 1 check; `coded`, polynomials from tag-set-keyed rational
terms, and `scaled`, which writes rational terms as the integer numerators
over one scale that `MultilinearPoly` stores; `min_first_negativity`, the
first negativity over a whole family of univariate polynomials from cutting
every member; `first_negative_root`, the first negativity of a polynomial
read off its factorization; `derivative`, `_divmod`, `_sturm_chain` and
`_squarefree`, the Euclidean Sturm chain and squarefree part over Fraction,
whose root counts the integer Sturm chain of `rkpos.univariate` must match;
`ssp_feasible`, the SSP feasibility check by forward substitution over
Fraction, the reference for the integer one of `rkpos.bounds`;
`chain_weights_subsets`, the stage chains from a scan of all 2**m - 1 stage
subsets, the reference for the backward walk of `rkpos.tableau`; and
`first_negative_cut_search`, the first negativity from a recursive Sturm
search with a bisection for the single root and another for its bracket,
the reference for the one pass of `rkpos.univariate`; and `sweep_per_point`,
a sweep that generates and certifies its points one at a time, the
reference for the stacked chunks of `rkpos.gamma.sweep`."""

from fractions import Fraction
from itertools import combinations, dropwhile
from math import lcm
from typing import Iterable, Iterator, Optional, TypeVar

from rkpos.bounds import ssp_coefficient
from rkpos.errors import InputError, ParameterDomainError
from rkpos.gamma import SweepRow, _frange, compute_gamma

from rkpos.multilinear import MultilinearPoly, VarTag, canonical_order
from rkpos.polygen import PropagationSet, StencilSpec, _check_unity
from rkpos.tableau import ButcherTableau, make_family
from rkpos import univariate
from rkpos.univariate import Cut, UniPoly, first_negative_cut

K = TypeVar("K")

# Polynomials {frozenset of VarTag -> Fraction} and operators {d -> poly}.
_Poly = dict[frozenset, Fraction]
_LatticeOp = dict[int, _Poly]


def coded(vars, terms) -> MultilinearPoly:
    """The polynomial with terms {frozenset of VarTags: coeff} over `vars`
    in canonical order; repeated sets add up and zero terms are dropped."""
    order = canonical_order(vars)
    pos = {v: i for i, v in enumerate(order)}
    out: dict[int, Fraction] = {}
    for tags, coeff in terms.items():
        code = sum(1 << pos[tag] for tag in tags)
        out[code] = out.get(code, Fraction(0)) + Fraction(coeff)
    return MultilinearPoly(order, *scaled({c: v for c, v in out.items() if v != 0}))


def scaled(terms: dict) -> tuple[dict, int]:
    """(numerators, scale): rational `terms` as integers over the lcm of
    their denominators."""
    scale = lcm(*[Fraction(c).denominator for c in terms.values()])
    return {key: int(c * scale) for key, c in terms.items()}, scale


def _padd(dst: _Poly, src: _Poly, factor: Fraction) -> None:
    for tags, coeff in src.items():
        new = dst.get(tags, Fraction(0)) + coeff * factor
        if new == 0:
            dst.pop(tags, None)
        else:
            dst[tags] = new


def _shift_poly(p: _Poly, s: int) -> _Poly:
    # Relabel a polynomial expressed relative to index k so it is relative to
    # k - s: variable (j, o) becomes (j, o - s).
    if s == 0:
        return p
    return {
        frozenset(VarTag(t.stage, t.offset - s) for t in tags): c for tags, c in p.items()
    }


def _mul_fresh_var(p: _Poly, var: VarTag) -> _Poly:
    out: _Poly = {}
    for tags, coeff in p.items():
        if var in tags:
            raise AssertionError(f"variable {var} is not fresh in this product")
        out[tags | {var}] = coeff
    return out


def _apply_stencil(op: _LatticeOp, stencil: StencilSpec) -> _LatticeOp:
    # (D V)_k = sum_s c_s V_{k-s}; displacement d picks up s, tags shift by -s.
    out: _LatticeOp = {}
    for s, cs in stencil.coeffs.items():
        for d, poly in op.items():
            _padd(out.setdefault(d + s, {}), _shift_poly(poly, s), cs)
    return out


def _finalize(t: ButcherTableau, s: StencilSpec, raw: _LatticeOp) -> PropagationSet:
    tags = canonical_order(tag for poly in raw.values() for tags in poly for tag in tags)
    polys = {d: coded(tags, p) for d, p in raw.items() if p}
    _check_unity(s, polys.values(), stacklevel=4)
    return PropagationSet(tableau=t, stencil=s, vars=tags, polys=polys)


def generate_alt(t: ButcherTableau, s: StencilSpec) -> PropagationSet:
    """Independent construction from the closed-form Neumann expansion.

    Builds sum_{i=0}^{m-1} ((A (x) D) Q)^i (e (x) D) and contracts with b and
    the diagonal of stage variables; a cross-check oracle for generate().
    """
    m = t.m
    # term[j] is the j-th stage component of the current Neumann term.
    term: list[_LatticeOp] = []
    base = _apply_stencil({0: {frozenset(): Fraction(1)}}, s)
    for _ in range(m):
        term.append({d: dict(poly) for d, poly in base.items()})
    step: _LatticeOp = {0: {frozenset(): Fraction(1)}}
    for _ in range(m):
        for j in range(m):
            if t.b[j] == 0:
                continue
            var = VarTag(j + 1, 0)
            for d, poly in term[j].items():
                _padd(step.setdefault(d, {}), _mul_fresh_var(poly, var), t.b[j])
        nxt: list[_LatticeOp] = []
        for i in range(m):
            acc: _LatticeOp = {}
            for j in range(i):
                if t.a[i][j] == 0:
                    continue
                var = VarTag(j + 1, 0)
                mult = {
                    d: _mul_fresh_var(poly, var) for d, poly in term[j].items() if poly
                }
                shifted = _apply_stencil(mult, s)
                for d, poly in shifted.items():
                    _padd(acc.setdefault(d, {}), poly, t.a[i][j])
            nxt.append(acc)
        term = nxt
    return _finalize(t, s, step)


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


def first_negative_root(roots: dict[Fraction, int]) -> Optional[Fraction]:
    """inf{x > 0 : p(x) < 0} for p = c * x**j * prod (r - x)**roots[r]
    times any factor positive on (0, oo), with c > 0 and every r > 0:
    right of a root the sign of p is (-1) to the multiplicities up to it,
    so p turns negative at the least root where they sum to an odd
    number, and never if there is none."""
    total = 0
    for r in sorted(roots):
        total += roots[r]
        if total % 2:
            return r
    return None


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


def derivative(p: UniPoly) -> UniPoly:
    return UniPoly.from_coeffs([d * c for d, c in enumerate(p.coeffs)][1:])


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, derivative(p)]
    while chain[-1].ints:
        _, r = _divmod(list(chain[-2].coeffs), list(chain[-1].coeffs))
        chain.append(UniPoly.from_coeffs([-c for c in r]))
    return chain[:-1]


def _squarefree(p: UniPoly) -> UniPoly:
    # p / gcd(p, p'); same distinct roots, all simple.
    g = list(p.coeffs)
    h = list(derivative(p).coeffs)
    while h:
        g, h = h, _divmod(g, h)[1]
    if len(g) <= 1:
        return p
    return UniPoly.from_coeffs(_divmod(list(p.coeffs), g)[0])


def ssp_feasible(t: ButcherTableau, r: Fraction) -> bool:
    """Every entry of X = (I + rK)^{-1} [K | e] is >= 0, K = [[A, 0],
    [b^T, 0]]: I + rK is unit lower triangular, so forward substitution
    over Fraction solves (I + rK) X = [K | e] row by row."""
    sol = []
    for row in (*t.a, t.b):
        x = [*row, Fraction(0), Fraction(1)]
        for j, kij in enumerate(row):
            if kij:
                x = [v - r * kij * w for v, w in zip(x, sol[j])]
        sol.append(x)
    return all(v >= 0 for x in sol for v in x)


def chain_weights_subsets(t: ButcherTableau) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """(stages, weight) of every stage subset s1 < ... < sr whose weight
    b_sr * a_{sr,s(r-1)} * ... * a_{s2,s1} is nonzero, shortest first, then
    in `itertools.combinations` order."""
    for r in range(1, t.m + 1):
        for stages in combinations(range(t.m), r):
            weight = t.b[stages[-1]]
            for lo, hi in zip(stages, stages[1:]):
                weight *= t.a[hi][lo]
            if weight != 0:
                yield stages, weight


def first_negative_cut_search(p: UniPoly, tol: Fraction) -> Optional[Cut]:
    """`first_negative_cut(p, tol)` from a recursive search: split (0,
    bound) at non-root midpoints until a piece holds one distinct root,
    bisect that piece, testing each positive midpoint for a touch by a
    Sturm count, until a midpoint is negative, then bisect that bracket
    to `tol`.  p must have a positive germ and tol > 0."""
    h = list(dropwhile(lambda c: c == 0, p.ints))
    if all(c >= 0 for c in h):
        return None
    h = univariate._primitive(h)
    chain, lead = univariate._sturm_chain(h), h[-1]
    bound = Fraction(abs(lead) + max(map(abs, h)), abs(lead))

    def value(x: Fraction) -> int:
        return univariate._horner(h, x.numerator, x.denominator)

    def nroots(a: Fraction, b: Fraction) -> int:
        return univariate._variations(chain, a) - univariate._variations(chain, b)

    def nonroot_between(a: Fraction, b: Fraction) -> Fraction:
        t = (a + b) / 2
        while value(t) == 0:
            t = (a + t) / 2
        return t

    def refine_bracket(a: Fraction, neg: Fraction) -> Cut:
        # Single root in (a, neg); h(a) > 0, h(neg) < 0.
        while neg - a > tol:
            mid = (a + neg) / 2
            sign = value(mid)
            if sign == 0:
                return Cut(exact=mid, lo=mid, hi=mid)
            if sign < 0:
                neg = mid
            else:
                a = mid
        cand = univariate._simplest_between(a, neg)
        if value(cand) == 0:
            return Cut(exact=cand, lo=cand, hi=cand)
        return Cut(exact=None, lo=a, hi=neg)

    def single_root(a: Fraction, b: Fraction) -> Optional[Cut]:
        # One distinct root in (a, b); h(a) > 0, endpoints non-roots.
        while True:
            mid = (a + b) / 2
            sign = value(mid)
            if sign == 0:
                if value(nonroot_between(mid, b)) < 0:
                    return Cut(exact=mid, lo=mid, hi=mid)
                return None
            if sign < 0:
                return refine_bracket(a, mid)
            if nroots(a, mid) == 1:
                return None  # the root left of mid is a touch
            a = mid

    def search(a: Fraction, b: Fraction) -> Optional[Cut]:
        # First negativity in (a, b); h(a) > 0, endpoints non-roots.
        n = nroots(a, b)
        if n == 0:
            return None
        if n == 1:
            return single_root(a, b)
        t = nonroot_between(a, b)
        return search(a, t) or search(t, b)

    return search(Fraction(0), bound)


def sweep_per_point(kind: str, lo: Fraction, hi: Fraction, step: Fraction,
                    stencil: StencilSpec, tol: Fraction, with_ssp: bool) -> list[SweepRow]:
    """`rkpos.gamma.sweep` one point at a time: each valid point's tableau
    is generated and certified on its own by `compute_gamma`."""
    rows = []
    for alpha in _frange(lo, hi, step):
        try:
            t = make_family(kind, (alpha,))
        except ParameterDomainError as exc:
            rows.append(SweepRow(alpha, None, None, None, str(exc)))
            continue
        cert = compute_gamma(t, stencil, tol)
        ssp = ssp_coefficient(t).exact if with_ssp else None
        rows.append(SweepRow(alpha, None, cert, ssp, None))
    return rows
