"""Classical step-size bounds for explicit Runge-Kutta methods.

Two scalar summaries that are often compared with the positivity
coefficient gamma:

* the radius of absolute monotonicity of the stability polynomial phi,
  R(phi) = sup { r >= 0 : phi^(j)(-r) >= 0 for every j }, and
* the SSP (strong stability preservation) coefficient of the method,
  C = sup { r >= 0 : I + rK nonsingular, K(I+rK)^{-1} >= 0,
            (I+rK)^{-1} e >= 0 },
  where K is the (m+1)x(m+1) matrix [[A, 0], [b^T, 0]].

K is strictly lower triangular, so det(I + rK) = 1 and
(I + rK)^{-1} = sum_t (-r)^t K^t is a polynomial matrix.  Each bound is
the sup of a monotone exact check on finitely many univariate
polynomials, found by gamma's routine, `univariate.refine`: cut what the
check names at the lower end until it holds there, then confirm that it
fails just above.  `BoundResult` is the record of all three bounds;
gamma's `GammaCertificate` extends it.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Optional

from .errors import rational
from .tableau import ButcherTableau
from .univariate import DEFAULT_TOL, UniPoly, refine

__all__ = [
    "BoundResult",
    "radius_abs_monotonicity",
    "ssp_coefficient",
    "ssp_feasible",
    "stability_polynomial",
]


@dataclass(frozen=True)
class BoundResult:
    """An exact sup-of-feasible-r bound.

    `exact` is the bound when it was pinned to a rational; otherwise
    [lower, upper] brackets it.  `unbounded` means every constraint
    polynomial stays nonnegative on [0, oo); then `upper` and `witness`
    are None.  For C and R(phi), `witness` names the binding constraint
    (and, for a zero bound, the one violated arbitrarily close to 0).
    """

    lower: Fraction
    upper: Optional[Fraction]
    exact: Optional[Fraction]
    unbounded: bool
    witness: Optional[object]

    def __str__(self) -> str:
        if self.unbounded:
            return "+inf"
        if self.exact is not None:
            return str(self.exact)
        return f"[{self.lower}, {self.upper}]"


def _min_bound(labeled: list[tuple[str, UniPoly]], holds: Callable[[Fraction], bool],
               tol: Fraction) -> BoundResult:
    """sup { r >= 0 : holds(r) }, where holds(r) checks exactly that every
    labeled polynomial is >= 0 on [0, r].  A label with a negative germ
    binds at 0; otherwise `refine` cuts the labels in family order."""

    def fails(r: Fraction) -> Optional[str]:
        if holds(r):
            return None
        for label, p in labeled:
            if p(r) < 0:
                return label
        raise AssertionError(f"check fails at {r} but no polynomial is negative")

    polys = dict(labeled)
    zero = next((label for label, p in labeled if p.negative_germ), None)
    found = refine(polys.__getitem__, fails, lambda label: label, polys, tol, zero)
    if found is None:
        return BoundResult(Fraction(0), None, None, unbounded=True, witness=None)
    cut, label, _, _ = found
    return BoundResult(cut.lower, cut.upper, cut.exact, False, witness=label)


def _lk(t: ButcherTableau) -> tuple[int, list[list[int]]]:
    """(L, LK): L the lcm of the denominators of K = [[A, 0], [b^T, 0]],
    and the rows of the integer matrix LK."""
    rows = (*t.a, t.b)
    scale = lcm(*[v.denominator for row in rows for v in row])
    return scale, [[v.numerator * (scale // v.denominator) for v in row] + [0]
                   for row in rows]


def _orbit(k: list[list[int]], v: list[int]) -> list[list[int]]:
    """v, LK v, ..., (LK)^m v for the integer rows k of LK; K^(m+1) = 0."""
    out = [v]
    for _ in range(len(v) - 1):
        out.append([sum(x * y for x, y in zip(row, out[-1]) if x) for row in k])
    return out


def stability_polynomial(t: ButcherTableau) -> UniPoly:
    """phi(z) = 1 + sum_r (b . A^(r-1) e) z^r, the scalar-test-problem
    amplification polynomial.  b . A^(r-1) e, the sum of the weights of
    the r-stage chains, is the last entry of K^r e, so phi's numerators
    over L^m are those of the orbit of e under LK: O(m^3) operations."""
    scale, k = _lk(t)
    ints = [v[-1] * scale ** (t.m - d) for d, v in enumerate(_orbit(k, [1] * (t.m + 1)))]
    return UniPoly(tuple(ints), scale**t.m)


def radius_abs_monotonicity(
    t: ButcherTableau, tol: Fraction = DEFAULT_TOL
) -> BoundResult:
    """R(phi): the largest r with phi and all its derivatives nonnegative
    on [-r, 0], expressed through psi_j(r) = phi^(j)(-r) / j!.  Every
    psi_j >= 0 at r implies it on [0, r], by Taylor expansion about -r.
    psi_j's numerators follow from phi's, over phi's scale."""
    phi = stability_polynomial(t)
    c = phi.ints
    labeled = [(f"phi^({j})", UniPoly(tuple(
                   c[k] * comb(k, j) * (-1) ** (k - j) for k in range(j, len(c))), phi.scale))
               for j in range(len(c))]
    return _min_bound(labeled, lambda r: all(p(r) >= 0 for _, p in labeled), tol)


def _constraint_polys(t: ButcherTableau) -> list[tuple[str, UniPoly]]:
    """Entries of K(I+rK)^{-1} and (I+rK)^{-1}e as polynomials in r.

    Uses (I+rK)^{-1} = sum_d (-r)^d K^d; K^{m+1} = 0.  Column j of K^d is
    (LK)^d e_j / L^d, from the orbit of e_j under LK, and every entry is
    written over L^m: the numerator of (-r K)^d's coefficient is
    (-1)^d (LK)^d L^(m-d).
    """
    m1, (scale, k) = t.m + 1, _lk(t)
    signed = [(-1) ** d * scale ** (t.m - d) for d in range(m1)]
    cols = [_orbit(k, [int(i == j) for i in range(m1)]) for j in range(m1)]
    labeled = []
    for i in range(m1):
        for j in range(m1):
            # K(I+rK)^{-1} entry: the r^(d-1) coefficient is (-1)^(d-1) (K^d)_ij.
            p = UniPoly(tuple(-signed[d] * cols[j][d][i] for d in range(1, m1)), scale**t.m)
            if p.ints:
                labeled.append((f"K(I+rK)^-1[{i},{j}]", p))
        me = tuple(signed[d] * sum(col[d][i] for col in cols) for d in range(m1))
        labeled.append((f"(I+rK)^-1 e[{i}]", UniPoly(me, scale**t.m)))
    return labeled


def ssp_feasible(t: ButcherTableau, r: Fraction) -> bool:
    """Direct exact check of the SSP feasibility conditions at one r.

    Independent of the polynomial route in `ssp_coefficient`: I + rK is
    unit lower triangular, so forward substitution solves (I + rK) X =
    [K | e] row by row, X = (I + rK)^{-1} [K | e].  Only signs are read,
    so it runs on the integer rows of LK: with r = num/den, row i of X
    scaled by L (den L)^i is
        (den L)^i [LK_i | L] - sum_{j<i} num LK_ij (den L)^(i-j-1) (row j scaled).
    """
    r = rational(r)
    scale, k = _lk(t)
    num, dl = r.numerator, r.denominator * scale
    sol = []
    for i, row in enumerate(k):
        y = [dl**i * v for v in (*row, scale)]
        for j, kij in enumerate(row):
            if kij:
                f = num * kij * dl ** (i - j - 1)
                y = [v - f * w for v, w in zip(y, sol[j])]
        sol.append(y)
    # K (I+rK)^{-1} = (I+rK)^{-1} K because K and (I+rK)^{-1} commute.
    return all(v >= 0 for y in sol for v in y)


def ssp_coefficient(
    t: ButcherTableau, tol: Fraction = DEFAULT_TOL
) -> BoundResult:
    """The SSP coefficient C, exactly: `refine` over the feasibility
    constraint polynomials, each cut named by the independent `ssp_feasible`
    check.  The feasible set is [0, C] (Kraaijevanger, BIT 31, 1991)."""
    return _min_bound(_constraint_polys(t), lambda r: ssp_feasible(t, r), tol)
