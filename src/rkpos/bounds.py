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
polynomials, and runs gamma's loop, `univariate.refine`: cut what the
check names at the lower end until it holds there, then confirm that it
fails just above.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Optional

from .errors import InputError
from .tableau import ButcherTableau
from .univariate import DEFAULT_TOL, Cut, UniPoly, descend, refine

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
    polynomial stays nonnegative on [0, oo).  `witness` names the binding
    constraint (and, for a zero bound, the one violated arbitrarily close
    to 0).
    """

    lower: Fraction
    upper: Optional[Fraction]
    exact: Optional[Fraction]
    unbounded: bool
    witness: Optional[str]

    def __str__(self) -> str:
        if self.unbounded:
            return "+inf"
        if self.exact is not None:
            return str(self.exact)
        return f"[{self.lower}, {self.upper}]"


def _min_bound(labeled: list[tuple[str, UniPoly]], holds: Callable[[Fraction], bool],
               tol: Fraction) -> BoundResult:
    """sup { r >= 0 : holds(r) }, where holds(r) checks exactly that every
    labeled polynomial is >= 0 on [0, r].  A label whose lowest nonzero
    coefficient is negative binds at 0; otherwise `refine` cuts the labels
    in family order.  Every finite bound is confirmed to fail just above."""
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")

    def fails(r: Fraction) -> Optional[str]:
        if holds(r):
            return None
        for label, p in labeled:
            if p(r) < 0:
                return label
        raise AssertionError(f"check fails at {r} but no polynomial is negative")

    polys = dict(labeled)
    zero = next((label for label, p in labeled
                 if next((c for c in p.coeffs if c), 0) < 0), None)
    found = (refine(polys.__getitem__, fails, polys, tol) if zero is None
             else (Cut(Fraction(0), Fraction(0), Fraction(0)), zero, 0))
    if found is None:
        return BoundResult(Fraction(0), None, None, unbounded=True, witness=None)
    cut, label, _ = found
    descend(fails, cut.lower, cut.upper - cut.lower or tol)
    return BoundResult(cut.lower, cut.upper, cut.exact, False, witness=label)


def stability_polynomial(t: ButcherTableau) -> UniPoly:
    """phi(z) = 1 + sum_r (b . A^(r-1) e) z^r, the scalar-test-problem
    amplification polynomial.  The z^r coefficient is the sum of the
    weights of the r-stage chains; w_r[j], the sum over the r-stage chains
    ending at stage j without the factor b_j, follows from w_1 = e and
    w_r[j] = sum_{i<j} a_ji w_(r-1)[i], in O(m^3) operations."""
    w = [Fraction(1)] * t.m
    coeffs = [Fraction(1)]
    for _ in range(t.m):
        coeffs.append(sum((bj * wj for bj, wj in zip(t.b, w)), Fraction(0)))
        w = [sum((t.a[j][i] * w[i] for i in range(j)), Fraction(0))
             for j in range(t.m)]
    return UniPoly.from_coeffs(coeffs)


def radius_abs_monotonicity(
    t: ButcherTableau, tol: Fraction = DEFAULT_TOL
) -> BoundResult:
    """R(phi): the largest r with phi and all its derivatives nonnegative
    on [-r, 0], expressed through psi_j(r) = phi^(j)(-r) / j!.  Every
    psi_j >= 0 at r implies it on [0, r], by Taylor expansion about -r."""
    c = stability_polynomial(t).coeffs
    labeled = [(f"phi^({j})", UniPoly.from_coeffs(
                   [c[k] * comb(k, j) * (-1) ** (k - j) for k in range(j, len(c))]))
               for j in range(len(c))]
    return _min_bound(labeled, lambda r: all(p(r) >= 0 for _, p in labeled), tol)


def _k_matrix(t: ButcherTableau) -> list[list[Fraction]]:
    """K = [[A, 0], [b^T, 0]]."""
    return [[*row, Fraction(0)] for row in (*t.a, t.b)]


def _constraint_polys(t: ButcherTableau) -> list[tuple[str, UniPoly]]:
    """Entries of K(I+rK)^{-1} and (I+rK)^{-1}e as polynomials in r.

    Uses (I+rK)^{-1} = sum_t (-r)^t K^t; K^{m+1} = 0.  The powers are
    those of the integer matrix LK, L the lcm of K's denominators, and
    each entry is divided by L^t once.
    """
    m1 = t.m + 1
    k = _k_matrix(t)
    scale = lcm(*[v.denominator for row in k for v in row])
    k = [[v.numerator * (scale // v.denominator) for v in row] for row in k]
    powers = [[[int(i == j) for j in range(m1)] for i in range(m1)]]
    while True:
        # K and its powers are strictly lower triangular: skip their zeros.
        nxt = [[sum(v * k[c][j] for c, v in enumerate(row) if v) for j in range(m1)]
               for row in powers[-1]]
        if not any(map(any, nxt)):
            break
        powers.append(nxt)
    labeled = []
    for i in range(m1):
        for j in range(m1):
            # K(I+rK)^{-1} entry: coefficient of r^d is (-1)^d (K^{d+1})_{ij}.
            km = [Fraction((-1) ** d * powers[d + 1][i][j], scale ** (d + 1))
                  for d in range(len(powers) - 1)]
            p = UniPoly.from_coeffs(km)
            if not p.is_zero():
                labeled.append((f"K(I+rK)^-1[{i},{j}]", p))
        me = [Fraction((-1) ** d * sum(powers[d][i]), scale**d)
              for d in range(len(powers))]
        labeled.append((f"(I+rK)^-1 e[{i}]", UniPoly.from_coeffs(me)))
    return labeled


def ssp_feasible(t: ButcherTableau, r: Fraction) -> bool:
    """Direct exact check of the SSP feasibility conditions at one r.

    Independent of the polynomial route in `ssp_coefficient`: I + rK is
    unit lower triangular, so forward substitution over Fraction solves
    (I + rK) X = [K | e] row by row, X = (I + rK)^{-1} [K | e].
    """
    r = Fraction(r)
    sol = []
    for row in _k_matrix(t):
        x = row + [Fraction(1)]
        for j, kij in enumerate(row):
            if kij:
                x = [v - r * kij * w for v, w in zip(x, sol[j])]
        sol.append(x)
    # K (I+rK)^{-1} = (I+rK)^{-1} K because K and (I+rK)^{-1} commute.
    return all(v >= 0 for x in sol for v in x)


def ssp_coefficient(
    t: ButcherTableau, tol: Fraction = DEFAULT_TOL
) -> BoundResult:
    """The SSP coefficient C, exactly: `refine` over the feasibility
    constraint polynomials, each cut named by the independent `ssp_feasible`
    check.  The feasible set is [0, C] (Kraaijevanger, BIT 31, 1991)."""
    return _min_bound(_constraint_polys(t), lambda r: ssp_feasible(t, r), tol)
