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
(I + rK)^{-1} = sum_t (-r)^t K^t is a polynomial matrix.  Both bounds
therefore reduce to the first-negativity point of finitely many exact
univariate polynomials, the same machinery used for gamma.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .tableau import ButcherTableau
from .univariate import UniPoly, descend, min_first_negativity

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

    @property
    def value(self) -> Optional[Fraction]:
        """The bound when known exactly (None for intervals and +inf)."""
        return self.exact

    def __str__(self) -> str:
        if self.unbounded:
            return "+inf"
        if self.exact is not None:
            return str(self.exact)
        return f"[{self.lower}, {self.upper}]"


def _min_bound(labeled: list[tuple[str, UniPoly]], tol: Fraction) -> BoundResult:
    """sup { r >= 0 : every labeled polynomial >= 0 on [0, r] }, exactly."""
    found = min_first_negativity(labeled, tol)
    if found is None:
        return BoundResult(
            lower=Fraction(0), upper=None, exact=None, unbounded=True,
            witness=None,
        )
    cut, label = found
    return BoundResult(
        lower=cut.lower, upper=cut.upper, exact=cut.exact, unbounded=False,
        witness=label,
    )


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
    t: ButcherTableau, tol: Fraction = Fraction(1, 2**40)
) -> BoundResult:
    """R(phi): the largest r with phi and all its derivatives nonnegative
    on [-r, 0], expressed through psi_j(r) = phi^(j)(-r) / j!."""
    phi = stability_polynomial(t)
    c = phi.coeffs
    deg = phi.degree
    labeled = []
    for j in range(deg + 1):
        psi = [
            c[k] * comb(k, j) * (-1) ** (k - j)
            for k in range(j, deg + 1)
        ]
        labeled.append((f"phi^({j})", UniPoly.from_coeffs(psi)))
    return _min_bound(labeled, tol)


def _k_matrix(t: ButcherTableau) -> list[list[Fraction]]:
    m = t.m
    k = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(m):
            k[i][j] = t.a[i][j]
    for j in range(m):
        k[m][j] = t.b[j]
    return k


def _mat_mul(x, y):
    # K (A with the row b below it) and its powers are strictly lower
    # triangular, so most x[i][k] are 0: skip them.
    n = len(x)
    out = []
    for row in x:
        nonzero = [(k, v) for k, v in enumerate(row) if v]
        out.append([sum((v * y[k][j] for k, v in nonzero), Fraction(0))
                    for j in range(n)])
    return out


def _constraint_polys(t: ButcherTableau) -> list[tuple[str, UniPoly]]:
    """Entries of K(I+rK)^{-1} and (I+rK)^{-1}e as polynomials in r.

    Uses (I+rK)^{-1} = sum_t (-r)^t K^t; K^{m+1} = 0.
    """
    m1 = t.m + 1
    k = _k_matrix(t)
    powers = [[[Fraction(i == j) for j in range(m1)] for i in range(m1)]]
    while True:
        nxt = _mat_mul(powers[-1], k)
        if all(v == 0 for row in nxt for v in row):
            break
        powers.append(nxt)
    labeled = []
    for i in range(m1):
        for j in range(m1):
            # K(I+rK)^{-1} entry: coefficient of r^d is (-1)^d (K^{d+1})_{ij}.
            km = [
                (-1) ** d * powers[d + 1][i][j]
                for d in range(len(powers) - 1)
            ]
            p = UniPoly.from_coeffs(km)
            if not p.is_zero():
                labeled.append((f"K(I+rK)^-1[{i},{j}]", p))
        me = [
            (-1) ** d * sum(powers[d][i][j] for j in range(m1))
            for d in range(len(powers))
        ]
        labeled.append((f"(I+rK)^-1 e[{i}]", UniPoly.from_coeffs(me)))
    return labeled


def ssp_feasible(t: ButcherTableau, r: Fraction) -> bool:
    """Direct exact check of the SSP feasibility conditions at one r.

    Independent of the polynomial route in `ssp_coefficient`: solves the
    linear systems by Gaussian elimination over Fraction.
    """
    r = Fraction(r)
    m1 = t.m + 1
    k = _k_matrix(t)
    a = [
        [Fraction(i == j) + r * k[i][j] for j in range(m1)]
        for i in range(m1)
    ]
    # Augment with K's columns and e, then eliminate: solutions are the
    # columns of (I+rK)^{-1}K^T-style products rearranged below.
    rhs = [[k[i][j] for j in range(m1)] + [Fraction(1)] for i in range(m1)]
    aug = [a[i] + rhs[i] for i in range(m1)]
    n = m1
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return False  # singular
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    sol = [row[n:] for row in aug]  # (I+rK)^{-1} [K | e]
    if any(sol[i][n] < 0 for i in range(n)):
        return False
    # K (I+rK)^{-1} = ((I+rK)^{-1} K) because K and (I+rK)^{-1} commute.
    return all(sol[i][j] >= 0 for i in range(n) for j in range(n))


def ssp_coefficient(
    t: ButcherTableau, tol: Fraction = Fraction(1, 2**40)
) -> BoundResult:
    """The SSP coefficient C, exactly.

    Computed as the joint first-negativity point of the feasibility
    constraint polynomials, then cross-checked against the independent
    `ssp_feasible` evaluation on both sides of the answer.
    """
    result = _min_bound(_constraint_polys(t), tol)
    # At C = 0 the feasible set may be empty; elsewhere C itself is feasible.
    if result.lower > 0 and not ssp_feasible(t, result.lower):
        raise AssertionError(f"ssp bound not confirmed feasible at {result.lower}")
    if not result.unbounded:
        descend(lambda r: None if ssp_feasible(t, r) else r,
                result.lower, result.upper - result.lower or tol)
    return result
