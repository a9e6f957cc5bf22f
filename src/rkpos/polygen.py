"""Generation of the solution-propagation polynomials for a method + stencil.

The one-step map of an explicit RK method applied to the translation-invariant
semi-discretization u_k' = q_k * (D u)_k / dx^p is

    u^{n+1}_k = sum_i P_i(xi) * u^n_{k-i},

with multilinear P_i depending only on the tableau and the stencil.  Expanding
the stages, every non-constant term comes from a stage chain s1 < ... < sr and
one stencil shift j_1 ... j_r per link: its coefficient is the chain's weight
b_sr * a_{sr,s(r-1)} * ... * a_{s2,s1} times c_{j_1} * ... * c_{j_r}, it lands
on displacement j_1 + ... + j_r, and stage s_k contributes the variable at
offset -(j_{k+1} + ... + j_r).  `generate` is that sum; `generate_alt` builds
the same polynomials from the Neumann expansion as an independent check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import PreconditionError
from .multilinear import MultilinearPoly, VarTag, canonical_order
from .tableau import ButcherTableau, chain_weights

__all__ = [
    "StencilSpec",
    "PropagationSet",
    "upwind",
    "centered",
    "heat",
    "generate",
    "generate_alt",
    "symmetry_report",
    "x_labels",
]

# Internal representation during propagation: polynomial as a map
# {frozenset of VarTag -> Fraction}; lattice operator as {displacement -> poly}.
_Poly = dict[frozenset, Fraction]
_LatticeOp = dict[int, _Poly]


@dataclass(frozen=True)
class StencilSpec:
    """Spatial difference operator (D u)_k = sum_j coeffs[j] * u_{k-j}.

    Offset j refers to the grid point k - j; dx_power is the power of dx the
    operator is scaled by (2 for second-difference/heat stencils).
    """

    coeffs: dict[int, Fraction]
    name: str = "custom"
    dx_power: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {j: Fraction(c) for j, c in self.coeffs.items() if c != 0}
        )
        if self.name != "custom" and sum(self.coeffs.values()) != 0:
            raise PreconditionError(f"built-in stencil {self.name} must be consistent")

    @property
    def radius(self) -> int:
        return max(abs(j) for j in self.coeffs)

    def is_skew_symmetric(self) -> bool:
        return all(self.coeffs.get(-j, Fraction(0)) == -c for j, c in self.coeffs.items())

    def is_consistent(self) -> bool:
        return sum(self.coeffs.values()) == 0


upwind = StencilSpec({1: Fraction(1), 0: Fraction(-1)}, name="upwind")
centered = StencilSpec({1: Fraction(1, 2), -1: Fraction(-1, 2)}, name="centered")
heat = StencilSpec(
    {1: Fraction(1), 0: Fraction(-2), -1: Fraction(1)}, name="heat", dx_power=2
)

BUILTIN_STENCILS = {"upwind": upwind, "centered": centered, "heat": heat}


@dataclass(frozen=True, eq=False)
class PropagationSet:
    """The polynomials P_i for one (tableau, stencil) pair, on shared variables."""

    tableau: ButcherTableau
    stencil: StencilSpec
    vars: tuple[VarTag, ...]
    polys: dict[int, MultilinearPoly]

    @property
    def offsets(self) -> list[int]:
        return sorted(self.polys)


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
    raw = {d: {k: v for k, v in poly.items() if v != 0} for d, poly in raw.items()}
    raw = {d: poly for d, poly in raw.items() if poly}
    tags = canonical_order(tag for poly in raw.values() for tags in poly for tag in tags)
    polys = {d: MultilinearPoly.from_tag_terms(tags, poly) for d, poly in raw.items()}
    total: _Poly = {}
    for poly in raw.values():
        for monomial, coeff in poly.items():
            total[monomial] = total.get(monomial, 0) + coeff
    if {m: c for m, c in total.items() if c} != {frozenset(): 1}:
        if s.is_consistent():
            raise AssertionError("propagation polynomials do not sum to 1")
        warnings.warn(
            "sum of propagation polynomials is not 1: the stencil is not "
            "consistent (sum of coefficients nonzero)",
            stacklevel=3,
        )
    return PropagationSet(tableau=t, stencil=s, vars=tags, polys=polys)


def generate(t: ButcherTableau, s: StencilSpec) -> PropagationSet:
    """Assemble the P_i as the sum over stage chains and stencil shifts.

    Each (chain, shifts) pair gives one monomial: the stages and their
    offsets fix the chain and all shifts but the first, and the
    displacement fixes the first, so no term is added twice.
    """
    step: _LatticeOp = {0: {frozenset(): Fraction(1)}}
    for stages, weight in chain_weights(t):
        for shifts in product(s.coeffs.items(), repeat=len(stages)):
            tags, displacement, coeff = [], 0, weight
            for stage, (j, c) in zip(reversed(stages), reversed(shifts)):
                tags.append(VarTag(stage + 1, -displacement))
                displacement += j
                coeff *= c
            step.setdefault(displacement, {})[frozenset(tags)] = coeff
    return _finalize(t, s, step)


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


def symmetry_report(ps: PropagationSet) -> dict[int, bool]:
    """Check P_j(xi) = (-1)^j P_{-j}(xi-hat) for a skew-symmetric stencil.

    xi-hat reverses spatial offsets: xi-hat^j_{k+i} = xi^j_{k-i}.  Returns a
    pass/fail flag per offset j >= 0.
    """
    if not ps.stencil.is_skew_symmetric():
        raise PreconditionError("symmetry_report requires a skew-symmetric stencil")
    zero = MultilinearPoly(ps.vars, {})
    report: dict[int, bool] = {}
    for j in sorted(o for o in ps.polys if o >= 0):
        pj = ps.polys[j]
        pmj = ps.polys.get(-j, zero)
        hat = pmj.map_tags(lambda tag: VarTag(tag.stage, -tag.offset))
        expected = hat if j % 2 == 0 else hat.scaled(Fraction(-1))
        report[j] = pj == expected
    return report


def x_labels(ps: PropagationSet) -> dict[VarTag, str]:
    """x_1 ... x_n relabeling in canonical variable order."""
    return {tag: f"x_{i + 1}" for i, tag in enumerate(ps.vars)}
