"""Generation of the solution-propagation polynomials for a method + stencil.

The one-step map of an explicit RK method applied to the translation-invariant
semi-discretization u_k' = q_k * (D u)_k / dx^p is

    u^{n+1}_k = sum_i P_i(xi) * u^n_{k-i},

with multilinear P_i depending only on the tableau and the stencil.  Expanding
the stages, every non-constant term comes from a stage chain s1 < ... < sr and
one stencil shift j_1 ... j_r per link: its coefficient is the chain's weight
b_sr * a_{sr,s(r-1)} * ... * a_{s2,s1} times c_{j_1} * ... * c_{j_r}, it lands
on displacement j_1 + ... + j_r, and stage s_k contributes the variable at
offset -(j_{k+1} + ... + j_r).  `generate` writes that sum straight as subset
codes from the chain weights and stencil-shift rows; `generate_alt` builds the
same polynomials from the Neumann expansion as an independent check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

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

# generate_alt's polynomials {frozenset of VarTag -> Fraction} and operators {d -> poly}.
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


def _check_unity(s: StencilSpec, polys, stacklevel: int = 3) -> None:
    """Check Sum_i P_i = 1 on codes; an inconsistent custom stencil only warns."""
    total: dict[int, Fraction] = {}
    for code, coeff in (item for terms in polys for item in terms.items()):
        total[code] = total.get(code, 0) + coeff
    if {code: c for code, c in total.items() if c} != {0: 1}:
        if s.is_consistent():
            raise AssertionError("propagation polynomials do not sum to 1")
        warnings.warn("sum of propagation polynomials is not 1: the stencil is not "
                      "consistent (sum of coefficients nonzero)", stacklevel=stacklevel)


def _finalize(t: ButcherTableau, s: StencilSpec, raw: _LatticeOp) -> PropagationSet:
    tags = canonical_order(tag for poly in raw.values() for tags in poly for tag in tags)
    polys = {d: MultilinearPoly.from_tag_terms(tags, p) for d, p in raw.items() if p}
    _check_unity(s, [p.terms for p in polys.values()], stacklevel=4)
    return PropagationSet(tableau=t, stencil=s, vars=tags, polys=polys)


def generate(t: ButcherTableau, s: StencilSpec) -> PropagationSet:
    """Assemble the P_i as the sum over stage chains and stencil shifts.

    The shift rows of length r, (stage offsets, last stage first;
    displacement; product of stencil constants), extend those of length
    r - 1 by a leading shift, so the k-th stage from a chain's end takes
    the offsets that end the rows of length k.  A (chain, row) pair is one
    monomial: the stages and offsets fix all shifts but the first, and the
    displacement the first, so no subset code repeats (checked).
    """
    shift_rows = [[((), 0, Fraction(1))]]
    for _ in range(t.m):
        shift_rows.append([(offsets + (-d,), d + j, cprod * c) for j, c in s.coeffs.items()
                           for offsets, d, cprod in shift_rows[-1]])
    chains = [([st + 1 for st in reversed(chain)], w) for chain, w in chain_weights(t)]
    reach = [{offsets[-1] for offsets, _, _ in rows} for rows in shift_rows[1:]]
    vars = tuple(map(VarTag._make, sorted(
        {(st, o) for stages, _ in chains for st, offs in zip(stages, reach) for o in offs})))
    bit = {tag: 1 << i for i, tag in enumerate(vars)}
    terms: dict[int, dict[int, Fraction]] = {0: {0: Fraction(1)}}
    for stages, weight in chains:
        for offsets, d, cprod in shift_rows[len(stages)]:
            code = sum(map(bit.__getitem__, zip(stages, offsets)))
            terms.setdefault(d, {})[code] = weight * cprod
    if sum(map(len, terms.values())) != 1 + sum(len(shift_rows[len(c)]) for c, _ in chains):
        raise AssertionError("a subset code of generate repeats")
    _check_unity(s, terms.values())
    return PropagationSet(tableau=t, stencil=s, vars=vars,
                          polys={d: MultilinearPoly(vars, p) for d, p in terms.items()})


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
