"""Generation of the solution-propagation polynomials for a method + stencil.

The one-step map of an explicit RK method applied to the translation-invariant
semi-discretization u_k' = q_k * (D u)_k / dx^p is

    u^{n+1}_k = sum_i P_i(xi) * u^n_{k-i},

with multilinear P_i depending only on the tableau and the stencil.  Expanding
the stages, every non-constant term comes from a stage chain s1 < ... < sr and
one stencil shift j_1 ... j_r per link: its coefficient is the chain's weight
b_sr * a_{sr,s(r-1)} * ... * a_{s2,s1} times c_{j_1} * ... * c_{j_r}, it lands
on displacement j_1 + ... + j_r, and stage s_k contributes the variable at
offset -(j_{k+1} + ... + j_r).  `generate`, the one generator, writes that sum
straight as subset codes from the chain weights and stencil-shift rows.  The
test suite checks it against an independent oracle built from the Neumann
expansion of the stage equations (tests/oracle.py).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .multilinear import MultilinearPoly, VarTag, move_bits
from .tableau import ButcherTableau, chain_weights

__all__ = [
    "StencilSpec",
    "PropagationSet",
    "upwind",
    "centered",
    "heat",
    "generate",
    "symmetry_report",
    "x_labels",
]

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


def symmetry_report(ps: PropagationSet) -> dict[int, bool]:
    """Check P_j(xi) = P_{-j}(-xi-hat) for a skew-symmetric stencil.

    xi-hat reverses spatial offsets: xi-hat^j_{k+i} = xi^j_{k-i}.  Mirroring
    every stencil shift of a term negates its displacement and its variable
    offsets and, as c_{-j} = -c_j, multiplies its coefficient by (-1)^|T|,
    |T| its degree.  When every stencil offset is odd (as for `centered`),
    |T| has the parity of j and the identity reads P_j(xi) = (-1)^j
    P_{-j}(xi-hat).  Returns a pass/fail flag per offset j >= 0.
    """
    if not ps.stencil.is_skew_symmetric():
        raise PreconditionError("symmetry_report requires a skew-symmetric stencil")
    zero = MultilinearPoly(ps.vars, {})
    report: dict[int, bool] = {}
    for j in sorted(o for o in ps.polys if o >= 0):
        pj, pmj = ps.polys[j], ps.polys.get(-j, zero)
        pos = {tag: i for i, tag in enumerate(pj.vars)}
        mirror = [pos[VarTag(stage, -offset)] for stage, offset in pmj.vars]
        report[j] = pj.terms == {move_bits(code, mirror): (-1) ** code.bit_count() * c
                                 for code, c in pmj.terms.items()}
    return report


def x_labels(ps: PropagationSet) -> dict[VarTag, str]:
    """x_1 ... x_n relabeling in canonical variable order."""
    return {tag: f"x_{i + 1}" for i, tag in enumerate(ps.vars)}
