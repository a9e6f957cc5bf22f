"""Generation of the solution-propagation polynomials for a method + stencil.

The one-step map of an explicit RK method applied to the translation-invariant
semi-discretization u_k' = q_k * (D u)_k / dx^p is

    u^{n+1}_k = sum_i P_i(xi) * u^n_{k-i},

with multilinear P_i depending only on the tableau and the stencil.  Expanding
the stages, every non-constant term comes from a stage chain s1 < ... < sr and
one stencil shift j_1 ... j_r per link: its coefficient is the chain's weight
b_sr * a_{sr,s(r-1)} * ... * a_{s2,s1} times c_{j_1} * ... * c_{j_r}, it lands
on displacement j_1 + ... + j_r, and stage s_k contributes the variable at
offset -(j_{k+1} + ... + j_r).  `layout` writes the terms of that sum as
subset codes from the nonzero chain pattern and the stencil-shift rows, and
`generate`, the one generator, fills in a tableau's chain weights.  The test
suite checks it against an independent oracle built from the Neumann
expansion of the stage equations (tests/oracle.py).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CapacityError, PreconditionError, rational
from .multilinear import TABLE_BYTES, MultilinearPoly, VarTag, move_bits
from .tableau import ButcherTableau, _chain_counts, _chains, _pairs

__all__ = [
    "StencilSpec",
    "PropagationSet",
    "upwind",
    "centered",
    "heat",
    "Layout",
    "layout",
    "generate",
    "term_count",
    "TERMS",
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
        coeffs = {j: rational(c) for j, c in self.coeffs.items()}
        object.__setattr__(self, "coeffs", {j: c for j, c in coeffs.items() if c})
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
    """Check Sum_i P_i = 1 on integer numerators; inconsistent stencils warn."""
    scale = lcm(*[p.scale for p in polys])
    total: dict[int, int] = {}
    for p in polys:
        factor = scale // p.scale
        for code, c in p.terms.items():
            total[code] = total.get(code, 0) + c * factor
    if {code: v for code, v in total.items() if v} != {0: scale}:
        if s.is_consistent():
            raise AssertionError("propagation polynomials do not sum to 1")
        warnings.warn("sum of propagation polynomials is not 1: the stencil is not "
                      "consistent (sum of coefficients nonzero)", stacklevel=stacklevel)


@dataclass(frozen=True)
class Layout:
    """The terms that every tableau with one nonzero chain pattern shares
    with a stencil.

    `chains` starts with the empty chain, whose weight is 1 and whose one
    term is the constant, followed by the pattern's stage chains (0-based,
    as `chain_weights` yields them).  `vars` are the variables the chains
    reach, in canonical order.  `terms[d]` maps the subset code of each
    term of P_d to its chain index and its product of stencil constants,
    an integer over `powers[chain]` = q**r (q the stencil's common
    denominator, r the length of the chain).  A tableau with this pattern
    and chain weights w has the term numerators `numerators(w)[1][chain] *
    product`.
    """

    vars: tuple[VarTag, ...]
    chains: tuple[tuple[int, ...], ...]
    powers: tuple[int, ...]
    terms: dict[int, dict[int, tuple[int, int]]]

    def numerators(self, weights) -> tuple[int, list[int]]:
        """(scale, factors) for the weights of the pattern's chains, given
        as integer (num, den) pairs in any terms and signs: the lcm over
        the chains of the weight's lowest-terms denominator times q**r,
        and per chain index the weight's numerator over that scale
        divided by q**r, so that a term's numerator is its factor times
        its product.  The empty chain's factor is the scale itself."""
        pairs = list(zip(weights, self.powers[1:]))
        scale = lcm(*[den // gcd(num, den) * power for (num, den), power in pairs])
        return scale, [scale, *[num * scale // (den * power) for (num, den), power in pairs]]

    def polys(self, scale: int, factors: list[int]) -> dict[int, MultilinearPoly]:
        """Per displacement, the polynomial whose term numerators are the
        chain factors of `numerators` times the stencil products, over
        `scale`."""
        return {d: MultilinearPoly(self.vars, {code: factors[c] * cprod
                                               for code, (c, cprod) in terms.items()}, scale)
                for d, terms in self.terms.items()}

    def products(self) -> dict[int, MultilinearPoly]:
        """Per displacement, the terms with their stencil products as
        numerators over scale 1: the support, block and term places that
        every tableau of the pattern shares.

        A code fixes its chain (its variables' stages), so Sum_i P_i at a
        code is that chain's nonzero weight times the sum of the code's
        stencil products over the displacements: Sum_i P_i = 1 holds for
        every tableau of the pattern iff `_check_unity` passes on these.
        """
        return {d: MultilinearPoly(self.vars, {code: p for code, (_, p) in terms.items()})
                for d, terms in self.terms.items()}


def layout(pattern: tuple[tuple[int, ...], ...], s: StencilSpec) -> Layout:
    """The `Layout` of a nonzero chain pattern (the stage tuples that
    `chain_weights` yields) and a stencil.

    The shift rows of length r, (stage offsets, last stage first;
    displacement; product of stencil constants), extend those of length
    r - 1 by a leading shift, so the k-th stage from a chain's end takes
    the offsets that end the rows of length k.  A (chain, row) pair is one
    monomial: the stages and offsets fix all shifts but the first, and the
    displacement the first, so no subset code repeats (checked).
    """
    q = lcm(*[c.denominator for c in s.coeffs.values()])
    ints = {j: c.numerator * (q // c.denominator) for j, c in s.coeffs.items()}
    longest = max(map(len, pattern), default=0)
    shift_rows = [[((), 0, 1)]]
    for _ in range(longest):
        shift_rows.append([(offsets + (-d,), d + j, cprod * c) for j, c in ints.items()
                           for offsets, d, cprod in shift_rows[-1]])
    chains = ((), *pattern)
    reach = [{offsets[-1] for offsets, _, _ in rows} for rows in shift_rows[1:]]
    vars = tuple(map(VarTag._make, sorted(
        {(st + 1, o) for chain in pattern
         for st, offs in zip(reversed(chain), reach) for o in offs})))
    bit = {tag: 1 << i for i, tag in enumerate(vars)}
    terms: dict[int, dict[int, tuple[int, int]]] = {}
    for index, chain in enumerate(chains):
        stages = [st + 1 for st in reversed(chain)]
        for offsets, d, cprod in shift_rows[len(chain)]:
            code = sum(map(bit.__getitem__, zip(stages, offsets)))
            terms.setdefault(d, {})[code] = index, cprod
    if sum(map(len, terms.values())) != sum(len(shift_rows[len(c)]) for c in chains):
        raise AssertionError("a subset code of generate repeats")
    return Layout(vars, chains, tuple(q ** len(chain) for chain in chains), terms)


# Terms of one `generate`, counted by `term_count` before any is built.  A
# term keeps 247-260 bytes at generate's peak (tracemalloc, Python 3.11,
# generic 8- to 11-stage upwind and 7-stage heat), so at 256 bytes a term
# the limit keeps generate within TABLE_BYTES: 3,145,728 terms.  Generic
# 9-stage upwind has 19,683 and a dense 16-stage upwind tableau 43 M.
TERMS = TABLE_BYTES >> 8


def term_count(t: ButcherTableau, s: StencilSpec) -> int:
    """The terms `generate` builds: 1 + sum over r of N_r * w**r, with N_r
    the nonzero stage chains of r stages (`tableau._chain_counts`, O(m**3)
    operations on the nonzero pattern) and w the stencil's width: each
    chain and row of stencil shifts is one term."""
    return 1 + sum(sum(level) * len(s.coeffs) ** r
                   for r, level in enumerate(_chain_counts(t), 1))


def generate(t: ButcherTableau, s: StencilSpec) -> PropagationSet:
    """Assemble the P_i as the sum over stage chains and stencil shifts:
    the `layout` of the tableau's nonzero chain pattern and one row of
    numerators from its chain weights.

    Every numerator is written over one scale, the lcm over the chains of
    the weight's denominator times q**r; each polynomial reduces its own.
    A tableau whose `term_count` exceeds TERMS raises CapacityError
    before any chain weight is computed.
    """
    terms = term_count(t, s)
    if terms > TERMS:
        raise CapacityError(f"the propagation polynomials have {terms} terms, "
                            f"over the limit of {TERMS}")
    chains = list(_chains(*_pairs(t)))
    lay = layout(tuple(stages for stages, _ in chains), s)
    polys = lay.polys(*lay.numerators([w for _, w in chains]))
    _check_unity(s, polys.values())
    return PropagationSet(tableau=t, stencil=s, vars=lay.vars, polys=polys)


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
        report[j] = pj.scale == pmj.scale and pj.terms == {
            move_bits(code, mirror): (-1) ** code.bit_count() * c
            for code, c in pmj.terms.items()}
    return report


def x_labels(ps: PropagationSet) -> dict[VarTag, str]:
    """x_1 ... x_n relabeling in canonical variable order."""
    return {tag: f"x_{i + 1}" for i, tag in enumerate(ps.vars)}
