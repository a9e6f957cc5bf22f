"""Certification of the positivity step-size coefficient gamma.

For a propagation set {P_i} in n nonnegative variables, define

    gamma = sup { delta >= 0 : every P_i >= 0 on the box [0, delta]^n }.

Each P_i is multilinear, so its extrema over a box are attained at box
vertices.  Restricting P_i to the vertex selected by a subset S gives a
univariate polynomial g_{i,S}(delta), and gamma is the minimum over all
(i, S) of the first point where g_{i,S} turns negative.  Everything here
is exact rational arithmetic; a certificate carries witnesses that can be
re-verified by direct evaluation.

Above the subset-enumeration capacity limit, `sampled_upper_bound` gives
a randomized upper bound only.  It is not a certificate.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union
import random

import numpy as np

from .errors import InputError, ParameterDomainError
from .polygen import PropagationSet, StencilSpec, generate, upwind
from .tableau import ButcherTableau, make_family
from .univariate import UniPoly, descend, min_first_negativity

__all__ = [
    "GammaCertificate",
    "NegativityWitness",
    "RegionCell",
    "SweepRow",
    "compute_gamma",
    "condition_at",
    "gamma_zero_test",
    "in_bowtie",
    "region_scan",
    "sampled_upper_bound",
    "subset_bits",
    "sweep",
]

DEFAULT_TOL = Fraction(1, 2**40)


@dataclass(frozen=True)
class NegativityWitness:
    """A concrete point where some propagation polynomial is negative.

    `offset` identifies the polynomial P_offset, `subset` the box vertex
    (bit s set means variable s of the canonical order equals delta, the
    rest are zero), and `value` the exact negative value at that vertex.
    """

    offset: int
    subset: int
    delta: Fraction
    value: Fraction


@dataclass(frozen=True)
class GammaCertificate:
    """Result of an exact gamma computation.

    Invariants: lower <= gamma <= upper whenever the bounds are finite;
    `exact` is set only when gamma was pinned to a rational and both
    directions were re-verified by direct evaluation.  `unbounded` means
    no vertex polynomial ever turns negative (gamma = +infinity); then
    `upper` and `witness` are None.  A zero gamma carries a witness with
    a strictly negative value at some delta > 0.
    """

    lower: Fraction
    upper: Optional[Fraction]
    exact: Optional[Fraction]
    unbounded: bool
    witness: Optional[NegativityWitness]
    n_vars: int
    n_polys: int
    n_distinct_restrictions: int

    @property
    def is_zero(self) -> bool:
        return self.exact == 0

    def __str__(self) -> str:
        if self.unbounded:
            return "gamma = +inf (no vertex restriction ever turns negative)"
        if self.exact is not None:
            return f"gamma = {self.exact}"
        return f"gamma in [{self.lower}, {self.upper}]"


def _poly_tables(ps: PropagationSet):
    """(offset, scale, table) per polynomial, ascending offset."""
    out = []
    for offset in ps.offsets:
        scale, table = ps.polys[offset].vertex_table()
        out.append((offset, scale, table))
    return out


def _zero_witness(ps: PropagationSet, tables) -> Optional[NegativityWitness]:
    """gamma_zero_test over prebuilt `_poly_tables(ps)`."""
    for offset, _scale, table in tables:
        maxdeg = table.shape[0] - 1
        settled = table[0] != 0
        bad = table[0] < 0
        for d in range(1, maxdeg + 1):
            bad |= ~settled & (table[d] < 0)
            settled |= table[d] != 0
        if bad.any():
            subset = int(np.flatnonzero(bad)[0])
            g = ps.polys[offset].vertex_restriction(subset)
            delta = descend(lambda d: d if g(d) < 0 else None,
                            Fraction(0), Fraction(1))
            return NegativityWitness(offset, subset, delta, g(delta))
    return None


def gamma_zero_test(ps: PropagationSet) -> Optional[NegativityWitness]:
    """Decide gamma > 0 without computing gamma.

    gamma > 0 iff for every vertex restriction g_{i,S} the lowest-order
    nonzero coefficient is positive (then g > 0 on some (0, eps)).
    Returns None when gamma > 0, otherwise a witness evaluated at a
    concrete small delta where the polynomial is negative.
    """
    return _zero_witness(ps, _poly_tables(ps))


def _negative_vertex(tables, delta: Fraction) -> Optional[NegativityWitness]:
    """condition_at over prebuilt `_poly_tables(ps)`."""
    num, den = delta.numerator, delta.denominator
    for offset, scale, table in tables:
        maxdeg = table.shape[0] - 1
        # Scaled evaluation g_S(delta) * scale * den**maxdeg, kept integral.
        bound = sum(
            int(np.abs(table[d]).max()) * num**d * den ** (maxdeg - d)
            for d in range(maxdeg + 1)
        )
        work = table if bound < 2**62 and table.dtype != object else table.astype(object)
        values = np.zeros_like(work[0])
        for d in range(maxdeg + 1):
            values += work[d] * (num**d * den ** (maxdeg - d))
        bad = values < 0
        if bad.any():
            subset = int(np.flatnonzero(bad)[0])
            value = Fraction(int(values[subset]), scale * den**maxdeg)
            return NegativityWitness(offset, subset, delta, value)
    return None


def condition_at(
    ps: PropagationSet, delta: Union[Fraction, int]
) -> Optional[NegativityWitness]:
    """Check `every P_i >= 0 on [0, delta]^n` exactly at one delta.

    Returns None when the condition holds, else a witness vertex with a
    negative value.  Exact: vertices suffice because the polynomials are
    multilinear.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise ParameterDomainError("delta must be nonnegative")
    return _negative_vertex(_poly_tables(ps), delta)


def _distinct_columns(table) -> dict[tuple[int, ...], int]:
    """Deduplicate vertex-restriction coefficient columns.

    Maps each distinct coefficient column to its first subset code; many
    vertices share the same restriction and only one cut is needed per
    distinct polynomial.
    """
    seen: dict[tuple[int, ...], int] = {}
    for subset, col in enumerate(zip(*table.tolist())):
        seen.setdefault(col, subset)
    return seen


def compute_gamma(
    source: Union[PropagationSet, ButcherTableau],
    stencil: StencilSpec = upwind,
    tol: Fraction = DEFAULT_TOL,
) -> GammaCertificate:
    """Certify gamma for a method/stencil pair (or a ready PropagationSet).

    Pipeline: zero test, then the minimum of the first-negativity cuts of
    the distinct vertex restrictions.  The vertex tables are built once
    and shared by every step.  The answer is certified by evaluation:
    `condition_at` holds at the lower bound, and a witness vertex is
    negative at the upper bound or just above it.
    """
    ps = source if isinstance(source, PropagationSet) else generate(source, stencil)
    n = len(ps.vars)
    n_polys = len(ps.polys)
    tables = _poly_tables(ps)

    zero = _zero_witness(ps, tables)
    if zero is not None:
        return GammaCertificate(
            lower=Fraction(0), upper=Fraction(0), exact=Fraction(0),
            unbounded=False, witness=zero, n_vars=n, n_polys=n_polys,
            n_distinct_restrictions=0,
        )

    columns = [(offset, scale, _distinct_columns(table))
               for offset, scale, table in tables]
    n_distinct = sum(len(cols) for _, _, cols in columns)
    family = (
        ((offset, subset), UniPoly.from_coeffs([Fraction(c, scale) for c in col]))
        for offset, scale, cols in columns
        for col, subset in cols.items() if min(col) < 0
    )
    found = min_first_negativity(family, tol)
    if found is None:
        return GammaCertificate(
            lower=Fraction(0), upper=None, exact=None, unbounded=True,
            witness=None, n_vars=n, n_polys=n_polys,
            n_distinct_restrictions=n_distinct,
        )
    cut, _ = found
    if _negative_vertex(tables, cut.lower) is not None:
        raise AssertionError(f"condition_at fails at the lower bound {cut.lower}")
    # An interval answer's upper bound is itself a negative point; an exact
    # one is probed from tol above.
    witness = descend(lambda delta: _negative_vertex(tables, delta),
                      cut.lower, cut.upper - cut.lower or tol)
    return GammaCertificate(
        lower=cut.lower, upper=cut.upper, exact=cut.exact, unbounded=False,
        witness=witness, n_vars=n, n_polys=n_polys,
        n_distinct_restrictions=n_distinct,
    )


def sampled_upper_bound(
    ps: PropagationSet,
    deltas: Optional[list[Fraction]] = None,
    samples: int = 2000,
    seed: int = 0,
) -> Optional[NegativityWitness]:
    """Randomized search for a negativity witness.  NOT a certificate.

    Evaluates every polynomial at random box vertices for each trial
    delta and reports the first witness found (whose delta is then an
    upper bound on gamma).  Returns None when nothing was found; that
    proves nothing.  Works for any variable count.
    """
    rng = random.Random(seed)
    n = len(ps.vars)
    if deltas is None:
        deltas = [Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 4)]
    for delta in deltas:
        for _ in range(samples):
            subset = rng.getrandbits(n)
            point = {
                tag: (delta if subset >> k & 1 else Fraction(0))
                for k, tag in enumerate(ps.vars)
            }
            for offset, poly in ps.polys.items():
                value = poly.eval(point)
                if value < 0:
                    return NegativityWitness(offset, subset, delta, value)
    return None


def subset_bits(subset: int, n: int) -> str:
    """Render a vertex subset code as a bit string over the canonical
    variable order (leftmost character = variable 0)."""
    return "".join("1" if subset >> k & 1 else "0" for k in range(n))


# --- parameter studies ------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    alpha: Fraction
    beta: Optional[Fraction]
    cert: Optional[GammaCertificate]
    ssp: Optional[Fraction]
    skipped: Optional[str]  # reason when the parameter point is singular


def _frange(lo: Fraction, hi: Fraction, step: Fraction):
    if step <= 0:
        raise InputError(f"grid step must be positive, got {step}")
    x = Fraction(lo)
    while x <= hi:
        yield x
        x += step


def sweep(
    kind: str,
    lo: Fraction,
    hi: Fraction,
    step: Fraction,
    stencil: StencilSpec = upwind,
    tol: Fraction = DEFAULT_TOL,
    with_ssp: bool = False,
) -> list[SweepRow]:
    """Certify gamma along a one-parameter method family.

    Singular parameter values (where the family is undefined) are kept in
    the output as skipped rows with the reason.  `with_ssp` additionally
    computes the exact SSP coefficient per row.
    """
    from .bounds import ssp_coefficient

    rows = []
    for alpha in _frange(Fraction(lo), Fraction(hi), Fraction(step)):
        try:
            t = make_family(kind, (alpha,))
        except ParameterDomainError as exc:
            rows.append(SweepRow(alpha, None, None, None, str(exc)))
            continue
        cert = compute_gamma(t, stencil, tol)
        ssp = ssp_coefficient(t).value if with_ssp else None
        rows.append(SweepRow(alpha, None, cert, ssp, None))
    return rows


def in_bowtie(alpha: Fraction, beta: Fraction) -> bool:
    """Membership in the positivity parameter region for the two-parameter
    third-order family: two triangles meeting at (2/3, 2/3)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    left = (
        Fraction(1, 2) <= alpha < Fraction(2, 3)
        and Fraction(2, 3) <= beta <= 1 - alpha / 2
    )
    right = (
        Fraction(2, 3) < alpha <= 1
        and 1 - alpha / 2 <= beta <= Fraction(2, 3)
    )
    return left or right


@dataclass(frozen=True)
class RegionCell:
    alpha: Fraction
    beta: Fraction
    in_region: bool
    condition_holds: Optional[bool]  # condition_at(delta); None when skipped
    gamma_positive: Optional[bool]
    skipped: Optional[str]


def region_scan(
    points: Optional[list[tuple[Fraction, Fraction]]] = None,
    spacing: Fraction = Fraction(1, 32),
    stencil: StencilSpec = upwind,
    delta: Fraction = Fraction(1),
    lo: Fraction = Fraction(1, 2),
    hi: Fraction = Fraction(1),
) -> list[RegionCell]:
    """Scan the (alpha, beta) plane for the two-parameter third-order
    family, comparing predicted region membership against the certified
    positivity condition at step-size ratio `delta`.

    Default grid: [lo, hi]^2 at `spacing`.  Singular parameter points
    are kept as skipped cells.
    """
    if points is None:
        points = [
            (a, b)
            for a in _frange(lo, hi, spacing)
            for b in _frange(lo, hi, spacing)
        ]
    cells = []
    for alpha, beta in points:
        member = in_bowtie(alpha, beta)
        try:
            t = make_family("ERK33_CaseI", (alpha, beta))
        except ParameterDomainError as exc:
            cells.append(RegionCell(alpha, beta, member, None, None, str(exc)))
            continue
        ps = generate(t, stencil)
        holds = condition_at(ps, delta) is None
        positive = gamma_zero_test(ps) is None
        cells.append(RegionCell(alpha, beta, member, holds, positive, None))
    return cells
