"""Certification of the positivity step-size coefficient gamma.

For a propagation set {P_i} in n nonnegative variables, define

    gamma = sup { delta >= 0 : every P_i >= 0 on the box [0, delta]^n }.

Each P_i is multilinear, so its extrema over a box are attained at box
vertices.  Restricting P_i to the vertex selected by a subset S gives a
univariate polynomial g_{i,S}(delta), and gamma is the minimum over all
(i, S) of the first point where g_{i,S} turns negative.  The boxes are
nested, so a vertex failing at a candidate bound names a restriction that
turns negative below it; only such restrictions are ever cut.  Every
answer is exact, and a certificate carries witnesses that can be
re-verified by direct evaluation.

P_i depends only on the variables its terms use, its support, and the
value at a vertex S is the value at S intersected with the support.  So
P_i's vertex table spans its support alone, 2^|support| columns, and a
vertex check evaluates every column exactly in Python ints; there is one
path and no sampling fallback.  A set whose tables exceed the byte budget
of `rkpos.multilinear` raises CapacityError before any table is built.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .bounds import ssp_coefficient
from .errors import CapacityError, InputError, ParameterDomainError, rational
from .multilinear import TABLE_BYTES, move_bits
from .polygen import PropagationSet, StencilSpec, generate, upwind
from .tableau import ButcherTableau, make_family
from .univariate import DEFAULT_TOL, descend, refine

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
    "subset_bits",
    "sweep",
]


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
    `n_distinct_restrictions` counts the vertex restrictions that were
    cut to reach the answer (0 for a zero or unbounded gamma).
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


# Each set's tables, built on its first check and dropped with the set.
_TABLES = weakref.WeakKeyDictionary()


def _poly_tables(ps: PropagationSet):
    """(offset, support, scale, table) per polynomial, ascending offset.

    `support` is P_offset's support, and scale and table are its
    `vertex_table()`, converted to Python ints: column k is the vertex
    whose variables are the global positions move_bits(k, support).  The
    tables' total size is checked against the byte budget before the
    first one is built.
    """
    if ps in _TABLES:
        return _TABLES[ps]
    polys = [(offset, ps.polys[offset]) for offset in ps.offsets]
    total = sum(poly.table_bytes() for _, poly in polys)
    if total > TABLE_BYTES:
        offset, poly = max(polys, key=lambda item: item[1].table_bytes())
        raise CapacityError(
            f"vertex tables need {total} bytes, over the {TABLE_BYTES}-byte "
            f"budget; the largest, P_{offset}'s over {len(poly.support)} support "
            f"variables, needs {poly.table_bytes()} bytes")
    out = []
    for offset, poly in polys:
        scale, table = poly.vertex_table()
        out.append((offset, poly.support, scale, table.astype(object, copy=False)))
    _TABLES[ps] = out
    return out


def gamma_zero_test(ps: PropagationSet) -> Optional[NegativityWitness]:
    """Decide gamma > 0 without computing gamma.

    gamma > 0 iff for every vertex restriction g_{i,S} the lowest-order
    nonzero coefficient, its column's first nonzero row, is positive (then
    g > 0 on some (0, eps)).  Returns None when gamma > 0, otherwise a
    witness evaluated at a concrete small delta where it is negative.
    """
    for offset, support, _scale, table in _poly_tables(ps):
        lowest = table[(table != 0).argmax(axis=0), np.arange(table.shape[1])]
        bad = np.flatnonzero(lowest < 0)
        if bad.size:
            subset = move_bits(int(bad[0]), support)
            g = ps.polys[offset].vertex_restriction(subset)
            delta = descend(lambda d: d if g(d) < 0 else None,
                            Fraction(0), Fraction(1))
            return NegativityWitness(offset, subset, delta, g(delta))
    return None


def condition_at(
    ps: PropagationSet, delta: Union[Fraction, int]
) -> Optional[NegativityWitness]:
    """Check `every P_i >= 0 on [0, delta]^n` exactly at one delta.

    Returns None when the condition holds, else a witness vertex with a
    negative value.  Exact: vertices suffice because the polynomials are
    multilinear, and each column's g_S(delta) * scale * den**maxdeg is one
    dot of the row [num**d * den**(maxdeg - d)] with the table, in Python
    ints.  Column bit k is the k-th support variable, so ascending columns
    are ascending global subsets, and a global subset takes the value of
    its intersection with the support, a subset no larger than itself.
    The first negative column is therefore the first negative global
    subset, and it is reported by its global code.
    """
    delta = rational(delta)
    if delta < 0:
        raise ParameterDomainError("delta must be nonnegative")
    num, den = delta.numerator, delta.denominator
    for offset, support, scale, table in _poly_tables(ps):
        maxdeg = len(table) - 1
        powers = [num**d * den ** (maxdeg - d) for d in range(maxdeg + 1)]
        values = np.array(powers, dtype=object).dot(table)
        bad = np.flatnonzero(values < 0)
        if bad.size:
            at = int(bad[0])
            value = Fraction(values[at], scale * den**maxdeg)
            return NegativityWitness(offset, move_bits(at, support), delta, value)
    return None


def compute_gamma(
    source: Union[PropagationSet, ButcherTableau],
    stencil: StencilSpec = upwind,
    tol: Fraction = DEFAULT_TOL,
) -> GammaCertificate:
    """Certify gamma for a method/stencil pair (or a ready PropagationSet).

    Pipeline: zero test, then `univariate.refine` over vertex tables built
    once, checked by `condition_at`.  gamma is finite iff some P_i has a
    negative term c_T, the top coefficient of the restriction to T's own
    vertex; the first such restriction is cut first.  A witness vertex is
    then negative at the upper bound or just above it.  `tol` must be
    positive.
    """
    tol = rational(tol)
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    ps = source if isinstance(source, PropagationSet) else generate(source, stencil)
    sizes = dict(n_vars=len(ps.vars), n_polys=len(ps.polys))

    zero = gamma_zero_test(ps)
    if zero is not None:
        return GammaCertificate(
            lower=Fraction(0), upper=Fraction(0), exact=Fraction(0), unbounded=False,
            witness=zero, n_distinct_restrictions=0, **sizes)

    def failing_key(delta):
        failing = condition_at(ps, delta)
        return None if failing is None else (failing.offset, failing.subset)

    negative_terms = ((offset, code) for offset in ps.offsets
                      for code, c in sorted(ps.polys[offset].terms.items()) if c < 0)
    found = refine(lambda key: ps.polys[key[0]].vertex_restriction(key[1]),
                   failing_key, negative_terms, tol)
    if found is None:
        return GammaCertificate(
            lower=Fraction(0), upper=None, exact=None, unbounded=True,
            witness=None, n_distinct_restrictions=0, **sizes)
    cut, _, n_cut = found
    # An interval answer's upper bound is itself a negative point; an exact
    # one is probed from tol above.
    witness = descend(lambda delta: condition_at(ps, delta),
                      cut.lower, cut.upper - cut.lower or tol)
    return GammaCertificate(
        lower=cut.lower, upper=cut.upper, exact=cut.exact, unbounded=False,
        witness=witness, n_distinct_restrictions=n_cut, **sizes)


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
    x, hi, step = rational(lo), rational(hi), rational(step)
    if step <= 0:
        raise InputError(f"grid step must be positive, got {step}")
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


_HALF, _TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)


def in_bowtie(alpha: Fraction, beta: Fraction) -> bool:
    """Membership in the positivity parameter region for the two-parameter
    third-order family: two triangles meeting at (2/3, 2/3)."""
    alpha, beta = rational(alpha), rational(beta)
    left = (
        _HALF <= alpha < _TWO_THIRDS
        and _TWO_THIRDS <= beta <= 1 - alpha / 2
    )
    right = (
        _TWO_THIRDS < alpha <= 1
        and 1 - alpha / 2 <= beta <= _TWO_THIRDS
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
    are kept as skipped cells; a negative `delta` raises first.  The
    condition is checked only where gamma > 0 or delta = 0, as gamma = 0
    puts negative points in every box [0, delta]^n with delta > 0.
    """
    delta = rational(delta)
    if delta < 0:
        raise ParameterDomainError("delta must be nonnegative")
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
        positive = gamma_zero_test(ps) is None
        holds = (positive or delta == 0) and condition_at(ps, delta) is None
        cells.append(RegionCell(alpha, beta, member, holds, positive, None))
    return cells
