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
value at a vertex S is the value at S intersected with the support.  Its
vertex table eliminates one block of k support variables exactly, the
variables of one stage, no two in a term: (k + 1) * 2^(|support| - k)
columns in place of 2^|support|.  A vertex check evaluates every column
exactly in int64 limbs and takes the least value over the block's
vertices per column; there is one path and no sampling fallback.  A set
whose tables exceed the byte budget of `rkpos.multilinear` raises
CapacityError before any table is built.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add, attrgetter
from typing import Optional, Union

import numpy as np

from .bounds import BoundResult, ssp_coefficient
from .errors import CapacityError, InputError, ParameterDomainError, rational
from .multilinear import GRID_POINTS, TABLE_BYTES, move_bits, planes
from .polygen import PropagationSet, StencilSpec, _check_unity, generate, layout, upwind
from .tableau import ButcherTableau, chain_weights, make_family
from .univariate import DEFAULT_TOL, positive_tol, refine

__all__ = [
    "GammaCertificate",
    "NegativityWitness",
    "RegionCell",
    "SWEEP_POINT_COST",
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
class GammaCertificate(BoundResult):
    """Result of an exact gamma computation, a `BoundResult`.

    Invariants: lower <= gamma <= upper whenever the bounds are finite;
    `exact` is set only when gamma was pinned to a rational and both
    directions were re-verified by direct evaluation.  A finite gamma's
    `witness` is a `NegativityWitness` at some delta > 0: the zero
    test's for a zero gamma, else the failure just above the bound.
    `n_distinct_restrictions` counts the vertex restrictions that were
    cut to reach the answer (0 for a zero or unbounded gamma).
    """

    n_vars: int
    n_polys: int
    n_distinct_restrictions: int

    @property
    def is_zero(self) -> bool:
        return self.exact == 0

    def __str__(self) -> str:
        if self.unbounded:
            return "gamma = +inf (no vertex restriction ever turns negative)"
        return f"gamma {'in' if self.exact is None else '='} {super().__str__()}"


# Each set's tables, built on its first check and dropped with the set.
_TABLES = weakref.WeakKeyDictionary()


def _poly_tables(ps: PropagationSet):
    """(offset, support, lo, k, scale, table, planes) per polynomial,
    ascending offset: P_offset's support, its eliminated block
    support[lo:lo + k], its `vertex_table()` and its (count, width, bound)
    of `multilinear.planes`.  The tables' total size is checked against
    the byte budget before the first one is built."""
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
    _TABLES[ps] = out = [(offset, poly.support, *poly.block, *poly.vertex_table(),
                          planes(poly.magnitude, len(poly.terms))) for offset, poly in polys]
    return out


def _limbs(delta: Fraction, top: int, count: int, width: int, bound: int):
    """(powers, limbs, bits): the row weights num**d * den**(top - d) *
    2**(width * q) at delta = num / den, whose dot with a column is its
    value times den**top, and their int64 base-2**bits digits, the most
    significant first.  bits = 62 - bound.bit_length() keeps limbs times a
    table whose cells' absolute entries sum to at most `bound` below 2**62."""
    num, den = delta.numerator, delta.denominator
    shifts = [width * q for q in reversed(range(count))]
    powers = [num**d * den ** (top - d) << s for d in range(top + 1) for s in shifts]
    bits = 62 - bound.bit_length()
    mask, size = (1 << bits) - 1, -(-max(powers).bit_length() // bits)
    return powers, np.array([[p >> s & mask for p in powers] for s in
                             range(bits * (size - 1), -1, -bits)], dtype=np.int64), bits


# 2**62, ..., 2, 1: weights that turn a column of signs into one number
# with the sign of the column's first nonzero entry.  A table within the
# byte budget has far fewer rows: maxdeg <= |support| - k + 1.
_WEIGHTS = 1 << np.arange(62, -1, -1)


def _germs(rows, bits: int, width: int):
    """Per set and column, a number that is negative exactly when the germ
    at 0+ is that its coefficient rows give, lowest degree first.  `rows`
    has shape (sets, groups * width, columns), a group being one value's
    base-2**bits limbs, the most significant first: with the carries moved
    up a copy, the first limb is negative exactly when the value is, and a
    value is 0 when all its limbs are."""
    if width > 1:
        limbs = rows.reshape(len(rows), -1, width, rows.shape[2]).copy()
        for j in range(width - 1, 0, -1):
            limbs[:, :, j - 1] += limbs[:, :, j] >> bits
        rows = limbs[:, :, 0] if limbs.shape[1] == 1 else 2 * np.sign(limbs[:, :, 0]) + (
            limbs[:, :, 1:] & (1 << bits) - 1).any(axis=2)
    if rows.shape[1] == 1:
        return rows[:, 0]
    return _WEIGHTS[-rows.shape[1]:] @ np.sign(rows)


def _failing_cells(rows, k: int, bits: int, width: int):
    """Per set of a stack, which cells have a negative least germ over
    their block vertices: a boolean array of shape (sets, cells), whose
    first True in a row is that set's first failing cell.

    `rows` has shape (sets, rows, columns): per set, one table's value at
    a delta or its coefficient rows, in limbs (see `_germs`), a cell of k
    + 1 slices per subset of the support variables outside the block (see
    `vertex_table`).  A vertex's germ at 0+ is its column of rows, and
    lexicographic order on the rows, lowest degree first, is a group
    order, so the least germ over a cell's block vertices is slice 0 plus
    every slice whose germ is negative; for one value it is the least value.
    """
    sets, depth = rows.shape[:2]
    take = _germs(rows, bits, width).reshape(sets, 1, -1, k + 1) < 0
    take[..., 0] = True  # slice 0, the terms without a block variable
    cells = rows.reshape(sets, depth, -1, k + 1)
    return _germs(np.where(take, cells, 0).sum(axis=3), bits, width) < 0


def _first_negative(table, lo: int, k: int, limbs, bits: int, width: int, weights):
    """The first vertex, in support subset order, with a negative germ:
    (support code, germ as a list of rows), or None.

    The table's rows, or `limbs` times them, go through `_failing_cells`
    a chunk of `_STACK_BYTES` at a time.  Support subset order is (high
    bits, block, low bits) order, so the first failing vertex has the high
    index of the first failing cell, whose cells become Python ints,
    `weights` dotted with each group of rows.  Its block subset is fixed
    from the top bit down, in Python lists, which compare
    lexicographically: a bit is clear if some vertex with the bits above
    fixed and the bits below free still fails there.
    """
    cell = k + 1
    step = cell * max(1, _STACK_BYTES // (8 * cell * len(table if limbs is None else limbs)))
    for start in range(0, table.shape[1], step):
        rows = table[:, start:start + step]
        rows = rows if limbs is None else limbs.dot(rows)
        bad = _failing_cells(rows[None], k, bits, width)[0]
        if bad[c := int(bad.argmax())]:
            break
    else:
        return None
    high = (start // cell + c) >> lo
    slab = table[:, (high << lo) * cell:(high + 1 << lo) * cell].astype(object)
    part = np.array(weights, dtype=object) @ slab.reshape(-1, len(weights), slab.shape[1])
    zero = [0] * len(part)
    columns = part.reshape(len(part), -1, cell).transpose(1, 2, 0).tolist()
    free = []  # free[l][o]: the least germ of the block bits below o
    for _, *slopes in columns:
        below = [zero]
        for b in slopes:
            below.append(_plus(below[-1], b) if b < zero else below[-1])
        free.append(below)
    least, code = [column[0] for column in columns], 0
    for o in reversed(range(k)):
        if not any(_plus(g, f[o]) < zero for g, f in zip(least, free)):
            least = [_plus(g, column[o + 1]) for g, column in zip(least, columns)]
            code |= 1 << o
    at = next(l for l, g in enumerate(least) if g < zero)
    return (high << k | code) << lo | at, least[at]


def _plus(u: list, v: list) -> list:
    return list(map(add, u, v))


def gamma_zero_test(ps: PropagationSet) -> Optional[NegativityWitness]:
    """Decide gamma > 0 without computing gamma.

    gamma > 0 iff for every vertex restriction g_{i,S} the lowest-order
    nonzero coefficient is positive (then g > 0 on some (0, eps)).  Returns
    None when gamma > 0, otherwise a witness at the first such vertex in
    offset, then global subset order (see `condition_at`), evaluated at a
    concrete small delta where it is negative.
    """
    for offset, support, lo, k, _scale, table, (count, width, _) in _poly_tables(ps):
        found = _first_negative(table, lo, k, None, width, count,
                                [1 << width * q for q in reversed(range(count))])
        if found is not None:
            subset = move_bits(found[0], support)
            g = ps.polys[offset].vertex_restriction(subset)
            delta = g.germ_witness()
            return NegativityWitness(offset, subset, delta, g(delta))
    return None


def condition_at(
    ps: PropagationSet, delta: Union[Fraction, int]
) -> Optional[NegativityWitness]:
    """Check `every P_i >= 0 on [0, delta]^n` exactly at one delta.

    Returns None when the condition holds, else a witness vertex with a
    negative value.  Exact: vertices suffice because the polynomials are
    multilinear, and each column's value times scale * den**maxdeg is one
    dot of the `_limbs` powers with the table, taken in int64 limbs; the
    least over a cell's block vertices is slice 0 plus the negative
    slices.  The first negative vertex in support subset order is the
    first negative global subset, since a global subset takes the value
    of its intersection with the support, a subset no larger than itself;
    it is reported by its global code.
    """
    delta = rational(delta)
    if delta < 0:
        raise ParameterDomainError("delta must be nonnegative")
    for offset, support, lo, k, scale, table, (count, width, bound) in _poly_tables(ps):
        top = len(table) // count - 1
        powers, limbs, bits = _limbs(delta, top, count, width, bound)
        found = _first_negative(table, lo, k, limbs, bits, len(limbs), powers)
        if found is not None:
            code, (value,) = found
            return NegativityWitness(offset, move_bits(code, support), delta,
                                     Fraction(value, scale * delta.denominator**top))
    return None


def compute_gamma(
    source: Union[PropagationSet, ButcherTableau],
    stencil: StencilSpec = upwind,
    tol: Fraction = DEFAULT_TOL,
) -> GammaCertificate:
    """Certify gamma for a method/stencil pair (or a ready PropagationSet).

    `univariate.refine` over vertex tables built once, checked by
    `condition_at`; a vertex the zero test finds binds at 0 and is the
    witness.  Otherwise gamma is finite iff some P_i has a negative term
    c_T, the top coefficient of the restriction to T's own vertex, and
    the first such restriction is cut first.  `tol` must be positive; it
    is checked before anything is generated.
    """
    tol = positive_tol(tol)
    ps = source if isinstance(source, PropagationSet) else generate(source, stencil)
    zero = gamma_zero_test(ps)
    negative_terms = ((offset, code) for offset in ps.offsets
                      for code, c in sorted(ps.polys[offset].terms.items()) if c < 0)
    vertex = attrgetter("offset", "subset")
    found = refine(lambda key: ps.polys[key[0]].vertex_restriction(key[1]),
                   partial(condition_at, ps), vertex, negative_terms, tol,
                   None if zero is None else vertex(zero))
    sizes = dict(n_vars=len(ps.vars), n_polys=len(ps.polys))
    if found is None:
        return GammaCertificate(Fraction(0), None, None, True, None,
                                n_distinct_restrictions=0, **sizes)
    cut, _, n_cut, witness = found
    return GammaCertificate(cut.lower, cut.upper, cut.exact, False, zero or witness,
                            n_distinct_restrictions=n_cut, **sizes)


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


# Region points a sweep point is charged.  A sweep point took 0.37-1.45 ms
# (ERK33 Case II upwind with --ssp the most) and a region point 0.083 ms
# (Python 3.11), so the largest sweep admitted is no slower than a region.
SWEEP_POINT_COST = 20


def _frange(lo: Fraction, hi: Fraction, step: Fraction, dims: int = 1,
            cost: int = 1) -> list[Fraction]:
    """lo, lo + step, ... up to hi: one axis of a `dims`-dimensional grid.

    The points are counted from lo, hi and step first: a grid whose
    points, charged `cost` region points each, come to more than
    GRID_POINTS raises CapacityError before any is built.
    """
    x, hi, step = rational(lo), rational(hi), rational(step)
    if step <= 0:
        raise InputError(f"grid step must be positive, got {step}")
    count = max(0, (hi - x) // step + 1)
    if count**dims * cost > GRID_POINTS:
        raise CapacityError(
            f"the grid from {x} to {hi} at step {step} has {count**dims} points "
            f"(charged {cost} each), over the limit of {GRID_POINTS}")
    return [x + i * step for i in range(count)]


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
    computes the exact SSP coefficient per row.  Each point is charged
    SWEEP_POINT_COST region points against GRID_POINTS.
    """
    rows = []
    for alpha in _frange(lo, hi, step, cost=SWEEP_POINT_COST):
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


# Bytes of stacked vertex table entries, at 8 per entry, that `region_scan`
# decides at once: 2**18 holds the tables of 128 ERK33 Case I upwind sets
# (32 heat), enough to make the numpy calls cheap per set, while a grid's
# peak memory grows by a fraction of a MiB.
_STACK_BYTES = 1 << 18


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

    Default grid: [lo, hi]^2 at `spacing`, at most GRID_POINTS points.
    Singular parameter points are kept as skipped cells; a negative
    `delta` raises first.  The condition holds where gamma > 0 or delta =
    0 and `condition_at(ps, delta)` finds no negative vertex, as gamma = 0
    puts negative points in every box [0, delta]^n with delta > 0.

    The sets are never generated one by one.  The valid points are
    grouped by their nonzero chain pattern, in grid order, and each
    group's `layout` is built once: every point of a group has the same
    variables, terms, supports, blocks and table columns, and only its
    numerators differ.  A chunk of points, as many as `_STACK_BYTES` of
    stacked entries allow, is decided from one stack of vertex tables per
    displacement, in int64 planes and limbs as the per-set tables: the
    zero test and the check at delta run the failing cell core of
    `gamma_zero_test` and `condition_at` on the stack, so the cells are
    those of the per-set checks, exactly, at every delta.
    """
    delta = rational(delta)
    if delta < 0:
        raise ParameterDomainError("delta must be nonnegative")
    if points is None:
        axis = _frange(lo, hi, spacing, dims=2)
        points = [(a, b) for a in axis for b in axis]
    cells: list[Optional[RegionCell]] = [None] * len(points)

    def decide(lay, products, chunk):
        positive, holds = _decide(lay, products, [f for _, _, f in chunk], delta)
        for (i, member, _), pos, ok in zip(chunk, positive.tolist(), holds.tolist()):
            cells[i] = RegionCell(*points[i], member, ok, pos, None)
        chunk.clear()

    groups: dict[tuple, tuple] = {}
    for i, (alpha, beta) in enumerate(points):
        member = in_bowtie(alpha, beta)
        try:
            t = make_family("ERK33_CaseI", (alpha, beta))
        except ParameterDomainError as exc:
            cells[i] = RegionCell(alpha, beta, member, None, None, str(exc))
            continue
        chains = list(chain_weights(t))
        pattern = tuple(stages for stages, _ in chains)
        if pattern not in groups:
            lay = layout(pattern, stencil)
            products = lay.products()
            _check_unity(stencil, products.values())
            entries = sum(poly.table_entries() for poly in products.values())
            groups[pattern] = lay, products, max(1, _STACK_BYTES // (8 * entries)), []
        lay, products, size, chunk = groups[pattern]
        chunk.append((i, member, lay.numerators([w for _, w in chains])[1]))
        if len(chunk) == size:
            decide(lay, products, chunk)
    for lay, products, _, chunk in groups.values():
        if chunk:
            decide(lay, products, chunk)
    return cells


def _decide(lay, products, factors, delta: Fraction):
    """(gamma > 0, condition holds at delta) per set of one layout, as
    boolean arrays, from one stack of vertex tables per displacement.

    `factors` holds each set's chain factors (`Layout.numerators`); its
    numerators are those times the layout's stencil products, over a
    positive scale that signs ignore.  The stack's bytes per set, counted
    as `table_bytes` counts them at the chunk's largest magnitude per
    displacement, are checked against TABLE_BYTES before any is built.
    """
    positive, fine = np.ones((2, len(factors)), dtype=bool)
    factors = np.array(factors, dtype=object)
    stacks = []
    for d, poly in products.items():
        chain, cprods = zip(*lay.terms[d].values())
        numerators = factors[:, chain] * np.array(cprods, dtype=object)
        magnitude = max(np.abs(numerators).sum(axis=1))
        stacks.append((poly, numerators, magnitude, planes(magnitude, len(poly.terms))))
    nbytes = sum(8 * count * poly.table_entries() for poly, _, _, (count, _, _) in stacks)
    if nbytes > TABLE_BYTES:
        raise CapacityError(
            f"the vertex tables of one set need {nbytes} bytes, over the "
            f"{TABLE_BYTES}-byte budget")
    for poly, numerators, magnitude, (count, width, bound) in stacks:
        k, table = poly.block[1], poly.vertex_tables(numerators, magnitude)
        positive &= ~_failing_cells(table, k, width, count).any(axis=1)
        _, limbs, bits = _limbs(delta, poly.maxdeg, count, width, bound)
        fine &= ~_failing_cells(limbs @ table, k, bits, len(limbs)).any(axis=1)
    return positive, fine & (positive | (delta == 0))
