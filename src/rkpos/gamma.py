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

The check runs on a stack of sets with one layout, each set at its own
delta: a stack of one for `condition_at`, `gamma_zero_test` and
`compute_gamma`, and chunks of a parameter grid for `sweep` and
`region_scan`, a sweep's refinements advancing in lockstep.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from operator import add, attrgetter
from typing import Optional, Union

import numpy as np

from .bounds import BoundResult, ssp_coefficient
from .errors import CapacityError, InputError, ParameterDomainError, rational
from .multilinear import GRID_POINTS, TABLE_BYTES, move_bits, planes
from .polygen import PropagationSet, StencilSpec, _check_unity, generate, layout, upwind
from .tableau import ButcherTableau, _chains, _family, make_family
from .univariate import DEFAULT_TOL, Cut, UniPoly, positive_tol, refinement

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
    """(offset, support, lo, k, scales, table, planes) per polynomial,
    ascending offset, as a stack of one: P_offset's support, its eliminated
    block support[lo:lo + k], [its scale], its `vertex_table()` of shape
    (1, rows, columns) and its (count, width, bound) of `multilinear.planes`.
    The total size is checked against the byte budget before any is built."""
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
    _TABLES[ps] = out = [(offset, poly.support, *poly.block, [scale], table[None],
                          planes(poly.magnitude, len(poly.terms)))
                         for offset, poly in polys for scale, table in [poly.vertex_table()]]
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


def _failing(tables, sets, deltas=None):
    """Per set of `sets`, ascending indices into a stack of vertex tables
    (see `_poly_tables`): None, or (i, cell, weights), its first failing
    cell in tables[i], the first table where it fails, and the weights
    `_vertex` takes.  The check is of germs at 0+ for deltas None, else of
    values at deltas[j] for sets[j]: `_limbs` per distinct delta, padded
    with leading zero limbs, times the tables in one batched matmul.  A
    table goes through `_failing_cells` a chunk of `_STACK_BYTES` at a
    time, up to the chunk where every set still checked has failed."""
    found, pending = [None] * len(sets), list(range(len(sets)))
    if deltas is not None:
        distinct = {(d.numerator, d.denominator): d for d in deltas}
        position = {key: u for u, key in enumerate(distinct)}
        which = [position[d.numerator, d.denominator] for d in deltas]
    for i, (_, _, _, k, _, table, (count, width, bound)) in enumerate(tables):
        if not pending:
            break
        stack = table if len(pending) == len(table) else table[[sets[j] for j in pending]]
        if deltas is None:
            limbs, bits, size = None, width, count
        else:
            per = [_limbs(d, table.shape[1] // count - 1, count, width, bound)
                   for d in distinct.values()]
            bits, size = per[0][2], max(len(l) for _, l, _ in per)
            limbs = per[0][1]
            if len(per) > 1:
                padded = np.zeros((len(per), size, table.shape[1]), dtype=np.int64)
                for row, (_, l, _) in zip(padded, per):
                    row[size - len(l):] = l
                limbs = padded[[which[j] for j in pending]]
        cell = k + 1
        step = cell * max(1, _STACK_BYTES // (8 * cell * len(stack) * (
            table.shape[1] if limbs is None else size)))
        first = [-1] * len(pending)
        for start in range(0, table.shape[2], step):
            rows = stack[:, :, start:start + step]
            bad = _failing_cells(rows if limbs is None else limbs @ rows, k, bits, size)
            for j, (hit, c) in enumerate(zip(bad.any(axis=1).tolist(),
                                             bad.argmax(axis=1).tolist())):
                if hit and first[j] < 0:
                    first[j] = start // cell + c
            if min(first) >= 0:
                break
        for j, c in zip(pending, first):
            if c >= 0:
                found[j] = i, c, [1 << width * q for q in reversed(range(count))] if (
                    deltas is None) else per[which[j]][0]
        pending = [j for j, c in zip(pending, first) if c < 0]
    return found


def _vertex(table, lo: int, k: int, at: int, weights):
    """The first vertex, in support subset order, with a negative germ in
    a table whose first failing cell is `at`: (support code, germ as a
    list of rows).

    Support subset order is (high bits, block, low bits) order, so the
    first failing vertex has the high index of the first failing cell,
    whose cells become Python ints, `weights` dotted with each group of
    rows.  Its block subset is fixed from the top bit down, in Python
    lists, which compare lexicographically: a bit is clear if some vertex
    with the bits above fixed and the bits below free still fails there.
    """
    cell, high = k + 1, at >> lo
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


def _negatives(tables, sets, deltas=None) -> list[Optional[NegativityWitness]]:
    """Per set of `sets`, checked as `_failing` checks it, None or the
    witness at its first negative vertex in global subset order: its
    first in support subset order, since a global subset takes the value
    of its intersection with the support.  At a delta the vertex's value
    comes times scale * den**maxdeg; at 0+ its germ is its restriction's
    coefficients times scale."""
    out = []
    for j, found in enumerate(_failing(tables, sets, deltas)):
        if found is None:
            out.append(None)
            continue
        i, at, weights = found
        offset, support, lo, k, scales, table, (count, _, _) = tables[i]
        code, germ = _vertex(table[sets[j]], lo, k, at, weights)
        subset, scale = move_bits(code, support), scales[sets[j]]
        if deltas is None:
            g = UniPoly(tuple(germ), scale)
            delta = g.germ_witness()
            out.append(NegativityWitness(offset, subset, delta, g(delta)))
        else:
            delta = deltas[j]
            out.append(NegativityWitness(offset, subset, delta, Fraction(
                germ[0], scale * delta.denominator ** (table.shape[1] // count - 1))))
    return out


def gamma_zero_test(ps: PropagationSet) -> Optional[NegativityWitness]:
    """Decide gamma > 0 without computing gamma: `_negatives` at 0+ on the
    set's stack of one.  gamma > 0 iff for every vertex restriction
    g_{i,S} the lowest-order nonzero coefficient is positive (then g > 0
    on some (0, eps)).  Returns None when gamma > 0, otherwise a witness at
    the first such vertex in offset, then global subset order, evaluated
    at a concrete small delta where it is negative."""
    return _negatives(_poly_tables(ps), [0])[0]


def condition_at(
    ps: PropagationSet, delta: Union[Fraction, int]
) -> Optional[NegativityWitness]:
    """Check `every P_i >= 0 on [0, delta]^n` exactly at one delta:
    `_negatives` on the set's stack of one.  Returns None when the
    condition holds, else the witness at the first negative vertex in
    offset, then global subset order.  Vertices suffice because the
    polynomials are multilinear; each column's value times scale *
    den**maxdeg is one dot of the `_limbs` powers with the table, in int64
    limbs, and the least over a cell's block vertices is slice 0 plus the
    negative slices."""
    delta = rational(delta)
    if delta < 0:
        raise ParameterDomainError("delta must be nonnegative")
    return _negatives(_poly_tables(ps), [0], [delta])[0]


def compute_gamma(
    source: Union[PropagationSet, ButcherTableau],
    stencil: StencilSpec = upwind,
    tol: Fraction = DEFAULT_TOL,
) -> GammaCertificate:
    """Certify gamma for a method/stencil pair (or a ready PropagationSet):
    `_certify` on its vertex tables, built once, as a stack of one.  `tol`
    must be positive; it is checked before anything is generated."""
    tol = positive_tol(tol)
    ps = source if isinstance(source, PropagationSet) else generate(source, stencil)
    return _certify([ps], _poly_tables(ps), tol)[0]


def _certify(sets: list[PropagationSet], tables, tol: Fraction) -> list[GammaCertificate]:
    """The certificates of the sets of one stack of vertex tables, their
    `_refinement`s run in lockstep: each round checks every unfinished set
    at the delta its refinement asks for, in one `_negatives` call.  A
    vertex the zero test finds binds at 0 and is the witness."""
    zeros = _negatives(tables, range(len(sets)))
    steps = [_refinement(ps, zero, tol) for ps, zero in zip(sets, zeros)]
    found, answers = [None] * len(sets), dict.fromkeys(range(len(sets)))
    while answers:
        deltas = {}
        for s, failure in answers.items():
            try:
                deltas[s] = steps[s].send(failure)
            except StopIteration as stop:
                found[s] = stop.value
        answers = dict(zip(deltas, _negatives(tables, list(deltas), list(deltas.values()))))
    certs = []
    for ps, zero, refined in zip(sets, zeros, found):  # None: unbounded
        cut, _, n_cut, witness = refined or (Cut(None, Fraction(0), None), None, 0, None)
        certs.append(GammaCertificate(cut.lower, cut.upper, cut.exact, refined is None,
                                      zero or witness, len(ps.vars), len(ps.polys), n_cut))
    return certs


def _refinement(ps: PropagationSet, zero: Optional[NegativityWitness], tol: Fraction):
    """The set's `univariate.refinement` over its vertex restrictions,
    keyed by (offset, subset).  Without a zero key gamma is finite iff
    some P_i has a negative term c_T, the top coefficient of the
    restriction to T's own vertex, and the first such restriction, in
    offset, then subset code order, is cut first."""
    vertex = attrgetter("offset", "subset")
    negative_terms = ((offset, code) for offset in ps.offsets
                      for code, c in sorted(ps.polys[offset].terms.items()) if c < 0)
    return refinement(lambda key: ps.polys[key[0]].vertex_restriction(key[1]), vertex,
                      negative_terms, tol, None if zero is None else vertex(zero))


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


# Region points a sweep point is charged at the default tol.  In stacked
# chunks a sweep point took 0.13-1.26 ms (ERK33 Case II upwind with --ssp
# the most, most of it the SSP bound; 0.40 and 0.69 ms for the ERK22 and
# Case II upwind --ssp sweeps at step 1/64) and a region point 0.03 ms
# once its chains came from integer family entries (0.07 ms before;
# Python 3.11, shared 2-CPU box).  The charge stays at 20, so the same
# grids are admitted as before.  Irrational cuts are bisected down to tol, so a
# point is charged this once more for each 40 bits of 1/tol past the first
# 40: an ERK22 --ssp point took 0.40-0.64 ms at 2^-40 and 1.6-1.9 ms at
# 1e-1000, charged 84 times, since its rational cuts stop at the grid of
# `first_negative_cut`.
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
    SWEEP_POINT_COST * max(1, ceil(b / 40)) region points against
    GRID_POINTS, b being the bits of 1/tol.

    The points are never generated one by one: each chunk of `_chunks` is
    certified by `_certify` on its stacked tables, the lockstep refinement
    that `compute_gamma` runs on a stack of one, so every row is the one
    `compute_gamma` gives for its point alone.  A point's tableau is built
    only for its `PropagationSet` and its SSP bound.
    """
    tol = positive_tol(tol)
    bits = tol.denominator.bit_length() - tol.numerator.bit_length()
    alphas = _frange(lo, hi, step, cost=SWEEP_POINT_COST * max(1, -(-bits // 40)))
    rows: list[Optional[SweepRow]] = [None] * len(alphas)
    skipped: dict[int, str] = {}
    for lay, chunk, tables in _chunks(kind, [(alpha,) for alpha in alphas], stencil, skipped):
        sets = [PropagationSet(make_family(kind, params), stencil, lay.vars,
                               lay.polys(*numerators)) for _, params, numerators in chunk]
        for (i, _, _), ps, cert in zip(chunk, sets, _certify(sets, tables, tol)):
            rows[i] = SweepRow(alphas[i], None, cert,
                               ssp_coefficient(ps.tableau).exact if with_ssp else None, None)
    for i, reason in skipped.items():
        rows[i] = SweepRow(alphas[i], None, None, None, reason)
    return rows


def in_bowtie(alpha: Fraction, beta: Fraction) -> bool:
    """Membership in the positivity parameter region for the two-parameter
    third-order family: two triangles meeting at (2/3, 2/3).  With alpha =
    p/q and beta = r/s, each bound is decided on integers, 1 - alpha/2
    being (2q - p)/2q."""
    alpha, beta = rational(alpha), rational(beta)
    p, q, r, s = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    edge = 2 * q * r - (2 * q - p) * s  # the sign of beta - (1 - alpha/2)
    left = q <= 2 * p and 3 * p < 2 * q and 2 * s <= 3 * r and edge <= 0
    right = 2 * q < 3 * p and p <= q and edge >= 0 and 3 * r <= 2 * s
    return left or right


@dataclass(frozen=True)
class RegionCell:
    alpha: Fraction
    beta: Fraction
    in_region: bool
    condition_holds: Optional[bool]  # condition_at(delta); None when skipped
    gamma_positive: Optional[bool]
    skipped: Optional[str]


# Bytes of stacked vertex table entries, at 8 per entry, that `sweep` and
# `region_scan` decide at once, and that one check takes of a large table:
# 2**18 holds the tables of 128 ERK33 Case I upwind sets (32 heat), enough
# to make the numpy calls cheap per set, while a grid's peak memory grows
# by a fraction of a MiB.
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

    The sets are never generated one by one: each chunk of `_chunks` is
    decided by two `_failing` calls on its stacked tables, the zero test
    and the check at delta, the core that `gamma_zero_test` and
    `condition_at` run on a stack of one, so the cells are those of the
    per-set checks, exactly, at every delta.  No point builds a tableau.
    """
    delta = rational(delta)
    if delta < 0:
        raise ParameterDomainError("delta must be nonnegative")
    if points is None:
        axis = _frange(lo, hi, spacing, dims=2)
        points = [(a, b) for a in axis for b in axis]
    cells: list[Optional[RegionCell]] = [None] * len(points)
    skipped: dict[int, str] = {}
    for _, chunk, tables in _chunks("ERK33_CaseI", points, stencil, skipped):
        positive = [found is None for found in _failing(tables, range(len(chunk)))]
        check = [s for s, pos in enumerate(positive) if pos or delta == 0]
        holds = [found is None for found in _failing(tables, check, [delta] * len(check))]
        holds = dict(zip(check, holds))
        for s, (i, _, _) in enumerate(chunk):
            cells[i] = RegionCell(*points[i], in_bowtie(*points[i]), holds.get(s, False),
                                  positive[s], None)
    for i, reason in skipped.items():
        cells[i] = RegionCell(*points[i], in_bowtie(*points[i]), None, None, reason)
    return cells


def _chunks(kind: str, points, stencil: StencilSpec, skipped: dict[int, str]):
    """A family's points as chunks (layout, chunk, tables), in order: the
    valid points grouped by nonzero chain pattern, whose `layout` and
    `Layout.products` are built once, and cut into chunks of as many as
    `_STACK_BYTES` of stacked table entries allow.  A chunk lists (index,
    params, `Layout.numerators` of its chain weights) and comes with its
    `_stack`; every point of a group has the same variables, terms,
    supports, blocks and table columns.  A point's chains come from the
    integer entries of its family (`tableau._family`), so no tableau and
    no Fraction is built.  A singular point's reason goes to `skipped`
    under its index."""
    groups: dict[tuple, tuple] = {}
    for i, params in enumerate(points):
        try:
            pattern, weights = zip(*_chains(*_family(kind, params)))
        except ParameterDomainError as exc:
            skipped[i] = str(exc)
            continue
        if pattern not in groups:
            lay = layout(pattern, stencil)
            products = lay.products()
            _check_unity(stencil, products.values())
            entries = sum(poly.table_entries() for poly in products.values())
            groups[pattern] = lay, products, max(1, _STACK_BYTES // (8 * entries)), []
        lay, products, size, chunk = groups[pattern]
        chunk.append((i, params, lay.numerators(weights)))
        if len(chunk) == size:
            yield lay, chunk[:], _stack(lay, products, chunk)
            chunk.clear()
    for lay, products, _, chunk in groups.values():
        if chunk:
            yield lay, chunk, _stack(lay, products, chunk)


def _stack(lay, products, chunk):
    """The vertex tables of `_poly_tables` for a chunk of `_chunks`, from
    each set's (scale, chain factors) of `Layout.numerators`, in int64
    planes at the stack's largest magnitude per displacement.  The bytes
    per set are checked against TABLE_BYTES before any table is built.
    """
    factors = np.array([factors for _, _, (_, factors) in chunk], dtype=object)
    stacks = []
    for d in sorted(products):
        chain, cprods = zip(*lay.terms[d].values())
        terms = factors[:, chain] * np.array(cprods, dtype=object)
        magnitude = max(np.abs(terms).sum(axis=1))
        stacks.append((d, products[d], terms, magnitude,
                       planes(magnitude, len(products[d].terms))))
    nbytes = sum(8 * count * poly.table_entries() for _, poly, _, _, (count, _, _) in stacks)
    if nbytes > TABLE_BYTES:
        raise CapacityError(
            f"the vertex tables of one set need {nbytes} bytes, over the "
            f"{TABLE_BYTES}-byte budget")
    scales = [scale for _, _, (scale, _) in chunk]
    return [(d, poly.support, *poly.block, scales, poly.vertex_tables(terms, magnitude), pl)
            for d, poly, terms, magnitude, pl in stacks]
