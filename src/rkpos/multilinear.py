"""Sparse multilinear polynomials over tagged stage/offset variables.

A variable tag (j, s) stands for xi^j_{k+s}: the dimensionless coefficient of
stage j at spatial displacement s.  Terms are stored as integer numerators
over one positive scale, against integer subset codes over the canonical
variable order (ascending stage, then ascending offset), so multilinearity
is structural and vertex enumeration is a subset sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapacityError, InputError, rational
from .univariate import UniPoly

__all__ = [
    "VarTag",
    "MultilinearPoly",
    "canonical_order",
    "move_bits",
    "planes",
    "TABLE_BYTES",
    "GRID_POINTS",
]

# Byte budget for the vertex tables of one propagation set, in the bytes the
# checks keep (`table_bytes`): 8 per entry per int64 plane (see `planes`).
# Generic 8-stage upwind (85 M entries, 651 MiB) and 6-stage heat (34 M,
# 259 MiB) fit; 9-stage upwind (22 GiB) and 7-stage heat (34 GiB) do not.
TABLE_BYTES = 3 << 28

# Points of one `region` or `sweep` grid, counted before any is built.  A
# kept sweep row (its certificate, witness and SSP bound) measured 2.8 KiB
# for ERK22 and 4.4 KiB for ERK33 Case II, a region cell 0.4 KiB kept and
# 1.6 KiB at the scan's peak (tracemalloc, Python 3.11), so at about 4 KiB
# a point a full grid keeps about TABLE_BYTES: 196,608 points.
GRID_POINTS = TABLE_BYTES >> 12

# One int64 plane holds a table below 2**PLANE_BITS (see `planes`).
PLANE_BITS = 48

class VarTag(NamedTuple):
    stage: int  # 1-based stage index
    offset: int  # spatial displacement s, variable is xi^stage_{k+s}

    def __str__(self) -> str:
        return f"xi[{self.stage},{self.offset:+d}]"


def canonical_order(tags: Iterable[VarTag]) -> tuple[VarTag, ...]:
    """Ascending stage, then ascending offset within a stage."""
    return tuple(sorted(set(tags)))


def move_bits(code: int, targets) -> int:
    """`code` with each set bit k moved to bit targets[k]."""
    out = 0
    while code:
        low = code & -code
        out |= 1 << targets[low.bit_length() - 1]
        code ^= low
    return out


def _block(vars, support, terms) -> tuple[int, int]:
    """(lo, k): the block of support variables support[lo:lo + k] that a
    vertex table eliminates.

    It is the longest run of consecutive support variables of one stage,
    the lowest among equally long runs, when no term uses two of its
    variables: the chain form of generated sets puts at most one variable
    of each stage in a term.  Otherwise it is the lowest support variable
    alone, k = 1; k = 0 only for an empty support.
    """
    lo = k = start = 0
    for j in range(1, len(support) + 1):
        if j == len(support) or vars[support[j]].stage != vars[support[start]].stage:
            if j - start > k:
                lo, k = start, j - start
            start = j
    if k > 1:
        mask = sum(1 << pos for pos in support[lo:lo + k])
        for code in terms:
            if code & mask & ((code & mask) - 1):
                return 0, 1
    return lo, k


def planes(magnitude: int, terms: int) -> tuple[int, int, int]:
    """(count, width, bound) of a vertex table of `terms` numerators of
    absolute sum `magnitude`: entry = sum over q of plane q * 2**(width * q),
    every plane below 2**PLANE_BITS (signed digits past it), and any cell's
    absolute entries sum to at most bound; 4096 planes raise CapacityError."""
    if magnitude < 1 << PLANE_BITS:
        return 1, PLANE_BITS, magnitude
    width = PLANE_BITS - terms.bit_length()
    if (count := -(-magnitude.bit_length() // width)) >> 12:
        raise CapacityError(f"numerators of {magnitude.bit_length()} bits need {count} planes")
    return count, width, min(magnitude, count << PLANE_BITS)


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial: the coefficient of the monomial with subset
    code T is terms[T] / scale.

    `terms` maps subset codes to nonzero integer numerators and `scale` is a
    positive integer; construction reduces them to lowest terms, so `scale`
    is the lcm of the coefficients' denominators.  A numerator that is not
    an int (a Fraction, a float or a bool), a subset code outside the
    variables or a nonpositive scale raises InputError.  `support` lists,
    ascending, the positions of the variables the terms use, `maxdeg` is
    the largest degree of a term (0 for no terms), `magnitude` is the sum
    of the numerators' absolute values, which bounds every vertex table
    entry, and `block` = (lo, k) names the support variables
    support[lo:lo + k] that `vertex_table` eliminates (see `_block`).
    """

    vars: tuple[VarTag, ...]
    terms: dict[int, int]
    scale: int = 1
    support: tuple[int, ...] = field(init=False, repr=False, compare=False)
    maxdeg: int = field(init=False, repr=False, compare=False)
    magnitude: int = field(init=False, repr=False, compare=False)
    block: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.scale) is not int or self.scale <= 0:
            raise InputError(f"scale must be a positive int, got {self.scale!r}")
        used = 0
        for code, c in self.terms.items():
            if type(c) is not int:
                raise InputError(f"numerator {c!r} of term {code} is not an int")
            used |= code
        if used >> self.n:
            raise InputError("a term's subset code has bits outside the variable range")
        common = gcd(self.scale, *self.terms.values())
        if common > 1:
            object.__setattr__(self, "terms", {code: c // common
                                               for code, c in self.terms.items()})
            object.__setattr__(self, "scale", self.scale // common)
        object.__setattr__(self, "support", tuple(
            k for k in range(used.bit_length()) if used >> k & 1))
        object.__setattr__(self, "maxdeg", max(map(int.bit_count, self.terms), default=0))
        object.__setattr__(self, "magnitude", sum(map(abs, self.terms.values())))
        object.__setattr__(self, "block", _block(self.vars, self.support, self.terms))

    @property
    def n(self) -> int:
        return len(self.vars)

    def eval(self, point: Mapping[VarTag, Fraction]) -> Fraction:
        """Exact evaluation; every variable of the polynomial needs a value."""
        vals = []
        for v in self.vars:
            if v not in point:
                raise InputError(f"no value supplied for variable {v}")
            vals.append(rational(point[v]))
        total = Fraction(0)
        for code, coeff in self.terms.items():
            prod = coeff
            bits = code
            while bits:
                i = (bits & -bits).bit_length() - 1
                prod *= vals[i]
                if prod == 0:
                    break
                bits &= bits - 1
            total += prod
        return total / self.scale

    def vertex_restriction(self, subset: int) -> UniPoly:
        """g_S(delta): the value at the vertex whose S-coordinates equal delta.

        g_S(delta) = sum over terms T contained in S of c_T * delta^|T|.
        """
        if subset >> self.n:
            raise InputError("subset code has bits outside the variable range")
        coeffs: dict[int, int] = {}
        for code, c in self.terms.items():
            if code & ~subset:
                continue
            d = code.bit_count()
            coeffs[d] = coeffs.get(d, 0) + c
        return UniPoly(tuple(coeffs.get(d, 0) for d in range(max(coeffs, default=-1) + 1)),
                       self.scale)

    def table_bytes(self) -> int:
        """Bytes the checks keep for this polynomial's `vertex_table`: 8 per
        entry per plane."""
        return 8 * planes(self.magnitude, len(self.terms))[0] * self.table_entries()

    def table_entries(self) -> int:
        """(maxdeg + 1) * (k + 1) * 2**(|support| - k): the entries of
        `vertex_table`, k the size of the eliminated block."""
        k = self.block[1]
        return (self.maxdeg + 1) * (k + 1) << (len(self.support) - k)

    def vertex_tables(self, numerators: "np.ndarray", magnitude: int) -> "np.ndarray":
        """A stack of vertex tables of polynomials with these terms and
        other numerators: `numerators` has one row per polynomial and one
        column per term, in `terms` order, of Python ints whose absolute
        values sum to at most `magnitude` in every row.

        Each numerator goes to its term's degree row and column (see
        `vertex_table`), plane q of degree d of `planes` to row d * count +
        count - 1 - q: the column is the sum over the term's variables of
        their places, its block variable's slice, if any, and a bit of the
        subset c of the other support variables times the cell width k +
        1.  One zeta (subset-sum) transform over the r = |support| - k
        other variables, stacked over the rows, sums the terms below each
        cell.  Returns int64 of shape (len(numerators), count * (maxdeg +
        1), (k + 1) * 2**r).
        """
        lo, k = self.block
        r, cell = len(self.support) - k, k + 1
        count, width, _ = planes(magnitude, len(self.terms))
        place = {pos: j - lo + 1 if lo <= j < lo + k else cell << (j if j < lo else j - k)
                 for j, pos in enumerate(self.support)}
        degrees, columns = [], []
        for code in self.terms:
            column, bits = 0, code
            while bits:
                low = bits & -bits
                column += place[low.bit_length() - 1]
                bits ^= low
            degrees.append(code.bit_count() * count)
            columns.append(column)
        sets, depth = len(numerators), count * (self.maxdeg + 1)
        table = np.zeros((sets, depth, cell << r), dtype=np.int64)
        for q in range(count):
            table[:, np.array(degrees, dtype=np.int64) + count - 1 - q, columns] = (
                numerators if count == 1 else
                np.sign(numerators) * (np.abs(numerators) >> width * q & (1 << width) - 1))
        for j in range(r):
            pairs = table.reshape(sets, depth, -1, 2, cell << j)
            pairs[:, :, :, 1] += pairs[:, :, :, 0]
        return table

    def vertex_table(self) -> tuple[int, "np.ndarray"]:
        """Every vertex restriction at once, with the block of `block`
        eliminated, as scaled-integer coefficient rows.

        Returns (scale, table), int64 of shape (maxdeg + 1, 2**r * (k + 1)),
        r = |support| - k, with one cell of k + 1 columns, its slices, per
        subset c of the r other support variables, ascending: column c * (k
        + 1) + o.  table[d, c * (k + 1) + o] / scale is the degree-d
        coefficient of the sum of the terms below c that use no block
        variable (o = 0, A_c) or block variable o (o >= 1, delta * B_o,c,
        at the term's own degree).  No term uses two block variables, so
        the vertex c with block subset T restricts to A_c + sum over o in
        T of delta * B_o,c, and its least value over the block's 2**k
        vertices is A_c + delta * sum_o min(0, B_o,c): variable elimination
        (Boros & Hammer, Discrete Appl. Math. 123, 2002) over a whole
        block.  The table is `vertex_tables` of a stack of one, this
        polynomial's own numerators, so past 2**PLANE_BITS a row is count
        rows of `planes`.  CapacityError is raised before allocation when
        `table_bytes` exceeds TABLE_BYTES.
        """
        nbytes = self.table_bytes()
        if nbytes > TABLE_BYTES:
            raise CapacityError(
                f"the vertex table over {len(self.support)} variables needs "
                f"{nbytes} bytes, over the {TABLE_BYTES}-byte budget")
        return self.scale, self.vertex_tables(
            np.array([list(self.terms.values())], dtype=object), self.magnitude)[0]

    def _by_tags(self) -> dict[tuple[VarTag, ...], int]:
        """Terms keyed by their variables, sorted: independent of var order."""
        return {tuple(sorted(v for i, v in enumerate(self.vars) if code >> i & 1)): c
                for code, c in self.terms.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.scale == other.scale and self._by_tags() == other._by_tags()

    def __hash__(self):
        return hash((self.scale, frozenset(self._by_tags().items())))

    def format_terms(self, labels: Mapping[VarTag, str] | None = None) -> str:
        """Print format: terms ascending by subset code, constant term first."""
        if not self.terms:
            return "0"
        names = {i: labels[self.vars[i]] if labels else str(self.vars[i]) for i in self.support}
        parts = []
        for code in sorted(self.terms):
            factors = [f"({Fraction(self.terms[code], self.scale)})"]
            while code:  # the set bits, lowest first
                factors.append(names[(code & -code).bit_length() - 1])
                code &= code - 1
            parts.append("·".join(factors))
        return " + ".join(parts)
