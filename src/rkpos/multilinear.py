"""Sparse multilinear polynomials over tagged stage/offset variables.

A variable tag (j, s) stands for xi^j_{k+s}: the dimensionless coefficient of
stage j at spatial displacement s.  Terms are stored as integer numerators
over one positive scale, against integer subset codes over the canonical
variable order (ascending stage, then ascending offset), so multilinearity
is structural and vertex enumeration is a subset sweep.
"""

from __future__ import annotations

import sys
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
    "entry_bytes",
    "TABLE_BYTES",
    "GRID_POINTS",
]

# Byte budget for the vertex tables of one propagation set, in the bytes the
# checks keep (`table_bytes`): per entry a pointer to a Python int, counted
# at the size of an int as large as the table's magnitude bound, and the
# int64 entry itself when the table has one.  Generic 6-stage centered
# (15.9 M entries, 667 MiB) fits; generic 6-stage heat (34 M entries,
# 1,426 MiB) and 8-stage upwind (85 M entries, 3.9 GiB) do not.
TABLE_BYTES = 3 << 28

# Points of one `region` or `sweep` grid, counted before any is built.  A
# kept sweep row (its certificate, witness and SSP bound) measured 2.8 KiB
# for ERK22 and 4.4 KiB for ERK33 Case II, a region cell 0.4 KiB kept and
# 1.6 KiB at the scan's peak (tracemalloc, Python 3.11), so at about 4 KiB
# a point a full grid keeps about TABLE_BYTES: 196,608 points.
GRID_POINTS = TABLE_BYTES >> 12


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


def entry_bytes(magnitude: int) -> int:
    """Bytes the checks keep per vertex table entry when no entry exceeds
    `magnitude`: a pointer to an int object of that size, plus the int64
    entry itself when the table has one."""
    return 8 + sys.getsizeof(magnitude) + 8 * (magnitude < 2**62)


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
        """Bytes the checks keep for this polynomial's `vertex_table`: its
        `table_entries()`, each a pointer to an int object no larger than
        `magnitude`, plus 8 bytes when the table is int64."""
        return self.table_entries() * entry_bytes(self.magnitude)

    def table_entries(self) -> int:
        """(maxdeg + 1) * (k + 1) * 2**(|support| - k): the entries of
        `vertex_table`, k the size of the eliminated block."""
        k = self.block[1]
        return (self.maxdeg + 1) * (k + 1) << (len(self.support) - k)

    def vertex_tables(self, numerators: "np.ndarray") -> "np.ndarray":
        """A stack of vertex tables of polynomials with these terms and
        other numerators: `numerators` has one row per polynomial and one
        column per term, in `terms` order, int64 or object.

        Each numerator goes to its term's degree row and column (see
        `vertex_table`): the column is the sum over the term's variables
        of their places, its block variable's slice, if any, and a bit of
        the subset c of the other support variables times the cell width
        k + 1.  One zeta (subset-sum) transform over the r = |support| - k
        other variables, stacked over the polynomials and the slices, sums
        the terms below each cell.  Returns shape (len(numerators), maxdeg
        + 1, (k + 1) * 2**r) in the dtype of `numerators`; int64 is exact
        when every row's sum of absolute numerators is below 2**62, which
        bounds every entry.
        """
        lo, k = self.block
        r, cell = len(self.support) - k, k + 1
        place = {pos: j - lo + 1 if lo <= j < lo + k else cell << (j if j < lo else j - k)
                 for j, pos in enumerate(self.support)}
        degrees, columns = [], []
        for code in self.terms:
            column, bits = 0, code
            while bits:
                low = bits & -bits
                column += place[low.bit_length() - 1]
                bits ^= low
            degrees.append(code.bit_count())
            columns.append(column)
        sets = len(numerators)
        table = np.zeros((sets, self.maxdeg + 1, cell << r), dtype=numerators.dtype)
        table[:, degrees, columns] = numerators
        for j in range(r):
            pairs = table.reshape(sets, self.maxdeg + 1, -1, 2, cell << j)
            pairs[:, :, :, 1] += pairs[:, :, :, 0]
        return table

    def vertex_table(self) -> tuple[int, "np.ndarray"]:
        """Every vertex restriction at once, with the block of `block`
        eliminated, as scaled-integer coefficient rows.

        Returns (scale, table), table of shape (maxdeg + 1, 2**r * (k + 1)),
        r = |support| - k, with one cell of k + 1 columns, its slices, per
        subset c of the r other support variables, ascending: column c * (k
        + 1) + o.  table[d, c * (k + 1) + o] / scale is the degree-d
        coefficient of the sum of the terms below c that use no block
        variable (o = 0, A_c) or block variable o (o >= 1, delta * B_o,c,
        at the term's own degree).  No term uses two block variables, so
        the vertex c with block subset T restricts to A_c + sum over o in
        T of delta * B_o,c, and its least value over the block's 2**k
        vertices is A_c + delta * sum_o min(0, B_o,c): variable
        elimination (Boros & Hammer, Discrete Appl. Math. 123, 2002) over
        a whole block.  The table is `vertex_tables` of a stack of one,
        this polynomial's own numerators.  Entries are exact: int64 when
        the magnitude bound allows, arbitrary-precision objects otherwise.
        CapacityError is raised before allocation when `table_bytes`
        exceeds TABLE_BYTES.
        """
        nbytes = self.table_bytes()
        if nbytes > TABLE_BYTES:
            raise CapacityError(
                f"the vertex table over {len(self.support)} variables needs "
                f"{nbytes} bytes, over the {TABLE_BYTES}-byte budget")
        dtype = np.int64 if self.magnitude < 2**62 else object
        return self.scale, self.vertex_tables(
            np.array([list(self.terms.values())], dtype=dtype))[0]

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
        parts = []
        for code in sorted(self.terms):
            factors = [f"({Fraction(self.terms[code], self.scale)})"]
            for i in range(self.n):
                if code >> i & 1:
                    tag = self.vars[i]
                    factors.append(labels[tag] if labels else str(tag))
            parts.append("·".join(factors))
        return " + ".join(parts)
