"""Sparse multilinear polynomials over tagged stage/offset variables.

A variable tag (j, s) stands for xi^j_{k+s}: the dimensionless coefficient of
stage j at spatial displacement s.  Terms are stored against integer subset
codes over the canonical variable order (ascending stage, then ascending
offset), so multilinearity is structural and vertex enumeration is a subset
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapacityError, InputError
from .univariate import UniPoly

__all__ = [
    "VarTag",
    "MultilinearPoly",
    "canonical_order",
    "TABLE_BYTES",
]

# Byte budget for the vertex tables of one propagation set, counted as
# 8-byte entries.  Exact evaluation keeps each table as Python ints, which
# costs a few times more, so the budget stays well below the memory of a
# small machine.  Generic 7-stage upwind (10.6 M entries over its
# supports) fits; generic 6-stage heat (302 M) and 8-stage upwind (321 M)
# do not.
TABLE_BYTES = 2**28


class VarTag(NamedTuple):
    stage: int  # 1-based stage index
    offset: int  # spatial displacement s, variable is xi^stage_{k+s}

    def __str__(self) -> str:
        return f"xi[{self.stage},{self.offset:+d}]"


def canonical_order(tags: Iterable[VarTag]) -> tuple[VarTag, ...]:
    """Ascending stage, then ascending offset within a stage."""
    return tuple(sorted(set(tags)))


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial; terms maps subset code -> nonzero coefficient."""

    vars: tuple[VarTag, ...]
    terms: dict[int, Fraction]

    @staticmethod
    def from_tag_terms(
        vars: Iterable[VarTag], terms: Mapping[frozenset, Fraction]
    ) -> "MultilinearPoly":
        """Build from terms keyed by frozensets of VarTags."""
        order = canonical_order(vars)
        pos = {v: i for i, v in enumerate(order)}
        coded: dict[int, Fraction] = {}
        for tags, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            code = 0
            for tag in tags:
                code |= 1 << pos[tag]
            coded[code] = coded.get(code, Fraction(0)) + coeff
        return MultilinearPoly(order, {c: v for c, v in coded.items() if v != 0})

    @property
    def n(self) -> int:
        return len(self.vars)

    def eval(self, point: Mapping[VarTag, Fraction]) -> Fraction:
        """Exact evaluation; every variable of the polynomial needs a value."""
        vals = []
        for v in self.vars:
            if v not in point:
                raise InputError(f"no value supplied for variable {v}")
            vals.append(Fraction(point[v]))
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
        return total

    def vertex_restriction(self, subset: int) -> UniPoly:
        """g_S(delta): the value at the vertex whose S-coordinates equal delta.

        g_S(delta) = sum over terms T contained in S of c_T * delta^|T|.
        """
        if subset >> self.n:
            raise InputError("subset code has bits outside the variable range")
        coeffs: dict[int, Fraction] = {}
        for code, coeff in self.terms.items():
            if code & ~subset:
                continue
            d = code.bit_count()
            coeffs[d] = coeffs.get(d, Fraction(0)) + coeff
        maxd = max(coeffs, default=-1)
        return UniPoly.from_coeffs([coeffs.get(d, Fraction(0)) for d in range(maxd + 1)])

    def table_bytes(self) -> int:
        """Bytes of the (maxdeg + 1, 2**n) array `vertex_table` allocates."""
        maxdeg = max((c.bit_count() for c in self.terms), default=0)
        return 8 * (maxdeg + 1) << self.n

    def vertex_table(self) -> tuple[int, "np.ndarray"]:
        """All vertex polynomials at once, as scaled-integer coefficient rows.

        Returns (scale, table) where table has shape (maxdeg + 1, 2**n) and
        table[d, S] / scale is the degree-d coefficient of g_S.  `scale` is
        the lcm of the coefficient denominators, so each term enters as the
        integer numerator * (scale // denominator), computed once and used
        both for the magnitude bound and for the fill.  A per-degree zeta
        (subset-sum) transform then sums the terms below each vertex:
        O(2**n * n) adds instead of the naive O(4**n).  Entries are exact:
        int64 when the magnitude bound allows, arbitrary-precision objects
        otherwise.  CapacityError is raised before allocation when the
        table exceeds TABLE_BYTES.
        """
        n = self.n
        nbytes = self.table_bytes()
        if nbytes > TABLE_BYTES:
            raise CapacityError(
                f"the vertex table over {n} variables needs {nbytes} bytes, "
                f"over the {TABLE_BYTES}-byte budget"
            )
        scale = lcm(*[c.denominator for c in self.terms.values()])
        numerators = {code: c.numerator * (scale // c.denominator)
                      for code, c in self.terms.items()}
        maxdeg = max((c.bit_count() for c in self.terms), default=0)
        magnitude = sum(abs(v) for v in numerators.values())
        dtype = np.int64 if magnitude < 2**62 else object
        table = np.zeros((maxdeg + 1, 1 << n), dtype=dtype)
        for code, v in numerators.items():
            table[code.bit_count(), code] = v
        shaped = table.reshape((maxdeg + 1,) + (2,) * n)
        for axis in range(1, n + 1):
            index_hi = [slice(None)] * (n + 1)
            index_lo = [slice(None)] * (n + 1)
            index_hi[axis] = 1
            index_lo[axis] = 0
            shaped[tuple(index_hi)] += shaped[tuple(index_lo)]
        return scale, table

    def map_tags(self, fn) -> "MultilinearPoly":
        """Apply a tag transform (e.g. offset reversal); fn: VarTag -> VarTag."""
        remapped: dict[frozenset, Fraction] = {}
        for code, coeff in self.terms.items():
            tags = frozenset(fn(self.vars[i]) for i in range(self.n) if code >> i & 1)
            remapped[tags] = remapped.get(tags, Fraction(0)) + coeff
        universe = [fn(v) for v in self.vars]
        return MultilinearPoly.from_tag_terms(universe, remapped)

    def scaled(self, factor: Fraction) -> "MultilinearPoly":
        factor = Fraction(factor)
        if factor == 0:
            return MultilinearPoly(self.vars, {})
        return MultilinearPoly(self.vars, {c: v * factor for c, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        mine = {
            frozenset(self.vars[i] for i in range(self.n) if code >> i & 1): coeff
            for code, coeff in self.terms.items()
        }
        theirs = {
            frozenset(other.vars[i] for i in range(other.n) if code >> i & 1): coeff
            for code, coeff in other.terms.items()
        }
        return mine == theirs

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def format_terms(self, labels: Mapping[VarTag, str] | None = None) -> str:
        """Print format: terms ascending by subset code, constant term first."""
        if not self.terms:
            return "0"
        parts = []
        for code in sorted(self.terms):
            coeff = self.terms[code]
            factors = [f"({coeff})"]
            for i in range(self.n):
                if code >> i & 1:
                    tag = self.vars[i]
                    factors.append(labels[tag] if labels else str(tag))
            parts.append("·".join(factors))
        return " + ".join(parts)
