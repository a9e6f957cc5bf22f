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
    "TABLE_BYTES",
]

# Byte budget for the vertex tables of one propagation set, counted as
# 8-byte entries: a table has one row per degree and one column per subset
# of its polynomial's support.  Exact evaluation keeps each table as Python
# ints, which costs a few times more, so the budget stays well below the
# memory of a small machine.  Generic 7-stage upwind (10.6 M entries over
# its supports) fits; generic 6-stage heat (302 M) and 8-stage upwind
# (321 M) do not.
TABLE_BYTES = 2**28


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


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial: the coefficient of the monomial with subset
    code T is terms[T] / scale.

    `terms` maps subset codes to nonzero integer numerators and `scale` is a
    positive integer; construction reduces them to lowest terms, so `scale`
    is the lcm of the coefficients' denominators.  A numerator that is not
    an int (a Fraction, a float or a bool), a subset code outside the
    variables or a nonpositive scale raises InputError.  `support` lists,
    ascending, the positions of the variables the terms use, and `maxdeg`
    is the largest degree of a term (0 for no terms).
    """

    vars: tuple[VarTag, ...]
    terms: dict[int, int]
    scale: int = 1
    support: tuple[int, ...] = field(init=False, repr=False, compare=False)
    maxdeg: int = field(init=False, repr=False, compare=False)

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
        """Bytes of the (maxdeg + 1, 2**|support|) array `vertex_table`
        allocates."""
        return 8 * (self.maxdeg + 1) << len(self.support)

    def vertex_table(self) -> tuple[int, "np.ndarray"]:
        """All vertex polynomials at once, as scaled-integer coefficient rows.

        Returns (scale, table) where table has shape (maxdeg + 1,
        2**|support|): column k is the vertex whose variables are the
        support positions move_bits(k, support), and table[d, k] / scale is
        the degree-d coefficient of its restriction.  A global subset S has
        the restriction of its intersection with the support.  Each
        numerator enters at its term's support code, and a per-degree zeta
        (subset-sum) transform, one pair-add per support variable k on the
        view (degree, high bits, bit k, low bits), then sums the terms below
        each vertex: O(2**n * n) adds instead of the naive O(4**n).  Entries
        are exact: int64 when the magnitude bound allows, arbitrary-precision
        objects otherwise.  CapacityError is raised before allocation when the
        table exceeds TABLE_BYTES.
        """
        n, maxdeg, nbytes = len(self.support), self.maxdeg, self.table_bytes()
        if nbytes > TABLE_BYTES:
            raise CapacityError(
                f"the vertex table over {n} variables needs {nbytes} bytes, "
                f"over the {TABLE_BYTES}-byte budget"
            )
        rank = {k: j for j, k in enumerate(self.support)}
        magnitude = sum(map(abs, self.terms.values()))
        dtype = np.int64 if magnitude < 2**62 else object
        table = np.zeros((maxdeg + 1, 1 << n), dtype=dtype)
        for code, v in self.terms.items():
            table[code.bit_count(), move_bits(code, rank)] = v
        for k in range(n):
            pairs = table.reshape(maxdeg + 1, -1, 2, 1 << k)
            pairs[:, :, 1] += pairs[:, :, 0]
        return self.scale, table

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
