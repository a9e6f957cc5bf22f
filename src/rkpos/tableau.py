"""Exact Butcher tableaux, the parametric ERK families, and structural tests.

All coefficients are `fractions.Fraction`; the abscissae c are always derived
as row sums of A.  Each family is defined once, in `_FAMILIES`, with its
entries as integer (num, den) pairs in the parameters' numerators and
denominators; `make_family` builds its tableaux from them, and a parameter
grid walks a point's stage chains (`_chains`) on the integers alone, with
no tableau built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import InputError, ParameterDomainError, rational

__all__ = [
    "ButcherTableau",
    "make_family",
    "erk22",
    "erk33_case1",
    "erk33_case2",
    "erk33_case3",
    "rk4_classical",
    "forward_euler",
    "check_order",
    "chain_weights",
    "tableau_to_json",
    "tableau_from_json",
    "parse_method",
]

FAMILY_KINDS = ("ERK22", "ERK33_CaseI", "ERK33_CaseII", "ERK33_CaseIII")


@dataclass(frozen=True)
class ButcherTableau:
    """An explicit RK method (A, b) with exact rational entries.

    A must be strictly lower triangular; c is the vector of row sums of A.
    Entries are stored as Fractions; a float entry raises InputError.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(tuple(map(rational, row)) for row in self.a))
        object.__setattr__(self, "b", tuple(map(rational, self.b)))
        m = len(self.b)
        if len(self.a) != m or any(len(row) != m for row in self.a):
            raise InputError("A must be m x m with m = len(b)")
        for i, row in enumerate(self.a):
            for j, entry in enumerate(row):
                if j >= i and entry != 0:
                    raise InputError(
                        f"A[{i + 1}][{j + 1}] = {entry} nonzero on/above the "
                        "diagonal; only explicit methods are supported"
                    )

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def c(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.a)

    def is_confluent(self) -> bool:
        """True iff some pair of stage abscissae coincide."""
        c = self.c
        return len(set(c)) < len(c)

    def has_negative_entry(self) -> Optional[tuple[str, int, int]]:
        """First negative coefficient, scanning A row-major then b.

        Returns ("a", i, j) or ("b", j, 0) with 1-based indices, or None.
        """
        for i, row in enumerate(self.a):
            for j, entry in enumerate(row):
                if entry < 0:
                    return ("a", i + 1, j + 1)
        for j, entry in enumerate(self.b):
            if entry < 0:
                return ("b", j + 1, 0)
        return None

    def is_dj_irreducible(self) -> bool:
        """Every stage starts a stage chain of nonzero coefficients."""
        return all(map(any, zip(*_chain_counts(self))))


def chain_weights(t: ButcherTableau) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """The nonzero weights b_sr * a_{sr,s(r-1)} * ... * a_{s2,s1} of stage chains.

    Yields (stages, weight) with 0-based stages s1 < ... < sr, shortest
    chains first, then in `itertools.combinations` order.  The weights of
    the r-stage chains are the terms of b . A^(r-1) e, Butcher's
    elementary weight of the tall tree with r vertices.  They come from
    the integer walk of `_chains`.
    """
    for stages, (num, den) in _chains(*_pairs(t)):
        yield stages, Fraction(num, den)


def _pairs(t: ButcherTableau):
    """(A, b) of t with every entry an integer (numerator, denominator) pair."""
    return ([[(x.numerator, x.denominator) for x in row] for row in t.a],
            [(x.numerator, x.denominator) for x in t.b])


def _chains(a, b) -> list:
    """`chain_weights` of the entries a[i][j], j < i, and b, given as
    integer (num, den) pairs, each weight an unreduced (num, den) pair.

    A chain of r + 1 stages is a nonzero a_{s1,i}, i < s1, put in front
    of an r-stage chain s1 < ..., so the work grows with the chains, not
    the 2**m subsets.
    """
    chains, level = [], [((j,), w) for j, w in enumerate(b) if w[0]]
    while level:
        chains += level
        level = sorted([((i, *stages), (num * wn, den * wd)) for stages, (wn, wd) in level
                        for i, (num, den) in zip(range(stages[0]), a[stages[0]]) if num])
    return chains


def _chain_counts(t: ButcherTableau) -> list[list[int]]:
    """Per length r = 1, ..., m, the nonzero chains of r stages by first
    stage: `chain_weights`'s walk, counted in O(m**3) integer operations."""
    level, counts = [int(b != 0) for b in t.b], []
    for _ in range(t.m):
        counts.append(level)
        level = [sum(level[j] for j in range(i + 1, t.m) if t.a[j][i]) for i in range(t.m)]
    return counts


# The families, each entry one quotient of integers in alpha = p/q (and
# beta = r/s): the rows of A below the diagonal and b as (num, den)
# pairs, once the guards of the family's singular points pass.
def _erk22(p, q):
    if p == 0:
        raise ParameterDomainError("ERK22 requires alpha != 0")
    return [[], [(p, q)]], [(2 * p - q, 2 * p), (q, 2 * p)]


def _erk33_case1(p, q, r, s):
    if p == 0 or r == 0:
        raise ParameterDomainError("ERK33 Case I requires alpha, beta != 0")
    if 3 * p == 2 * q:
        raise ParameterDomainError("ERK33 Case I requires alpha != 2/3")
    if p * s == r * q:
        raise ParameterDomainError("ERK33 Case I requires alpha != beta")
    d, e = p * s - r * q, 3 * p - 2 * q
    den = s * s * p * e
    return ([[], [(p, q)], [(r * s * p * e - d * r * q, den), (d * r * q, den)]],
            [(6 * p * r - 3 * p * s - 3 * r * q + 2 * q * s, 6 * p * r),
             ((2 * s - 3 * r) * q * q, 6 * p * d), (e * s * s, 6 * r * d)])


def _erk33_case2(p, q):
    if p == 0:
        raise ParameterDomainError("ERK33 Case II requires alpha != 0")
    return ([[], [(2, 3)], [(8 * p - 3 * q, 12 * p), (q, 4 * p)]],
            [(1, 4), (3 * q - 4 * p, 4 * q), (p, q)])


def _erk33_case3(p, q):
    if p == 0:
        raise ParameterDomainError("ERK33 Case III requires alpha != 0")
    return ([[], [(2, 3)], [(-q, 4 * p), (q, 4 * p)]],
            [(q - 4 * p, 4 * q), (3, 4), (p, q)])


_FAMILIES = {  # kind -> (parameter count, name, entries)
    "ERK22": (1, "ERK22(alpha={})", _erk22),
    "ERK33_CaseI": (2, "ERK33-I(alpha={},beta={})", _erk33_case1),
    "ERK33_CaseII": (1, "ERK33-II(alpha={})", _erk33_case2),
    "ERK33_CaseIII": (1, "ERK33-III(alpha={})", _erk33_case3),
}


def _family(kind: str, params: Sequence):
    """The (A, b) integer pairs of a family point, from `_FAMILIES`: the
    kind and parameter count are checked first, then the family's guards,
    which raise ParameterDomainError at a singular point."""
    params = [rational(x) for x in params]
    if kind not in _FAMILIES:
        raise InputError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    arity, _, entries = _FAMILIES[kind]
    if len(params) != arity:
        raise InputError(f"{kind} takes {arity} parameter(s), got {len(params)}")
    return entries(*[n for x in params for n in (x.numerator, x.denominator)])


def make_family(kind: str, params: Sequence) -> ButcherTableau:
    """Build a tableau from one of the named parametric families."""
    params = [rational(x) for x in params]
    a, b = _family(kind, params)
    return ButcherTableau([[Fraction(*x) for x in row] + [Fraction(0)] * (len(b) - i)
                           for i, row in enumerate(a)],
                          [Fraction(*x) for x in b], _FAMILIES[kind][1].format(*params))


def erk22(alpha) -> ButcherTableau:
    """The one-parameter family of all two-stage second-order ERK methods."""
    return make_family("ERK22", (alpha,))


def erk33_case1(alpha, beta) -> ButcherTableau:
    """Generic (two-parameter) three-stage third-order methods, Case I."""
    return make_family("ERK33_CaseI", (alpha, beta))


def erk33_case2(alpha) -> ButcherTableau:
    """One-parameter Case II family of ERK(3,3) methods."""
    return make_family("ERK33_CaseII", (alpha,))


def erk33_case3(alpha) -> ButcherTableau:
    """One-parameter Case III family of ERK(3,3) methods."""
    return make_family("ERK33_CaseIII", (alpha,))


def rk4_classical() -> ButcherTableau:
    return ButcherTableau(
        [
            [0, 0, 0, 0],
            [Fraction(1, 2), 0, 0, 0],
            [0, Fraction(1, 2), 0, 0],
            [0, 0, 1, 0],
        ],
        [Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)],
        "RK4",
    )


def forward_euler() -> ButcherTableau:
    return ButcherTableau([[0]], [1], "FE")


# Standard order conditions through order 4, evaluated exactly.
def check_order(t: ButcherTableau, p: int) -> list[tuple[str, Fraction]]:
    """Residuals of the order conditions up to order p (1 <= p <= 4).

    Returns (condition name, residual) pairs; all residuals zero means the
    method is at least order p.
    """
    if not 1 <= p <= 4:
        raise InputError("order p must satisfy 1 <= p <= 4")
    b, c, a = t.b, t.c, t.a
    m = t.m

    def dot(u, v):
        return sum(ui * vi for ui, vi in zip(u, v))

    def amul(v):
        return tuple(sum(a[i][j] * v[j] for j in range(m)) for i in range(m))

    c2 = tuple(ci * ci for ci in c)
    conditions = [("b.e = 1", dot(b, [1] * m) - 1)]
    if p >= 2:
        conditions.append(("b.c = 1/2", dot(b, c) - Fraction(1, 2)))
    if p >= 3:
        conditions.append(("b.c^2 = 1/3", dot(b, c2) - Fraction(1, 3)))
        conditions.append(("b.Ac = 1/6", dot(b, amul(c)) - Fraction(1, 6)))
    if p >= 4:
        ac = amul(c)
        conditions.append(
            ("b.c^3 = 1/4", dot(b, [ci * c2i for ci, c2i in zip(c, c2)]) - Fraction(1, 4))
        )
        conditions.append(
            ("(b*c).Ac = 1/8", dot([bi * ci for bi, ci in zip(b, c)], ac) - Fraction(1, 8))
        )
        conditions.append(("b.Ac^2 = 1/12", dot(b, amul(c2)) - Fraction(1, 12)))
        conditions.append(("b.A(Ac) = 1/24", dot(b, amul(ac)) - Fraction(1, 24)))
    return conditions


def tableau_to_json(t: ButcherTableau) -> str:
    """Serialize to the tableau file format (c omitted, derived as row sums)."""
    obj = {
        "m": t.m,
        "A": [[str(x) for x in row] for row in t.a],
        "b": [str(x) for x in t.b],
    }
    return json.dumps(obj)


def _reject_float(text: str):
    raise InputError(f"float {text} not accepted; write it as a string like \"1/10\"")


def _json_entries(field: str, value) -> list[Fraction]:
    """The entries of a row of A, or of b, in a tableau file: a JSON list of
    strings and non-bool integers."""
    if type(value) is not list or any(type(x) not in (str, int) for x in value):
        raise InputError(f"{field} must be a list of strings and integers")
    return [rational(x) for x in value]


def tableau_from_json(text: str) -> ButcherTableau:
    try:
        obj = json.loads(text, parse_float=_reject_float)
        if type(obj["A"]) is not list:
            raise InputError("A must be a list of rows")
        a = [_json_entries("each row of A", row) for row in obj["A"]]
        b = _json_entries("b", obj["b"])
        if type(obj["m"]) is not int or obj["m"] != len(b):
            raise InputError("field 'm' must be an integer equal to len(b)")
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed tableau file: {exc}") from exc
    return ButcherTableau(a, b, "from-file")


_SHORTHAND = {
    "rk4": rk4_classical,
    "fe": forward_euler,
}


def parse_method(text: str) -> ButcherTableau:
    """Parse CLI shorthand: erk22:1, erk33c1:1/2,3/4, erk33c2:9/16, erk33c3:1, rk4, fe."""
    text = text.strip()
    if text in _SHORTHAND:
        return _SHORTHAND[text]()
    if ":" in text:
        head, _, tail = text.partition(":")
        try:
            params = [rational(part) for part in tail.split(",") if part]
        except InputError as exc:
            raise InputError(f"bad parameter in method {text!r}: {exc}") from exc
        kinds = {
            "erk22": "ERK22",
            "erk33c1": "ERK33_CaseI",
            "erk33c2": "ERK33_CaseII",
            "erk33c3": "ERK33_CaseIII",
        }
        if head in kinds:
            return make_family(kinds[head], params)
    raise InputError(f"unrecognized method shorthand {text!r}")
