"""Exact Butcher tableaux, the parametric ERK families, and structural tests.

All coefficients are `fractions.Fraction`; the abscissae c are always derived
as row sums of A.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, ParameterDomainError

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
    "tableau_to_json",
    "tableau_from_json",
    "parse_method",
]

FAMILY_KINDS = ("ERK22", "ERK33_CaseI", "ERK33_CaseII", "ERK33_CaseIII")


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise InputError(f"float {x!r} not accepted; pass an exact rational")
    return Fraction(x)


@dataclass(frozen=True)
class ButcherTableau:
    """An explicit RK method (A, b) with exact rational entries.

    A must be strictly lower triangular; c is the vector of row sums of A.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    name: str = ""

    def __post_init__(self):
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
        """Every stage feeds the output through a chain of nonzero coefficients."""
        reached = {j for j in range(self.m) if self.b[j] != 0}
        frontier = list(reached)
        while frontier:
            i = frontier.pop()
            for j in range(i):
                if self.a[i][j] != 0 and j not in reached:
                    reached.add(j)
                    frontier.append(j)
        return len(reached) == self.m


def _tableau(a_rows: Iterable[Iterable], b: Iterable, name: str) -> ButcherTableau:
    a = tuple(tuple(_frac(x) for x in row) for row in a_rows)
    return ButcherTableau(a=a, b=tuple(_frac(x) for x in b), name=name)


def erk22(alpha) -> ButcherTableau:
    """The one-parameter family of all two-stage second-order ERK methods."""
    alpha = _frac(alpha)
    if alpha == 0:
        raise ParameterDomainError("ERK22 requires alpha != 0")
    return _tableau(
        [[0, 0], [alpha, 0]],
        [1 - 1 / (2 * alpha), 1 / (2 * alpha)],
        f"ERK22(alpha={alpha})",
    )


def erk33_case1(alpha, beta) -> ButcherTableau:
    """Generic (two-parameter) three-stage third-order methods, Case I."""
    alpha, beta = _frac(alpha), _frac(beta)
    if alpha == 0 or beta == 0:
        raise ParameterDomainError("ERK33 Case I requires alpha, beta != 0")
    if alpha == Fraction(2, 3):
        raise ParameterDomainError("ERK33 Case I requires alpha != 2/3")
    if alpha == beta:
        raise ParameterDomainError("ERK33 Case I requires alpha != beta")
    a32 = (alpha - beta) * beta / (alpha * (3 * alpha - 2))
    b1 = (6 * alpha * beta - 3 * alpha - 3 * beta + 2) / (6 * alpha * beta)
    b2 = (2 - 3 * beta) / (6 * alpha * (alpha - beta))
    b3 = (3 * alpha - 2) / (6 * beta * (alpha - beta))
    return _tableau(
        [[0, 0, 0], [alpha, 0, 0], [beta - a32, a32, 0]],
        [b1, b2, b3],
        f"ERK33-I(alpha={alpha},beta={beta})",
    )


def erk33_case2(alpha) -> ButcherTableau:
    """One-parameter Case II family of ERK(3,3) methods."""
    alpha = _frac(alpha)
    if alpha == 0:
        raise ParameterDomainError("ERK33 Case II requires alpha != 0")
    q = 1 / (4 * alpha)
    return _tableau(
        [[0, 0, 0], [Fraction(2, 3), 0, 0], [Fraction(2, 3) - q, q, 0]],
        [Fraction(1, 4), Fraction(3, 4) - alpha, alpha],
        f"ERK33-II(alpha={alpha})",
    )


def erk33_case3(alpha) -> ButcherTableau:
    """One-parameter Case III family of ERK(3,3) methods."""
    alpha = _frac(alpha)
    if alpha == 0:
        raise ParameterDomainError("ERK33 Case III requires alpha != 0")
    q = 1 / (4 * alpha)
    return _tableau(
        [[0, 0, 0], [Fraction(2, 3), 0, 0], [-q, q, 0]],
        [Fraction(1, 4) - alpha, Fraction(3, 4), alpha],
        f"ERK33-III(alpha={alpha})",
    )


def rk4_classical() -> ButcherTableau:
    return _tableau(
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
    return _tableau([[0]], [1], "FE")


_FAMILIES = {  # kind -> (builder, parameter count)
    "ERK22": (erk22, 1),
    "ERK33_CaseI": (erk33_case1, 2),
    "ERK33_CaseII": (erk33_case2, 1),
    "ERK33_CaseIII": (erk33_case3, 1),
}


def make_family(kind: str, params: Sequence) -> ButcherTableau:
    """Build a tableau from one of the named parametric families."""
    params = [_frac(p) for p in params]
    if kind not in _FAMILIES:
        raise InputError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    build, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise InputError(f"{kind} takes {arity} parameter(s), got {len(params)}")
    return build(*params)


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


def tableau_from_json(text: str) -> ButcherTableau:
    try:
        obj = json.loads(text, parse_float=_reject_float)
        a = [[Fraction(x) for x in row] for row in obj["A"]]
        b = [Fraction(x) for x in obj["b"]]
        if obj["m"] != len(b):
            raise InputError("field 'm' disagrees with len(b)")
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed tableau file: {exc}") from exc
    return _tableau(a, b, "from-file")


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
        params = [Fraction(part) for part in tail.split(",") if part]
        kinds = {
            "erk22": "ERK22",
            "erk33c1": "ERK33_CaseI",
            "erk33c2": "ERK33_CaseII",
            "erk33c3": "ERK33_CaseIII",
        }
        if head in kinds:
            return make_family(kinds[head], params)
    raise InputError(f"unrecognized method shorthand {text!r}")
