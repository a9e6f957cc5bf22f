import random
from fractions import Fraction as F

import pytest

from rkpos.errors import CapacityError, InputError
from rkpos.multilinear import (TABLE_BYTES, MultilinearPoly, VarTag,
                               canonical_order, move_bits)

from oracle import coded


def tags(n):
    return tuple(VarTag(1, s) for s in range(n))


def random_poly(rng, n, terms=12):
    vs = tags(n)
    table = {}
    for _ in range(terms):
        sub = frozenset(v for v in vs if rng.random() < 0.4)
        table[sub] = table.get(sub, 0) + F(rng.randint(-9, 9), rng.randint(1, 5))
    return coded(vs, table)


def test_canonical_order():
    got = canonical_order([VarTag(2, 0), VarTag(1, 1), VarTag(1, -1), VarTag(2, -1)])
    assert got == (VarTag(1, -1), VarTag(1, 1), VarTag(2, -1), VarTag(2, 0))


def test_var_str():
    assert str(VarTag(1, 0)) == "xi[1,+0]"
    assert str(VarTag(3, -2)) == "xi[3,-2]"


def test_eval_requires_all_vars():
    p = coded(tags(2), {frozenset(tags(2)): F(1)})
    with pytest.raises(InputError):
        p.eval({tags(2)[0]: F(1)})


def test_eval_simple():
    a, b = tags(2)
    p = coded((a, b), {
        frozenset(): F(1), frozenset([a]): F(-2), frozenset([a, b]): F(3),
    })
    assert p.eval({a: F(1, 2), b: F(1, 3)}) == 1 - 1 + F(1, 2)


def test_vertex_restriction_matches_eval():
    rng = random.Random(3)
    for n in (1, 3, 5):
        p = random_poly(rng, n)
        for subset in range(2 ** n):
            g = p.vertex_restriction(subset)
            for delta in (F(0), F(1, 3), F(1), F(7, 2)):
                point = {v: (delta if subset >> i & 1 else F(0))
                         for i, v in enumerate(p.vars)}
                assert g(delta) == p.eval(point)


def test_vertex_table_matches_restrictions():
    rng = random.Random(11)
    for n in (2, 4, 6, 9):
        p = random_poly(rng, n, terms=20)
        scale, table = p.vertex_table()
        maxdeg = table.shape[0] - 1
        for subset in range(2 ** n):
            g = p.vertex_restriction(subset)
            coeffs = [F(int(table[d, subset]), scale) for d in range(maxdeg + 1)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert tuple(coeffs) == g.coeffs


def test_multilinear_extrema_on_box_at_vertices():
    # A multilinear polynomial attains its min over a box at a vertex.
    rng = random.Random(5)
    for _ in range(10):
        n = 4
        p = random_poly(rng, n)
        delta = F(rng.randint(1, 5), rng.randint(1, 4))
        vertex_min = min(
            p.eval({v: (delta if s >> i & 1 else F(0))
                    for i, v in enumerate(p.vars)})
            for s in range(2 ** n)
        )
        for _ in range(30):
            point = {v: delta * F(rng.randint(0, 16), 16) for v in p.vars}
            assert p.eval(point) >= vertex_min


def test_capacity_limit_on_vertex_table():
    # One term over all n variables: a table of (n + 1) * 2**n 8-byte
    # entries; n is the smallest count whose table exceeds the budget.
    n = next(n for n in range(64) if 8 * (n + 1) << n > TABLE_BYTES)
    vs = tuple(VarTag(1, s) for s in range(n))
    p = coded(vs, {frozenset(vs): F(1)})
    assert p.table_bytes() == 8 * (n + 1) << n
    with pytest.raises(CapacityError, match=f"{p.table_bytes()} bytes"):
        p.vertex_table()
    # evaluation still works above the budget
    assert p.eval({v: F(1) for v in vs}) == 1


def test_equality_is_canonical():
    a, b = tags(2)
    p = coded((a, b), {frozenset([a]): F(2)})
    q = coded((b, a), {frozenset([a]): F(4, 2)})
    assert p == q
    # the same terms over the variables in the other order
    r = MultilinearPoly((b, a), {0b10: F(2)})
    assert p == r and hash(p) == hash(r)
    assert p != MultilinearPoly((b, a), {0b01: F(2)})


def test_move_bits():
    assert move_bits(0b101, [2, 0, 1]) == 0b110
    assert move_bits(0, [3]) == 0


def test_zero_coefficients_dropped():
    a, b = tags(2)
    p = coded((a, b), {frozenset([a]): F(0)})
    assert p.terms == {}
    assert p.format_terms() == "0"
