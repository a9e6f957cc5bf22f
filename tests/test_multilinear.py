import random
from fractions import Fraction as F

import numpy as np
import pytest

from rkpos.errors import CapacityError, InputError
from rkpos.multilinear import (PLANE_BITS, TABLE_BYTES, MultilinearPoly, VarTag,
                               canonical_order, move_bits, planes)

from oracle import coded


def tags(n):
    return tuple(VarTag(1, s) for s in range(n))


def random_poly(rng, n, terms=12, used=None):
    """Random terms over `n` variables; `used` limits them to those
    positions."""
    vs = tags(n)
    table = {}
    for _ in range(terms):
        sub = frozenset(v for k, v in enumerate(vs)
                        if rng.random() < 0.4 and (used is None or k in used))
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


def staged_poly(rng, stages, terms=12):
    """Random terms over the variables xi[j, o], j and o in range(stages),
    using at most one variable of each stage."""
    vs = tuple(VarTag(j, o) for j in range(1, stages + 1) for o in range(stages))
    table = {}
    for _ in range(terms):
        sub = frozenset(VarTag(j, rng.randrange(stages))
                        for j in range(1, stages + 1) if rng.random() < 0.5)
        table[sub] = table.get(sub, 0) + F(rng.randint(-9, 9), rng.randint(1, 5))
    return coded(vs, table)


def test_vertex_table_matches_restrictions():
    """Slice 0 plus the slices of the vertex's block variables, in the
    cell of its other support variables, is the restriction at the vertex,
    and every global subset restricts as its intersection with the
    support."""
    rng = random.Random(11)
    polys = []
    for n, used in [(2, None), (4, None), (6, None), (9, None),
                    # unused variables, with gaps inside the support's range
                    (6, (1, 4)), (9, (0, 2, 3, 7)), (5, (4,)), (3, ())]:
        p = random_poly(rng, n, terms=20, used=used)
        if used is not None:
            assert p.support == used
        polys.append(p)
    polys += [staged_poly(rng, stages, terms) for stages, terms in
              [(2, 6), (3, 10), (3, 30), (3, 40)]]
    blocks = set()
    for p in polys:
        lo, k = p.block
        blocks.add(k)
        r = len(p.support) - k
        scale, table = p.vertex_table()
        assert table.shape[1] == (k + 1) << r
        maxdeg = table.shape[0] - 1
        for subset in range(2 ** p.n):
            ranks = [j for j, pos in enumerate(p.support) if subset >> pos & 1]
            column = sum(1 << (j if j < lo else j - k) for j in ranks
                         if not lo <= j < lo + k)
            slices = [0] + [j - lo + 1 for j in ranks if lo <= j < lo + k]
            g = p.vertex_restriction(subset)
            assert p.vertex_restriction(move_bits(sum(1 << j for j in ranks),
                                                  p.support)) == g
            coeffs = [F(sum(int(table[d, column * (k + 1) + o]) for o in slices), scale)
                      for d in range(maxdeg + 1)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert tuple(coeffs) == g.coeffs
    assert {0, 1, 2, 3} <= blocks


def test_block_is_one_stage_run_without_shared_terms():
    x, y, z, w = VarTag(1, 0), VarTag(2, -1), VarTag(2, 0), VarTag(3, 0)
    vs = (x, y, z, w)
    # Stage 2's run {y, z} is the longest, and no term uses both.
    p = coded(vs, {frozenset([x, y]): F(1), frozenset([z, w]): F(-1)})
    assert p.block == (1, 2)
    # y z in one term: the lowest support variable alone.
    p = coded(vs, {frozenset([x, y]): F(1), frozenset([y, z]): F(-1)})
    assert p.block == (0, 1)
    # Equally long runs: the lowest; no term: nothing to eliminate.
    p = coded(vs, {frozenset([x]): F(1), frozenset([w]): F(2)})
    assert p.block == (0, 1)
    assert coded(vs, {frozenset(): F(1)}).block == (0, 0)


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
    # One term over all n variables of one stage: the block is one
    # variable, so the table has (n + 1) * 2**n entries, each 8 bytes in
    # its one int64 plane; n is the smallest count whose table exceeds
    # the budget.
    n = next(n for n in range(64) if 8 * (n + 1) << n > TABLE_BYTES)
    vs = tuple(VarTag(1, s) for s in range(n))
    p = coded(vs, {frozenset(vs): F(1)})
    assert p.table_bytes() == 8 * (n + 1) << n
    with pytest.raises(CapacityError, match=f"{p.table_bytes()} bytes"):
        p.vertex_table()
    # evaluation still works above the budget
    assert p.eval({v: F(1) for v in vs}) == 1


def test_table_bytes_count_planes():
    vs = tags(3)
    small = coded(vs, {frozenset(vs[:2]): F(3), frozenset(): F(1)})
    edge = coded(vs, {frozenset(vs[:2]): F(2**PLANE_BITS - 2), frozenset(): F(1)})
    big = coded(vs, {frozenset(vs[:2]): F(2**70), frozenset(): F(1)})
    _, table = small.vertex_table()
    # (maxdeg + 1) rows, (k + 1) * 2**(s - k) columns, k = 1 of s = 2.
    assert table.shape == (3, 4) and table.dtype == np.int64
    assert small.table_bytes() == edge.table_bytes() == 12 * 8
    # past 2**PLANE_BITS each degree takes one row per plane: two
    # numerators leave 46-bit digits, two planes for 71 bits
    assert planes(big.magnitude, 2) == (2, 46, 2 << PLANE_BITS)
    _, table = big.vertex_table()
    assert table.shape == (6, 4) and table.dtype == np.int64
    assert big.table_bytes() == table.nbytes == 2 * 12 * 8
    # each degree's planes lie together, the most significant first
    assert [[(int(table[2 * d, c]) << 46) + int(table[2 * d + 1, c])
             for d in range(3)] for c in (0, 3)] == [[1, 0, 0], [0, 0, 2**70]]


def test_equality_is_canonical():
    a, b = tags(2)
    p = coded((a, b), {frozenset([a]): F(2)})
    q = coded((b, a), {frozenset([a]): F(4, 2)})
    assert p == q
    # the same terms over the variables in the other order
    r = MultilinearPoly((b, a), {0b10: 2})
    assert p == r and hash(p) == hash(r)
    assert p != MultilinearPoly((b, a), {0b01: 2})


def test_terms_are_stored_in_lowest_terms():
    a, b = tags(2)
    p = MultilinearPoly((a, b), {0b00: 4, 0b11: -6}, 10)
    assert (p.terms, p.scale) == ({0b00: 2, 0b11: -3}, 5)
    assert p == coded((a, b), {frozenset(): F(2, 5), frozenset([a, b]): F(-3, 5)})
    assert p.format_terms() == "(2/5) + (-3/5)·xi[1,+0]·xi[1,+1]"


@pytest.mark.parametrize("terms, scale", [
    ({0: F(1, 2)}, 1), ({0: F(2)}, 1), ({0: 0.5}, 1), ({0: True}, 1),
    ({0: 1}, 0), ({0: 1}, -2), ({0: 1}, F(2)), ({0: 1}, 2.0), ({0: 1}, True),
    ({0b10: 1}, 1), ({-1: 1}, 1),
])
def test_coefficients_must_be_int_numerators_over_a_positive_scale(terms, scale):
    with pytest.raises(InputError):
        MultilinearPoly(tags(1), terms, scale)


def test_move_bits():
    assert move_bits(0b101, [2, 0, 1]) == 0b110
    assert move_bits(0, [3]) == 0


def test_zero_coefficients_dropped():
    a, b = tags(2)
    p = coded((a, b), {frozenset([a]): F(0)})
    assert p.terms == {}
    assert p.format_terms() == "0"
