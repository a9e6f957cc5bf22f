from fractions import Fraction as F

import pytest

from rkpos.errors import InputError, ParameterDomainError
from rkpos.tableau import (ButcherTableau, check_order, erk22, erk33_case1,
                           erk33_case2, erk33_case3, forward_euler,
                           make_family, parse_method, rk4_classical,
                           tableau_from_json, tableau_to_json)

ALL_METHODS = [
    forward_euler(),
    erk22(F(1)),
    erk22(F(1, 2)),
    erk33_case1(F(1, 2), F(3, 4)),
    erk33_case2(F(9, 16)),
    erk33_case3(F(1)),
    rk4_classical(),
]


def test_abscissae_are_row_sums():
    t = rk4_classical()
    assert t.c == (F(0), F(1, 2), F(1, 2), F(1))


def _order_ok(t, p):
    return all(res == 0 for _, res in check_order(t, p))


def test_order_conditions():
    assert _order_ok(forward_euler(), 1)
    for a in (F(1, 2), F(3, 4), F(1), F(2)):
        assert _order_ok(erk22(a), 2)
    assert _order_ok(erk33_case1(F(1, 2), F(3, 4)), 3)
    assert _order_ok(erk33_case2(F(9, 16)), 3)
    assert _order_ok(erk33_case3(F(1)), 3)
    assert _order_ok(rk4_classical(), 4)


def test_order_conditions_fail_above_order():
    assert not _order_ok(erk22(F(1)), 3)


def test_confluence():
    assert rk4_classical().is_confluent()
    assert erk33_case3(F(1)).is_confluent()  # c1 = c3 = 0
    assert not erk22(F(1)).is_confluent()
    assert erk33_case2(F(9, 16)).is_confluent()  # c2 = c3 = 2/3
    assert not erk33_case1(F(1, 2), F(3, 4)).is_confluent()


def test_negative_entry_detection():
    assert rk4_classical().has_negative_entry() is None
    assert erk22(F(1, 4)).has_negative_entry() is not None  # b1 = -1
    kind, i, j = erk33_case3(F(1)).has_negative_entry()
    assert (kind, i, j) == ("a", 3, 1)


def test_singular_parameters_raise():
    with pytest.raises(ParameterDomainError):
        erk22(F(0))
    with pytest.raises(ParameterDomainError):
        erk33_case1(F(2, 3), F(1, 2))  # alpha = 2/3 excluded
    with pytest.raises(ParameterDomainError):
        erk33_case1(F(1, 2), F(1, 2))  # alpha = beta excluded
    with pytest.raises(ParameterDomainError):
        erk33_case2(F(0))


def test_case1_tableau_values():
    a, b = F(1, 2), F(3, 4)
    t = erk33_case1(a, b)
    assert t.a[1][0] == a
    assert t.a[2][1] == (a - b) * b / (a * (3 * a - 2))
    assert t.a[2][0] == b - t.a[2][1]
    assert t.b[0] == (6 * a * b - 3 * a - 3 * b + 2) / (6 * a * b)
    assert t.b[1] == (2 - 3 * b) / (6 * a * (a - b))
    assert t.b[2] == (3 * a - 2) / (6 * b * (a - b))


def test_case3_tableau_values():
    t = erk33_case3(F(1))
    assert t.a[1][0] == F(2, 3)
    assert t.a[2] == (F(-1, 4), F(1, 4), F(0))
    assert t.b == (F(-3, 4), F(3, 4), F(1))


def test_json_roundtrip_exact():
    for t in ALL_METHODS:
        back = tableau_from_json(tableau_to_json(t))
        assert back.a == t.a
        assert back.b == t.b


def test_make_family_matches_constructors():
    assert make_family("ERK22", (F(3, 2),)).b == erk22(F(3, 2)).b
    assert make_family("ERK33_CaseII", (F(1, 2),)).a == erk33_case2(F(1, 2)).a


def test_parse_method_shorthand():
    assert parse_method("rk4").a == rk4_classical().a
    assert parse_method("fe").m == 1
    assert parse_method("erk22:1").b == erk22(F(1)).b
    assert parse_method("erk33c1:1/2,3/4").b == erk33_case1(F(1, 2), F(3, 4)).b
    assert parse_method("erk33c2:9/16").b == erk33_case2(F(9, 16)).b
    assert parse_method("erk33c3:1").b == erk33_case3(F(1)).b
    with pytest.raises(InputError):
        parse_method("nope:1")


def test_validation_rejects_nonsquare():
    with pytest.raises(InputError):
        ButcherTableau(a=((F(0),),), b=(F(1), F(1)), name="bad")


def test_dj_irreducible():
    assert erk22(F(1)).is_dj_irreducible()
    assert rk4_classical().is_dj_irreducible()


def test_json_accepts_strings_and_integers():
    t = tableau_from_json('{"m": 2, "A": [[0, 0], ["1/10", 0]], "b": [1, 0]}')
    assert t.a[1][0] == F(1, 10) and t.b == (F(1), F(0))
