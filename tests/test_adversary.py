from fractions import Fraction as F

import pytest

import rkpos.molsim
from rkpos.adversary import (ScriptedQ, first_step_counterexample,
                             negative_entry_counterexample, rk4_counterexample)
from rkpos.errors import InputError, PreconditionError
from rkpos.gamma import gamma_zero_test, subset_bits
from rkpos.multilinear import VarTag
from rkpos.polygen import generate, upwind
from rkpos.tableau import (ButcherTableau, erk22, erk33_case3, forward_euler,
                           rk4_classical)


def lower_tableau(rows, b):
    """Tableau from the strictly lower rows of A (row i holds i entries)."""
    m = len(b)
    a = tuple(tuple(F(x) for x in row) + (F(0),) * (m - len(row)) for row in rows)
    return ButcherTableau(a=a, b=tuple(F(x) for x in b))


def witness_point(ps, w):
    bits = subset_bits(w.subset, len(ps.vars))
    return {v: w.delta for v, b in zip(ps.vars, bits) if b == "1"}


def test_scripted_q_rejects_negative():
    with pytest.raises(InputError):
        ScriptedQ({(0, F(0)): F(-1)})


def test_scripted_schedule_is_the_molsim_provider():
    assert ScriptedQ is rkpos.molsim.ScriptedQ


def test_first_step_erk22_just_past_gamma():
    t = erk22(F(1))
    ps = generate(t, upwind)
    eps = F(1, 10)
    x1, x2, x3 = ps.vars
    point = {x1: F(1), x2: 1 + eps, x3: 1 + eps}
    rep = first_step_counterexample(t, (1, point))
    # 2 P_1(1, 1+e, 1+e) = -e(1+e)
    assert rep.negative_value == -eps * (1 + eps) / 2 == F(-11, 200)
    assert not rep.boundary
    assert rep.resimulate() == tuple(rep.u1)
    assert sum(rep.u0) == 1 and all(v >= 0 for v in rep.u0)


def test_first_step_case3_witness():
    t = erk33_case3(F(1))
    ps = generate(t, upwind)
    # 4 P_2(0, e, 0, 0, 0, e) = -e^2 with e = 1, but scripting activates
    # the confluent stages; the effective value stays negative
    x, y, z, u, v, w = ps.vars
    rep = first_step_counterexample(t, (2, {y: F(1), w: F(1)}))
    assert rep.negative_value == F(-1, 4)
    assert rep.resimulate() == tuple(rep.u1)


def test_first_step_confluence_can_destroy_a_witness():
    t = erk33_case3(F(1))
    ps = generate(t, upwind)
    gw = gamma_zero_test(ps)
    assert gw is not None and gw.value < 0
    with pytest.raises(PreconditionError):
        first_step_counterexample(t, (gw.offset, witness_point(ps, gw)))


def test_first_step_boundary_case():
    t = erk22(F(1))
    ps = generate(t, upwind)
    x1, x2, x3 = ps.vars
    rep = first_step_counterexample(t, (1, {x1: F(1), x2: F(1), x3: F(1)}))
    assert rep.boundary and rep.negative_index is None
    assert rep.expected_value == 0


def test_first_step_rejects_negative_xi():
    t = erk22(F(1))
    ps = generate(t, upwind)
    with pytest.raises(InputError):
        first_step_counterexample(t, (1, {ps.vars[0]: F(-1)}))


@pytest.mark.parametrize("key", [VarTag(5, 0), VarTag(1, 40)], ids=str)
def test_first_step_rejects_keys_outside_the_set(key):
    # Stage 5 does not exist; offset 40 exists only on a wrapped grid.
    with pytest.raises(InputError, match="not variables of the propagation set"):
        first_step_counterexample(erk22(F(1)), (0, {key: F(1)}))


def test_negative_entry_case3_uses_the_stage_chain():
    rep = negative_entry_counterexample(erk33_case3(F(1)))
    # a31 = -1/4 relayed through b3 = 1
    assert rep.negative_value == F(-1, 4)
    assert rep.resimulate() == tuple(rep.u1)
    assert all(v >= 0 for v in rep.u0)


def test_negative_entry_negative_weight_direct():
    rep = negative_entry_counterexample(erk22(F(1, 4)))  # b1 = -1
    assert rep.negative_value < 0
    assert rep.resimulate() == tuple(rep.u1)


def test_negative_entry_various_alphas():
    for a in (F(1, 2), F(2), F(-1)):
        rep = negative_entry_counterexample(erk33_case3(a))
        assert rep.negative_value < 0
        assert rep.resimulate() == tuple(rep.u1)


@pytest.mark.parametrize("rows, b, value, stages", [
    # a31 = -1 cannot finish with b3 = 0, so the chain relays 3 -> 4.
    ([[], [F(1, 3)], [-1, F(1, 3)], [F(1, 3), F(1, 2), F(1, 3)]],
     (F(1, 2), F(1, 3), 0, F(1, 3)), F(-1, 9), [3, 4]),
    # b2 = -1/6 has the wrong sign for a21 = -1; a32 * b3 = 1/9 has the right one.
    ([[], [-1], [F(2, 3), F(2, 3)]], (F(1, 2), F(-1, 6), F(1, 6)),
     F(-1, 9), [2, 3]),
    # Both 2 -> 4 and 2 -> 3 -> 4 qualify; the shorter chain is taken.
    ([[], [-1], [0, F(1, 2)], [0, F(1, 2), F(1, 2)]], (F(1, 2), 0, 0, F(1, 2)),
     F(-1, 4), [2, 4]),
], ids=["3-4", "2-3", "shortest"])
def test_negative_entry_relay_chain(rows, b, value, stages):
    rep = negative_entry_counterexample(lower_tableau(rows, b))
    assert rep.negative_value == value
    assert rep.description == \
        f"negative entry in column 1; relay chain through stages {stages}"
    assert rep.resimulate() == tuple(rep.u1)


def test_negative_entry_falls_back_to_a_closed_vertex_witness():
    """Stages 1 and 2 share the abscissa 0, so scripting b2 = -1/2's stage
    also activates stage 1 and cancels the planned value; the scan over
    confluence-closed vertices then finds P_1 = -1."""
    rep = negative_entry_counterexample(
        lower_tableau([[], [0], [F(-1, 2), F(1, 4)]], (1, F(-1, 2), -1)))
    assert rep.description.startswith("first-step witness: P_1 ")
    assert rep.negative_value == -1
    assert rep.resimulate() == tuple(rep.u1)


def test_negative_entry_fallback_without_a_realizable_witness():
    with pytest.raises(PreconditionError, match="no realizable vertex witness was found"):
        negative_entry_counterexample(
            lower_tableau([[], [F(1, 4)], [F(1, 4), 0]], (F(3, 4), F(-1, 2), F(3, 4))))


def test_negative_entry_requires_a_negative_entry():
    with pytest.raises(PreconditionError):
        negative_entry_counterexample(rk4_classical())
    with pytest.raises(PreconditionError):
        negative_entry_counterexample(forward_euler())


def test_rk4_closed_form_trajectory():
    for eps in (F(1), F(1, 2), F(2), F(1, 7)):
        rep = rk4_counterexample(eps)
        assert tuple(rep.u1) == (F(1), eps / 6, (2 * eps ** 2 - eps ** 3) / 12,
                                 -eps ** 4 / 24)
        assert rep.resimulate() == tuple(rep.u1)
    assert rk4_counterexample(F(1)).negative_value == F(-1, 24)
    assert rk4_counterexample(F(1, 2)).negative_value == F(-1, 384)


def test_rk4_stage_trace_matches_construction():
    rep = rk4_counterexample(F(1))
    stages = [tuple(s) for s in rep.stages]
    assert stages[0] == (F(1), F(0), F(0), F(0))
    assert stages[1] == (F(1), F(1, 2), F(0), F(0))
    assert stages[2] == (F(1), F(0), F(1, 4), F(0))
    assert stages[3] == (F(1), F(0), F(-1, 4), F(0))


def test_rk4_requires_positive_eps():
    with pytest.raises(InputError):
        rk4_counterexample(F(0))
    with pytest.raises(InputError):
        rk4_counterexample(F(-1))


@pytest.mark.parametrize("call", [
    lambda: rk4_counterexample(0.5),
    lambda: rk4_counterexample(True),
    lambda: first_step_counterexample(
        erk22(F(1)), (1, {generate(erk22(F(1)), upwind).vars[0]: 0.5})),
    lambda: first_step_counterexample(
        erk22(F(1)), (1, {generate(erk22(F(1)), upwind).vars[0]: "1/2x"})),
], ids=["rk4-float", "rk4-bool", "first_step-float", "first_step-text"])
def test_counterexamples_take_exact_rationals_only(call):
    with pytest.raises(InputError):
        call()


def test_schedule_values_take_exact_rationals_only():
    from rkpos.adversary import _schedule
    with pytest.raises(InputError):
        _schedule(forward_euler(), [(0, 1, 0.5)])
    assert _schedule(forward_euler(), [(0, 1, 1)]).value(0, F(0)) == 1
