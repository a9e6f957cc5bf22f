import dataclasses
import hashlib
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rkpos import molsim
from rkpos.errors import InputError, LimiterContractError, PreconditionError
from rkpos.molsim import (LIMITERS, Limiter, RationalArray,
                          SemiDiscreteProblem, advection, conservation_law,
                          constant_q, erk_step, heat_q, koren, max_step, mc,
                          minmod, psi, q_advection, run, scripted, tau0)
from rkpos.polygen import centered, generate, heat, upwind
from rkpos.tableau import erk22, erk33_case1, erk33_case2, forward_euler, rk4_classical


def test_psi_values():
    assert psi(minmod, F(1, 2)) == (F(1, 2), F(1))
    assert psi(koren, F(2)) == (F(2, 3), F(1, 3))
    assert psi(mc, F(-1)) == (F(0), F(0))
    assert psi(minmod, F(3)) == (F(1), F(1, 3))
    assert psi(mc, F(1, 4)) == (F(1, 2), F(2))
    assert psi(koren, F(0)) == (F(0), F(1))


def test_limiter_bounds_hold_on_samples():
    rng = random.Random(9)
    for lim in (minmod, koren, mc):
        for _ in range(200):
            theta = F(rng.randint(-40, 40), rng.randint(1, 8))
            val, ratio = psi(lim, theta)
            assert 0 <= val <= 1 if lim is not mc else 0 <= val <= 2
            assert 0 <= ratio <= lim.mu


def test_q_advection_constant_state():
    u = tuple(F(2) for _ in range(5))
    q = q_advection(u, F(0), lambda t: F(3), minmod)
    assert all(val == 3 for val in q)


def test_q_advection_peak():
    u = (F(0), F(1), F(0), F(0))
    q = q_advection(u, F(0), lambda t: F(1), minmod)
    assert q[1] == 1  # psi = 0 on both sides of the extremum


def test_q_advection_bound():
    rng = random.Random(12)
    for lim in (minmod, koren):
        for _ in range(50):
            u = tuple(F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(7))
            q = q_advection(u, F(0), lambda t: F(2), lim)
            assert all(0 <= val <= (lim.mu + 1) * 2 for val in q)


def test_mc_can_violate_the_contract():
    # the MC limiter admits psi up to 2, so 1 - psi + ratio can go negative
    with pytest.raises(LimiterContractError):
        for _ in range(1):
            u = (F(0), F(1), F(3), F(4), F(4), F(0))
            q_advection(u, F(0), lambda t: F(1), mc)


def test_forward_euler_pure_shift():
    p = SemiDiscreteProblem(4, F(1), upwind, constant_q(F(1)), (F(0), F(1), F(0), F(0)))
    trace = erk_step(p, forward_euler(), F(1), p.u0)
    assert trace.u_next == (F(0), F(0), F(1), F(0))


def test_erk22_constant_q_matches_polynomials():
    t = erk22(F(1))
    ps = generate(t, upwind)
    point = {v: F(1) for v in ps.vars}
    vals = {i: ps.polys[i].eval(point) for i in ps.offsets}
    assert (vals[0], vals[1], vals[2]) == (F(1, 2), F(0), F(1, 2))
    u0 = (F(0), F(1), F(0), F(0))
    p = SemiDiscreteProblem(4, F(1), upwind, constant_q(F(1)), u0)
    trace = erk_step(p, t, F(1), u0)
    for k in range(4):
        assert trace.u_next[k] == sum(
            vals[i] * u0[(k - i) % 4] for i in ps.offsets)


@pytest.mark.parametrize("t", [forward_euler(), erk22(F(3, 4)),
                               erk33_case1(F(1, 2), F(3, 4)), rk4_classical()],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("stencil", [upwind, centered, heat],
                         ids=lambda s: s.name)
def test_polynomial_simulator_agreement(t, stencil):
    rng = random.Random(hash((t.name, stencil.name)) & 0xFFFF)
    n = 9
    ps = generate(t, stencil)
    u0 = tuple(F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n))
    table = {}
    for k in range(n):
        for cj in set(t.c):
            table[(k, F(cj) * F(1, 2))] = F(rng.randint(0, 5), rng.randint(1, 4))
    sq = scripted(table)
    dt, dx = F(1, 2), F(1)
    p = SemiDiscreteProblem(n, dx, stencil, sq, u0)
    trace = erk_step(p, t, dt, u0)
    for k in range(n):
        point = {
            v: dt * table.get(((k + v.offset) % n, F(t.c[v.stage - 1]) * dt), F(0))
            / dx ** stencil.dx_power
            for v in ps.vars
        }
        expect = sum((ps.polys[i].eval(point) * u0[(k - i) % n]
                      for i in ps.offsets), F(0))
        assert trace.u_next[k] == expect


def test_tau0_advection_example():
    p = SemiDiscreteProblem(100, F(1, 100), upwind, advection(F(1), minmod),
                            tuple(F(0) for _ in range(100)))
    assert tau0(p) == F(1, 200)


def test_tau0_burgers_example():
    n, dx = 10, F(1, 10)
    u0 = tuple(F(k % 2) for k in range(n))  # values in [0, 1]
    p = SemiDiscreteProblem(n, dx, upwind,
                            conservation_law(lambda u: u * u / 2, lambda u: u, mc),
                            u0)
    assert tau0(p) == dx / 3


def test_tau0_scripted_needs_bound():
    p = SemiDiscreteProblem(4, F(1), upwind, scripted({}), (F(1),) * 4)
    with pytest.raises(InputError):
        tau0(p)
    assert tau0(p, q_bound=F(2)) == F(1, 2)


def test_tau0_heat_uses_dx_squared():
    p = SemiDiscreteProblem(4, F(1, 10), heat, heat_q([F(2)] * 4), (F(1),) * 4)
    assert tau0(p) == F(1, 100) / 2


def test_max_step_zero_gamma_refuses():
    p = SemiDiscreteProblem(4, F(1), upwind, advection(F(1), minmod), (F(1),) * 4)
    assert max_step(F(0), p) == 0
    with pytest.raises(PreconditionError):
        run(p, forward_euler(), F(0), 5)


def test_interval_invariance_rational():
    rng = random.Random(21)
    for lim in (minmod, koren):
        for t, gamma in ((erk22(F(1)), F(1)), (erk33_case2(F(9, 16)), F(1))):
            n = 8
            u0 = tuple(F(rng.randint(0, 12), 12) for _ in range(n))
            p = SemiDiscreteProblem(n, F(1, n), upwind, advection(F(1), lim), u0)
            rep = run(p, t, max_step(gamma, p), 12)
            assert rep.first_violation is None
            lo, hi = min(u0), max(u0)
            assert all(lo <= v <= hi for v in rep.final_state)


def test_tv_nonincreasing_minmod_forward_euler():
    rng = random.Random(33)
    n = 10
    u0 = tuple(F(rng.randint(0, 10), 10) for _ in range(n))
    p = SemiDiscreteProblem(n, F(1, n), upwind, advection(F(1), minmod), u0)
    rep = run(p, forward_euler(), tau0(p), 20)
    tvs = rep.tvs
    assert all(tvs[i + 1] <= tvs[i] for i in range(len(tvs) - 1))


def test_float_mode_runs():
    n = 16
    u0 = tuple(float(k % 3) / 2 for k in range(n))
    p = SemiDiscreteProblem(n, 1.0 / n, upwind, advection(1.0, minmod), u0)
    rep = run(p, erk22(F(1)), float(max_step(F(1), p)), 50, mode="float")
    assert rep.mode == "float"
    assert rep.first_violation is None


def test_rational_overflow_switches_to_float():
    # dt carries a 1902-bit denominator, so the state passes the rational
    # size limit at step 5.  Heat with dx = 1/10 tells the float problem
    # (scale 0.1**2) from the rational one (scale float(1/100)).
    n, dx = 6, F(1, 10)
    u0 = tuple(F(v) for v in (0, 3, 1, 0, 2, 4))
    p = SemiDiscreteProblem(n, dx, heat, heat_q([F(1)] * n), u0)
    dt = F(1, 500) + F(1, 3**1200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run(p, erk22(F(1)), dt, 8)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert rep.mode == "float" and rep.steps_run == 8
    assert rep.first_violation is None
    assert [type(v) for v in rep.mins] == [F] * 4 + [float] * 4
    assert all(type(v) is float for v in rep.final_state + tuple(rep.tvs[4:]))
    # After the switch the run steps exactly as a float-mode run would.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        at_switch = run(p, erk22(F(1)), dt, 5).final_state
    rest = run(SemiDiscreteProblem(n, dx, heat, heat_q([F(1)] * n), at_switch),
               erk22(F(1)), float(dt), 3, mode="float")
    assert rest.final_state == rep.final_state


def test_run_rejects_unknown_monitor():
    p = SemiDiscreteProblem(4, F(1), upwind, constant_q(F(1)), (F(1),) * 4)
    with pytest.raises(InputError, match="bogus"):
        run(p, erk22(F(1)), F(1, 2), 2, monitors=("positivity", "bogus"))


def test_scripted_negative_q_rejected():
    with pytest.raises(InputError):
        scripted({(0, F(0)): F(-1)})


def test_scripted_table_is_read_only():
    table = {(0, F(0)): F(1)}
    s = scripted(table)
    with pytest.raises(TypeError):
        s.table[(0, F(0))] = F(-1)
    table[(0, F(0))] = F(-1)  # the caller's dict is not the schedule
    assert s.value(0, F(0)) == 1
    p = SemiDiscreteProblem(3, F(1), upwind, scripted({}), (F(1), F(0), F(0)))
    assert erk_step(p, forward_euler(), F(1), p.u0).u_next == (1, 0, 0)


def test_erk_step_with_a_float_dx_runs_in_float():
    u0 = (F(0), F(1, 2), F(1), F(1, 4))
    p = SemiDiscreteProblem(4, 0.25, upwind, advection(F(1), minmod), u0)
    trace = erk_step(p, erk22(F(1)), F(1, 16), u0)
    assert trace == erk_step(p, erk22(F(1)), 1 / 16, tuple(map(float, u0)))
    assert all(type(v) is float for v in trace.u_next)


def test_run_with_a_float_dx_runs_in_float():
    u0 = (F(0), F(1, 2), F(1), F(1, 4))
    p = SemiDiscreteProblem(4, 0.25, upwind, advection(F(1), minmod), u0)
    assert run(p, erk22(F(1)), F(1, 16), 3).mode == "float"
    with pytest.raises(InputError, match="rational mode"):
        run(p, erk22(F(1)), F(1, 16), 3, mode="rational")


def test_limiters_registry():
    assert set(LIMITERS) == {"minmod", "koren", "mc"}
    assert LIMITERS["minmod"].mu == 1 and LIMITERS["mc"].mu == 2


def test_limiter_pieces_are_exact_and_give_psi_0_of_0():
    fields = dict(mu=F(1), ratio_at_zero=F(1), psi_at_plus_inf=F(1),
                  psi_at_minus_inf=F(0))
    with pytest.raises(InputError, match="float"):
        Limiter("f", None, pieces=((1, 0), (0.5, 1)), **fields)
    with pytest.raises(InputError, match=r"psi\(0\) = 0"):
        Limiter("g", None, pieces=((1, 0), (1, 1)), **fields)
    with pytest.raises(InputError, match="needs psi_fn"):
        Limiter("n", None, **fields)
    # Pieces define psi: a psi_fn passed with them is replaced.
    lim = Limiter("h", lambda t: 7, pieces=((1, 0), (0, 1)), **fields)
    assert lim.psi_fn(F(1, 2)) == F(1, 2) and lim.psi_array is not None


@pytest.mark.parametrize("name", sorted(LIMITERS))
def test_builtin_psi_takes_its_limits_at_float_infinity(name):
    limiter = LIMITERS[name]
    assert psi(limiter, math.inf)[0] == limiter.psi_at_plus_inf
    assert psi(limiter, -math.inf)[0] == limiter.psi_at_minus_inf
    theta = np.array([-math.inf, -1.5, -0.0, 0.0, 0.25, 1.0, 3.0, math.inf])
    # Equal values; a zero's sign may differ between the two.
    assert limiter.psi_array(theta).tolist() == [limiter.psi_fn(float(v)) for v in theta]


# --- float mode, pinned -----------------------------------------------------
#
# float.hex digests of float-mode runs recorded with the per-cell
# implementation that preceded the array kernel: float results must stay
# the same bits.


def _hexdigest(values):
    text = ";".join(float.hex(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _golden_problems():
    n = 32
    u0 = tuple(F((7 * k * k + 3 * k) % 17, 16) for k in range(n))
    kappa = [F(1 + k % 5, 4) for k in range(n)]
    burgers = conservation_law(lambda v: v * v / 2, lambda v: v, minmod)
    problems = {
        "minmod-upwind": (upwind, advection(F(1), minmod), erk22(F(1)), 1),
        "koren-upwind": (upwind, advection(F(1), koren), erk33_case2(F(1, 2)), 1),
        "heat": (heat, heat_q(kappa), erk22(F(3, 4)), F(2, 3)),
        "constant-centered": (centered, constant_q(F(3, 4)), rk4_classical(), F(1, 3)),
        "burgers": (upwind, burgers, erk22(F(1)), 1),
    }
    for name, (stencil, provider, t, cfl) in problems.items():
        p = SemiDiscreteProblem(n, F(1, n), stencil, provider, u0)
        yield name, p, t, tau0(p) * cfl


def _golden_cases():
    for name, p, t, dt in _golden_problems():
        yield name, p, t, float(dt)


GOLDEN = {
    "minmod-upwind": (None, "028434f4e0a61e52", "517ec7b114138a20",
                      "c26a590acc1b76f9", "6d76c8493f4273b7"),
    "koren-upwind": (None, "7e8246966e53ced0", "cdec889ab6bfda85",
                     "67b4511fb3f7e8ba", "aee2f77ff681af55"),
    "heat": ((1, 19, "-0x1.27d27d27d27c8p-5", "positivity"), "6aa4b8339b79c4af",
             "ff03c58037c2af4f", "f439b53d56bd70f3", "9e92216623410335"),
    "constant-centered": ((1, 0, "-0x1.e1e06522c3f35p-5", "positivity"),
                          "99b446000ffd3dfb", "7370c7be92c0f686",
                          "7db0e3307f90970c", "49e320daf1b66b61"),
    "burgers": (None, "15be5a99b5b7a76c", "4be837cc50bc0b52",
                "11ad59aeb614f765", "1f1a50df7d5cf441"),
}


@pytest.mark.parametrize("name, p, t, dt", list(_golden_cases()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_float_mode_is_pinned(name, p, t, dt):
    rep = run(p, t, dt, 60, mode="float", stop_on_violation=False)
    fields = (rep.final_state, rep.mins, rep.maxs, rep.tvs)
    assert rep.steps_run == 60
    assert all(type(v) is float for values in fields for v in values)
    violation = rep.first_violation
    if violation is not None:
        violation = violation[:2] + (float.hex(violation[2]), violation[3])
    assert (violation, *map(_hexdigest, fields)) == GOLDEN[name]


# --- rational mode, pinned --------------------------------------------------
#
# str() digests of exact runs at the exact certified step, recorded with the
# object-array-of-Fractions kernel that preceded the numerator/denominator
# one.  Burgers' q grows with the state, so its denominators quadruple per
# step and the sixth step passes _RATIONAL_BIT_LIMIT: it is pinned at 5.


def _strdigest(values):
    return hashlib.sha256(";".join(map(str, values)).encode()).hexdigest()[:16]


RATIONAL_STEPS = {"burgers": 5}
GOLDEN_RATIONAL = {
    "minmod-upwind": (None, "340aac7d439ab888", "a43b1a5fa23b8edd",
                      "869d56650f89f009", "7b10b85e62063c3e"),
    "koren-upwind": (None, "0510b6664e6fb61e", "1ce3e6942f57a7b4",
                     "bbae1d0bae82b603", "9e285db07614e059"),
    "heat": ((1, 19, "8dcb471cb4ad4818", "positivity"), "a3f2e54fcdde7fe7",
             "88d541db7acdc6fd", "b25ec63000e28c64", "923fbb0190fded04"),
    "constant-centered": ((1, 0, "2a59a4b8b3bb71b4", "positivity"),
                          "e94513bed4282879", "8cd5c8f9accc56c8",
                          "724def2c3dad991b", "6efbed8890ff8c8c"),
    "burgers": (None, "cd7cab398b73d715", "d7f77606675c23a5",
                "a38712541eb52054", "c361dbfc4adcf66f"),
}


@pytest.mark.parametrize("name, p, t, dt", list(_golden_problems()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_rational_mode_is_pinned(name, p, t, dt):
    steps = RATIONAL_STEPS.get(name, 20)
    rep = run(p, t, dt, steps, mode="rational", stop_on_violation=False)
    fields = (rep.final_state, rep.mins, rep.maxs, rep.tvs)
    assert rep.mode == "rational" and rep.steps_run == steps
    assert all(isinstance(v, (F, int)) for values in fields for v in values)
    violation = rep.first_violation
    if violation is not None:
        violation = violation[:2] + (_strdigest([violation[2]]), violation[3])
    assert (violation, *map(_strdigest, fields)) == GOLDEN_RATIONAL[name]


# --- the array q against its per-cell definition ----------------------------


VALUES = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 4), F(1, 3), F(1, 2),
                          F(3, 4), F(1), F(3, 2), F(2)])
# Plateaus: each drawn value repeats 1-3 times; negatives give sign changes.
GRIDS = st.lists(st.tuples(VALUES, st.integers(1, 3)), min_size=1,
                 max_size=8).map(lambda runs: tuple(
                     v for v, times in runs for _ in range(times))[:12])


def _cell_terms(limiter, u, k):
    """(psi, ratio) of cell k from the scalar psi(), degenerate cases
    included: theta = +-inf takes psi's limit and ratio 0; flat data 0, 0."""
    n = len(u)
    s, d = u[k % n] - u[(k - 1) % n], u[(k + 1) % n] - u[k % n]
    if d != 0:
        return psi(limiter, s / d)
    if s != 0:
        return (limiter.psi_at_plus_inf if s > 0 else limiter.psi_at_minus_inf), 0
    return 0, 0


def _per_cell_q(limiter, u, speed):
    """q_k = speed_k * (1 - psi_{k-1} + ratio_k), with the first negative
    cell reported as ("negative", k) and a negative speed as ("speed", k)."""
    out = []
    for k in range(len(u)):
        if speed[k] < 0:
            return "speed", k
        q = speed[k] * (1 - _cell_terms(limiter, u, k - 1)[0]
                        + _cell_terms(limiter, u, k)[1])
        if q < 0:
            return "negative", k
        out.append(q)
    return out


def _burgers_speeds(limiter, u):
    n = len(u)
    iface = [u[k] + _cell_terms(limiter, u, k)[0] * (u[(k + 1) % n] - u[k])
             for k in range(n)]
    return [max(iface[k - 1], iface[k]) for k in range(n)]


def _check_q(q_of, limiter, u, expect):
    """q_of(u) equals expect exactly on the exact state and within 1e-12
    in float; an expected failure raises the matching error."""
    if expect[0] == "speed":
        with pytest.raises(InputError):
            q_of(u)
        return
    if expect[0] == "negative":
        with pytest.raises(LimiterContractError, match=rf"q\[{expect[1]}\]"):
            q_of(u)
        return
    exact = q_of(u)
    assert exact.dtype == object and list(exact) == expect
    approx = q_of(tuple(float(v) for v in u))
    assert approx.dtype == np.float64
    assert all(abs(x - float(y)) <= 1e-12 for x, y in zip(approx.tolist(), expect))


@settings(max_examples=150)
@given(GRIDS, st.sampled_from(sorted(LIMITERS)))
@example((F(0), F(1, 4), F(3, 2)), "koren")  # theta = 1/5: psi = theta
def test_array_q_matches_per_cell_definition(u, name):
    limiter = LIMITERS[name]
    a = F(3, 2)
    _check_q(lambda v: q_advection(v, F(0), a, limiter), limiter, u,
             _per_cell_q(limiter, u, [a] * len(u)))
    burgers = conservation_law(lambda v: v * v / 2, lambda v: v, limiter)
    _check_q(lambda v: burgers.q(v, F(0)), limiter, u,
             _per_cell_q(limiter, u, _burgers_speeds(limiter, u)))


@settings(max_examples=40)
@given(GRIDS, st.sampled_from([minmod, koren]))
def test_float_run_tracks_rational_run(u, limiter):
    p = SemiDiscreteProblem(len(u), F(1, len(u)), upwind,
                            advection(F(1), limiter), u)
    exact = run(p, erk22(F(1)), tau0(p), 4, monitors=())
    approx = run(p, erk22(F(1)), float(tau0(p)), 4, monitors=(), mode="float")
    assert exact.mode == "rational" and approx.mode == "float"
    assert all(abs(x - float(y)) <= 1e-12
               for x, y in zip(approx.final_state, exact.final_state))


@settings(max_examples=30)
@given(GRIDS)
@example((F(1), F(1), F(0), F(1, 2), F(1, 2), F(2)))  # plateaus: d = 0
def test_scalar_psi_limiter_matches_minmod(u):
    # psi_array=None sends theta through psi_fn cell by cell, as Fractions
    # in exact arithmetic and as floats in float.
    seen = set()

    def psi_fn(theta):
        seen.add(type(theta))
        return minmod.psi_fn(theta)

    scalar = Limiter("minmod-scalar", psi_fn, mu=minmod.mu,
                     ratio_at_zero=minmod.ratio_at_zero,
                     psi_at_plus_inf=minmod.psi_at_plus_inf,
                     psi_at_minus_inf=minmod.psi_at_minus_inf)
    for data, kind in ((u, F), (tuple(float(v) for v in u), float)):
        seen.clear()
        q = q_advection(data, F(0), F(3, 2), scalar)
        assert seen == {kind}
        assert q.dtype == q_advection(data, F(0), F(3, 2), minmod).dtype
        assert q.tolist() == q_advection(data, F(0), F(3, 2), minmod).tolist()
    n = len(u)
    for mode, dt in (("rational", F(1, 4 * n)), ("float", 1 / (4 * n))):
        reports = [run(SemiDiscreteProblem(n, F(1, n), upwind,
                                           advection(F(1), lim), u),
                       erk22(F(1)), dt, 4, mode=mode, stop_on_violation=False)
                   for lim in (scalar, minmod)]
        fields = [(r.final_state, r.mins, r.maxs, r.tvs, r.first_violation)
                  for r in reports]
        assert fields[0] == fields[1]


class _Tabled:
    """A provider from outside molsim that only understands Fractions."""

    def q(self, u, t):
        assert u.dtype == object and all(type(v) is F for v in u)
        return [F(k % 3, 2) for k in range(len(u))]


def test_outside_provider_sees_fractions():
    u0 = (F(0), F(1, 2), F(1), F(1, 4))
    table = {(k, tm): F(k % 3, 2) for k in range(4) for tm in (F(0), F(1, 8))}
    inside, outside = (erk_step(SemiDiscreteProblem(4, F(1), upwind, q, u0),
                                erk22(F(1)), F(1, 8), u0)
                       for q in (scripted(table), _Tabled()))
    assert inside == outside
    assert all(type(v) is F for v in outside.u_next)


def test_run_rejects_inexact_rational_input():
    p = SemiDiscreteProblem(4, F(1), upwind, constant_q(F(1)), (F(1),) * 4)
    with pytest.raises(InputError, match="rational mode"):
        run(p, erk22(F(1)), 0.5, 2, mode="rational")
    q = SemiDiscreteProblem(4, F(1), upwind, constant_q(F(1)), (1.0,) * 4)
    with pytest.raises(InputError, match="rational mode"):
        run(q, erk22(F(1)), F(1, 2), 2, mode="rational")
    with pytest.raises(InputError, match="unknown mode"):
        run(p, erk22(F(1)), F(1, 2), 2, mode="exact")


EXACT = st.fractions(min_value=-50, max_value=50, max_denominator=2**70)


@settings(max_examples=100)
@given(st.lists(st.tuples(EXACT, EXACT.filter(lambda v: v != 0)),
                min_size=1, max_size=6), EXACT)
def test_rational_array_matches_fractions(pairs, c):
    # Every operation agrees with Fraction cell by cell and stays in lowest
    # terms with a positive denominator.
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    x, y = RationalArray.of(xs), RationalArray.of(ys)
    assert x.scale == math.lcm(*(v.denominator for v in xs))
    results = {
        "add": (x + y, [a + b for a, b in zip(xs, ys)]),
        "sub": (x - y, [a - b for a, b in zip(xs, ys)]),
        "mul": (x * y, [a * b for a, b in zip(xs, ys)]),
        "div": (x / y, [a / b for a, b in zip(xs, ys)]),
        "scalar": (c - x * c / 2 + 1, [c - a * c / 2 + 1 for a in xs]),
        "max": (np.maximum(x, c), [max(a, c) for a in xs]),
        "min": (np.minimum(0, y), [min(0, b) for b in ys]),
        "abs": (np.abs(-x), [abs(a) for a in xs]),
        "roll": (np.roll(x, 1), xs[-1:] + xs[:-1]),
        "where": (np.where(x < y, x, c),
                  [a if a < b else c for a, b in zip(xs, ys)]),
    }
    for name, (got, expect) in results.items():
        assert got.tolist() == expect, name
        assert all(type(v) is F for v in got.tolist()), name
        assert all(d > 0 and math.gcd(n, d) == 1
                   for n, d in zip(got.num.tolist(), got.den.tolist())), name
    assert (x <= c).tolist() == [a <= c for a in xs]
    assert (x != y).tolist() == [a != b for a, b in zip(xs, ys)]
    assert x.sum() == sum(xs) and x[-1] == xs[-1]
    with pytest.raises(ZeroDivisionError):
        y / (x - x)
    with pytest.raises(TypeError):
        x + 0.5


class _Clocked:
    """An outside provider whose q depends on the time and the state."""

    def q(self, u, t):
        return np.array([(2 if v > 1 else 1) * (1 + t) * (1 + k % 3) / 8
                         for k, v in enumerate(u.tolist())])


class _ClockedList(_Clocked):
    """The same outside provider, returning q as a plain list."""

    def q(self, u, t):
        return super().q(u, t).tolist()


@pytest.mark.parametrize("provider", [
    advection(lambda t: 1 + t, minmod, a_sup=3), _Clocked(), _ClockedList()],
    ids=["advection-a(t)", "outside", "outside-list"])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_run_steps_as_chained_erk_step(provider, mode):
    """run's final state is that of chained erk_step calls, t0 advancing by
    dt from t_start: equal in rational mode, the same bits in float mode."""
    n, steps, start = 8, 5, F(1, 3)
    u0 = tuple(F((5 * k * k + k) % 7, 4) for k in range(n))
    p = SemiDiscreteProblem(n, F(1, n), upwind, provider, u0)
    t, dt = erk33_case2(F(1, 2)), F(1, 40)
    rep = run(p, t, dt, steps, mode=mode, stop_on_violation=False, t_start=start)
    convert = F if mode == "rational" else float
    u, t0, dt = tuple(map(convert, u0)), convert(start), convert(dt)
    for _ in range(steps):
        u = erk_step(p, t, dt, u, t0).u_next
        t0 = t0 + dt
    assert rep.steps_run == steps and rep.mode == mode
    if mode == "rational":
        assert rep.final_state == u
    else:
        assert list(map(float.hex, rep.final_state)) == list(map(float.hex, u))


@pytest.mark.parametrize("limiter, mode, steps", [
    (koren, "rational", 3), (koren, "float", 3), ("soft", "rational", 6)],
    ids=["rational", "float", "switch-to-float"])
def test_stage_times_are_t0_plus_c_dt(limiter, mode, steps):
    """a(t) is called at t0 + c_j * dt, from the Fraction c_j, at each stage
    of each step, t0 advancing by dt: equal in rational mode, the same bits
    in float mode and after a run passes the rational size limit (SOFT's
    third step here) and continues in float."""
    seen, n, start = [], 24, F(1, 1000)
    u0 = tuple(F((7 * k * k + 3 * k) % 17, 16) for k in range(n))
    a = advection(lambda now: seen.append(now) or F(1), SOFT if limiter == "soft" else limiter,
                  a_sup=F(1))
    p = SemiDiscreteProblem(n, F(1, n), upwind, a, u0)
    t = erk33_case2(F(1, 2))
    dt = tau0(p) / 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run(p, t, dt, steps, mode=mode, stop_on_violation=False, t_start=start)
    switch = 3 if limiter == "soft" else steps
    assert len(caught) == (limiter == "soft") and rep.steps_run == steps
    convert = F if mode == "rational" else float
    now, dt, expect = convert(start), convert(dt), []
    for step in range(steps):
        if step == switch:
            now, dt = float(now), float(dt)
        expect += [now + c * dt for c in t.c]
        now = now + dt
    assert [type(v) for v in seen] == [type(v) for v in expect]
    assert [v.hex() if type(v) is float else v for v in seen] == [
        v.hex() if type(v) is float else v for v in expect]


# --- exact arrays over one scale and per cell ---------------------------------


def _held(values, form):
    """values as a RationalArray over their one lcm scale ("scale") or over
    per-cell denominators ("cells")."""
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    if form == "cells":
        return RationalArray(np.array(nums, dtype=object),
                             np.array(dens, dtype=object))
    scale = math.lcm(*dens)
    return RationalArray(np.array([n * (scale // d) for n, d in zip(nums, dens)],
                                  dtype=object), scale)


def _check_held(got, expect, name):
    """got equals expect cell by cell, each cell in lowest terms; over one
    scale, that scale is the lcm of the cells' reduced denominators and is
    coprime to the numerators over it."""
    assert got.tolist() == expect, name
    assert all(type(v) is F for v in got.tolist()), name
    nums, dens = got.num.tolist(), got.den.tolist()
    assert all(d > 0 and math.gcd(n, d) == 1 for n, d in zip(nums, dens)), name
    assert [F(n, d) for n, d in zip(nums, dens)] == expect, name
    if got.scale is not None:
        over = [v * got.scale for v in expect]
        assert all(v.denominator == 1 for v in over), name
        assert math.gcd(got.scale, *(v.numerator for v in over)) == 1, name
        assert got.scale == math.lcm(*dens), name


def _cells_of(size):
    """size values over one random denominator, or with random per-cell
    denominators."""
    shared = st.tuples(
        st.integers(1, 2**70),
        st.lists(st.integers(-2**76, 2**76), min_size=size, max_size=size),
    ).map(lambda p: [F(k, p[0]) for k in p[1]])
    return shared | st.lists(EXACT, min_size=size, max_size=size)


FORMS = ("scale", "cells")


@settings(max_examples=60)
@given(st.integers(1, 6).flatmap(lambda size: st.tuples(_cells_of(size),
                                                        _cells_of(size))),
       EXACT)
@pytest.mark.parametrize("x_form", FORMS)
@pytest.mark.parametrize("y_form", FORMS)
def test_mixed_forms_match_fractions(x_form, y_form, values, c):
    xs, ys = values
    x, y = _held(xs, x_form), _held(ys, y_form)
    results = {
        "add": (x + y, [a + b for a, b in zip(xs, ys)]),
        "sub": (x - y, [a - b for a, b in zip(xs, ys)]),
        "mul": (x * y, [a * b for a, b in zip(xs, ys)]),
        "scalar": (c - x * c / 3 + 1, [c - a * c / 3 + 1 for a in xs]),
        "max": (np.maximum(x, y), [max(a, b) for a, b in zip(xs, ys)]),
        "min": (np.minimum(c, y), [min(c, b) for b in ys]),
        "abs": (np.abs(-x), [abs(a) for a in xs]),
        "roll": (np.roll(y, 2), [ys[(k - 2) % len(ys)] for k in range(len(ys))]),
        "where": (np.where(x < y, x, y), [min(a, b) for a, b in zip(xs, ys)]),
        "where-scalar": (np.where(x >= c, c, x), [min(a, c) for a in xs]),
        "map": (molsim._map(abs, x), [abs(a) for a in xs]),
    }
    if all(b != 0 for b in ys):
        results["div"] = (x / y, [a / b for a, b in zip(xs, ys)])
        results["rdiv"] = (c / y, [c / b for b in ys])
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if c != 0:
        results["div-scalar"] = (x / c, [a / c for a in xs])
    for name, (got, expect) in results.items():
        _check_held(got, expect, name)
    # One-scale operands and exact scalars stay over one scale; a per-cell
    # operand, an array divisor or a function applied cell by cell gives a
    # per-cell result.
    forms = {"x": x_form, "y": y_form}
    for name, operands in (("add", "xy"), ("sub", "xy"), ("mul", "xy"),
                           ("scalar", "x"), ("max", "xy"), ("min", "y"),
                           ("abs", "x"), ("roll", "y"), ("where", "xy"),
                           ("where-scalar", "x"), ("div-scalar", "x"),
                           ("div", "xy"), ("rdiv", "y"), ("map", "x")):
        per_cell = name in ("div", "rdiv", "map") or "cells" in map(forms.get, operands)
        assert name not in results or (results[name][0].scale is None) == per_cell, name
    assert (x == y).tolist() == [a == b for a, b in zip(xs, ys)]
    assert (x > c).tolist() == [a > c for a in xs]
    assert x.sum() == sum(xs) and y[-1] == ys[-1]
    longest = max(v.denominator.bit_length() for v in xs)
    assert [x.den_longer_than(b) for b in (longest - 1, longest)] == [True, False]


WEIGHTS = st.sampled_from([0, 1, -1, 2]) | st.fractions(-3, 3, max_denominator=12)


@st.composite
def _stage_operands(draw):
    """(u, [(w, x), ...]) as (values, form) pairs of one size: up to 4 terms."""
    size = draw(st.integers(1, 6))
    operand = st.tuples(_cells_of(size), st.sampled_from(FORMS))
    return draw(operand), draw(st.lists(st.tuples(WEIGHTS, operand), max_size=4))


@settings(max_examples=80)
@given(_stage_operands())
def test_stage_sum_matches_fractions(operands):
    """u + sum w * x equals Fraction arithmetic cell by cell; it is over one
    scale exactly when u and every x are."""
    (us, u_form), terms = operands
    got = molsim._stage_sum(_held(us, u_form),
                            [(w, _held(xs, form)) for w, (xs, form) in terms])
    expect = [u + sum(w * xs[k] for w, (xs, _) in terms) for k, u in enumerate(us)]
    _check_held(got, expect, "stage sum")
    forms = [u_form, *(form for _, (_, form) in terms)]
    assert (got.scale is None) == ("cells" in forms)


def test_exact_koren_state_is_held_over_one_scale():
    # The state's cells share one denominator, so a koren step works over
    # one scale; a silent fallback to per-cell denominators fails here.
    _, p, t, dt = next(case for case in _golden_problems()
                       if case[0] == "koren-upwind")
    u = molsim._state(p.u0)
    for step in range(20):
        u = molsim._step(p, t, dt, u, step * dt)[1]
    assert u.scale is not None


def test_exact_koren_step_builds_no_per_cell_array(monkeypatch):
    # Exact upwind koren steps in flux form over the state's one scale; a
    # silent fallback to q * (S y) builds per-cell limiter values here.
    _, p, t, dt = next(case for case in _golden_problems()
                       if case[0] == "koren-upwind")
    u = molsim._state(p.u0)
    per_cell, init = [], RationalArray.__init__

    def build(self, num, den):
        per_cell.append(isinstance(den, np.ndarray))
        init(self, num, den)

    monkeypatch.setattr(RationalArray, "__init__", build)
    for step in range(3):
        u = molsim._step(p, t, dt, u, step * dt)[1]
    assert per_cell and not any(per_cell) and u.scale is not None


# psi(theta) = theta+ / (1 + theta+): its values never cancel, so over one
# scale the state's scale grows to about 3 times its longest cell
# denominator (5,710 against 1,681 bits after 3 steps here), and the 4-step
# run below took 1.4-2.0 s instead of 0.05 s (shared 2-CPU Xeon).  Its
# values are built cell by cell, so the state is held per cell.  Its report
# digests were recorded with the per-cell kernel that preceded the
# one-scale form.
SOFT = Limiter("soft", lambda t: max(t, 0) / (1 + max(t, 0)), mu=F(1),
               ratio_at_zero=F(1), psi_at_plus_inf=F(1),
               psi_at_minus_inf=F(0),
               psi_array=lambda t: np.maximum(t, 0) / (1 + np.maximum(t, 0)))


def test_non_cancelling_limiter_keeps_its_report_and_a_bounded_scale():
    n = 24
    u0 = tuple(F((7 * k * k + 3 * k) % 17, 16) for k in range(n))
    p = SemiDiscreteProblem(n, F(1, n), upwind, advection(F(1), SOFT), u0)
    # The fourth step passes the rational size limit and switches to float.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run(p, erk22(F(1)), tau0(p), 4, stop_on_violation=False)
    assert [w.category for w in caught] == [RuntimeWarning]
    fields = (rep.final_state, rep.mins, rep.maxs, rep.tvs)
    assert (rep.mode, rep.steps_run, rep.first_violation) == ("float", 4, None)
    assert tuple(map(_strdigest, fields)) == (
        "e7952b40cd2b5b9e", "b424a81db72f7cc3", "7265295f1c889e97",
        "96c3444b8fc6b37d")
    u = molsim._state(u0)
    for step in range(3):
        u = molsim._step(p, erk22(F(1)), tau0(p), u, step * tau0(p))[1]
    assert u.scale is None


# --- the flux form against q * (S y) --------------------------------------------


def _stepped(u, limiter, speed, t, dt, dx):
    """erk_step's trace and the time of a(t)'s last call, or the
    LimiterContractError message and that time."""
    seen = []
    a = speed if not callable(speed) else lambda now: seen.append(now) or speed(now)
    p = SemiDiscreteProblem(len(u), dx, upwind, advection(a, limiter, a_sup=F(3)), u)
    try:
        outcome = erk_step(p, t, dt, u, F(1, 7))
    except LimiterContractError as exc:
        outcome = str(exc)
    return outcome, seen[-1:]


@settings(max_examples=120, deadline=None)
@given(GRIDS, st.sampled_from(sorted(LIMITERS)),
       st.sampled_from([F(0), F(3, 2), F(-1, 2), lambda now: 1 + now]),
       st.sampled_from([erk22(F(1)), erk33_case2(F(1, 2)), rk4_classical()]),
       st.sampled_from([F(1, 8), F(1, 3), F(1), 1]))
@example((F(0), F(1), F(3), F(4), F(4), F(0)), "mc", F(1), erk22(F(1)), F(1, 8))
@example((F(1), F(1, 4), F(0), F(3, 2)), "mc", F(1), erk22(F(1)), F(1, 8))  # s_2 < 0
@example((F(0), F(3, 2), F(2), F(1)), "mc", F(1), erk22(F(1)), F(1, 8))  # s_2 > 0
@example((0, 1, 1, 0), "minmod", 1, erk22(F(1)), 1)  # int a, dt, dx and data
# The only negative q is q_2, on a flat cell (s_2 = 0): stage 1 raises.
@example((F(0), F(1), F(1), F(1)), "mc", lambda now: 1 + now, erk22(F(1)), F(1, 8))
def test_flux_form_matches_q_times_sy(u, name, speed, t, dt):
    # The same limiter without pieces steps through q(y) * (S y); the flux
    # form gives the same stages and u_next, and the same contract error
    # at the same stage (a(t) is last called at that stage's time).  A
    # negative a leaves the contract on every cell that moves.  An int dt
    # steps with the int dx = 1 and dt itself; a Fraction with dx = 1/n.
    limiter = LIMITERS[name]
    generic = dataclasses.replace(limiter, pieces=())
    dt, dx = (dt, 1) if isinstance(dt, int) else (dt / len(u), F(1, len(u)))
    flux, plain = (_stepped(u, lim, speed, t, dt, dx) for lim in (limiter, generic))
    assert flux == plain
