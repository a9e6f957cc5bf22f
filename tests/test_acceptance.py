"""Acceptance suite: twelve verifiable claims about the package.

Each test prints one [PASS]/[FAIL] line on the real stdout so the
criterion-level outcome is visible even under pytest's capture.
"""

import random
import time
from fractions import Fraction as F

import pytest

from rkpos.adversary import first_step_counterexample, rk4_counterexample
from rkpos.bounds import (radius_abs_monotonicity, ssp_coefficient,
                          stability_polynomial)
from rkpos.gamma import (compute_gamma, condition_at, gamma_zero_test,
                         in_bowtie, subset_bits)
from rkpos.molsim import (SemiDiscreteProblem, advection, erk_step, max_step,
                          minmod, run, scripted)
from rkpos.polygen import centered, generate, heat, symmetry_report, upwind
from rkpos.tableau import (ButcherTableau, erk22, erk33_case1, erk33_case2,
                           erk33_case3, forward_euler, rk4_classical)

from oracle import generate_alt


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, text: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


ERK22_GRID = [F(1, 4), F(2, 5), F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2), F(2)]


def test_criterion_01_erk22_gamma_table(report):
    want = [F(0), F(0), F(1), F(1), F(1), F(4, 5), F(2, 3), F(1, 2)]
    start = time.perf_counter()
    got = [compute_gamma(erk22(a)).exact for a in ERK22_GRID]
    elapsed = time.perf_counter() - start
    ok = got == want and elapsed < 1.0
    report(1, ok, f"ERK(2,2) gamma table exact over 8 alphas in {elapsed:.2f}s")


def test_criterion_02_erk22_ssp_table(report):
    want = [F(0), F(0), F(0), F(2, 3), F(1), F(4, 5), F(2, 3), F(1, 2)]
    results = [ssp_coefficient(erk22(a)) for a in ERK22_GRID]
    ok = all(
        (r.exact == w) if r.exact is not None
        else (r.upper - r.lower <= F(1, 2 ** 40) and r.lower <= w <= r.upper)
        for r, w in zip(results, want)
    )
    report(2, ok, "ERK(2,2) SSP coefficient table exact over 8 alphas")


def test_criterion_03_case2_gamma_and_ssp(report):
    grid = [F(5, 16), F(3, 8), F(7, 16), F(1, 2), F(5, 8), F(3, 4), F(1)]
    want = [F(0), F(3, 4), F(7, 8), F(1), F(1), F(1), F(0)]
    start = time.perf_counter()
    got = [compute_gamma(erk33_case2(a)).exact for a in grid]
    ssp = ssp_coefficient(erk33_case2(F(9, 16))).exact
    elapsed = time.perf_counter() - start
    ok = got == want and ssp == F(3, 4) and elapsed < 5.0
    report(3, ok, f"ERK(3,3) Case II gamma table and SSP(9/16)=3/4 in {elapsed:.2f}s")


def test_criterion_04_case3_gamma_zero_with_witness(report):
    ok = True
    for a in (F(1, 2), F(1), F(2)):
        ps = generate(erk33_case3(a), upwind)
        cert = compute_gamma(ps)
        ok = ok and cert.is_zero
        x, y, z, u, v, w = ps.vars
        for eps in (F(1, 7), F(1, 2), F(3)):
            point = {x: F(0), y: eps, z: F(0), u: F(0), v: F(0), w: eps}
            ok = ok and 4 * ps.polys[2].eval(point) == -eps ** 2
    report(4, ok, "Case III gamma=0; 4*P_2(0,e,0,0,0,e) = -e^2 at 3 alphas")


def test_criterion_05_case1_region(report):
    ok = True
    for ab in ((F(1), F(1, 2)), (F(1, 2), F(3, 4))):
        ps = generate(erk33_case1(*ab), upwind)
        ok = ok and condition_at(ps, F(1)) is None
    # all grid points of the butterfly-shaped region B, spacing 1/32
    step = F(1, 32)
    grid = [(F(i, 32), F(j, 32)) for i in range(16, 33) for j in range(16, 33)
            if in_bowtie(F(i, 32), F(j, 32))]
    ok = ok and len(grid) > 0
    for ab in grid:
        ps = generate(erk33_case1(*ab), upwind)
        if condition_at(ps, F(1)) is not None:
            ok = False
            break
    ps = generate(erk33_case1(F(1, 3), F(2, 3)), upwind)
    ok = ok and gamma_zero_test(ps) is not None
    # the five printed vertex-value formulas at 10 random in-domain points
    rng = random.Random(100)
    count = 0
    while count < 10:
        a = F(rng.randint(-12, 24), rng.randint(1, 8))
        b = F(rng.randint(-12, 24), rng.randint(1, 8))
        if a == 0 or b == 0 or a == b or a == F(2, 3):
            continue
        count += 1
        ps = generate(erk33_case1(a, b), upwind)
        p2 = ps.polys[2]
        x, y, z, u, v, w = ps.vars

        def at(vals):
            return p2.eval(dict(zip((x, y, z, u, v, w), map(F, vals))))

        ok = ok and at((0, 0, 1, 1, 1, 1)) == 1 / (6 * a)
        ok = ok and at((1, 0, 1, 1, 1, 1)) == (1 / a - 1) / 6
        ok = ok and at((0, 1, 0, 0, 1, 1)) == (2 * a - 1) / (6 * a)
        ok = ok and at((1, 1, 1, 1, 1, 0)) == (2 - 3 * b) / (6 * (a - b))
        ok = ok and at((1, 1, 0, 1, 0, 1)) == (a + 2 * b - 2) / (6 * (a - b))
    report(5, ok, "Case I region: condition holds on B (1/32 grid); "
                  "gamma=0 at (1/3,2/3); 5 vertex formulas at 10 points")


def test_criterion_06_rk4(report):
    ps = generate(rk4_classical(), upwind)
    x = {i + 1: v for i, v in enumerate(ps.vars)}
    n = len(ps.vars)
    ok = n == 10

    def formula(p):
        return F(1, 24) * (
            2 * p[x[2]] * p[x[6]] * p[x[9]]
            + 2 * p[x[5]] * p[x[8]] * p[x[10]]
            - p[x[1]] * p[x[5]] * p[x[8]] * p[x[10]]
            - p[x[2]] * p[x[5]] * p[x[8]] * p[x[10]]
            - p[x[2]] * p[x[6]] * p[x[8]] * p[x[10]]
            - p[x[2]] * p[x[6]] * p[x[9]] * p[x[10]])

    for s in range(2 ** n):
        pt = {v: F(s >> i & 1) for i, v in enumerate(ps.vars)}
        if ps.polys[3].eval(pt) != formula(pt):
            ok = False
            break
    rep = rk4_counterexample(F(1))
    ok = ok and tuple(rep.u1) == (F(1), F(1, 6), F(1, 12), F(-1, 24))
    ok = ok and compute_gamma(rk4_classical()).is_zero
    report(6, ok, "RK4: P_3 matches the reference polynomial; "
                  "u1=(1,1/6,1/12,-1/24) at eps=1; gamma=0")


def test_criterion_07_heat(report):
    ok = True
    for alpha in (F(1, 4), F(1, 2), F(3, 4), F(1), F(2)):
        ps = generate(erk22(alpha), heat)
        x, y, z, u = ps.vars
        a = alpha
        checks = {
            -2: lambda p: p[u] * p[z] / 2,
            -1: lambda p: (p[u] - p[y]
                           - 2 * a * (p[y] * p[u] + p[u] * p[z] - p[y])) / (2 * a),
            0: lambda p: (p[u] * (a * p[x] + 4 * a * p[y] + a * p[z] - 2)
                          + 2 * (a - 2 * a * p[y] + p[y])) / (2 * a),
            1: lambda p: (p[u] - p[y]
                          - 2 * a * (p[x] * p[u] + p[y] * p[u] - p[y])) / (2 * a),
            2: lambda p: p[x] * p[u] / 2,
        }
        for i, formula in checks.items():
            for s in range(16):
                pt = {v: F(s >> k & 1) for k, v in enumerate(ps.vars)}
                if ps.polys[i].eval(pt) != formula(pt):
                    ok = False
    for alpha in (F(1, 2), F(3, 4), F(1)):
        ok = ok and compute_gamma(erk22(alpha), heat).exact == F(1, 2)
    for alpha in (F(1, 4), F(2)):
        cert = compute_gamma(erk22(alpha), heat)
        hi = cert.exact if cert.exact is not None else cert.upper
        ok = ok and hi < F(1, 2)
    ok = ok and compute_gamma(erk22(F(2)), heat).exact == F(1, 4)
    report(7, ok, "heat stencil: ERK(2,2) polynomials match; gamma=1/2 on "
                  "[1/2,1], below 1/2 outside, =1/4 at alpha=2")


def test_criterion_08_centered(report):
    ok = True
    for t in (forward_euler(), erk22(F(1)), erk22(F(3, 4)),
              erk33_case1(F(1, 2), F(3, 4)), erk33_case2(F(9, 16))):
        rep = symmetry_report(generate(t, centered))
        ok = ok and rep and all(rep.values())
    ok = ok and compute_gamma(erk22(F(1)), centered).is_zero
    ok = ok and compute_gamma(forward_euler(), centered).is_zero
    report(8, ok, "centered stencil: symmetry holds for m<=3; gamma=0 for "
                  "ERK22(1) and forward Euler")


def test_criterion_09_consistency_identities(report):
    methods = [forward_euler(), erk22(F(1)), erk22(F(3, 4)),
               erk33_case1(F(1, 2), F(3, 4)), erk33_case2(F(9, 16)),
               erk33_case3(F(1)), rk4_classical()]
    ok = True
    for t in methods:
        for stencil in (upwind, centered, heat):
            ps = generate(t, stencil)
            total = {}
            for poly in ps.polys.values():
                for code, coeff in poly.terms.items():
                    total[code] = total.get(code, F(0)) + F(coeff, poly.scale)
            ok = ok and {c: v for c, v in total.items() if v != 0} == {0: F(1)}
            alt = generate_alt(t, stencil)
            ok = ok and all(ps.polys[i] == alt.polys[i] for i in ps.offsets)
    # one-step polynomial/simulator agreement, scripted q, all stencils
    rng = random.Random(77)
    for t in methods:
        for stencil in (upwind, centered, heat):
            n, dt, dx = 9, F(1, 3), F(1, 2)
            ps = generate(t, stencil)
            u0 = tuple(F(rng.randint(0, 9), 3) for _ in range(n))
            table = {(k, F(cj) * dt): F(rng.randint(0, 4), 2)
                     for k in range(n) for cj in set(t.c)}
            prob = SemiDiscreteProblem(n, dx, stencil, scripted(table), u0)
            trace = erk_step(prob, t, dt, u0)
            for k in range(n):
                point = {
                    v: dt * table.get(((k + v.offset) % n,
                                       F(t.c[v.stage - 1]) * dt), F(0))
                    / dx ** stencil.dx_power for v in ps.vars}
                expect = sum((ps.polys[i].eval(point) * u0[(k - i) % n]
                              for i in ps.offsets), F(0))
                ok = ok and trace.u_next[k] == expect
    report(9, ok, "sum P_i = 1; two generators agree; polynomial equals "
                  "simulator for one step (all methods x stencils)")


def test_criterion_10_bounds_chain(report):
    methods = [forward_euler(), erk22(F(3, 4)), erk22(F(1)), erk22(F(3, 2)),
               erk33_case1(F(1, 2), F(3, 4)), erk33_case2(F(1, 2)),
               erk33_case2(F(9, 16)), erk33_case3(F(1)), rk4_classical()]
    ok = True
    for t in methods:
        c = ssp_coefficient(t)
        g = compute_gamma(t)
        r = radius_abs_monotonicity(t)
        cv = c.exact if c.exact is not None else c.upper
        gl = g.exact if g.exact is not None else g.lower
        gh = g.exact if g.exact is not None else g.upper
        ok = ok and cv <= gl
        if not r.unbounded:
            rv = r.exact if r.exact is not None else r.upper
            ok = ok and gh <= rv
    for t in (erk22(F(1)), erk22(F(2)), erk33_case1(F(1, 2), F(3, 4)),
              erk33_case3(F(1))):
        ok = ok and radius_abs_monotonicity(t).exact == 1
    ok = ok and stability_polynomial(erk22(F(1))).coeffs == (F(1), F(1), F(1, 2))
    report(10, ok, "C <= gamma <= R(phi) on the suite; R(phi)=1 attained for "
                   "the 2nd/3rd order stability polynomials")


def test_criterion_11_sharpness(report):
    suite = [(erk22(F(1, 2)), F(1)), (erk22(F(1)), F(1)),
             (erk22(F(3, 2)), F(2, 3)), (erk22(F(2)), F(1, 2)),
             (erk33_case1(F(1, 2), F(3, 4)), F(1))]
    ok = True
    for t, gamma in suite:
        ps = generate(t, upwind)
        assert not t.is_confluent()
        delta = gamma * (1 + F(1, 2 ** 20))
        w = condition_at(ps, delta)
        ok = ok and w is not None
        bits = subset_bits(w.subset, len(ps.vars))
        point = {v: w.delta for v, b in zip(ps.vars, bits) if b == "1"}
        rep = first_step_counterexample(t, (w.offset, point))
        ok = ok and rep.negative_value is not None and rep.negative_value < 0
    # long-run invariance exactly at the certified maximum step
    rng = random.Random(2024)
    for t, gamma in suite[:2]:
        n = 32
        u0 = tuple(rng.random() for _ in range(n))
        p = SemiDiscreteProblem(n, 1.0 / n, upwind, advection(1.0, minmod), u0)
        dt = float(max_step(gamma, p))
        rep = run(p, t, dt, 1000, mode="float")
        ok = ok and rep.steps_run == 1000 and rep.first_violation is None
    report(11, ok, "sharpness: negative value just above gamma; 10^3 steps "
                   "at max_step with no violation")


def test_criterion_12_performance_five_stage(report):
    # 5 stages, upwind: 15 xi variables, 6 polynomials, each enumerated over
    # the vertices of the variables it uses, one stage's block eliminated
    a = tuple(
        tuple(F(1, 2 + i + j) if j < i else F(0) for j in range(5))
        for i in range(5)
    )
    t = ButcherTableau(a=a, b=(F(1, 5),) * 5, name="five-stage")
    start = time.perf_counter()
    cert = compute_gamma(t)
    elapsed = time.perf_counter() - start
    ok = cert.n_vars == 15 and elapsed < 10.0
    ok = ok and (cert.exact is not None or cert.upper - cert.lower <= F(1, 2 ** 40)
                 or cert.unbounded or cert.is_zero)
    report(12, ok, f"5-stage full certification (n=15) in {elapsed:.2f}s")
