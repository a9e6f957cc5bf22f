"""The benchmark workloads: inputs built from the seed, calls, and checks.

Each workload is a list of items.  An item makes its calls into rkpos and
checks every answer; it fails by raising `Failed` (a wrong or unverifiable
answer) or any other exception.  Calls go through module attributes at
call time, so the traced run sees them through its rebound wrappers.

certify-wide   `compute_gamma` on the criterion-12 generic tableau
               (a_ij = 1/(2+i+j), b = 1/m): m=5 upwind (n=15) and m=4 heat
               (n=16, 9 polynomials).  The 2^n vertex tables, the column
               dedup and the per-restriction cut loop dominate.  m=6 upwind
               (n=21) is left out: one call takes about a minute and
               1.6 GiB, more than a run can spend on a shared box.
certify-many   The parameter studies through `rkpos.cli.main`: every
               certificate has n <= 9, so time goes to generate, the cuts,
               the SSP bound and CLI formatting, not to big tables.
simulate       `molsim.run` at the certified step in float and rational
               arithmetic; the certificate layers are touched only through
               one small `compute_gamma` per run.
"""

import contextlib
import csv
import io
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import rkpos
import rkpos.cli

TOL = Fraction(1, 2**40)

# compute_gamma brackets recorded at the seed commit (0004803).
WIDE_RECORDED = {
    "generic5-upwind": (Fraction(543481744137663, 281474976710656),
                        Fraction(135870436034465, 70368744177664), None),
    "generic4-heat": (Fraction(126747956133151, 140737488355328),
                      Fraction(63373978066629, 70368744177664), None),
}
# Peak RSS of a certify-wide process at the seed commit, in MiB.  The largest
# item refuses to start with less than twice this much memory available.
WIDE_RECORDED_PEAK_MIB = 84
WIDE_GUARDED = "generic4-heat"


class Failed(Exception):
    """An answer was wrong or could not be verified."""


@dataclass
class Item:
    name: str
    run: Callable[[], None]


class Context:
    """Per-pass record kept by the worker: the hash of certify-many's
    stdout and the counts recorded at the CLI boundary."""

    def __init__(self, count):
        self.count = count
        self.hasher = None

    def stdout(self, argv, text):
        self.hasher.update(repr(argv).encode())
        self.hasher.update(text.encode())


def setup(workload, seed, ctx):
    """Build the workload's inputs from the seed; returns its items."""
    rng = random.Random(seed)
    if workload == "certify-wide":
        return _wide_items()
    if workload == "certify-many":
        return _many_items(rng, ctx)
    if workload == "simulate":
        return _simulate_items(rng)
    raise ValueError(f"unknown workload {workload!r}")


# --- certify-wide -------------------------------------------------------------


def _generic(m):
    a = [[Fraction(1, 2 + i + j) if j < i else 0 for j in range(m)]
         for i in range(m)]
    return rkpos.ButcherTableau(
        a=tuple(tuple(Fraction(x) for x in row) for row in a),
        b=tuple(Fraction(1, m) for _ in range(m)), name=f"generic{m}")


def _mem_available_mib():
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def _bracket(lower, upper, exact):
    return (exact, exact) if exact is not None else (lower, upper)


def _certify_wide(key, tableau, stencil):
    if key == WIDE_GUARDED:
        avail = _mem_available_mib()
        if avail is not None and avail < 2 * WIDE_RECORDED_PEAK_MIB:
            raise Failed(f"memory guard: MemAvailable {avail:.0f} MiB is below "
                         f"twice the recorded peak {WIDE_RECORDED_PEAK_MIB} MiB")
    ps = rkpos.generate(tableau, stencil)
    cert = rkpos.compute_gamma(ps)
    lo, hi = _bracket(cert.lower, cert.upper, cert.exact)
    rlo, rhi = _bracket(*WIDE_RECORDED[key])
    if cert.upper is None or hi < rlo or lo > rhi:
        raise Failed(f"{key}: {cert} does not overlap [{rlo}, {rhi}]")
    if hi - lo > TOL:
        raise Failed(f"{key}: bracket wider than 2^-40")
    if WIDE_RECORDED[key][2] is not None and cert.exact != WIDE_RECORDED[key][2]:
        raise Failed(f"{key}: exact {cert.exact} != {WIDE_RECORDED[key][2]}")
    w = cert.witness
    bits = rkpos.subset_bits(w.subset, len(ps.vars))
    point = {v: (w.delta if b == "1" else Fraction(0))
             for v, b in zip(ps.vars, bits)}
    value = ps.polys[w.offset].eval(point)
    if not value == w.value < 0:
        raise Failed(f"{key}: witness evaluates to {value}, reported {w.value}")


def _wide_items():
    cases = [("generic5-upwind", _generic(5), rkpos.upwind),
             ("generic4-heat", _generic(4), rkpos.heat)]
    return [Item(key, lambda k=key, t=t, s=s: _certify_wide(k, t, s))
            for key, t, s in cases]


# --- certify-many -------------------------------------------------------------


def _erk22_gamma(a):
    if a < Fraction(1, 2):
        return Fraction(0)
    return Fraction(1) if a <= 1 else 1 / a


def _erk22_ssp(a):
    if a <= Fraction(1, 2):
        return Fraction(0)
    return 2 - 1 / a if a <= 1 else 1 / a


def _case2_gamma(a):
    if a < Fraction(3, 8) or a > Fraction(3, 4):
        return Fraction(0)
    return 2 * a if a < Fraction(1, 2) else Fraction(1)


def _case2_ssp(a):
    if a < Fraction(3, 8) or a > Fraction(3, 4):
        return Fraction(0)
    return Fraction(8 * a - 3, 2) if a <= Fraction(9, 16) else 3 - 4 * a


def _agrees(exact, lo, hi, want, what):
    """An exact column must equal `want`; a bracket must hold it tightly."""
    if exact != "":
        if Fraction(exact) != want:
            raise Failed(f"{what}: {exact} != {want}")
        return
    lo, hi = Fraction(lo), Fraction(hi)
    if not (lo <= want <= hi and hi - lo <= TOL):
        raise Failed(f"{what}: [{lo}, {hi}] does not pin {want}")


def _check_sweep(gamma_of, ssp_of):
    def check(rows):
        for r in rows:
            a = Fraction(r["param_alpha"])
            _agrees(r["gamma_exact"], r["gamma_lo"], r["gamma_hi"],
                    gamma_of(a), f"gamma({a})")
            if r["ssp"] == "" or Fraction(r["ssp"]) != ssp_of(a):
                raise Failed(f"ssp({a}): {r['ssp']!r} != {ssp_of(a)}")
    return check


def _check_gamma(want):
    def check(rows):
        (r,) = rows
        _agrees(r["gamma_exact"], r["gamma_lo"], r["gamma_hi"], want, r["method"])
    return check


def _check_bound(want):
    def check(rows):
        (r,) = rows
        _agrees(r["exact"], r["lo"], r["hi"], want, r["method"])
    return check


def _check_region(rows):
    if len(rows) != 33 * 33:
        raise Failed(f"region: {len(rows)} cells, expected {33 * 33}")
    for r in rows:
        if r["in_bowtie"] == "true" and r["condition_at_1"] != "true":
            raise Failed(f"region: bowtie cell ({r['alpha']}, {r['beta']}) "
                         f"fails condition_at(1)")


def _check_reproduce(rows):
    if not rows or any(r["ok"] != "true" for r in rows):
        raise Failed("reproduce: a check did not match")


def _cli_item(argv, check, ctx):
    def run():
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = rkpos.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        text = buf.getvalue()
        ctx.stdout(argv, text)
        rows = list(csv.DictReader(io.StringIO(text)))
        ctx.count("cli.rows", len(rows))
        ctx.count("cli.stdout_bytes", len(text.encode()))
        if code != 0:
            raise Failed(f"{' '.join(argv)}: exit code {code}")
        check(rows)
    return Item(" ".join(argv), run)


def _many_items(rng, ctx):
    plan = [
        (["sweep", "--family", "ERK22", "--lo", "1/4", "--hi", "2",
          "--step", "1/64", "--ssp"], _check_sweep(_erk22_gamma, _erk22_ssp)),
        (["sweep", "--family", "ERK33_CaseII", "--lo", "1/4", "--hi", "1",
          "--step", "1/64", "--ssp"], _check_sweep(_case2_gamma, _case2_ssp)),
        (["region", "--spacing", "1/64"], _check_region),
        (["ssp", "--method", "rk4"], _check_bound(Fraction(0))),
        (["rphi", "--method", "rk4"], _check_bound(Fraction(1))),
    ]
    for rid in ("erk22-table", "caseII-figure", "caseI-region",
                "rk4-negative", "heat-table"):
        plan.append((["reproduce", rid], _check_reproduce))
    # Seeded parameter points with small denominators.
    for _ in range(24):
        q = rng.randint(1, 8)
        a = Fraction(rng.randint(1, 3 * q), q)
        plan.append((["gamma", "--method", f"erk22:{a}"], _check_gamma(_erk22_gamma(a))))
        plan.append((["ssp", "--method", f"erk22:{a}"], _check_bound(_erk22_ssp(a))))
    for _ in range(24):
        q = rng.randint(1, 16)
        a = Fraction(rng.randint(-(-q // 4), q), q)
        plan.append((["gamma", "--method", f"erk33c2:{a}"], _check_gamma(_case2_gamma(a))))
        plan.append((["ssp", "--method", f"erk33c2:{a}"], _check_bound(_case2_ssp(a))))
    return [_cli_item(argv, check, ctx) for argv, check in plan]


# --- simulate -----------------------------------------------------------------


def _simulate(method, stencil, problem, steps, mode, advective):
    t = rkpos.parse_method(method)
    cert = rkpos.compute_gamma(t, stencil)
    if cert.exact is None or cert.exact <= 0:
        raise Failed(f"{method}: no exact positive gamma ({cert})")
    dt = rkpos.max_step(cert.exact, problem)
    if mode == "float":
        dt = float(dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = rkpos.run(problem, t, dt, steps, mode=mode)
    if rep.mode != mode:
        raise Failed(f"{method}: ran in {rep.mode} mode, expected {mode}")
    if rep.steps_run != steps or rep.first_violation is not None:
        raise Failed(f"{method}: violation {rep.first_violation} at the "
                     f"certified step after {rep.steps_run} steps")
    if advective:
        before, after = sum(problem.u0), sum(rep.final_state)
        if mode == "rational" and after != before:
            raise Failed(f"{method}: mass {after} != {before}")
        if mode == "float" and abs(after - float(before)) > 1e-12 * float(before):
            raise Failed(f"{method}: mass drift {after - float(before)}")


def _simulate_items(rng):
    def data(n):
        return tuple(Fraction(rng.randint(0, 16), 16) for _ in range(n))

    def advect(n, limiter):
        return rkpos.SemiDiscreteProblem(
            n, Fraction(1, n), rkpos.upwind,
            rkpos.advection(Fraction(1), rkpos.LIMITERS[limiter]), data(n))

    n = 200
    kappa = [Fraction(rng.randint(1, 8), 4) for _ in range(n)]
    heat = rkpos.SemiDiscreteProblem(n, Fraction(1, n), rkpos.heat,
                                     rkpos.heat_q(kappa), data(n))
    runs = [
        ("float minmod erk22:1", "erk22:1", rkpos.upwind, advect(200, "minmod"), 200, "float", True),
        ("float koren erk33c2:1/2", "erk33c2:1/2", rkpos.upwind, advect(200, "koren"), 200, "float", True),
        ("float heat erk22:3/4", "erk22:3/4", rkpos.heat, heat, 200, "float", False),
        ("rational minmod erk22:1", "erk22:1", rkpos.upwind, advect(64, "minmod"), 100, "rational", True),
        ("rational koren erk33c2:1/2", "erk33c2:1/2", rkpos.upwind, advect(64, "koren"), 100, "rational", True),
    ]
    return [Item(name, lambda a=args: _simulate(*a)) for name, *args in runs]
