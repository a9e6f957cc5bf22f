"""Constructions that force a negative solution value in one step.

Three generators, each returning a fully concrete problem (grid, step
sizes, initial data, scripted q schedule) together with the simulated
trajectory and the exactly verified negative entry:

* `first_step_counterexample`: turns any vertex-negativity witness of a
  propagation polynomial into a one-step problem whose output equals
  that polynomial value.
* `negative_entry_counterexample`: a method with a negative tableau
  entry gets a negative value propagated to the output along a chain of
  nonzero coefficients.
* `rk4_counterexample`: the classical four-stage fourth-order method
  produces a negative value for every positive step size; this builds
  the explicit schedule realizing u1 = (1, e/6, (2e^2-e^3)/12, -e^4/24).

Expected values are evaluated through the propagation polynomials and
then cross-checked against `molsim.erk_step` -- two independent code
paths agreeing exactly in rational arithmetic.

The schedules key q on (cell, stage time).  Methods with coincident
stage times can still be handled as long as the coincidences do not
assign conflicting values or destroy the negativity; when they do, a
precondition error points at the offending stage times.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, PreconditionError
from .molsim import SemiDiscreteProblem, erk_step, scripted
from .multilinear import VarTag
from .polygen import PropagationSet, StencilSpec, generate, upwind
from .tableau import ButcherTableau, rk4_classical
from .univariate import descend

__all__ = [
    "CounterexampleReport",
    "ScriptedQ",
    "first_step_counterexample",
    "negative_entry_counterexample",
    "rk4_counterexample",
]


@dataclass(frozen=True)
class ScriptedQ:
    """A q schedule keyed on (cell index, exact time); unlisted keys are 0."""

    table: dict

    def __post_init__(self):
        for (k, t), v in self.table.items():
            if v < 0:
                raise InputError(f"scripted q[{k}, t={t}] = {v} is negative")

    def value(self, k: int, t) -> Fraction:
        return self.table.get((k, Fraction(t)), Fraction(0))


@dataclass(frozen=True)
class CounterexampleReport:
    method: str
    n: int
    dx: Fraction
    dt: Fraction
    u0: tuple
    script: ScriptedQ
    stages: tuple          # per-stage cell-value vectors
    u1: tuple
    negative_index: Optional[int]   # None for a boundary (value 0) witness
    negative_value: Optional[Fraction]
    expected_value: Fraction
    boundary: bool
    description: str
    # Attached after construction via object.__setattr__ (frozen dataclass).
    _tableau: ButcherTableau = None
    _stencil: StencilSpec = None

    def resimulate(self) -> tuple:
        """Re-run the problem through the simulator; returns u1."""
        p = SemiDiscreteProblem(
            self.n, self.dx, self._stencil, scripted(self.script), self.u0
        )
        return erk_step(p, self._tableau, self.dt, self.u0).u_next


def _scripted_point(
    ps: PropagationSet, script: ScriptedQ, cell: int, n: int,
    dt: Fraction, dx: Fraction,
) -> dict[VarTag, Fraction]:
    """The effective xi assignment the script induces at one cell."""
    t = ps.tableau
    scale = dx ** ps.stencil.dx_power
    return {
        v: dt * script.value((cell + v.offset) % n, t.c[v.stage - 1] * dt) / scale
        for v in ps.vars
    }


def _poly_u1(ps, script, cell, n, u0, dt, dx) -> Fraction:
    """u1 at one cell predicted by the propagation polynomials."""
    point = _scripted_point(ps, script, cell, n, dt, dx)
    return sum(
        (poly.eval(point) * u0[(cell - i) % n] for i, poly in ps.polys.items()),
        Fraction(0),
    )


def _build_report(t, stencil, n, dt, u0, script, locus, description):
    ps = generate(t, stencil)
    expect = _poly_u1(ps, script, locus, n, u0, dt, Fraction(1))
    p = SemiDiscreteProblem(n, Fraction(1), stencil, scripted(script), u0)
    trace = erk_step(p, t, dt, u0)
    got = trace.u_next[locus]
    if got != expect:
        raise AssertionError(
            f"simulated value {got} at cell {locus} does not match the "
            f"polynomial prediction {expect}"
        )
    boundary = expect == 0
    report = CounterexampleReport(
        method=t.name, n=n, dx=Fraction(1), dt=dt, u0=u0, script=script,
        stages=trace.stages, u1=trace.u_next,
        negative_index=None if boundary else locus,
        negative_value=None if boundary else got,
        expected_value=expect, boundary=boundary, description=description,
    )
    object.__setattr__(report, "_tableau", t)
    object.__setattr__(report, "_stencil", stencil)
    return report


def _schedule(t: ButcherTableau, entries, dt: Fraction = Fraction(1)) -> dict:
    """Schedule table from (cell, stage index, value) triples, rejecting
    coincident-stage-time conflicts.  Keys use the scaled times c_j * dt
    seen by the stepper."""
    table = {}
    for cell, stage, value in entries:
        key = (cell, Fraction(t.c[stage - 1]) * dt)
        if key in table and table[key] != value:
            clash = [j + 1 for j in range(t.m) if t.c[j] == t.c[stage - 1]]
            raise PreconditionError(
                f"{t.name}: stages {clash} share abscissa {t.c[stage - 1]}; "
                f"the schedule cannot give them different q values at cell {cell}"
            )
        table[key] = Fraction(value)
    return table


def first_step_counterexample(
    t: ButcherTableau,
    witness: tuple[int, dict[VarTag, Fraction]],
    stencil: StencilSpec = upwind,
) -> CounterexampleReport:
    """One step realizing P_i(assignment) as a solution entry.

    `witness` is (i, assignment): the polynomial index and the xi values
    (missing variables read 0).  With dx = dt = 1 the xi values are the
    scripted q values directly.  The grid is sized so the periodic wrap
    never aliases the stencil footprint, and the initial data is the
    unit vector feeding only the P_i term of the observed cell.
    """
    offset_i, assignment = witness
    ps = generate(t, stencil)
    if offset_i not in ps.polys:
        raise InputError(f"no propagation polynomial with offset {offset_i}")
    if any(v < 0 for v in assignment.values()):
        raise InputError("witness xi values must be nonnegative")
    r = ps.stencil.radius
    n = 2 * r * t.m + 1
    target = r * t.m  # middle cell: all offsets stay in range without wrap
    u0 = tuple(
        Fraction(k == (target - offset_i) % n) for k in range(n)
    )
    table = _schedule(
        t,
        [((target + tag.offset) % n, tag.stage, val)
         for tag, val in assignment.items() if val != 0],
    )
    script = ScriptedQ(table)
    requested = {v: Fraction(assignment.get(v, 0)) for v in ps.vars}
    effective = _scripted_point(ps, script, target, n, Fraction(1), Fraction(1))
    if ps.polys[offset_i].eval(requested) < 0 <= ps.polys[offset_i].eval(effective):
        raise PreconditionError(
            f"{t.name}: coincident stage times activate extra xi "
            f"variables and destroy the requested witness"
        )
    return _build_report(
        t, stencil, n, Fraction(1), u0, script, target,
        f"first-step witness: P_{offset_i} evaluated at the scripted vertex",
    )


def _negative_chain(t: ButcherTableau):
    """Plan the scripted cells realizing a negative output entry.

    Returns (J, [stage chain], planned value): cell p is scripted at the
    stage time of column J; each subsequent cell at the time of the
    previous scheduled stage; the output row finishes the chain.
    """
    m = t.m
    first = None
    for i in range(m):
        for j in range(m):
            if t.a[i][j] < 0:
                first = (i, j)
                break
        if first:
            break
    if first is None:
        # No negative stage coefficient: a negative output weight is the
        # direct case.
        for j in range(m):
            if t.b[j] < 0:
                return j, [], t.b[j]
        raise PreconditionError(
            f"{t.name}: all tableau entries are nonnegative"
        )
    i, J = first
    if t.b[i] > 0:
        return J, [i], t.b[i] * t.a[i][J]
    # Breadth-first search over (stage, running sign) for a chain of
    # nonzero a-coefficients whose product times an output weight is
    # negative.
    start = (i, -1)
    prev: dict[tuple[int, int], Optional[tuple[int, int]]] = {start: None}
    queue = deque([start])
    goal = None
    while queue:
        state = queue.popleft()
        s, sign = state
        if t.b[s] * sign < 0:
            goal = state
            break
        for s2 in range(s + 1, m):
            a = t.a[s2][s]
            if a == 0:
                continue
            nxt = (s2, sign * (1 if a > 0 else -1))
            if nxt not in prev:
                prev[nxt] = state
                queue.append(nxt)
    if goal is None:
        # Last resort: a negative output weight used directly.
        for j in range(m):
            if t.b[j] < 0:
                return j, [], t.b[j]
        raise PreconditionError(
            f"{t.name}: no sign-compatible chain from the negative entry "
            f"to the output row was found"
        )
    chain = []
    state = goal
    while state is not None:
        chain.append(state[0])
        state = prev[state]
    chain.reverse()
    value = t.a[i][J]
    for s_prev, s_next in zip(chain, chain[1:]):
        value *= t.a[s_next][s_prev]
    value *= t.b[chain[-1]]
    return J, chain, value


def _closed_negativity_witness(ps: PropagationSet):
    """Negativity witness at a schedule-realizable box vertex.

    Variables sharing a (cell offset, stage time) pair are always
    activated together by a schedule, so only subsets closed under that
    grouping are realizable.  Scans every propagation polynomial over
    the closed subsets for a vertex restriction whose lowest nonzero
    coefficient is negative; such a restriction is negative for all
    small enough delta.  Returns (offset, point) or None.
    """
    t = ps.tableau
    classes: dict[tuple, int] = {}
    for idx, v in enumerate(ps.vars):
        key = (v.offset, t.c[v.stage - 1])
        classes[key] = classes.get(key, 0) | 1 << idx
    masks = list(classes.values())
    for offset in ps.offsets:
        poly = ps.polys[offset]
        for pick in range(1, 1 << len(masks)):
            subset = 0
            for i, mask in enumerate(masks):
                if pick >> i & 1:
                    subset |= mask
            g = poly.vertex_restriction(subset)
            lead = next((c for c in g.coeffs if c != 0), None)
            if lead is None or lead >= 0:
                continue
            delta = descend(lambda d: d if g(d) < 0 else None,
                            Fraction(0), Fraction(1))
            point = {v: delta
                     for i, v in enumerate(ps.vars) if subset >> i & 1}
            return offset, point
    return None


def negative_entry_counterexample(t: ButcherTableau) -> CounterexampleReport:
    """Negative output entry for any method with a negative A or b entry.

    dx = dt = 1.  Seed cell p-1 holds 1; cell p is scripted with q = 1
    at the stage time of the negative coefficient's column; each further
    cell relays the previous stage's value; the output row finishes with
    a nonzero b weight.  The achieved value is predicted through the
    propagation polynomials (which account for any coincident stage
    times) and verified against the simulator exactly.
    """
    if not t.is_dj_irreducible():
        raise PreconditionError(
            f"{t.name}: method has unused stages (DJ-reducible); reduce first"
        )
    J, chain, planned = _negative_chain(t)
    if planned >= 0:
        raise AssertionError("planned chain value is not negative")
    m = t.m
    n = m + 3
    p_cell = 1
    u0 = tuple(Fraction(k == p_cell - 1) for k in range(n))
    entries = [(p_cell, J + 1, Fraction(1))]
    entries += [
        (p_cell + 1 + step, stage + 1, Fraction(1))
        for step, stage in enumerate(chain)
    ]
    table = _schedule(t, entries)
    script = ScriptedQ(table)
    locus = p_cell + len(chain)
    report = _build_report(
        t, upwind, n, Fraction(1), u0, script, locus,
        f"negative entry in column {J + 1}; relay chain through stages "
        f"{[s + 1 for s in chain]}",
    )
    if not report.boundary and report.negative_value < 0:
        return report
    # Coincident stage times cancelled the planned chain value.  Fall
    # back to a witness over confluence-closed vertex subsets, which a
    # schedule realizes without collateral activation.
    ps = generate(t, upwind)
    found = _closed_negativity_witness(ps)
    if found is None:
        raise PreconditionError(
            f"{t.name}: coincident stage times cancel the planned negative "
            f"value at cell {locus}, and no realizable vertex witness was found"
        )
    return first_step_counterexample(t, found)


def rk4_counterexample(eps: Fraction) -> CounterexampleReport:
    """Negative value for the classical fourth-order method at any step
    size ratio eps = dt/dx > 0, via the explicit four-cell schedule whose
    output is u1 = (1, eps/6, (2 eps^2 - eps^3)/12, -eps^4/24)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("step size ratio must be positive")
    t = rk4_classical()
    n = 4
    u0 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    # q = 1 at: cell 2 for stage 1, cell 3 for stages 2 and 3 (coincident
    # abscissae share the time key), cell 4 for stage 4; cells 1-based.
    table = _schedule(
        t, [(1, 1, Fraction(1)), (2, 2, Fraction(1)), (2, 3, Fraction(1)),
            (3, 4, Fraction(1))], dt=eps,
    )
    script = ScriptedQ(table)
    report = _build_report(
        t, upwind, n, eps, u0, script, 3,
        "four-stage schedule forcing a negative fourth cell at the first step",
    )
    full = (
        Fraction(1), eps / 6, (2 * eps ** 2 - eps ** 3) / 12, -(eps ** 4) / 24
    )
    if report.u1 != full:
        raise AssertionError(
            f"trajectory {report.u1} does not match the closed form {full}"
        )
    return report
