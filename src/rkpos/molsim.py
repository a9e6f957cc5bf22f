"""Direct method-of-lines simulation on a periodic 1D grid.

The semi-discrete systems all take the form

    u_k'(t) = q_k(u, t) * (S u)_k / dx^p

with a nonnegative coefficient q_k, where S is a difference stencil
((S u)_k = sum_o c_o u_{k-o}) and p its dx power.  The q coefficient can
come from a flux-limited advection or conservation-law discretization, a
per-cell diffusion coefficient, a constant, or an externally scripted
table.  Explicit Runge-Kutta stepping keeps the increment structure
explicit, so runs can be exact (Fraction state) or floating point with
the same code path: one array kernel over a 1-D numpy state.  A float64
state runs in float arithmetic, with the tableau, stencil, limiter and q
constants converted to float once per step or q evaluation; an object
array of Fraction/int runs exactly.  The state's dtype picks the
arithmetic, and every elementwise operation keeps the order of the
per-cell definition, so float results are the same bits it gives.
"""

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InputError, LimiterContractError, PreconditionError
from .polygen import StencilSpec, upwind
from .tableau import ButcherTableau

__all__ = [
    "Limiter",
    "LIMITERS",
    "MONITORS",
    "RunReport",
    "SemiDiscreteProblem",
    "StepTrace",
    "advection",
    "conservation_law",
    "constant_q",
    "erk_step",
    "heat_q",
    "koren",
    "max_step",
    "mc",
    "minmod",
    "psi",
    "q_advection",
    "run",
    "scripted",
    "tau0",
]

Number = Union[Fraction, float, int]


def _state(u) -> np.ndarray:
    """u as a 1-D state array: object dtype (exact) when every value is an
    int or Fraction, float64 otherwise.  Arrays of either dtype pass as is."""
    if isinstance(u, np.ndarray) and u.dtype in (np.float64, object):
        return u
    values = list(u)
    exact = all(isinstance(v, (int, Fraction)) for v in values)
    return np.array(values, dtype=object if exact else np.float64)


def _keep(x):
    return x


def _num(u: np.ndarray) -> Callable:
    """Converter of constants into the arithmetic of the state array u."""
    return _keep if u.dtype == object else float


@dataclass(frozen=True)
class Limiter:
    """A slope limiter psi with its positivity bookkeeping.

    mu bounds the ratio psi(theta)/theta.  The limit fields pin down the
    degenerate slope-ratio cases: ratio_at_zero is lim psi(theta)/theta
    as theta -> 0, and the two infinity values are the limits of psi
    itself (used when the local denominator slope vanishes).  psi_fn is
    the scalar definition; psi_array, when given, is the same function
    on a state-dtype array (the array kernel otherwise applies psi_fn per
    element).
    """

    name: str
    psi_fn: Callable[[Number], Number]
    mu: Fraction
    ratio_at_zero: Fraction
    psi_at_plus_inf: Fraction
    psi_at_minus_inf: Fraction
    psi_array: Optional[Callable[[np.ndarray], np.ndarray]] = None


minmod = Limiter(
    "minmod", lambda t: max(0, min(1, t)),
    mu=Fraction(1), ratio_at_zero=Fraction(1),
    psi_at_plus_inf=Fraction(1), psi_at_minus_inf=Fraction(0),
    psi_array=lambda t: np.maximum(0, np.minimum(1, t)),
)
koren = Limiter(
    "koren", lambda t: max(0, min(1, Fraction(1, 3) + t / 6, t)),
    mu=Fraction(1), ratio_at_zero=Fraction(1),
    psi_at_plus_inf=Fraction(1), psi_at_minus_inf=Fraction(0),
    psi_array=lambda t: np.maximum(
        0, np.minimum(np.minimum(1, _num(t)(Fraction(1, 3)) + t / 6), t)),
)
mc = Limiter(
    "mc", lambda t: max(0, min(2 * t, (1 + t) / 2, 2)),
    mu=Fraction(2), ratio_at_zero=Fraction(2),
    psi_at_plus_inf=Fraction(2), psi_at_minus_inf=Fraction(0),
    psi_array=lambda t: np.maximum(0, np.minimum(np.minimum(2 * t, (1 + t) / 2), 2)),
)
LIMITERS = {"minmod": minmod, "koren": koren, "mc": mc}


def psi(limiter: Limiter, theta: Number) -> tuple[Number, Number]:
    """(psi(theta), psi(theta)/theta), with the ratio at 0 by its limit."""
    value = limiter.psi_fn(theta)
    if theta == 0:
        return value, limiter.ratio_at_zero
    return value, value / theta


def _limiter_terms(limiter: Limiter, u: np.ndarray):
    """(psi(theta_k), psi(theta_k)/theta_k, d_k) for every cell k, where
    theta_k = s_k/d_k with s_k = u_k - u_{k-1}, d_k = u_{k+1} - u_k.

    The degenerate denominators are masked, so nothing divides by zero.
    d = 0, s != 0: theta is +-inf, so psi takes its limit and the ratio
    term (which multiplies d in flux form) is 0.  d = s = 0: flat data,
    both contributions vanish.
    """
    num = _num(u)
    s = u - np.roll(u, 1)
    d = np.roll(u, -1) - u
    live = d != 0
    theta = np.divide(s, d, out=np.zeros_like(u), where=live)
    if limiter.psi_array is not None:
        value = limiter.psi_array(theta)
    else:
        value = np.frompyfunc(limiter.psi_fn, 1, 1)(theta).astype(u.dtype)
    ratio = np.divide(value, theta, where=theta != 0,
                      out=np.full_like(u, num(limiter.ratio_at_zero)))
    if not live.all():
        flat = ~live
        value[flat] = np.where(
            s[flat] > 0, num(limiter.psi_at_plus_inf),
            np.where(s[flat] < 0, num(limiter.psi_at_minus_inf), 0))
        ratio[flat] = 0
    return value, ratio, d


def _first_negative(q: np.ndarray) -> Optional[int]:
    negative = np.flatnonzero(q < 0)
    return int(negative[0]) if negative.size else None


def q_advection(u: Sequence[Number], t: Number, a, limiter: Limiter) -> np.ndarray:
    """q_k = a(t) * (1 - psi(theta_{k-1}) + psi(theta_k)/theta_k).

    Periodic indexing.  A negative q_k means the limiter left the
    positivity contract (possible for MC) and raises.
    """
    u = _state(u)
    at = _num(u)(a(t) if callable(a) else a)
    value, ratio, _ = _limiter_terms(limiter, u)
    q = at * ((1 - np.roll(value, 1)) + ratio)
    k = _first_negative(q)
    if k is not None:
        raise LimiterContractError(
            f"limiter {limiter.name!r} produced q[{k}] = {q.tolist()[k]} < 0; "
            f"psi lies outside the positivity contract for this data"
        )
    return q


# --- q providers ------------------------------------------------------------
#
# Each provider's q(u, t) takes a state array (or a sequence, read as by
# erk_step) and returns q as an array in the state's arithmetic.


class _Advection:
    def __init__(self, a, limiter: Limiter, a_sup: Optional[Number] = None):
        self.a = a
        self.limiter = limiter
        if a_sup is None and not callable(a):
            a_sup = a
        self.q_bound = None if a_sup is None else (limiter.mu + 1) * a_sup

    def q(self, u, t):
        return q_advection(u, t, self.a, self.limiter)


def advection(a, limiter: Limiter, a_sup: Optional[Number] = None) -> _Advection:
    """Flux-limited advection coefficients; `a` is a constant or a
    callable a(t) >= 0 (then pass a_sup for step-size budgeting)."""
    return _Advection(a, limiter, a_sup)


class _ConservationLaw:
    def __init__(self, f, fprime, limiter, fprime_sup=None):
        self.f = f
        self.fprime = fprime
        self.limiter = limiter
        self.fprime_sup = fprime_sup
        self.q_bound = None if fprime_sup is None else (limiter.mu + 1) * fprime_sup

    def q(self, u, t):
        u = _state(u)
        value, ratio, d = _limiter_terms(self.limiter, u)
        # f' (a scalar function) at the interface states
        # u_{k+1/2} = u_k + psi(theta_k)(u_{k+1} - u_k).  The local wave
        # speed of cell k, from the mean-value form, is the larger value at
        # its two interfaces.
        fp = np.frompyfunc(self.fprime, 1, 1)(u + value * d).astype(u.dtype)
        lam = np.maximum(np.roll(fp, 1), fp)
        q = lam * ((1 - np.roll(value, 1)) + ratio)
        k = _first_negative(np.minimum(lam, q))
        if k is not None and lam[k] < 0:
            raise InputError(
                "conservation-law provider requires f' >= 0 on the data range"
            )
        if k is not None:
            raise LimiterContractError(
                f"limiter {self.limiter.name!r} produced q[{k}] = {q.tolist()[k]} < 0"
            )
        return q


def conservation_law(f, fprime, limiter: Limiter, fprime_sup=None) -> _ConservationLaw:
    return _ConservationLaw(f, fprime, limiter, fprime_sup)


class _Scripted:
    def __init__(self, script):
        # `script` is a mapping {(cell index, time): value} or an object
        # with a .value(k, t) method (see the counterexample tooling).
        self.script = script
        self.q_bound = None

    def _value(self, k, t):
        if hasattr(self.script, "value"):
            return self.script.value(k, t)
        return self.script.get((k, t), Fraction(0))

    def q(self, u, t):
        u = _state(u)
        values = [self._value(k, t) for k in range(len(u))]
        k = _first_negative(np.array(values, dtype=object))
        if k is not None:
            raise InputError(f"scripted q[{k}] = {values[k]} is negative")
        return np.array(values, dtype=u.dtype)


def scripted(script) -> _Scripted:
    return _Scripted(script)


class _Constant:
    def __init__(self, value):
        if value < 0:
            raise InputError("constant q must be nonnegative")
        self.value = value
        self.q_bound = value

    def q(self, u, t):
        u = _state(u)
        return np.full(len(u), _num(u)(self.value), dtype=u.dtype)


def constant_q(value) -> _Constant:
    return _Constant(value)


class _Heat:
    def __init__(self, kappa: Sequence[Number]):
        if any(v < 0 for v in kappa):
            raise InputError("diffusion coefficients must be nonnegative")
        self.kappa = list(kappa)
        self.q_bound = max(self.kappa) if self.kappa else Fraction(0)
        # kappa in each state arithmetic, converted once.
        self._arrays = {np.dtype(dtype): np.array(self.kappa, dtype=dtype)
                        for dtype in (object, np.float64)}

    def q(self, u, t):
        u = _state(u)
        if len(u) != len(self.kappa):
            raise InputError("per-cell kappa length does not match the grid")
        return self._arrays[u.dtype].copy()


def heat_q(kappa: Sequence[Number]) -> _Heat:
    return _Heat(kappa)


@dataclass(frozen=True)
class SemiDiscreteProblem:
    n: int
    dx: Number
    stencil: StencilSpec
    q_provider: object
    u0: tuple

    def __post_init__(self):
        if self.n < 1 or self.dx <= 0:
            raise InputError("need n >= 1 and dx > 0")
        if len(self.u0) != self.n:
            raise InputError("initial data length does not match the grid")


def tau0(p: SemiDiscreteProblem, q_bound: Optional[Number] = None) -> Number:
    """Forward-Euler positivity threshold dx^pow / sup q.

    For advection this is dx / ((mu+1) sup a); for a conservation law the
    f' sup defaults to the maximum of f' over the initial data values.
    Scripted providers carry no bound: pass q_bound explicitly.
    """
    if q_bound is None:
        q_bound = getattr(p.q_provider, "q_bound", None)
    if q_bound is None and isinstance(p.q_provider, _ConservationLaw):
        q_bound = (p.q_provider.limiter.mu + 1) * max(
            p.q_provider.fprime(v) for v in p.u0
        )
    if q_bound is None:
        raise InputError(
            "q provider declares no bound; pass q_bound explicitly"
        )
    if q_bound <= 0:
        raise InputError("sup q must be positive for a finite threshold")
    return p.dx ** p.stencil.dx_power / q_bound


def max_step(gamma: Fraction, p: SemiDiscreteProblem,
             q_bound: Optional[Number] = None) -> Number:
    """Largest certified step size gamma * tau0 (0 when gamma = 0)."""
    if gamma == 0:
        return Fraction(0)
    return gamma * tau0(p, q_bound)


@dataclass(frozen=True)
class StepTrace:
    stages: tuple          # y^1 .. y^m, each a tuple of cell values
    xis: tuple             # per stage: tuple of dt*q_k/dx^pow
    u_next: tuple


def erk_step(
    p: SemiDiscreteProblem,
    t: ButcherTableau,
    dt: Number,
    u: Sequence[Number],
    t0: Number = Fraction(0),
) -> StepTrace:
    """One explicit Runge-Kutta step in increment form.

    Stage j's coefficient vector is xi^j_k = dt * q_k(y^j, t0 + c_j dt)
    / dx^pow, and every state is u plus a combination of the per-stage
    increments xi^j * (S y^j) -- so flat regions are preserved exactly in
    either arithmetic.  The state is exact (object array) when every u_k
    is an int or Fraction, float64 otherwise.
    """
    if dt <= 0:
        raise PreconditionError("step size must be positive")
    u = _state(u)
    num = _num(u)
    coeffs = [(o, num(c)) for o, c in p.stencil.coeffs.items()]
    dtn, scale = num(dt), num(p.dx ** p.stencil.dx_power)
    increments = []
    stages = []
    xis = []
    for j in range(t.m):
        y = u
        for l in range(j):
            if t.a[j][l] != 0:
                y = y + num(t.a[j][l]) * increments[l]
        xi = dtn * p.q_provider.q(y, t0 + t.c[j] * dt) / scale
        # (S y)_k = sum_o c_o y_{k-o}
        sy = sum(c * np.roll(y, o) for o, c in coeffs)
        increments.append(xi * sy)
        stages.append(tuple(y.tolist()))
        xis.append(tuple(xi.tolist()))
    u1 = u
    for j in range(t.m):
        if t.b[j] != 0:
            u1 = u1 + num(t.b[j]) * increments[j]
    return StepTrace(tuple(stages), tuple(xis), tuple(u1.tolist()))


@dataclass
class RunReport:
    steps_run: int
    mins: list
    maxs: list
    tvs: list
    first_violation: Optional[tuple]  # (step, index, value, kind)
    final_state: tuple
    mode: str
    initial_range: tuple = field(default=(None, None))


MONITORS = ("positivity", "interval")

# Rational-mode states whose denominators pass this size switch to float
# with a warning; exact runs are meant for short verification horizons.
_RATIONAL_BIT_LIMIT = 1 << 14


def _as_float(p: SemiDiscreteProblem) -> SemiDiscreteProblem:
    return SemiDiscreteProblem(p.n, float(p.dx), p.stencil, p.q_provider,
                               tuple(float(v) for v in p.u0))


def _violation(u: np.ndarray, monitors, umin, umax) -> Optional[tuple]:
    """(index, kind) of the first cell a monitor rejects, or None; at one
    cell a positivity violation is named before an interval violation."""
    checks = []
    if "positivity" in monitors and umin >= 0:
        checks.append(("positivity", u < 0))
    if "interval" in monitors:
        checks.append(("interval", ~((umin <= u) & (u <= umax))))
    hits = [(int(np.argmax(bad)), i, kind)
            for i, (kind, bad) in enumerate(checks) if bad.any()]
    if not hits:
        return None
    k, _, kind = min(hits)
    return k, kind

def run(
    p: SemiDiscreteProblem,
    t: ButcherTableau,
    dt: Number,
    steps: int,
    monitors: tuple[str, ...] = MONITORS,
    stop_on_violation: bool = True,
    mode: Optional[str] = None,
    t_start: Number = Fraction(0),
) -> RunReport:
    """Advance `steps` ERK steps with per-step min/max/TV monitoring.

    Violations (a negative value, or escape from the initial data range)
    are detected with zero tolerance in both arithmetic modes; the first
    one is recorded and, by default, stops the run.  `monitors` names a
    subset of MONITORS.
    """
    if dt <= 0:
        raise PreconditionError(
            "no positive step size certified for this problem"
        )
    if steps < 1:
        raise PreconditionError("need at least one step")
    unknown = [name for name in monitors if name not in MONITORS]
    if unknown:
        raise InputError(
            f"unknown monitor {unknown[0]!r}; choose from {', '.join(MONITORS)}"
        )
    if mode is None:
        mode = "rational" if all(
            isinstance(v, (Fraction, int)) for v in p.u0
        ) and isinstance(dt, (Fraction, int)) else "float"
    if mode == "float":
        p, dt = _as_float(p), float(dt)
    u = _state(p.u0)
    umin, umax = min(p.u0), max(p.u0)
    mins, maxs, tvs = [], [], []
    violation = None
    now = t_start if mode == "rational" else float(t_start)
    step = 0
    while step < steps:
        values = erk_step(p, t, dt, u, now).u_next
        now = now + dt
        step += 1
        if mode == "rational" and max(
            v.denominator.bit_length() if isinstance(v, Fraction) else 1
            for v in values
        ) > _RATIONAL_BIT_LIMIT:
            warnings.warn(
                "rational state size exceeded the practical limit; "
                "switching to float arithmetic", RuntimeWarning,
            )
            mode = "float"
            p, dt, now = _as_float(p), float(dt), float(now)
            values = tuple(float(v) for v in values)
        u = np.array(values, dtype=u.dtype if mode == "rational" else np.float64)
        mins.append(min(values))
        maxs.append(max(values))
        # Summed by Python in cell order, as the per-cell definition sums:
        # np.sum adds pairwise and can change the last bit.
        tvs.append(sum(np.abs(u - np.roll(u, 1)).tolist()))
        if violation is None:
            hit = _violation(u, monitors, umin, umax)
            if hit is not None:
                violation = (step, hit[0], values[hit[0]], hit[1])
                if stop_on_violation:
                    break
    return RunReport(
        steps_run=step, mins=mins, maxs=maxs, tvs=tvs,
        first_violation=violation, final_state=values, mode=mode,
        initial_range=(umin, umax),
    )
