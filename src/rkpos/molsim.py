"""Direct method-of-lines simulation on a periodic 1D grid.

The semi-discrete systems all take the form

    u_k'(t) = q_k(u, t) * (S u)_k / dx^p

with a nonnegative coefficient q_k, where S is a difference stencil
((S u)_k = sum_o c_o u_{k-o}) and p its dx power.  The q coefficient can
come from a flux-limited advection or conservation-law discretization, a
per-cell diffusion coefficient, a constant, or an externally scripted
table.  Explicit Runge-Kutta stepping keeps the increment structure
explicit, so runs can be exact or floating point with the same code path:
one array kernel over a 1-D state.  A float64 array runs in float
arithmetic, with the tableau, stencil, limiter and q constants converted
to float once per step or q evaluation; every elementwise operation keeps
the order of the per-cell definition, so float results are the same bits
it gives.  An exact state is a RationalArray: coprime Python-int
numerators and positive denominators in two object arrays, with every
+ - * / reduced as it happens, for all cells at once, by the gcd splits
Fraction uses.  The kernel's numpy calls reach it through numpy's
__array_ufunc__ / __array_function__ protocols.  What callers see is
unchanged: StepTrace and RunReport hold Fractions, a provider called with
exact values returns an object array of Fractions, and a provider,
psi_fn or f' written for Fractions is handed Fractions.
"""

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

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


# --- exact arrays -----------------------------------------------------------
#
# Each operation reduces its result as it goes, for all cells at once, with
# the gcd splits of Fraction's own arithmetic (Henrici's method; Knuth,
# TAOCP vol. 2, 4.5.1): the gcds are taken of the operands' factors, which
# stay small, instead of the full products.  An operand pair (n, d) is a
# RationalArray's arrays or an exact scalar's ints; the identities x + 0
# and x * +-1 by a scalar return x (or -x) as it is.


def _is_scalar(x, value) -> bool:
    return not isinstance(x[0], np.ndarray) and x == (value, 1)


def _add(x, y):
    if _is_scalar(x, 0):
        return y
    if _is_scalar(y, 0):
        return x
    (a, b), (c, d) = x, y
    g = np.gcd(b, d)
    s = b // g
    t = a * (d // g) + c * s
    g2 = np.gcd(t, g)
    return t // g2, s * (d // g2)


def _subtract(x, y):
    return _add(x, (-y[0], y[1]))


def _multiply(x, y):
    for one, other in ((x, y), (y, x)):
        if _is_scalar(one, 1):
            return other
        if _is_scalar(one, -1):
            return -other[0], other[1]
    (a, b), (c, d) = x, y
    g1, g2 = np.gcd(a, d), np.gcd(c, b)
    return (a // g1) * (c // g2), (b // g2) * (d // g1)


def _divide(x, y):
    c, d = y
    if np.any(c == 0):
        raise ZeroDivisionError("division by zero in exact arithmetic")
    if isinstance(c, np.ndarray):
        return _multiply(x, (np.where(c < 0, -d, d), np.abs(c)))
    return _multiply(x, (-d, -c) if c < 0 else (d, c))


def _roll(a: np.ndarray, shift: int) -> np.ndarray:
    """np.roll of a 1-D array, by slicing (np.roll's overhead is several
    times the copy at these sizes)."""
    k = len(a) - shift % len(a) if len(a) else 0
    return np.concatenate((a[k:], a[:k]))


def _select(take, x, y):
    """x where take holds, y elsewhere."""
    return np.where(take, x[0], y[0]), np.where(take, x[1], y[1])


def _maximum(x, y):
    return _select(x[0] * y[1] >= y[0] * x[1], x, y)


def _minimum(x, y):
    return _select(x[0] * y[1] <= y[0] * x[1], x, y)


def _comparison(ufunc):
    # Denominators are positive: a/b ? c/d  iff  a*d ? c*b.
    return lambda x, y: ufunc(x[0] * y[1], y[0] * x[1])


_ARITHMETIC = {
    np.add: _add, np.subtract: _subtract, np.multiply: _multiply,
    np.true_divide: _divide, np.maximum: _maximum, np.minimum: _minimum,
    np.negative: lambda x: (-x[0], x[1]),
    np.absolute: lambda x: (np.abs(x[0]), x[1]),
}
_COMPARISONS = {ufunc: _comparison(ufunc) for ufunc in (
    np.less, np.less_equal, np.greater, np.greater_equal, np.equal,
    np.not_equal)}


class RationalArray(NDArrayOperatorsMixin):
    """An exact 1-D array: coprime Python-int numerators and positive
    denominators, in two object arrays.

    numpy's arithmetic, comparison, maximum/minimum and absolute ufuncs and
    np.roll / np.where accept it, so one kernel steps it and a float64
    array alike.  Arithmetic gives a RationalArray in lowest terms;
    comparisons give a bool array.  Operands mix with int and Fraction
    scalars and with object arrays of them; a float operand raises an
    error, so nothing is coerced silently.  Indexing a cell and tolist()
    give Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: np.ndarray):
        self.num, self.den = num, den

    @classmethod
    def of(cls, values) -> "RationalArray":
        values = list(values)
        for v in values:
            if not isinstance(v, (int, Fraction)):
                raise InputError(
                    f"exact arithmetic needs ints or Fractions, got {v!r}")
        return cls(np.array([v.numerator for v in values], dtype=object),
                   np.array([v.denominator for v in values], dtype=object))

    def __len__(self) -> int:
        return len(self.num)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den[k])

    def tolist(self) -> list:
        return [Fraction(n, d)
                for n, d in zip(self.num.tolist(), self.den.tolist())]

    def sum(self) -> Fraction:
        """The exact sum of the cells, added pairwise."""
        x = self.num, self.den
        while len(x[0]) > 1:
            k = len(x[0]) // 2
            head = _add((x[0][:k], x[1][:k]), (x[0][k:2 * k], x[1][k:2 * k]))
            x = tuple(np.concatenate((h, v[2 * k:])) for h, v in zip(head, x))
        return Fraction(x[0][0], x[1][0]) if len(x[0]) else Fraction(0)

    def max_den_bits(self) -> int:
        return max((d.bit_length() for d in self.den.tolist()), default=0)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _COMPARISONS:
            return _COMPARISONS[ufunc](*map(_parts, inputs))
        if ufunc in _ARITHMETIC:
            return RationalArray(*_ARITHMETIC[ufunc](*map(_parts, inputs)))
        return NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        if func is np.roll and not kwargs:
            x, shift = args
            return RationalArray(_roll(x.num, shift), _roll(x.den, shift))
        if func is np.where and not kwargs:
            take, x, y = args
            return RationalArray(*_select(take, _parts(x), _parts(y)))
        return NotImplemented


def _parts(x):
    """(numerators, denominators) of an exact operand."""
    if isinstance(x, RationalArray):
        return x.num, x.den
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, np.ndarray) and x.dtype == object:
        return _parts(RationalArray.of(x.tolist()))
    raise TypeError(f"no exact arithmetic with {type(x).__name__} {x!r}")


def _state(u):
    """u as a 1-D state: a RationalArray when every value is an int or
    Fraction, a float64 array otherwise.  States of either kind pass as is."""
    if isinstance(u, RationalArray) or (
            isinstance(u, np.ndarray) and u.dtype == np.float64):
        return u
    values = u.tolist() if isinstance(u, np.ndarray) else list(u)
    if all(isinstance(v, (int, Fraction)) for v in values):
        return RationalArray.of(values)
    return np.array(values, dtype=np.float64)


def _like(u, values):
    """A sequence of numbers as an array in the arithmetic of state u."""
    if isinstance(u, RationalArray):
        return RationalArray.of(values)
    return np.array(values, dtype=np.float64)


def _returned(u, q):
    """q as handed back to a caller that passed u: an object array of
    Fractions for an exact sequence or object array, else the kernel's."""
    if isinstance(q, RationalArray) and not isinstance(u, RationalArray):
        return np.array(q.tolist(), dtype=object)
    return q


def _map(fn, x):
    """fn applied cell by cell: a scalar function of the state's numbers
    (Fractions in exact arithmetic, floats in float)."""
    if isinstance(x, RationalArray):
        return RationalArray.of(map(fn, x.tolist()))
    return np.frompyfunc(fn, 1, 1)(x).astype(np.float64)


def _keep(x):
    return x


def _num(u) -> Callable:
    """Converter of constants into the arithmetic of the state array u."""
    return _keep if isinstance(u, RationalArray) else float


@dataclass(frozen=True)
class Limiter:
    """A slope limiter psi with its positivity bookkeeping.

    mu bounds the ratio psi(theta)/theta.  The limit fields pin down the
    degenerate slope-ratio cases: ratio_at_zero is lim psi(theta)/theta
    as theta -> 0, and the two infinity values are the limits of psi
    itself (used when the local denominator slope vanishes).  psi_fn is
    the scalar definition, called with Fractions in exact arithmetic and
    floats in float.  psi_array, when given, is the same function on a
    state array: a float64 array or a RationalArray, which both take
    numpy's arithmetic ufuncs, np.maximum/np.minimum and np.where (the
    kernel otherwise applies psi_fn per cell).
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


def _limiter_terms(limiter: Limiter, u):
    """(psi(theta_k), psi(theta_k)/theta_k, d_k) for every cell k, where
    theta_k = s_k/d_k with s_k = u_k - u_{k-1}, d_k = u_{k+1} - u_k.

    The degenerate denominators are replaced by 1, so nothing divides by
    zero, and the cells they belong to are overwritten afterwards.
    d = 0, s != 0: theta is +-inf, so psi takes its limit and the ratio
    term (which multiplies d in flux form) is 0.  d = s = 0: flat data,
    both contributions vanish.
    """
    num = _num(u)
    s = u - np.roll(u, 1)
    d = np.roll(s, -1)
    live = d != 0
    theta = s / np.where(live, d, 1)
    if limiter.psi_array is not None:
        value = limiter.psi_array(theta)
    else:
        value = _map(limiter.psi_fn, theta)
    steep = theta != 0
    ratio = np.where(steep, value / np.where(steep, theta, 1),
                     num(limiter.ratio_at_zero))
    if not live.all():
        value = np.where(live, value, np.where(
            s > 0, num(limiter.psi_at_plus_inf),
            np.where(s < 0, num(limiter.psi_at_minus_inf), 0)))
        ratio = np.where(live, ratio, 0)
    return value, ratio, d


def _first_negative(q) -> Optional[int]:
    negative = np.flatnonzero(q < 0)
    return int(negative[0]) if negative.size else None


def q_advection(u: Sequence[Number], t: Number, a, limiter: Limiter) -> np.ndarray:
    """q_k = a(t) * (1 - psi(theta_{k-1}) + psi(theta_k)/theta_k).

    Periodic indexing.  A negative q_k means the limiter left the
    positivity contract (possible for MC) and raises.
    """
    x = _state(u)
    at = _num(x)(a(t) if callable(a) else a)
    value, ratio, _ = _limiter_terms(limiter, x)
    q = at * ((1 - np.roll(value, 1)) + ratio)
    k = _first_negative(q)
    if k is not None:
        raise LimiterContractError(
            f"limiter {limiter.name!r} produced q[{k}] = {q.tolist()[k]} < 0; "
            f"psi lies outside the positivity contract for this data"
        )
    return _returned(u, q)


# --- q providers ------------------------------------------------------------
#
# Each provider's q(u, t) takes a state array (or a sequence, read as by
# erk_step) and returns q as an array in the state's arithmetic; an exact
# sequence or object array gets q back as an object array of Fractions.


class _Provider:
    """The providers below, which compute q on the kernel's own arrays."""


class _Advection(_Provider):
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


class _ConservationLaw(_Provider):
    def __init__(self, f, fprime, limiter, fprime_sup=None):
        self.f = f
        self.fprime = fprime
        self.limiter = limiter
        self.fprime_sup = fprime_sup
        self.q_bound = None if fprime_sup is None else (limiter.mu + 1) * fprime_sup

    def q(self, u, t):
        x = _state(u)
        value, ratio, d = _limiter_terms(self.limiter, x)
        # f' (a scalar function) at the interface states
        # u_{k+1/2} = u_k + psi(theta_k)(u_{k+1} - u_k).  The local wave
        # speed of cell k, from the mean-value form, is the larger value at
        # its two interfaces.
        fp = _map(self.fprime, x + value * d)
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
        return _returned(u, q)


def conservation_law(f, fprime, limiter: Limiter, fprime_sup=None) -> _ConservationLaw:
    return _ConservationLaw(f, fprime, limiter, fprime_sup)


class _Scripted(_Provider):
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
        x = _state(u)
        values = [self._value(k, t) for k in range(len(x))]
        k = _first_negative(np.array(values, dtype=object))
        if k is not None:
            raise InputError(f"scripted q[{k}] = {values[k]} is negative")
        return _returned(u, _like(x, values))


def scripted(script) -> _Scripted:
    return _Scripted(script)


class _Constant(_Provider):
    def __init__(self, value):
        if value < 0:
            raise InputError("constant q must be nonnegative")
        self.value = value
        self.q_bound = value

    def q(self, u, t):
        x = _state(u)
        return _returned(u, _like(x, [self.value] * len(x)))


def constant_q(value) -> _Constant:
    return _Constant(value)


class _Heat(_Provider):
    def __init__(self, kappa: Sequence[Number]):
        if any(v < 0 for v in kappa):
            raise InputError("diffusion coefficients must be nonnegative")
        self.kappa = list(kappa)
        self.q_bound = max(self.kappa) if self.kappa else Fraction(0)
        self._float = np.array(self.kappa, dtype=np.float64)
        self._exact = None  # kappa as a RationalArray, on first exact use

    def q(self, u, t):
        x = _state(u)
        if len(x) != len(self.kappa):
            raise InputError("per-cell kappa length does not match the grid")
        if not isinstance(x, RationalArray):
            return self._float.copy()
        if self._exact is None:
            self._exact = RationalArray.of(self.kappa)
        return _returned(u, self._exact)


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


def _provider_q(provider, y, t):
    """q at state y in y's arithmetic.  A provider from outside this module
    sees an exact state as an object array of Fractions."""
    if isinstance(provider, _Provider) or not isinstance(y, RationalArray):
        return provider.q(y, t)
    return RationalArray.of(provider.q(np.array(y.tolist(), dtype=object), t))


@dataclass(frozen=True)
class StepTrace:
    stages: tuple          # y^1 .. y^m, each a tuple of cell values
    xis: tuple             # per stage: tuple of dt*q_k/dx^pow
    u_next: tuple


def _step(p: SemiDiscreteProblem, t: ButcherTableau, dt: Number, u, t0: Number):
    """The kernel of `erk_step` on a state array u: (stages, xis, u_next),
    the stage states and xi vectors as lists of arrays in u's arithmetic."""
    num = _num(u)
    coeffs = [(o, num(c)) for o, c in p.stencil.coeffs.items()]
    dtn, scale = num(dt), num(p.dx ** p.stencil.dx_power)
    increments = []
    stages = []
    xis = []
    abscissae = t.c
    for j in range(t.m):
        y = u
        for l in range(j):
            if t.a[j][l] != 0:
                y = y + num(t.a[j][l]) * increments[l]
        xi = dtn * _provider_q(p.q_provider, y, t0 + abscissae[j] * dt) / scale
        # (S y)_k = sum_o c_o y_{k-o}
        sy = sum(c * np.roll(y, o) for o, c in coeffs)
        increments.append(xi * sy)
        stages.append(y)
        xis.append(xi)
    u1 = u
    for j in range(t.m):
        if t.b[j] != 0:
            u1 = u1 + num(t.b[j]) * increments[j]
    return stages, xis, u1


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
    either arithmetic.  The state is exact (a RationalArray) when every
    u_k is an int or Fraction, float64 otherwise; the trace holds Fractions
    or floats.
    """
    if dt <= 0:
        raise PreconditionError("step size must be positive")
    stages, xis, u1 = _step(p, t, dt, _state(u), t0)
    return StepTrace(tuple(tuple(y.tolist()) for y in stages),
                     tuple(tuple(xi.tolist()) for xi in xis), tuple(u1.tolist()))


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


def _total(x) -> Number:
    """The sum of x's cells.  A float sum is added by Python in cell order,
    as the per-cell definition adds: np.sum adds pairwise and can change
    the last bit."""
    return x.sum() if isinstance(x, RationalArray) else sum(x.tolist())


def _violation(u, monitors, umin, umax) -> Optional[tuple]:
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
    exact = all(isinstance(v, (Fraction, int)) for v in (dt, *p.u0))
    if mode is None:
        mode = "rational" if exact else "float"
    if mode not in ("rational", "float"):
        raise InputError(f"unknown mode {mode!r}; choose rational or float")
    if mode == "rational" and not exact:
        raise InputError(
            "rational mode needs int or Fraction initial data and step size")
    if mode == "float":
        p, dt = _as_float(p), float(dt)
    u = _state(p.u0)
    umin, umax = min(p.u0), max(p.u0)
    mins, maxs, tvs = [], [], []
    violation = None
    now = t_start if mode == "rational" else float(t_start)
    for step in range(1, steps + 1):
        u = _step(p, t, dt, u, now)[2]
        now = now + dt
        if isinstance(u, RationalArray) and u.max_den_bits() > _RATIONAL_BIT_LIMIT:
            warnings.warn(
                "rational state size exceeded the practical limit; "
                "switching to float arithmetic", RuntimeWarning,
            )
            mode = "float"
            p, dt, now = _as_float(p), float(dt), float(now)
            u = np.array([float(v) for v in u.tolist()])
        values = tuple(u.tolist())
        mins.append(min(values))
        maxs.append(max(values))
        tvs.append(_total(np.abs(u - np.roll(u, 1))))
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
