"""Direct method-of-lines simulation on a periodic 1D grid.

The semi-discrete systems all take the form

    u_k'(t) = q_k(u, t) * (S u)_k / dx^p

with a nonnegative coefficient q_k, where S is a difference stencil
((S u)_k = sum_o c_o u_{k-o}) and p its dx power.  The q coefficient can
come from a flux-limited advection or conservation-law discretization, a
per-cell diffusion coefficient, a constant, or a scripted table
(`ScriptedQ`).  Explicit Runge-Kutta stepping keeps the increment
structure explicit, so runs can be exact or floating point with the same
code path: one array kernel over a 1-D state.  A step is exact when dt,
dx and every data value are ints or Fractions, and float otherwise.  A
float64 array runs in float arithmetic, with the tableau and stencil
constants converted to float once per run and the limiter and q
constants once per q evaluation; every elementwise operation keeps the
order of the per-cell definition, so float results are the same bits it
gives.  An exact state is a RationalArray: Python-int numerators over one scale in lowest terms,
or over per-cell denominators.  Its form comes from how it was built:
data goes over the lcm of its denominators, a scalar function applied
cell by cell keeps each cell's own, an operation on one-scale operands
and exact scalars stays over one scale except division by an array, and
anything with a per-cell operand or an array divisor stays per cell.
Every + - * / is reduced as it happens: over one scale by one gcd per
array, per cell by the gcd splits Fraction uses.  The one exception is a
stage sum u + sum_l a_jl xi^l (S y^l) (and u_next): over one scale it is
one integer pass reduced once at its end.  Exact upwind advection with a
piecewise-affine limiter steps in flux form, one reduction per stage.
The kernel's numpy calls reach it through numpy's __array_ufunc__ /
__array_function__ protocols.  What callers see is unchanged: StepTrace
and RunReport hold Fractions, a provider called with exact values
returns an object array of Fractions, and a provider, psi_fn or f'
written for Fractions is handed Fractions.
"""

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .errors import CapacityError, InputError, LimiterContractError, PreconditionError, rational
from .polygen import StencilSpec, upwind
from .tableau import ButcherTableau

__all__ = [
    "Limiter",
    "LIMITERS",
    "MONITORS",
    "RunReport",
    "ScriptedQ",
    "SemiDiscreteProblem",
    "StepTrace",
    "advection",
    "check_work",
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
    "RUN_WORK",
    "STAGE_CELLS",
    "scripted",
    "tau0",
]

Number = Union[Fraction, float, int]


# --- exact arrays -----------------------------------------------------------
#
# An operand (n, d) is an exact scalar's ints, or a RationalArray's
# numerators over one int scale d (d > 0, gcd(d, *n) == 1: d is the lcm of
# the cells' reduced denominators) or over per-cell denominators, by the
# rule of the module docstring.  One-scale operations do their integer
# work, then divide out one math.gcd(d, *n), which stops once the running
# gcd is 1; per-cell ones reduce each cell by Fraction's gcd splits
# (Henrici; Knuth, TAOCP vol. 2, 4.5.1).  x + 0 and x * +-1 return x (or -x).


def _is_scalar(x, value) -> bool:
    return not isinstance(x[0], np.ndarray) and x == (value, 1)


def _per_cell(x) -> bool:
    return isinstance(x[1], np.ndarray)


def _gcd(k: int, n) -> int:
    """gcd of k and the numerator n, or of k and every cell of an array n."""
    return math.gcd(k, *n) if isinstance(n, np.ndarray) else math.gcd(k, n)


def _shared(n, d: int):
    """n / d over one scale, in lowest terms."""
    h = _gcd(d, n)
    return (n, d) if h == 1 else (n // h, d // h)


def _cells(x):
    """x with per-cell denominators; a scalar as it is."""
    if _per_cell(x) or not isinstance(x[0], np.ndarray):
        return x
    g = np.gcd(*x)
    return x[0] // g, x[1] // g


def _add(x, y):
    if _is_scalar(x, 0):
        return y
    if _is_scalar(y, 0):
        return x
    if _per_cell(x) or _per_cell(y):
        (a, b), (c, d) = _cells(x), _cells(y)
        g = np.gcd(b, d)
        s = b // g
        t = a * (d // g) + c * s
        g2 = np.gcd(t, g)
        return t // g2, s * (d // g2)
    (a, b), (c, d) = x, y
    g = math.gcd(b, d)
    return _shared(a * (d // g) + c * (b // g), b // g * d)


def _subtract(x, y):
    return _add(x, (-y[0], y[1]))


def _multiply(x, y):
    for one, other in ((x, y), (y, x)):
        if _is_scalar(one, 1):
            return other
        if _is_scalar(one, -1):
            return -other[0], other[1]
    if _per_cell(y):
        x, y = y, x
    (a, b), (c, d) = x, y
    if not _per_cell(x):
        # Each scale cancels against the other side's numerators first.
        g1, g2 = _gcd(d, a), _gcd(b, c)
        return _shared((a // g1) * (c // g2), (b // g2) * (d // g1))
    if _per_cell(y) or not isinstance(c, np.ndarray):
        g1, g2 = np.gcd(a, d), np.gcd(c, b)
        return (a // g1) * (c // g2), (b // g2) * (d // g1)
    # Per-cell x times one-scale y, as xi * (S y): each cell's denominator
    # cancels against y's numerator, then y's scale against the product.
    g = np.gcd(c, b)
    n = a * (c // g)
    h = np.gcd(n, d)
    return n // h, b // g * (d // h)


def _divide(x, y):
    c, d = y
    if np.any(c == 0):
        raise ZeroDivisionError("division by zero in exact arithmetic")
    if not isinstance(c, np.ndarray):
        return _multiply(x, (-d, -c) if c < 0 else (d, c))
    if _per_cell(x) or _per_cell(y):
        c, d = _cells(y)
        return _multiply(x, (np.where(c < 0, -d, d), np.abs(c)))
    # Both over one scale (or x a scalar): one gcd per cell.
    a, b = x
    g, sign = math.gcd(b, d), np.where(c < 0, -1, 1).astype(object)
    n, m = sign * a * (d // g), sign * c * (b // g)
    h = np.gcd(n, m)
    return n // h, m // h


def _select(take, x, y):
    """x where take holds, y elsewhere."""
    if _per_cell(x) or _per_cell(y):
        (a, b), (c, d) = _cells(x), _cells(y)
        return np.where(take, a, c), np.where(take, b, d)
    (a, b), (c, d) = x, y
    scale = b // math.gcd(b, d) * d
    return _shared(np.where(take, a * (scale // b), c * (scale // d)), scale)


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
    """An exact 1-D array: Python-int numerators over one positive scale in
    lowest terms, or over positive per-cell denominators, each cell in
    lowest terms.  `of` builds one scale and arithmetic keeps it, except
    division by an array; a per-cell operand gives a per-cell result.

    numpy's arithmetic, comparison, maximum/minimum and absolute ufuncs and
    np.roll / np.where accept it, so one kernel steps it and a float64
    array alike.  Arithmetic gives a RationalArray; comparisons give a bool
    array.  Operands mix with int and Fraction scalars and with object
    arrays of them; a float operand raises an error, so nothing is coerced
    silently.  num and den are per-cell lowest-terms views; indexing a cell
    and tolist() give Fractions.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num: np.ndarray, den):
        self._n, self._d = num, den

    @classmethod
    def of(cls, values) -> "RationalArray":
        """Ints and Fractions over the lcm of their reduced denominators."""
        n, d = _fractions(values)
        scale = math.lcm(*d.tolist())
        return cls(n * (scale // d), scale)

    num = property(lambda self: _cells((self._n, self._d))[0],
                   doc="The cells' lowest-terms numerators.")
    den = property(lambda self: _cells((self._n, self._d))[1],
                   doc="The cells' lowest-terms denominators.")
    scale = property(lambda self: None if _per_cell((self._n, self._d)) else self._d,
                     doc="The one denominator of all cells, or None per cell.")

    def __len__(self) -> int:
        return len(self._n)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self._n[k], self._d if self.scale else self._d[k])

    def tolist(self) -> list:
        d = self._d.tolist() if self.scale is None else [self.scale] * len(self)
        return [Fraction(n, e) for n, e in zip(self._n.tolist(), d)]

    def sum(self) -> Fraction:
        """The exact sum of the cells, of their numerators over one scale."""
        scale = self.scale or math.lcm(*self._d.tolist())
        return Fraction(sum((self._n * (scale // self._d)).tolist()), scale)

    def den_longer_than(self, bits: int) -> bool:
        """Whether a cell's lowest-terms denominator has over `bits` bits."""
        if self.scale and self.scale.bit_length() <= bits:
            return False
        return any(d.bit_length() > bits for d in self.den.tolist())

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
            return _roll(*args)
        if func is np.where and not kwargs:
            take, x, y = args
            return RationalArray(*_select(take, _parts(x), _parts(y)))
        return NotImplemented


def _fractions(values):
    """(numerators, denominators) of ints and Fractions, as object arrays."""
    values = list(values)
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise InputError(f"exact arithmetic needs ints or Fractions, got {v!r}")
    return (np.array([v.numerator for v in values], dtype=object),
            np.array([v.denominator for v in values], dtype=object))


def _roll(a, shift: int):
    """np.roll of a 1-D array or a RationalArray, by slicing (np.roll's
    overhead is several times the copy at these sizes)."""
    if isinstance(a, RationalArray):
        return RationalArray(_roll(a._n, shift), a.scale or _roll(a._d, shift))
    k = len(a) - shift % len(a) if len(a) else 0
    return np.concatenate((a[k:], a[:k]))


def _parts(x):
    """(numerators, denominators) of an exact operand."""
    if isinstance(x, RationalArray):
        return x._n, x._d
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, np.ndarray) and x.dtype == object:
        return _parts(RationalArray.of(x.tolist()))
    raise TypeError(f"no exact arithmetic with {type(x).__name__} {x!r}")


def _all_exact(*values) -> bool:
    """The one rule for the arithmetic: exact iff all are ints or Fractions."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _state(u):
    """u as a 1-D state: a RationalArray when every value is an int or
    Fraction, a float64 array otherwise.  States of either kind pass as is."""
    if isinstance(u, RationalArray) or (
            isinstance(u, np.ndarray) and u.dtype == np.float64):
        return u
    values = u.tolist() if isinstance(u, np.ndarray) else list(u)
    if _all_exact(*values):
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
        return RationalArray(*_fractions(map(fn, x.tolist())))
    return np.frompyfunc(fn, 1, 1)(x).astype(np.float64)


def _keep(x):
    return x


def _float(x) -> float:
    """float(x), refused with an InputError past the float range."""
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"a value near 2^{int(x).bit_length()} is past the float range") from None


def _num(u) -> Callable:
    """Converter of constants into the arithmetic of the state array u."""
    return _keep if isinstance(u, RationalArray) else _float


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
    kernel otherwise applies psi_fn per cell).  pieces, when given, define
    psi = max(0, min_i(alpha_i + beta_i theta)), psi(0) = 0, and psi_fn and
    psi_array (pass psi_fn=None); exact upwind advection then steps in flux form.
    """

    name: str
    psi_fn: Optional[Callable[[Number], Number]]
    mu: Fraction
    ratio_at_zero: Fraction
    psi_at_plus_inf: Fraction
    psi_at_minus_inf: Fraction
    psi_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    pieces: tuple = ()

    def __post_init__(self):
        pieces = tuple(tuple(map(rational, p)) for p in self.pieces)
        if pieces and min(a for a, _ in pieces) > 0 or not pieces and self.psi_fn is None:
            raise InputError(f"limiter {self.name!r} needs psi_fn, or pieces giving psi(0) = 0")
        object.__setattr__(self, "pieces", pieces)
        for name in ("psi_fn", "psi_array") if pieces else ():
            object.__setattr__(self, name, lambda t: _affine(pieces, t))


def _affine(pieces, t):
    """max(0, min_i(alpha_i + beta_i t)) on a number or a state array; a zero term is
    left out and beta is * num / den, so floats keep the written formulas' bits."""
    array = isinstance(t, (np.ndarray, RationalArray))
    num = _num(t) if array else _keep if _all_exact(t) else _float
    low = None
    for a, b in pieces:
        slope = t * b.numerator / b.denominator if b else 0
        line = num(a) + slope if a else slope
        low = line if low is None else (np.minimum if array else min)(low, line)
    return (np.maximum if array else max)(0, low)


minmod = Limiter("minmod", None, mu=Fraction(1), ratio_at_zero=Fraction(1),
                 psi_at_plus_inf=Fraction(1), psi_at_minus_inf=Fraction(0),
                 pieces=((1, 0), (0, 1)))
koren = Limiter("koren", None, mu=Fraction(1), ratio_at_zero=Fraction(1),
                psi_at_plus_inf=Fraction(1), psi_at_minus_inf=Fraction(0),
                pieces=((1, 0), (Fraction(1, 3), Fraction(1, 6)), (0, 1)))
mc = Limiter("mc", None, mu=Fraction(2), ratio_at_zero=Fraction(2),
             psi_at_plus_inf=Fraction(2), psi_at_minus_inf=Fraction(0),
             pieces=((0, 2), (Fraction(1, 2), Fraction(1, 2)), (2, 0)))
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
    s = u - _roll(u, 1)
    d = _roll(s, -1)
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


# --- q providers ------------------------------------------------------------


class _Provider:
    """q(u, t) takes a state array or a sequence, read as by erk_step, and
    returns q in the state's arithmetic (an object array of Fractions for an
    exact sequence); each provider implements _q(x, t) on a state array."""

    def q(self, u, t):
        return _returned(u, self._q(_state(u), t))


class _Advection(_Provider):
    def __init__(self, a, limiter: Limiter, a_sup: Optional[Number] = None):
        self.a = a
        self.limiter = limiter
        if a_sup is None and not callable(a):
            a_sup = a
        self.q_bound = None if a_sup is None else (limiter.mu + 1) * a_sup
        # Pieces times the lcm L of their denominators.  Where s_k = 0, q_k / a = 1 - psi_{k-1}
        # + ratio_k is negative iff _flat_hit[i + 3 j], i = 0, 1, 2 as s_{k-1} = 0, > 0, < 0
        # (psi_{k-1} = 0 or a limit; i = sign % 3), j = [d_k != 0] (ratio_k = 0 or ratio_at_zero).
        lcm = math.lcm(*(v.denominator for piece in limiter.pieces for v in piece))
        self._lines = lcm, [(int(a * lcm), int(b * lcm)) for a, b in limiter.pieces]
        self._flat_hit = np.array([1 - p + r < 0 for r in (0, limiter.ratio_at_zero) for p in
                                   (0, limiter.psi_at_plus_inf, limiter.psi_at_minus_inf)])

    def _q(self, x, t):
        at = _num(x)(self.a(t) if callable(self.a) else self.a)
        value, ratio, _ = _limiter_terms(self.limiter, x)
        q = at * ((1 - _roll(value, 1)) + ratio)
        k = _first_negative(q)
        if k is not None:
            raise LimiterContractError(
                f"limiter {self.limiter.name!r} produced q[{k}] = {q[k]} < 0; "
                f"psi lies outside the positivity contract for this data"
            )
        return q

    def _flux(self, rate, y, t):
        """rate q(y, t) (S y) for the upwind stencil and a limiter with pieces, in flux
        form, or None off one-scale states and exact a >= 0.  q_k (S y)_k = -a (s_k +
        F_k - F_{k-1}), F_k = psi(theta_k) d_k, and L F_k over y's scale is an int: max(0,
        min_i) of alpha_i L d_k + beta_i L s_k if d_k > 0, min(0, max_i) if < 0, or 0."""
        if not (isinstance(y, RationalArray) and y.scale and
                _all_exact(at := self.a(t) if callable(self.a) else self.a) and at >= 0):
            return None
        lcm, pieces = self._lines
        s = y._n - _roll(y._n, 1)
        d = _roll(s, -1)
        # Zero terms are left out and 1 * x is x: minmod's lines are d and s.
        lines = np.array([_scaled(a, d) + _scaled(b, s) if a and b else _scaled(a, d) if a
                          else _scaled(b, s) for a, b in pieces])
        flux = np.where(d > 0, np.maximum(np.minimum.reduce(lines), 0),
                        np.where(d < 0, np.minimum(np.maximum.reduce(lines), 0), 0))
        total = lcm * s + flux - _roll(flux, 1)
        # q_k = a total_k / (L s_k) where s_k != 0: negative iff the signs
        # differ; where s_k = 0 by _flat_hit.  On a hit, q raises its error.
        hit = ((total < 0) & (s > 0)) | ((total > 0) & (s < 0))
        if self._flat_hit.any():
            hit |= (s == 0) & self._flat_hit[np.sign(_roll(s, 1)).astype(int) % 3 + 3 * (d != 0)]
        if at > 0 and hit.any():
            self._q(y, t)
        c = Fraction(at) * rate
        return RationalArray(*_shared(-c.numerator * total, c.denominator * lcm * y.scale))


def _scaled(c: int, x):
    """c * x, or x itself when c is 1."""
    return x if c == 1 else c * x


def advection(a, limiter: Limiter, a_sup: Optional[Number] = None) -> _Advection:
    """Flux-limited advection coefficients; `a` is a constant or a
    callable a(t) >= 0 (then pass a_sup for step-size budgeting)."""
    return _Advection(a, limiter, a_sup)


def q_advection(u: Sequence[Number], t: Number, a, limiter: Limiter) -> np.ndarray:
    """q_k = a(t) * (1 - psi(theta_{k-1}) + psi(theta_k)/theta_k).

    Periodic indexing.  A negative q_k means the limiter left the
    positivity contract (possible for MC) and raises.
    """
    return advection(a, limiter).q(u, t)


class _ConservationLaw(_Provider):
    def __init__(self, fprime, limiter, fprime_sup=None):
        self.fprime = fprime
        self.limiter = limiter
        self.fprime_sup = fprime_sup
        self.q_bound = None if fprime_sup is None else (limiter.mu + 1) * fprime_sup

    def _q(self, x, t):
        value, ratio, d = _limiter_terms(self.limiter, x)
        # f' (a scalar function) at the interface states
        # u_{k+1/2} = u_k + psi(theta_k)(u_{k+1} - u_k).  The local wave
        # speed of cell k, from the mean-value form, is the larger value at
        # its two interfaces.
        fp = _map(self.fprime, x + value * d)
        lam = np.maximum(_roll(fp, 1), fp)
        q = lam * ((1 - _roll(value, 1)) + ratio)
        k = _first_negative(np.minimum(lam, q))
        if k is not None and lam[k] < 0:
            raise InputError(
                "conservation-law provider requires f' >= 0 on the data range"
            )
        if k is not None:
            raise LimiterContractError(
                f"limiter {self.limiter.name!r} produced q[{k}] = {q[k]} < 0"
            )
        return q


def conservation_law(f, fprime, limiter: Limiter, fprime_sup=None) -> _ConservationLaw:
    """q for u_t + f(u)_x = 0 needs only f' >= 0; the flux f is unused."""
    return _ConservationLaw(fprime, limiter, fprime_sup)


@dataclass(frozen=True)
class ScriptedQ(_Provider):
    """A q schedule keyed on (cell index, exact time); unlisted keys are 0.
    The table is a read-only copy, checked to be nonnegative when built."""

    table: Mapping

    def __post_init__(self):
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))
        for (k, t), v in self.table.items():
            if v < 0:
                raise InputError(f"scripted q[{k}, t={t}] = {v} is negative")

    def value(self, k: int, t) -> Fraction:
        return self.table.get((k, t), Fraction(0))

    def _q(self, x, t):
        return _like(x, [self.value(k, t) for k in range(len(x))])


def scripted(table: dict) -> ScriptedQ:
    return ScriptedQ(table)


class _Constant(_Provider):
    def __init__(self, value):
        if value < 0:
            raise InputError("constant q must be nonnegative")
        self.value = value
        self.q_bound = value

    def _q(self, x, t):
        return _like(x, [self.value] * len(x))


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

    def _q(self, x, t):
        if len(x) != len(self.kappa):
            raise InputError("per-cell kappa length does not match the grid")
        if not isinstance(x, RationalArray):
            return self._float.copy()
        if self._exact is None:
            self._exact = RationalArray.of(self.kappa)
        return self._exact


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
    """q at state y in y's arithmetic.  An outside provider sees an exact
    state as an object array of Fractions and may return any sequence."""
    if isinstance(provider, _Provider):
        return provider.q(y, t)
    seen = np.array(y.tolist(), dtype=object) if isinstance(y, RationalArray) else y
    return _like(y, provider.q(seen, t))


@dataclass(frozen=True)
class StepTrace:
    stages: tuple          # y^1 .. y^m, each a tuple of cell values
    u_next: tuple


def _stage_sum(u, terms):
    """u + sum of w * x over the (w, x) in terms; every stage state and u_next is
    summed here.  Over one scale it is one integer pass: each x's numerators times w / scale over
    the lcm of those factors' denominators, then one gcd.  Otherwise it is the chain
    u + w * x in written order, with the chain's float bits and per-cell forms."""
    if terms and all(isinstance(x, RationalArray) and x.scale for _, x in ((1, u), *terms)):
        parts = [(x._n, Fraction(w) / x.scale) for w, x in ((1, u), *terms)]
        scale = math.lcm(*(r.denominator for _, r in parts))
        first, *rest = [_scaled(r.numerator * (scale // r.denominator), n) for n, r in parts]
        return RationalArray(*_shared(sum(rest, first), scale))
    for w, x in terms:
        u = u + w * x
    return u


def _plan(p: SemiDiscreteProblem, t: ButcherTableau, dt: Number, u) -> Callable:
    """advance(u, t0) -> (stages, u_next) for the steps of a run in state u's
    arithmetic, from what they share, built once: the nonzero a_jl and b_j as (l,
    weight) pairs, each c_j * dt with c_j a Fraction, the stencil's (offset,
    coefficient) pairs, dt, dx^p and the flux route of exact upwind advection."""
    num, q = _num(u), p.q_provider
    rows = [[(l, num(w)) for l, w in enumerate(row) if w != 0] for row in (*t.a, t.b)]
    times = [c * dt for c in t.c]
    coeffs = [(o, num(c)) for o, c in p.stencil.coeffs.items()]
    dtn, scale = num(dt), num(p.dx ** p.stencil.dx_power)
    flux = (partial(q._flux, Fraction(dt) / scale) if isinstance(q, _Advection) and
            q.limiter.pieces and isinstance(u, RationalArray) and
            p.stencil.coeffs == upwind.coeffs else None)

    def advance(u, t0):
        increments, stages = [], []
        for row, time in zip(rows, times):
            y = _stage_sum(u, [(w, increments[l]) for l, w in row])
            now = t0 + time
            increment = flux(y, now) if flux else None
            if increment is None:
                xi = dtn * _provider_q(q, y, now) / scale
                # (S y)_k = sum_o c_o y_{k-o}
                increment = xi * sum(c * _roll(y, o) for o, c in coeffs)
            increments.append(increment)
            stages.append(y)
        return stages, _stage_sum(u, [(w, increments[j]) for j, w in rows[-1]])
    return advance


def _step(p: SemiDiscreteProblem, t: ButcherTableau, dt: Number, u, t0: Number):
    """One step of state array u from a plan built for it alone: (stages, u_next)."""
    return _plan(p, t, dt, u)(u, t0)


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
    either arithmetic.  The state is exact (a RationalArray) when dt, dx
    and every u_k are ints or Fractions, float64 otherwise; the trace holds
    Fractions or floats.
    """
    if dt <= 0:
        raise PreconditionError("step size must be positive")
    x = _state(u) if _all_exact(dt, p.dx) else np.array(u, dtype=np.float64)
    stages, u1 = _step(p, t, dt, x, t0)
    return StepTrace(tuple(tuple(y.tolist()) for y in stages), tuple(u1.tolist()))


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
    return SemiDiscreteProblem(p.n, _float(p.dx), p.stencil, p.q_provider,
                               tuple(map(_float, p.u0)))


def _total(x) -> Number:
    """The sum of x's cells.  A float sum is added by Python in cell order,
    as the per-cell definition adds: np.sum adds pairwise and can change
    the last bit."""
    return x.sum() if isinstance(x, RationalArray) else sum(x.tolist())


def _extremes(u) -> tuple:
    """(least, greatest) cell of u, over one scale read from the numerators."""
    if isinstance(u, RationalArray) and u.scale:
        return tuple(Fraction(f(u._n.tolist()), u.scale) for f in (min, max))
    return min(u.tolist()), max(u.tolist())


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


# Cell-stage updates of one `run`, cells * steps * stages, checked before
# anything is stepped.  Whole `rkpos simulate --method erk22:1 --mode
# float` processes took 0.48 s for 2 M of them (1,000 cells, 1,000 steps)
# and 0.68 s for 4 M (100,000 cells, 20 steps); a rational koren run takes
# about 0.06 s for 19,200 (64 cells, 100 steps, 3 stages; 2-CPU Xeon), and
# the largest bench run has 120,000.
RUN_WORK = 1 << 22

# Cells a stage is charged at least: a stage costs about 0.13 ms of Python
# whatever the cell count (1 cell, erk22, 20,000 steps: 5.3 s).
STAGE_CELLS = 500


def check_work(cells: int, steps: int, stages: int) -> None:
    """Raise CapacityError if max(cells, STAGE_CELLS) * steps * stages > RUN_WORK."""
    work = max(cells, STAGE_CELLS) * steps * stages
    if work > RUN_WORK:
        raise CapacityError(
            f"{cells} cells (at least {STAGE_CELLS} charged), {steps} steps and {stages} "
            f"stages need {work} cell-stage updates, over the limit of {RUN_WORK}")


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
    subset of MONITORS.  A run over the work limit RUN_WORK raises
    CapacityError before the first step (`check_work`).
    """
    if dt <= 0:
        raise PreconditionError(
            "no positive step size certified for this problem"
        )
    if steps < 1:
        raise PreconditionError("need at least one step")
    check_work(p.n, steps, t.m)
    unknown = [name for name in monitors if name not in MONITORS]
    if unknown:
        raise InputError(
            f"unknown monitor {unknown[0]!r}; choose from {', '.join(MONITORS)}"
        )
    exact = _all_exact(dt, p.dx, *p.u0)
    if mode is None:
        mode = "rational" if exact else "float"
    if mode not in ("rational", "float"):
        raise InputError(f"unknown mode {mode!r}; choose rational or float")
    if mode == "rational" and not exact:
        raise InputError("rational mode needs int or Fraction initial data, "
                         "step size and grid spacing")
    if mode == "float":
        p, dt = _as_float(p), _float(dt)
    u = _state(p.u0)
    umin, umax = min(p.u0), max(p.u0)
    mins, maxs, tvs = [], [], []
    violation = None
    now = t_start if mode == "rational" else _float(t_start)
    advance = _plan(p, t, dt, u)
    for step in range(1, steps + 1):
        u = advance(u, now)[1]
        now = now + dt
        if isinstance(u, RationalArray) and u.den_longer_than(_RATIONAL_BIT_LIMIT):
            warnings.warn(
                "rational state size exceeded the practical limit; "
                "switching to float arithmetic", RuntimeWarning,
            )
            mode = "float"
            p, dt, now = _as_float(p), _float(dt), _float(now)
            u = np.array([_float(v) for v in u.tolist()])
            advance = _plan(p, t, dt, u)
        low, high = _extremes(u)
        mins.append(low)
        maxs.append(high)
        tvs.append(_total(np.abs(u - _roll(u, 1))))
        if violation is None:
            hit = _violation(u, monitors, umin, umax)
            if hit is not None:
                violation = (step, hit[0], u.tolist()[hit[0]], hit[1])
                if stop_on_violation:
                    break
    return RunReport(
        steps_run=step, mins=mins, maxs=maxs, tvs=tvs,
        first_violation=violation, final_state=tuple(u.tolist()), mode=mode,
        initial_range=(umin, umax),
    )
