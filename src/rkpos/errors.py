"""Exception types shared across the package, and `rational`, the one
converter of the exact numbers the public functions take."""

from fractions import Fraction


class RkposError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(RkposError, ValueError):
    """A method-family parameter violates its validity domain."""


class CapacityError(RkposError):
    """An input needs more than a documented limit, checked before the work.

    Vertex tables over their byte budget (rkpos.multilinear.TABLE_BYTES; a
    polynomial's table has (k + 1) * 2**(|support| - k) columns, k the size
    of its eliminated block), propagation polynomials with more terms than
    rkpos.polygen.TERMS, grids over GRID_POINTS and simulations over
    rkpos.molsim.RUN_WORK cell-stage updates (each stage charged at least
    rkpos.molsim.STAGE_CELLS cells) are refused before anything is
    allocated; there is no sampling fallback.
    """


class PreconditionError(RkposError, ValueError):
    """An operation was called on inputs outside its stated hypotheses."""


class LimiterContractError(RkposError):
    """A limiter produced a negative advection coefficient.

    Signals a psi outside the 0 <= psi <= 1, 0 <= psi(t)/t <= mu contract.
    """


class InputError(RkposError, ValueError):
    """Malformed user input (missing variable values, bad shorthand, ...)."""


def rational(x) -> Fraction:
    """x as a Fraction; a float, a bool or a non-number raises InputError."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise InputError(f"{type(x).__name__} {x!r} not accepted; pass an exact rational")
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"entry {x!r} is not a number: {exc}") from exc
