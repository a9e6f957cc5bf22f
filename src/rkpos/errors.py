"""Exception types shared across the package, and `rational`, the one
converter of the exact numbers the public functions take."""

from fractions import Fraction

# Digits that number text may give a numerator, and places a denominator.
TEXT_DIGITS = 1000


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
    """x as a Fraction; a float, a bool, a non-number, or text whose numerator
    has over TEXT_DIGITS digits ("1e1000") or denominator over TEXT_DIGITS
    digits (10**k counts as k: "1e-1001"), raises InputError unbuilt."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise InputError(f"{type(x).__name__} {x!r} not accepted; pass an exact rational")
    try:
        if isinstance(x, str) and _text_digits(x) > TEXT_DIGITS:
            raise ValueError(f"numerator or denominator over {TEXT_DIGITS} digits")
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"entry {x!r} is not a number: {exc}") from exc


def _text_digits(text: str) -> int:
    """Digits of text's numerator or denominator, as `rational` counts them,
    in one linear scan; Fraction refuses a part that is not a number."""
    most = 0
    for part in text.split("/"):
        mantissa, _, exp = part.strip().replace("_", "").replace("E", "e").partition("e")
        whole, _, places = mantissa.lstrip("+-").partition(".")
        try:
            shift = int(exp or 0) - len(places)
        except ValueError:
            continue
        most = max(most, len((whole + places).lstrip("0")) + shift, -shift)
    return most
