"""Exception types shared across the package."""


class RkposError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(RkposError, ValueError):
    """A method-family parameter violates its validity domain."""


class CapacityError(RkposError):
    """Vertex tables would exceed their byte budget.

    A polynomial's vertex table has 2**|support| columns.  Above the budget
    (rkpos.multilinear.TABLE_BYTES) the exact vertex check is refused before
    anything is allocated; there is no sampling fallback.
    """


class PreconditionError(RkposError, ValueError):
    """An operation was called on inputs outside its stated hypotheses."""


class LimiterContractError(RkposError):
    """A limiter produced a negative advection coefficient.

    Signals a psi outside the 0 <= psi <= 1, 0 <= psi(t)/t <= mu contract.
    """


class InputError(RkposError, ValueError):
    """Malformed user input (missing variable values, bad shorthand, ...)."""
