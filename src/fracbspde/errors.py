"""Exception hierarchy shared by all modules."""


class FracBspdeError(Exception):
    """Base class for all library-specific errors."""


class InvalidExponent(FracBspdeError):
    """Exponent outside its admissible range (Holder beta, norm order)."""


class EmptyEnsemble(FracBspdeError):
    """An ensemble reduction was requested on zero paths."""


class GridMismatch(FracBspdeError):
    """Operands live on different grids."""


class OutOfRange(FracBspdeError):
    """Parameter outside the supported range (e.g. fractional order alpha)."""


class ResolutionError(FracBspdeError):
    """Quadrature configuration finer than the grid can support."""


class OffGridTime(FracBspdeError):
    """Requested time is not a node of the solver's time grid."""


class MalformedInput(FracBspdeError):
    """Input file whose layout or grid is not the documented one."""


class OrderViolation(FracBspdeError):
    """Time arguments out of order (requires s < t)."""


class PositivityViolation(FracBspdeError):
    """A quantity that must be positive is not (diffusivity, kernel scale)."""


class UnsupportedOrder(FracBspdeError):
    """Derivative order outside the implemented set."""


class StabilityError(FracBspdeError):
    """Explicit part of a time stepper violates its stability restriction."""


class UnsupportedSpec(FracBspdeError):
    """Randomness descriptor outside the supported class."""


class IllConditioned(FracBspdeError):
    """Regression design matrix too ill-conditioned to trust."""


class BlowUp(FracBspdeError):
    """Solution norm exceeded the blow-up guard (step size too large)."""


class BudgetExceeded(FracBspdeError):
    """Enumeration budget exceeded (brute-force policy search)."""


class ConfigError(FracBspdeError):
    """Invalid run configuration; carries the offending key path."""

    def __init__(self, message: str, key_path: str = ""):
        super().__init__(message)
        self.key_path = key_path
