"""Exception hierarchy shared by all modules, and the one step-restriction guard."""

import math
from typing import Callable, NamedTuple, Sequence


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


class StepRestriction(NamedTuple):
    """A step-restriction number: number(n) on n steps, its sampled coefficients
    held, must not exceed limit.  what names it, {} where "value > 1" goes;
    steps is the count its own dt scaling passes at (None: n * number(n))."""

    what: str
    number: Callable[[int], float]
    steps: float | None = None
    limit: float = 1.0
    digits: int = 3  # the least significant digits its value prints with


def check_step_restrictions(restrictions: Sequence[StepRestriction], n_steps: int,
                            multiple: int = 1) -> None:
    """StabilityError naming the first restriction over its limit on n_steps, in the
    digits it takes to read above it, and the least multiple of multiple at which all
    pass: the largest failing own count, rounded up to a multiple, then stepped."""
    failed = [(r, v) for r in restrictions if (v := r.number(n_steps)) > r.limit]  # NaN passes
    if not failed:
        return

    def passes(n: int) -> bool:
        return all(not r.number(n) > r.limit for r in restrictions)

    count = max(n_steps * v if r.steps is None else r.steps for r, v in failed)
    fix = "the n_steps that passes overflows"
    if math.isfinite(count):
        count = max(multiple, math.ceil(count / multiple) * multiple)
        while count < 2**40 and not passes(count):  # above, a step moves a number by round-off
            count += multiple
        while multiple < count < 2**40 and passes(count - multiple):
            count -= multiple
        fix = f"raise n_steps to at least {count}"
    first, value = failed[0]
    digits = first.digits
    while not float(f"{value:.{digits}g}") > first.limit:
        digits += 1
    raise StabilityError(first.what.format(f"{value:.{digits}g} > 1") + f"; {fix}")


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
