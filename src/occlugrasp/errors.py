"""Exception types shared across the toolkit, and the number check that
callers use to raise `InputError`."""

import math
import numbers


class InputError(ValueError):
    """Caller handed an argument that violates an operation's precondition."""


class GenerationError(RuntimeError):
    """Scene or dataset generation could not satisfy its constraints."""


class MeasurementError(RuntimeError):
    """A measurement (e.g. occlusion level) is undefined for the given frames."""


def _finite_positive(x) -> bool:
    """Whether `x` is a real number, not a bool, that is finite and > 0."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x) and x > 0
