"""Exception types shared across the toolkit, and the checks that callers
use to raise `InputError`: a positive or a non-negative number, a positive integer, a type, the
type of each item of a list, and a seed."""

import math
import numbers

import numpy as np


class InputError(ValueError):
    """Caller handed an argument that violates an operation's precondition."""


class GenerationError(RuntimeError):
    """Scene or dataset generation could not satisfy its constraints."""


class MeasurementError(RuntimeError):
    """A measurement (e.g. occlusion level) is undefined for the given frames."""


def _finite_positive(x) -> bool:
    """Whether `x` is a real number, not a bool, that is finite and > 0."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x) and x > 0


def _finite_non_negative(x) -> bool:
    """Whether `x` is a real number, not a bool, that is finite and >= 0."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x) and x >= 0


def _positive_int(x) -> bool:
    """Whether `x` is an integer, not a bool, that is > 0."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x > 0


def _check_type(value, cls: type, name: str) -> None:
    """Raise `InputError` unless `value` is a `cls`."""
    if not isinstance(value, cls):
        raise InputError(f"{name} must be a {cls.__name__}, got {value!r}")


def _check_items(values, cls: type, name: str) -> None:
    """Raise `InputError` unless `values` is a list or a tuple of `cls`."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"{name} must be a list, got {values!r}")
    for value in values:
        if not isinstance(value, cls):
            raise InputError(f"each of {name} must be a {cls.__name__}, got {value!r}")


def _seed(seed) -> int:
    """`seed` as an int; one that is not a non-negative integer (bools are not) raises `InputError`."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _rng(seed, *key: int) -> np.random.Generator:
    """The generator of `seed` and spawn `key`: the toolkit's one way from a seed to random numbers."""
    return np.random.default_rng(np.random.SeedSequence(_seed(seed), spawn_key=key))
