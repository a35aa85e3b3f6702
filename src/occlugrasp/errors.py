"""Exception types shared across the toolkit, and the checks that raise `InputError`.

Constructors and loaders turn outside values into numbers through `_finite_array`,
`_finite_real` and `_integer`, and the checks built on the last two. A bool or a
bool array is not a number, not even in a list of numbers that NumPy promotes; NaN
and infinity are refused, and an array is copied into a new read-only float64
array, so no caller's array can change a value that holds it.
"""

import math
import numbers

import numpy as np


class InputError(ValueError):
    """Caller handed an argument that violates an operation's precondition."""


class GenerationError(RuntimeError):
    """Scene or dataset generation could not satisfy its constraints."""


class MeasurementError(RuntimeError):
    """A measurement (e.g. occlusion level) is undefined for the given frames."""


def _finite_array(value, shape: tuple, what: str) -> np.ndarray:
    """`value` as a new read-only float64 array of `shape`, where -1 matches
    any length; anything else raises `InputError` that starts with `what`."""
    try:
        a = np.array(value)
    except (TypeError, ValueError) as exc:  # ragged
        raise InputError(f"{what}: {exc}") from exc
    if a.dtype.kind not in "iuf":  # bools, strings, objects and complex numbers
        problem = f"dtype {a.dtype}"
    elif isinstance(value, (list, tuple)) and _holds_bool(value):  # NumPy promotes a bool among numbers
        problem = "a bool"
    elif a.ndim != len(shape) or any(n not in (-1, m) for n, m in zip(shape, a.shape)):
        problem = f"shape {a.shape}"
    else:
        a = a.astype(np.float64, copy=False)
        if np.isfinite(a).all():
            a.flags.writeable = False
            return a
        problem = "a value that is not finite"
    raise InputError(f"{what}, got {problem}")


def _holds_bool(items) -> bool:
    """Whether a list or tuple holds a bool, an `np.bool_` or a bool array at any depth; floats are skipped first."""
    return any(isinstance(x, (bool, np.bool_)) or isinstance(x, np.ndarray) and x.dtype.kind == "b"
               or isinstance(x, (list, tuple)) and _holds_bool(x) for x in items if type(x) is not float)


def _finite_real(x) -> bool:
    """Whether `x` is a finite real number, not a bool; float and int are tested before the slower ABC."""
    return isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool) and math.isfinite(x)


def _integer(x) -> bool:
    """Whether `x` is an integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite_positive(x) -> bool:
    """Whether `x` is a finite real number > 0."""
    return _finite_real(x) and x > 0


def _finite_non_negative(x) -> bool:
    """Whether `x` is a finite real number >= 0."""
    return _finite_real(x) and x >= 0


def _positive_int(x) -> bool:
    """Whether `x` is an integer > 0."""
    return _integer(x) and x > 0


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
    """`seed` as an int; one that is not a non-negative integer raises `InputError`."""
    if not (_integer(seed) and seed >= 0):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _rng(seed, *key: int) -> np.random.Generator:
    """The generator of `seed` and spawn `key`: the toolkit's one way from a seed to random numbers."""
    return np.random.default_rng(np.random.SeedSequence(_seed(seed), spawn_key=key))
