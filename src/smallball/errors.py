"""Exception hierarchy shared across the package.

Argument misuse raises the built-in ``ValueError``/``TypeError``.  This module
is the one place where arguments are checked: every public scalar goes
through ``_check_real`` (or ``_check_positive``, built on it),
``_check_integer`` or ``_check_complex``, and every public array through
``_check_array``, each of which names it.  The
classes here cover failures of the *data* (inputs that are syntactically
fine but numerically inadmissible) and of the *numerics* (iterations or
quadratures that did not converge).  The CLI maps ValueError and TypeError
to exit code 2 and SmallBallError to exit code 3.
"""

import cmath
import math
import numbers
import sys

import numpy as np

__all__ = ["SmallBallError", "DataError", "NumericError", "ConsistencyError"]


class SmallBallError(Exception):
    """Base class for numeric and data failures."""


class DataError(SmallBallError):
    """Input data violates a mathematical precondition (non-PSD kernel,
    rank-deficient function family, indefinite Gram matrix)."""


class NumericError(SmallBallError):
    """A numerical procedure failed: non-convergent quadrature, divergent
    eigenvalue product, unsolvable saddle equation, query at a pole."""


class ConsistencyError(SmallBallError):
    """A cross-validation step disagreed beyond its tolerance."""


def _check_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite float, in (0, inf) if ``positive``: TypeError
    unless it is a real number (not a bool), ValueError outside the double
    range (as for an int such as 10**400) or, if ``positive``, at or below 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__} {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or (positive and x <= 0):
        raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite, got {value!r}")
    return x


def _check_positive(name: str, value) -> float:
    """``value`` as a float in (0, inf), checked by ``_check_real``."""
    return _check_real(name, value, positive=True)


def _check_complex(name: str, value) -> complex:
    """``value`` as a finite complex: TypeError unless it is a number (not a
    bool or a string), ValueError unless both parts are finite doubles."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise TypeError(f"{name} must be a number, got {type(value).__name__} {value!r}")
    try:
        z = complex(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {value!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise TypeError unless value is an int or NumPy integer (not a bool),
    and ValueError outside [minimum, double max]; both name the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")
    if not minimum <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be an integer >= {minimum} within the double range, got {value}")


def _check_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, a None entry being any
    length >= 1; a float64 array comes back as it is, not copied.  TypeError
    unless every entry is a real number (not a bool), ValueError for a ragged
    value, an entry beyond the double range, another shape (so an empty
    array) or a non-finite entry; each message names the argument."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        arr = value.astype(float, copy=False)
    else:
        ragged = f"{name} must be a rectangular array, got a ragged one"
        try:
            arr = np.asarray(value, dtype=object)
        except ValueError:  # nested arrays of different shapes
            raise ValueError(ragged) from None
        # reshape, not .flat, whose iterator stops at 32 dimensions of 64
        for v in arr.reshape(-1):
            if isinstance(v, (list, tuple, np.ndarray)):
                raise ValueError(ragged)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError(f"{name} must be an array of numbers, got {type(v).__name__} {v!r} in it")
        try:
            arr = arr.astype(float)
        except OverflowError:
            raise ValueError(f"{name} must be an array of numbers within the double range") from None
    if arr.ndim != len(shape) or arr.size == 0 or any(s not in (None, d) for s, d in zip(shape, arr.shape)):
        want = str(tuple("any" if s is None else s for s in shape)).replace("'", "")
        raise ValueError(f"{name} must be a non-empty array of shape {want}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr
