"""Exception hierarchy shared across the package.

Argument misuse raises the built-in ``ValueError``/``TypeError``.  This module
is the one place where scalar arguments are checked: every public scalar goes
through ``_check_positive`` or ``_check_integer``, which name it.  The classes
here cover failures of the *data* (inputs that are syntactically fine but
numerically inadmissible) and of the *numerics* (iterations or quadratures
that did not converge).  The CLI maps ValueError and TypeError to exit
code 2 and SmallBallError to exit code 3.
"""

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


def _check_positive(name: str, value) -> float:
    """``value`` as a float in (0, inf): TypeError unless it is a real number
    (not a bool), ValueError unless it is positive and within the double range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__} {value!r}")
    if not 0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise TypeError unless value is an int or NumPy integer (not a bool),
    and ValueError outside [minimum, double max]; both name the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")
    if not minimum <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be an integer >= {minimum} within the double range, got {value}")
