"""Exception hierarchy shared across the package.

Argument misuse raises the built-in ``ValueError``/``TypeError``.  The classes
here cover failures of the *data* (inputs that are syntactically fine but
numerically inadmissible) and of the *numerics* (iterations or quadratures
that did not converge).  The CLI maps ValueError and TypeError to exit
code 2 and SmallBallError to exit code 3.
"""

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


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise TypeError unless value is an int or NumPy integer (not a
    bool), and ValueError if it is below minimum; both name the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
