"""Exception hierarchy shared across the package.

Argument misuse raises the built-in ``ValueError``/``TypeError``.  The classes
here cover failures of the *data* (inputs that are syntactically fine but
numerically inadmissible) and of the *numerics* (iterations or quadratures
that did not converge).  The CLI maps ValueError and TypeError to exit
code 2 and SmallBallError to exit code 3.
"""

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
