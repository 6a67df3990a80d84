"""smallball: exact and asymptotic L2 small-ball probabilities for Gaussian
processes and their finite-dimensional perturbations."""

from . import asymptotics, durbin, errors, grids, kernels, perturbation, quadform, spectral
from .asymptotics import *  # noqa: F403
from .durbin import *  # noqa: F403
from .errors import *  # noqa: F403
from .grids import *  # noqa: F403
from .kernels import *  # noqa: F403
from .perturbation import *  # noqa: F403
from .quadform import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *asymptotics.__all__,
    *durbin.__all__,
    *errors.__all__,
    *grids.__all__,
    *kernels.__all__,
    *perturbation.__all__,
    *quadform.__all__,
    *spectral.__all__,
]
