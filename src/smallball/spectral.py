"""Nystrom discretization of covariance operators.

The integral eigenproblem mu*u = G0 u on (0, 1) is discretized on a
quadrature grid as the symmetric matrix problem

    W^(1/2) M W^(1/2) v = mu v,        u(x_i) = v_i / sqrt(w_i),

which keeps the discrete eigenfunctions exactly orthonormal in the weighted
inner product.  ``nystrom_spectrum`` takes the eigenvalues from one
symmetric eigenvalue pass (``eigvalsh``); the eigenfunctions, which only
Fourier coefficients and ``smallball spectrum --eigvecs-out`` read, are
computed on first read of ``Spectrum.eigvecs``.

Catalog covariances have a derivative kink across the diagonal, which caps
plain Gauss-Legendre convergence at O(n^-2) and is far too slow for the
tolerances used downstream.  Because the kink of row i sits exactly at node
x_i, its effect on the quadrature is (J(x_i)/2) * u(x_i) * E_i, where E_i is
the known Gauss error of integrating |y - x_i|.  Adding the diagonal matrix
(J_i/2) E_i restores O(n^-4)-type accuracy while preserving symmetry.  The
plain, uncorrected rule is the spectrum of a sampled kernel without
``diag_jump``: ``nystrom_spectrum(sampled(grid, kernel_matrix(spec, grid)), grid, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .grids import Grid
from .kernels import PSD_TOL, KernelSpec, diagonal_jump, kernel_matrix

__all__ = [
    "Spectrum",
    "FourierCoeffs",
    "nystrom_spectrum",
    "fourier_coefficients",
    "kink_correction",
]

EIGENVALUE_FLOOR = 1e-13


@dataclass(frozen=True)
class Spectrum:
    """Leading eigenvalues and weighted-orthonormal eigenfunction samples.

    ``eigenvalues`` are non-increasing and strictly positive; values below
    EIGENVALUE_FLOOR * mu_1 are discarded at construction.  They come from
    one symmetric eigenvalue pass.  ``eigvecs`` has one column per retained
    eigenvalue, sampled at ``grid.nodes``; it is computed from ``kernel`` on
    first read (one full ``eigh``) and kept, so a spectrum that is only used
    for its eigenvalues never pays for eigenvectors.  ``truncation_count``
    is the number of retained eigenvalues.
    """

    eigenvalues: np.ndarray
    grid: Grid
    kernel: KernelSpec

    @property
    def truncation_count(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def eigvecs(self) -> np.ndarray:
        """Eigenfunction samples, one column per retained eigenvalue.

        Signs are fixed by making the first sample of magnitude above 1e-6
        of the column maximum positive, so repeated runs are reproducible.
        The floor keeps a prefix of the descending eigenvalues, so the
        retained eigenfunctions are the leading columns.
        """
        vecs = np.linalg.eigh(_weighted_matrix(self.kernel, self.grid))[1]
        u = vecs[:, ::-1][:, : self.truncation_count] / np.sqrt(self.grid.weights)[:, None]
        mag = np.abs(u)
        first = np.argmax(mag > 1e-6 * mag.max(axis=0), axis=0)
        u[:, u[first, np.arange(u.shape[1])] < 0] *= -1.0
        return u

    @property
    def inverse_eigenvalues(self) -> np.ndarray:
        """The operator eigenvalues lambda_k = 1 / mu_k."""
        return 1.0 / self.eigenvalues


@dataclass(frozen=True)
class FourierCoeffs:
    """Coefficients a[n, j] = <psi_j, u_n> in the weighted inner product."""

    a: np.ndarray
    spectrum: Spectrum


def kink_correction(jump: np.ndarray, grid: Grid) -> np.ndarray:
    """Diagonal correction (J_i/2) * E_i for a diagonal derivative jump.

    E_i is the exact quadrature error of the rule on |y - x_i|:
    sum_j w_j |x_j - x_i|  -  (x_i^2 - x_i + 1/2).

    The grid's nodes are increasing, so with C and S the running sums of
    w and x*w the quadrature sum is x_i (2 C_i - C_n) + S_n - 2 S_i, in O(n).
    """
    t, w = grid.nodes, grid.weights
    c, s = np.cumsum(w), np.cumsum(t * w)
    # c[-1:] and s[-1:] are the totals, and empty on an empty grid
    quad_abs = t * (2.0 * c - c[-1:]) + s[-1:] - 2.0 * s
    exact_abs = t * t - t + 0.5
    return 0.5 * jump * (quad_abs - exact_abs)


def _as_samples(funcs: np.ndarray, grid: Grid) -> np.ndarray:
    """Function samples as an (n, m) array with one function per column;
    a 1-d array is one function and an (m, n) array is transposed."""
    f = np.asarray(funcs, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.shape[0] != grid.size:
        if f.shape[1] == grid.size:
            f = f.T
        else:
            raise ValueError("function samples do not align with the grid")
    return f


def _operator_action(kernel: KernelSpec, mat: np.ndarray, funcs: np.ndarray, grid: Grid) -> np.ndarray:
    """int G(x_i, y) f(y) dy for each sampled f, by the weighted rule on the
    kernel matrix ``mat`` plus the kink correction of ``kernel``.

    ``mat`` is ``kernel``'s matrix or a perturbation of it that is smooth
    across the diagonal, so the kink is ``kernel``'s either way.
    """
    f = _as_samples(funcs, grid)
    action = np.asarray(mat, dtype=float) @ (grid.weights[:, None] * f)
    jump = diagonal_jump(kernel, grid.nodes)
    if jump is not None:
        action += kink_correction(jump, grid)[:, None] * f
    return action


def _weighted_matrix(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """W^(1/2) M W^(1/2) plus the kink diagonal: the symmetric matrix whose
    eigenpairs are the Nystrom eigenpairs of ``spec`` on ``grid``."""
    sqrt_w = np.sqrt(grid.weights)
    b = kernel_matrix(spec, grid)  # a new array, weighted in place
    b *= np.outer(sqrt_w, sqrt_w)
    jump = diagonal_jump(spec, grid.nodes)
    if jump is not None:
        b.flat[:: grid.size + 1] += kink_correction(jump, grid)
    return b


def nystrom_spectrum(spec: KernelSpec, grid: Grid, k_max: int) -> Spectrum:
    """Top eigenvalues of the covariance operator via weighted Nystrom.

    Only eigenvalues are computed here; ``Spectrum.eigvecs`` solves for the
    eigenfunctions when first read.  A sampled kernel whose matrix has an
    eigenvalue below -PSD_TOL times the largest is rejected.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > grid.size:
        raise ValueError(f"k_max={k_max} exceeds grid size {grid.size}")
    vals = np.linalg.eigvalsh(_weighted_matrix(spec, grid))[::-1]
    if spec.variant == "sampled" and vals[-1] < -PSD_TOL * max(vals[0], 0.0):
        raise DataError(
            f"sampled kernel is not positive semidefinite "
            f"(min eigenvalue {vals[-1]:.3e} vs max {vals[0]:.3e})"
        )
    vals = vals[:k_max]
    vals = vals[vals > EIGENVALUE_FLOOR * max(vals[0], 0.0)]
    return Spectrum(eigenvalues=vals, grid=grid, kernel=spec)


def fourier_coefficients(spectrum: Spectrum, funcs: np.ndarray) -> FourierCoeffs:
    """Coefficients of sampled functions against the eigenfunction basis.

    ``funcs`` holds one function per column, sampled on ``spectrum.grid``.
    """
    funcs = _as_samples(funcs, spectrum.grid)
    a = (spectrum.eigvecs * spectrum.grid.weights[:, None]).T @ funcs
    return FourierCoeffs(a=a, spectrum=spectrum)
