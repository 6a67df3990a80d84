"""Nystrom discretization of covariance operators.

The integral eigenproblem mu*u = G0 u on (0, 1) is discretized on a
quadrature grid as the symmetric matrix problem

    W^(1/2) M W^(1/2) v = mu v,        u(x_i) = v_i / sqrt(w_i),

which keeps the discrete eigenfunctions exactly orthonormal in the weighted
inner product.  ``nystrom_spectrum`` takes the eigenvalues from symmetric
eigenvalue passes (``eigvalsh``); the eigenfunctions, which only Fourier
coefficients and ``smallball spectrum --eigvecs-out`` read, are computed on
first read of ``Spectrum.eigvecs``.

The Gauss-Legendre grid is its own reflection under t -> 1 - t, so a kernel
with the same symmetry (bridge, OU, the critical bridge perturbations, the
normal-family Durbin limits) gives a matrix B with J B J = B, J the index
reversal.  Such a B splits exactly into an even and an odd half-size block
(Cantoni & Butler 1976), and its eigenvalues come from two half-size
passes.  The split drops the coupling block F that rounding leaves between
the halves, and is taken only when ||F||_F <= tau ||B||_F; by Weyl's
inequality that moves each eigenvalue by at most tau ||B||_F.  Any other
matrix gets one full pass.

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

from .errors import DataError, NumericError, _check_integer
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
# tau = REFLECTION_TOL * n bounds ||F||_F / ||B||_F for the split of a
# reflection-symmetric Nystrom matrix B (see _eigenvalues).  The measured
# ratio grows about linearly in n; at n = 2000 it is 4.0e-13 for perturbed
# bridges and 4.4e-12 for OU with alpha = 50, against tau = 2.8e-11.
REFLECTION_TOL = 64 * np.finfo(float).eps
_ROW_BLOCK = 64


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
    # the products sqrt_w[i] * sqrt_w[j] of the full outer product, one row
    # block at a time so that no second n x n array is made
    for lo in range(0, grid.size, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        b[rows] *= np.outer(sqrt_w[rows], sqrt_w)
    jump = diagonal_jump(spec, grid.nodes)
    if jump is not None:
        b.flat[:: grid.size + 1] += kink_correction(jump, grid)
    return b


def _eigenvalues(b: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric matrix b, ascending.

    With J the index reversal and h = n // 2, the orthogonal matrix
    Q = [[I, I], [J, -J]] / sqrt(2) (for odd n with the middle unit vector
    between the halves) brings b to [[E, F], [F^T, O]], where

        E = (A + C + C^T + D) / 2,   O = (A - C - C^T + D) / 2,
        F = (A - C + C^T - D) / 2,

    A = b[:h, :h], C = b[:h, n-h:] J, C^T = J b[n-h:, :h] and
    D = J b[n-h:, n-h:] J.  For odd n, E also holds the middle row and
    column of b, folded and scaled by 1/sqrt(2), with b[h, h] as its
    corner, and F the middle row's odd part.  A reflection-symmetric b
    (J b J = b) has F = 0, and its eigenvalues are those of E and O, two
    half-size problems.  The split is taken when
    ||F||_F <= tau ||b||_F with tau = REFLECTION_TOL * n; by Weyl's
    inequality dropping F then moves each eigenvalue by at most
    ||F||_2 <= tau ||b||_F.  Any other b goes to one full ``eigvalsh``.
    """
    n = b.shape[0]
    h, m = n // 2, n - n // 2
    tau = REFLECTION_TOL * n
    diag = np.diagonal(b)
    # |F_ii| = |d_i - d_(n-1-i)| / 2, and ||b||_F <= n max|d| when b is
    # positive semidefinite: a wider diagonal gap rules the split out in O(n)
    if h == 0 or np.abs(diag - diag[::-1]).max() > 2.0 * tau * n * np.abs(diag).max():
        return np.linalg.eigvalsh(b)
    a, c = b[:h, :h], b[:h, m:][:, ::-1]
    ct, d = b[m:, :h][::-1], b[m:, m:][::-1, ::-1]
    # three half-size arrays: odd holds A + D and t holds C + C^T until
    # each is reduced in place
    odd, t = a + d, c + ct
    even = np.empty((m, m))
    np.add(odd, t, out=even[:h, :h])
    even[:h, :h] *= 0.5
    odd -= t
    odd *= 0.5
    np.subtract(a, d, out=t)
    t -= c
    t += ct  # 2 F
    f2 = 0.25 * np.vdot(t, t)
    if m > h:
        mid, mid_rev = b[h, :h], b[h, m:][::-1]
        even[h, :h] = even[:h, h] = (mid + mid_rev) / np.sqrt(2.0)
        even[h, h] = b[h, h]
        f2 += 0.5 * np.vdot(mid - mid_rev, mid - mid_rev)
    # Q is orthogonal, so ||b||_F^2 = ||E||_F^2 + ||O||_F^2 + 2 ||F||_F^2
    if f2 > tau * tau * (np.vdot(even, even) + np.vdot(odd, odd) + 2.0 * f2):
        return np.linalg.eigvalsh(b)
    return np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd))))


def nystrom_spectrum(spec: KernelSpec, grid: Grid, k_max: int) -> Spectrum:
    """Top eigenvalues of the covariance operator via weighted Nystrom.

    Only eigenvalues are computed here, by ``_eigenvalues``: two half-size
    passes when the weighted matrix is reflection-symmetric, one full pass
    otherwise.  ``Spectrum.eigvecs`` solves for the eigenfunctions when
    first read.  A matrix with an eigenvalue below -PSD_TOL times the
    largest is rejected: for a sampled kernel the data are at fault
    (DataError); for a catalog kernel the grid is too coarse for it, as
    when the OU kink diagonal swamps the kernel at alpha * h >> 1 with h the
    node spacing (NumericError).
    """
    _check_integer("k_max", k_max, 1)
    if k_max > grid.size:
        raise ValueError(f"k_max={k_max} exceeds grid size {grid.size}")
    vals = _eigenvalues(_weighted_matrix(spec, grid))[::-1]
    if vals[-1] < -PSD_TOL * max(vals[0], 0.0):
        spread = f"min eigenvalue {vals[-1]:.3e} vs max {vals[0]:.3e}"
        if spec.variant == "sampled":
            raise DataError(f"sampled kernel is not positive semidefinite ({spread})")
        rate = "" if spec.alpha is None else f" with alpha={spec.alpha:g}"
        raise NumericError(
            f"the {spec.variant} kernel{rate} is under-resolved on n={grid.size} nodes: "
            f"its Nystrom matrix is not positive semidefinite ({spread}); use more nodes"
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
