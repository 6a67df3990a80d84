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

Every use of B (the eigenvalue passes, the eigenfunctions, psi = G0 phi,
the annihilation check) goes through one ``_Discretization`` per (kernel,
grid), which keeps only W^(1/2) and the kink diagonal and reads the
kernel's rows one block at a time.  The split forms its half-size blocks
from row blocks of B; only the full pass and the eigenfunctions build B.

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

from .errors import DataError, NumericError, _check_array, _check_integer
from .grids import Grid
from .kernels import PSD_TOL, ROW_BLOCK, KernelSpec, _check_grid, _kernel_diagonal, _kernel_rows, diagonal_jump

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


@dataclass(frozen=True, eq=False)
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
        op = _Discretization(self.kernel, self.grid)
        vecs = np.linalg.eigh(op.matrix())[1]
        u = vecs[:, ::-1][:, : self.truncation_count] / op.sqrt_w[:, None]
        mag = np.abs(u)
        first = np.argmax(mag > 1e-6 * mag.max(axis=0), axis=0)
        u[:, u[first, np.arange(u.shape[1])] < 0] *= -1.0
        return u

    @property
    def inverse_eigenvalues(self) -> np.ndarray:
        """The operator eigenvalues lambda_k = 1 / mu_k."""
        return 1.0 / self.eigenvalues


@dataclass(frozen=True, eq=False)
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
    quad_abs = t * (2.0 * c - c[-1]) + s[-1] - 2.0 * s
    exact_abs = t * t - t + 0.5
    return 0.5 * jump * (quad_abs - exact_abs)


def _as_samples(name: str, funcs: np.ndarray, n: int) -> np.ndarray:
    """Function samples, checked by ``_check_array``, as an (n, m) array with
    one function per column; a 1-d array is one function."""
    # a nested list is read as objects, so a ragged one reaches the check
    ndim = funcs.ndim if isinstance(funcs, np.ndarray) else np.asarray(funcs, dtype=object).ndim
    f = _check_array(name, funcs, (n, None) if ndim > 1 else (n,))
    return f[:, None] if f.ndim == 1 else f


class _Discretization:
    """The Nystrom operator of ``kernel`` on ``grid``: B = W^(1/2) M W^(1/2)
    plus the kink diagonal, M the kernel matrix.  The grid is checked once;
    only W^(1/2) and the kink diagonal (None without jump data) are kept,
    and the kernel's rows are read one block at a time wherever B is formed
    or applied.
    """

    def __init__(self, kernel: KernelSpec, grid: Grid):
        _check_grid(kernel, grid)
        self.kernel, self.grid = kernel, grid
        self.sqrt_w = np.sqrt(grid.weights)
        jump = diagonal_jump(kernel, grid.nodes)
        self.kink = None if jump is None else kink_correction(jump, grid)

    def rows(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows lo:hi of B, written into ``out`` one row block at a time:
        each entry is M_ij * (sqrt_w_i * sqrt_w_j), and each diagonal entry
        then gains its kink term."""
        for start in range(lo, hi, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, hi)
            block = out[start - lo : stop - lo]
            rows = _kernel_rows(self.kernel, self.grid, start, stop, block)
            np.multiply(rows, np.outer(self.sqrt_w[start:stop], self.sqrt_w), out=block)
            if self.kink is not None:
                i = np.arange(stop - start)
                block[i, start + i] += self.kink[start:stop]
        return out

    def matrix(self) -> np.ndarray:
        """B as one new array."""
        n = self.grid.size
        return self.rows(0, n, np.empty((n, n)))

    def diagonal(self) -> np.ndarray:
        """The diagonal of B, bit for bit, in O(n)."""
        diag = _kernel_diagonal(self.kernel, self.grid) * (self.sqrt_w * self.sqrt_w)
        if self.kink is not None:
            diag += self.kink
        return diag

    def apply(self, f: np.ndarray, mat: np.ndarray | None = None) -> np.ndarray:
        """int G(x_i, y) f(y) dy for each column f of ``f``, (n, m) samples
        as ``_as_samples`` returns them, by the weighted rule plus the kink
        correction.  The rule runs on the kernel's rows, one block at a
        time, or on ``mat``: a dense perturbation of the kernel's matrix
        that is smooth across the diagonal, so its kink is the kernel's.
        """
        wf = self.grid.weights[:, None] * f
        if mat is not None:
            action = np.asarray(mat, dtype=float) @ wf
        else:
            n = self.grid.size
            action = np.empty_like(wf)
            buf = np.empty((min(ROW_BLOCK, n), n))
            for lo in range(0, n, ROW_BLOCK):
                rows = _kernel_rows(self.kernel, self.grid, lo, lo + ROW_BLOCK, buf[: min(ROW_BLOCK, n - lo)])
                np.matmul(rows, wf, out=action[lo : lo + ROW_BLOCK])
        if self.kink is not None:
            action += self.kink[:, None] * f
        return action


def _eigenvalues(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """All eigenvalues of B = W^(1/2) M W^(1/2) plus the kink diagonal,
    ascending.

    With J the index reversal and h = n // 2, the orthogonal matrix
    Q = [[I, I], [J, -J]] / sqrt(2) (for odd n with the middle unit vector
    between the halves) brings B to [[E, F], [F^T, O]], where

        E = (A + C + C^T + D) / 2,   O = (A - C - C^T + D) / 2,
        F = (A - C + C^T - D) / 2,

    A = B[:h, :h], C = B[:h, n-h:] J, C^T = J B[n-h:, :h] and
    D = J B[n-h:, n-h:] J.  For odd n, E also holds the middle row and
    column of B, folded and scaled by 1/sqrt(2), with B[h, h] as its
    corner, and F the middle row's odd part.  A reflection-symmetric B
    (J B J = B) has F = 0, and its eigenvalues are those of E and O, two
    half-size problems.  The split is taken when
    ||F||_F <= tau ||B||_F with tau = REFLECTION_TOL * n; by Weyl's
    inequality dropping F then moves each eigenvalue by at most
    ||F||_2 <= tau ||B||_F.  Any other B goes to one full ``eigvalsh``.

    B itself is built only for that full pass.  The split reads rows i and
    n-1-i of B together, one row block of each at a time, from
    ``_Discretization.rows``; E, O and ||F||_F are formed from them, with
    the entries of E and O equal bit for bit to those the formulas give on
    the full B.
    """
    n = grid.size
    h, m = n // 2, n - n // 2
    tau = REFLECTION_TOL * n
    op = _Discretization(spec, grid)
    diag = op.diagonal()
    # |F_ii| = |d_i - d_(n-1-i)| / 2, and ||B||_F <= n max|d| when B is
    # positive semidefinite: a wider diagonal gap rules the split out in O(n)
    if h == 0 or np.abs(diag - diag[::-1]).max() > 2.0 * tau * n * np.abs(diag).max():
        return np.linalg.eigvalsh(op.matrix())
    even, odd = np.empty((m, m)), np.empty((h, h))
    top, bottom = np.empty((min(ROW_BLOCK, h), n)), np.empty((min(ROW_BLOCK, h), n))
    t = np.empty((min(ROW_BLOCK, h), h))
    f2 = 0.0
    for lo in range(0, h, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, h)
        k = hi - lo
        # rows lo:hi of B, and rows n-1-lo down to n-hi
        upper = op.rows(lo, hi, top[:k])
        lower = op.rows(n - hi, n - lo, bottom[:k])[::-1]
        a, c = upper[:, :h], upper[:, m:][:, ::-1]
        ct, d = lower[:, :h], lower[:, m:][:, ::-1]
        # odd holds A + D and t holds C + C^T until each is reduced in place
        o, tk, e = odd[lo:hi], t[:k], even[lo:hi, :h]
        np.add(a, d, out=o)
        np.add(c, ct, out=tk)
        np.add(o, tk, out=e)
        e *= 0.5
        o -= tk
        o *= 0.5
        np.subtract(a, d, out=tk)
        tk -= c
        tk += ct  # 2 F
        f2 += 0.25 * np.vdot(tk, tk)
    if m > h:
        row = op.rows(h, m, top[:1])[0]
        mid, mid_rev = row[:h], row[m:][::-1]
        even[h, :h] = even[:h, h] = (mid + mid_rev) / np.sqrt(2.0)
        even[h, h] = row[h]
        f2 += 0.5 * np.vdot(mid - mid_rev, mid - mid_rev)
    # Q is orthogonal, so ||B||_F^2 = ||E||_F^2 + ||O||_F^2 + 2 ||F||_F^2
    if f2 > tau * tau * (np.vdot(even, even) + np.vdot(odd, odd) + 2.0 * f2):
        del even, odd
        return np.linalg.eigvalsh(op.matrix())
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
    vals = _eigenvalues(spec, grid)[::-1]
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
    funcs = _as_samples("funcs", funcs, spectrum.grid.size)
    a = (spectrum.eigvecs * spectrum.grid.weights[:, None]).T @ funcs
    return FourierCoeffs(a=a, spectrum=spectrum)
