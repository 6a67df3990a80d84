"""Covariance kernels on the unit interval.

A :class:`KernelSpec` is either a catalog kernel (Wiener ``min(s,t)``,
Brownian bridge ``min(s,t) - st``, Ornstein-Uhlenbeck ``exp(-alpha|s-t|)``)
or a symmetric matrix sampled on a quadrature grid.

Catalog kernels are smooth off the diagonal but their normal derivative
jumps across it.  That jump value (1 for Wiener and bridge, 2*alpha for OU)
drives the diagonal quadrature correction used by the spectral solver, so
the spec object carries it alongside the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, _check_array, _check_integer, _check_positive
from .grids import Grid

__all__ = [
    "KernelSpec",
    "wiener",
    "bridge",
    "ornstein_uhlenbeck",
    "sampled",
    "kernel_eval",
    "kernel_matrix",
    "diagonal_jump",
]

PSD_TOL = 1e-10
# rows per block wherever an n x n kernel array is built or applied
ROW_BLOCK = 64

_CATALOG = ("wiener", "bridge", "ornstein_uhlenbeck", "sampled")


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Descriptor of a covariance kernel G0(x, y) on [0, 1].

    ``green_order`` is user-declared metadata: the half-order l of the
    differential operator whose Green function the kernel is, when known.
    It is never derived from the kernel itself.
    """

    variant: str
    alpha: float | None = None
    green_order: int | None = None
    grid: Grid | None = None
    matrix: np.ndarray | None = None
    diag_jump: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.variant not in _CATALOG:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "ornstein_uhlenbeck":
            alpha = _check_positive("ornstein_uhlenbeck finite rate alpha", self.alpha)
            if alpha > 0.5 * np.finfo(float).max:
                raise ValueError(f"ornstein_uhlenbeck needs a rate alpha whose jump 2*alpha is finite, got {alpha!r}")
            object.__setattr__(self, "alpha", alpha)
        if self.green_order is not None:
            _check_integer("green_order", self.green_order, 1)
        if self.variant == "sampled":
            if self.grid is None or self.matrix is None:
                raise ValueError("sampled kernel needs a grid and a matrix")
            n = self.grid.size
            m = _check_array("matrix", self.matrix, (n, n))
            if self.diag_jump is not None:
                object.__setattr__(self, "diag_jump", _check_array("diag_jump", self.diag_jump, (n,)))
            if np.array_equal(m, m.T):
                # a read-only array that owns its data cannot change under
                # the spec, so it is kept; anything else is copied
                if m.flags.writeable or not m.flags.owndata:
                    m = m.copy()
            elif np.abs(m - m.T).max() > 1e-10 * max(1.0, np.abs(m).max()):
                raise DataError("sampled kernel matrix is not symmetric")
            else:
                m = 0.5 * (m + m.T)
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)


def wiener() -> KernelSpec:
    """Standard Wiener process covariance min(s, t)."""
    return KernelSpec(variant="wiener", green_order=1)


def bridge() -> KernelSpec:
    """Brownian bridge covariance min(s, t) - st."""
    return KernelSpec(variant="bridge", green_order=1)


def ornstein_uhlenbeck(alpha: float) -> KernelSpec:
    """Stationary OU covariance exp(-alpha |s - t|), unit variance."""
    return KernelSpec(variant="ornstein_uhlenbeck", alpha=alpha)


def sampled(
    grid: Grid,
    matrix: np.ndarray,
    diag_jump: np.ndarray | None = None,
    green_order: int | None = None,
) -> KernelSpec:
    """Kernel given by its values on a grid.

    ``diag_jump`` optionally supplies the diagonal derivative jump at each
    node so the spectral solver can apply its kink correction; leave it None
    for kernels smooth across the diagonal.

    The spec's ``matrix`` is read-only.  An exactly symmetric float64 input
    that is read-only and owns its data, such as ``perturbed_kernel``
    returns, is kept as it is and shared with the caller; any other input
    is copied (or symmetrized into a new array).
    """
    return KernelSpec(
        variant="sampled",
        grid=grid,
        matrix=matrix,
        diag_jump=diag_jump,
        green_order=green_order,
    )


def _eval_grid(spec: KernelSpec, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """G0 on the broadcast of x and y, written into ``out``."""
    if spec.variant == "wiener":
        return np.minimum(x, y, out=out)
    if spec.variant == "bridge":
        np.minimum(x, y, out=out)
        out -= x * y
        return out
    if spec.variant == "ornstein_uhlenbeck":
        np.subtract(x, y, out=out)
        np.abs(out, out=out)
        out *= -spec.alpha
        return np.exp(out, out=out)
    raise AssertionError(spec.variant)


def _sampled_index(spec: KernelSpec, value: float) -> int:
    idx = int(np.argmin(np.abs(spec.grid.nodes - value)))
    if abs(spec.grid.nodes[idx] - value) > 1e-12:
        raise ValueError(f"point {value} is not a node of the sampled kernel grid")
    return idx


def kernel_eval(spec: KernelSpec, x: float, y: float) -> float:
    """Evaluate G0(x, y) for x, y in [0, 1].

    Sampled kernels can only be queried at their own grid nodes.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"coordinates must lie in [0, 1], got ({x}, {y})")
    if spec.variant == "sampled":
        return float(spec.matrix[_sampled_index(spec, x), _sampled_index(spec, y)])
    return float(_eval_grid(spec, np.float64(x), np.float64(y), np.empty(())))


def _check_grid(spec: KernelSpec, grid: Grid) -> None:
    """Reject a grid other than a sampled kernel's own."""
    if spec.variant == "sampled" and not spec.grid.same_nodes(grid, tol=1e-12):
        raise ValueError("sampled kernel can only be evaluated on its own grid")


def _kernel_rows(spec: KernelSpec, grid: Grid, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Rows lo:hi of ``kernel_matrix(spec, grid)``, bit for bit, for reading
    only: a view of a sampled kernel's matrix, or ``out`` ((hi - lo) x n)
    filled with a catalog kernel's values.  The caller checks the grid with
    ``_check_grid`` once."""
    if spec.variant == "sampled":
        return spec.matrix[lo:hi]
    return _eval_grid(spec, grid.nodes[lo:hi, None], grid.nodes[None, :], out)


def _kernel_diagonal(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """The diagonal of ``kernel_matrix(spec, grid)``, bit for bit, in O(n)."""
    if spec.variant == "sampled":
        return np.diagonal(spec.matrix)
    return _eval_grid(spec, grid.nodes, grid.nodes, np.empty(grid.size))


def kernel_matrix(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """Kernel values on the tensor grid, exactly symmetric: catalog kernels
    are symmetric expressions and a sampled matrix is symmetrized when its
    spec is built.  The result is a new array the caller owns; a catalog
    kernel is evaluated into it one row block at a time, so no other n x n
    array is made."""
    _check_grid(spec, grid)
    if spec.variant == "sampled":
        return spec.matrix.copy()
    out = np.empty((grid.size, grid.size))
    for lo in range(0, grid.size, ROW_BLOCK):
        _kernel_rows(spec, grid, lo, lo + ROW_BLOCK, out[lo : lo + ROW_BLOCK])
    return out


def diagonal_jump(spec: KernelSpec, nodes: np.ndarray) -> np.ndarray | None:
    """Jump of d/dy G0(x, y) across y = x, evaluated at the given nodes.

    Returns None when the jump is unknown (sampled kernels without declared
    jump data), in which case no quadrature correction is applied.
    """
    if spec.variant == "sampled":
        return spec.diag_jump
    jump = 2.0 * spec.alpha if spec.variant == "ornstein_uhlenbeck" else 1.0
    return np.full_like(_check_array("nodes", nodes, (None,)), jump)
