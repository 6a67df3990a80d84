"""Covariance kernels on the unit interval.

A :class:`KernelSpec` is a catalog kernel (Wiener ``min(s,t)``, Brownian
bridge ``min(s,t) - st``, Ornstein-Uhlenbeck ``exp(-alpha|s-t|)``), a
symmetric matrix sampled on a quadrature grid, or a rank-m perturbation
G0 + psi^T D psi of another spec on a grid, kept as the base spec, psi
(n x m) and D (m x m) and never as an n x n array.

Catalog kernels are smooth off the diagonal but their normal derivative
jumps across it.  That jump value (1 for Wiener and bridge, 2*alpha for OU)
drives the diagonal quadrature correction used by the spectral solver, so
the spec object carries it alongside the evaluator; a perturbed kernel has
its base's jump, because the rank-m term is smooth across the diagonal.

Every consumer reads a kernel on a grid by row blocks (``_kernel_rows``),
so a perturbed kernel's rows are formed when read, by the one rule that
``perturbation.perturbed_kernel`` also uses (``_add_rank_m``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, _check_array, _check_integer, _check_positive, _check_real
from .grids import Grid

__all__ = [
    "KernelSpec",
    "wiener",
    "bridge",
    "ornstein_uhlenbeck",
    "sampled",
    "perturbed",
    "kernel_eval",
    "kernel_matrix",
    "diagonal_jump",
]

PSD_TOL = 1e-10
# rows per block wherever an n x n kernel array is built or applied
ROW_BLOCK = 64
# side of the square tiles in which a sampled matrix is compared with its
# transpose: two 128 KiB tiles at a time
_SYMMETRY_TILE = 128

# the fields besides ``variant`` that each variant reads; the others stay None
_FIELDS = {
    "wiener": (),
    "bridge": (),
    "ornstein_uhlenbeck": ("alpha",),
    "sampled": ("green_order", "grid", "matrix", "diag_jump"),
    "perturbed": ("base", "grid", "psi", "d"),
}
# a catalog kernel's Green order follows from its variant
_GREEN_ORDER = {"wiener": 1, "bridge": 1, "ornstein_uhlenbeck": None}


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Descriptor of a covariance kernel G0(x, y) on [0, 1].

    A spec takes only the fields its variant reads: ``alpha`` on
    ``ornstein_uhlenbeck``; ``grid``, ``matrix``, ``diag_jump`` and
    ``green_order`` on ``sampled``; ``base``, ``grid``, ``psi`` and ``d``
    on ``perturbed``.  ``green_order`` is the half-order l of the
    differential operator whose Green function the kernel is: the variant
    fixes it for a catalog kernel (1 for Wiener and bridge, None for OU), a
    sampled kernel may declare it, and a perturbed kernel takes its base's;
    it is never derived from the kernel's values.

    A ``perturbed`` spec is G0 + psi^T D psi on ``grid``, G0 the ``base``
    spec (which must accept ``grid``), ``psi`` the (n, m) samples of the
    functions psi_j at the grid nodes and ``d`` the m x m matrix D; psi and
    D are checked finite and kept as read-only copies.  Its diagonal jump
    is the base's.
    """

    variant: str
    alpha: float | None = None
    green_order: int | None = None
    grid: Grid | None = None
    matrix: np.ndarray | None = None
    diag_jump: np.ndarray | None = field(default=None, repr=False)
    base: KernelSpec | None = None
    psi: np.ndarray | None = field(default=None, repr=False)
    d: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in _FIELDS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        for name in ("alpha", "green_order", "grid", "matrix", "diag_jump", "base", "psi", "d"):
            if getattr(self, name) is not None and name not in _FIELDS[self.variant]:
                raise ValueError(f"{name} must be None on a {self.variant} kernel, which does not read it")
        if self.variant in _GREEN_ORDER:
            object.__setattr__(self, "green_order", _GREEN_ORDER[self.variant])
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
            if _exactly_symmetric(m):
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
        if self.variant == "perturbed":
            if not (isinstance(self.base, KernelSpec) and isinstance(self.grid, Grid)):
                raise ValueError("perturbed kernel needs a base KernelSpec and a grid")
            if self.psi is None or self.d is None:
                raise ValueError("perturbed kernel needs psi and d")
            _check_grid(self.base, self.grid)
            psi = np.array(_check_array("psi", self.psi, (self.grid.size, None)))
            d = np.array(_check_array("d", self.d, (psi.shape[1],) * 2))
            psi.flags.writeable = d.flags.writeable = False
            object.__setattr__(self, "psi", psi)
            object.__setattr__(self, "d", d)
            object.__setattr__(self, "green_order", self.base.green_order)


def _exactly_symmetric(m: np.ndarray) -> bool:
    """m == m.T entry for entry, for a finite square m.  Each tile on or
    above the diagonal is compared with the transpose of its mirror, and
    the first tile that differs ends the comparison."""
    n, step = m.shape[0], _SYMMETRY_TILE
    for lo in range(0, n, step):
        for col in range(lo, n, step):
            if not np.array_equal(m[lo : lo + step, col : col + step], m[col : col + step, lo : lo + step].T):
                return False
    return True


def wiener() -> KernelSpec:
    """Standard Wiener process covariance min(s, t)."""
    return KernelSpec(variant="wiener")


def bridge() -> KernelSpec:
    """Brownian bridge covariance min(s, t) - st."""
    return KernelSpec(variant="bridge")


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


def perturbed(base: KernelSpec, grid: Grid, psi: np.ndarray, d: np.ndarray) -> KernelSpec:
    """The rank-m perturbation G0 + psi^T D psi of ``base`` on ``grid``:
    ``psi`` holds psi_j at the grid nodes, one column per function, and
    ``d`` is the m x m matrix D.  No n x n array is made or kept; the
    spectral solver reads the kernel's rows one block at a time, each the
    base's rows plus the rank-m term, with the base's diagonal jump and
    Green order."""
    return KernelSpec(variant="perturbed", base=base, grid=grid, psi=psi, d=d)


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


def _node_index(spec: KernelSpec, value: float) -> int:
    idx = int(np.argmin(np.abs(spec.grid.nodes - value)))
    if abs(spec.grid.nodes[idx] - value) > 1e-12:
        raise ValueError(f"point {value} is not a node of the {spec.variant} kernel grid")
    return idx


def kernel_eval(spec: KernelSpec, x: float, y: float) -> float:
    """Evaluate G0(x, y) for x, y in [0, 1].

    Sampled and perturbed kernels can only be queried at their own grid
    nodes.
    """
    x, y = _check_real("x", x), _check_real("y", y)
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"coordinates must lie in [0, 1], got ({x}, {y})")
    if spec.grid is not None:
        i, j = _node_index(spec, x), _node_index(spec, y)
        return float(_kernel_rows(spec, spec.grid, i, i + 1, np.empty((1, spec.grid.size)))[0, j])
    return float(_eval_grid(spec, np.float64(x), np.float64(y), np.empty(())))


def _check_grid(spec: KernelSpec, grid: Grid) -> None:
    """Reject a grid other than a sampled or perturbed kernel's own."""
    if spec.grid is not None and not spec.grid.same_nodes(grid, tol=1e-12):
        raise ValueError(f"{spec.variant} kernel can only be evaluated on its own grid")


def _rank_m_block(psi: np.ndarray, psi_d: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """Rows lo:lo+k of the rank-m term written into ``out`` (k x n) and
    returned, for lo a multiple of ROW_BLOCK and k = min(ROW_BLOCK, n - lo):
    psi_d[lo:lo+k] @ psi[lo:].T in the columns lo:, psi[lo:lo+k] @
    psi_d[:lo].T left of the block, and the square on the diagonal mirrored
    from its upper part, so entry (i, j) is psi_d[a] . psi[b] with
    a = min(i, j) and b = max(i, j).  A BLAS product may round an entry
    differently by where it falls in the product, so an entry is only ever
    taken from the products of its own aligned row block."""
    hi = lo + out.shape[0]
    np.matmul(psi_d[lo:hi], psi[lo:].T, out=out[:, lo:])
    if lo > 0:
        left = psi[lo:hi]
        if hi - lo == 1:
            # NumPy takes a one-row product to gemv, which rounds otherwise
            # than gemm: take the row from a two-row product
            out[:, :lo] = np.matmul(np.vstack((left, left)), psi_d[:lo].T)[:1]
        else:
            np.matmul(left, psi_d[:lo].T, out=out[:, :lo])
    square = out[:, lo:hi]
    below = np.tril_indices(hi - lo, -1)
    square[below] = square.T[below]
    return out


def _add_rank_m(base_rows: np.ndarray, psi: np.ndarray, psi_d: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """Rows lo:lo+k of G0 + psi^T D psi written into ``out`` and returned,
    given the base's rows ``base_rows`` (k x n, not sharing memory with
    ``out``) and psi_d = psi @ D: the base rows plus the rows of the
    ``_rank_m_block`` of each aligned row block they meet.  So every entry
    has the same bits however the rows are read, the rank-m term is exactly
    symmetric, and the rows are too when the base is.  This is the one rule
    by which a G_A entry is formed."""
    n, hi = psi.shape[0], lo + base_rows.shape[0]
    if lo % ROW_BLOCK == 0 and hi == min(lo + ROW_BLOCK, n):
        _rank_m_block(psi, psi_d, lo, out)
    else:
        block = np.empty((ROW_BLOCK, n))
        for start in range(lo - lo % ROW_BLOCK, hi, ROW_BLOCK):
            rows = _rank_m_block(psi, psi_d, start, block[: min(ROW_BLOCK, n - start)])
            first, last = max(lo, start), min(hi, start + ROW_BLOCK)
            out[first - lo : last - lo] = rows[first - start : last - start]
    return np.add(out, base_rows, out=out)


def _kernel_rows(spec: KernelSpec, grid: Grid, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Rows lo:hi of ``kernel_matrix(spec, grid)``, bit for bit, for reading
    only: a view of a sampled kernel's matrix, or ``out`` ((hi - lo) x n)
    filled with a catalog or perturbed kernel's values.  The caller checks
    the grid with ``_check_grid`` once."""
    if spec.variant == "sampled":
        return spec.matrix[lo:hi]
    if spec.variant == "perturbed":
        base = _kernel_rows(spec.base, grid, lo, hi, np.empty_like(out))
        return _add_rank_m(base, spec.psi, spec.psi @ spec.d, lo, out)
    return _eval_grid(spec, grid.nodes[lo:hi, None], grid.nodes[None, :], out)


def _kernel_diagonal(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """The diagonal of ``kernel_matrix(spec, grid)``, bit for bit, in O(n)
    memory: a perturbed kernel's rank-m term on the diagonal is read off the
    products ``_rank_m_block`` forms for the columns right of each row
    block, O(n^2 m) work."""
    if spec.variant == "sampled":
        return np.diagonal(spec.matrix)
    if spec.variant == "perturbed":
        psi, psi_d = spec.psi, spec.psi @ spec.d
        term = np.empty(grid.size)
        upper = np.empty((ROW_BLOCK, grid.size))
        for lo in range(0, grid.size, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, grid.size)
            # the product that gives these entries in _rank_m_block
            term[lo:hi] = np.diagonal(np.matmul(psi_d[lo:hi], psi[lo:].T, out=upper[: hi - lo, lo:]))
        return term + _kernel_diagonal(spec.base, grid)
    return _eval_grid(spec, grid.nodes, grid.nodes, np.empty(grid.size))


def kernel_matrix(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """Kernel values on the tensor grid, exactly symmetric: catalog kernels
    are symmetric expressions, a sampled matrix is symmetrized when its
    spec is built, and a perturbed kernel's rank-m term is formed
    symmetric.  The result is a new array the caller owns; a catalog
    kernel is evaluated into it one row block at a time, and so is a
    perturbed one, so no other n x n array is made."""
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
    jump data), in which case no quadrature correction is applied.  A
    perturbed kernel has its base's jump.
    """
    if spec.variant == "sampled":
        return spec.diag_jump
    if spec.variant == "perturbed":
        return diagonal_jump(spec.base, nodes)
    jump = 2.0 * spec.alpha if spec.variant == "ornstein_uhlenbeck" else 1.0
    return np.full_like(_check_array("nodes", nodes, (None,)), jump)
