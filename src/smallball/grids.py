"""Quadrature grids on the open unit interval.

Two builders are provided.  ``gauss_legendre_grid`` is the workhorse for
spectral discretization.  ``graded_endpoint_grid`` stacks small Gauss panels
on dyadic subintervals toward both endpoints; it resolves integrands with
logarithmic endpoint singularities (the goodness-of-fit score functions) to
near machine precision with a few hundred nodes, where a global rule stalls
at ~1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import _check_array, _check_integer

__all__ = ["Grid", "gauss_legendre_grid", "graded_endpoint_grid"]

_WEIGHT_SUM_TOL = 1e-12
# the deepest grading of graded_endpoint_grid, and the relative accuracy to
# which its mirrored nodes keep 1 - t
GRADED_LEVELS = 45
MIRROR_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and weights on (0, 1).

    Nodes are strictly increasing and interior; weights are positive and sum
    to the interval length 1, so a grid is non-empty.  Both are read-only
    copies, which no caller can change after the checks.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _check_array("nodes", self.nodes, (None,)).copy()
        weights = _check_array("weights", self.weights, nodes.shape).copy()
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] <= 0.0 or nodes[-1] >= 1.0:
            raise ValueError("nodes must lie in the open interval (0, 1)")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1 (interval length)")
        for name, arr in (("nodes", nodes), ("weights", weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Quadrature sum along the first axis of ``values``, which
        ``_check_array`` checks with that axis of the grid's size."""
        # a nested list is read as objects, so a ragged one reaches the check
        ndim = values.ndim if isinstance(values, np.ndarray) else np.asarray(values, dtype=object).ndim
        values = _check_array("values", values, (self.size,) + (None,) * (ndim - 1))
        return np.tensordot(self.weights, values, axes=(0, 0))

    def same_nodes(self, other: "Grid", tol: float = 0.0) -> bool:
        if self.size != other.size:
            return False
        if tol == 0.0:
            return bool(np.array_equal(self.nodes, other.nodes))
        return bool(np.allclose(self.nodes, other.nodes, rtol=0, atol=tol))


def gauss_legendre_grid(n: int) -> Grid:
    """n-point Gauss-Legendre rule mapped from [-1, 1] to (0, 1), memoised
    per n because ``leggauss`` costs O(n^3); every caller shares the grid.
    n is checked first, because the cache takes True, 1.0 and 1 for one key."""
    _check_integer("grid size n", n, 1)
    return _gauss_legendre_grid(n)


@lru_cache(maxsize=16)
def _gauss_legendre_grid(n: int) -> Grid:
    x, w = np.polynomial.legendre.leggauss(n)
    return Grid(nodes=(x + 1.0) / 2.0, weights=w / 2.0)


def graded_endpoint_grid(n: int) -> Grid:
    """Composite Gauss rule on dyadic panels graded toward both endpoints.

    The left half (0, 1/2] is tiled by panels [2^-(l+2), 2^-(l+1)] for
    l = 0..L-2 and a closing panel [0, 2^-L], each with p = n / (2L) Gauss
    nodes (at least 2); Gauss nodes stay strictly interior.  The right half
    mirrors the left, its node t = 1 - x rounded to a double, so ``n`` is
    the approximate total node count.

    The depth L is the largest up to GRADED_LEVELS at which the smallest
    left node x keeps 1 - x to MIRROR_TOL relative accuracy: rounding moves
    1 - x by less than the spacing eps of doubles below 1, so x >= eps /
    MIRROR_TOL suffices.  The smallest p-point Gauss node on [0, 1] exceeds
    sin^2(pi / (4p + 2)) (Bruns' bound on the Legendre zeros), and 2^-L
    times that bound sets L.  Deeper panels mirror to nodes whose 1 - t is
    ever less exact, and below x = eps / 2 to t = 1 itself.
    """
    _check_integer("grid size n", n, 8)
    floor = np.finfo(float).epsneg / MIRROR_TOL
    for depth in range(GRADED_LEVELS, 0, -1):
        per_panel = max(2, int(round(n / (2 * depth))))
        if depth == 1 or 0.5**depth * np.sin(np.pi / (4 * per_panel + 2)) ** 2 >= floor:
            break
    panel = gauss_legendre_grid(per_panel)
    levels = np.arange(depth)
    b = 0.5 ** (levels + 1)
    a = np.append(0.5 ** (levels[:-1] + 2), 0.0)
    # one panel per row, the panels in level order
    left_nodes = (panel.nodes * (b - a)[:, None] + a[:, None]).ravel()
    left_weights = (panel.weights * (b - a)[:, None]).ravel()
    all_nodes = np.concatenate([left_nodes, 1.0 - left_nodes])
    all_weights = np.concatenate([left_weights, left_weights])
    order = np.argsort(all_nodes)
    all_weights = all_weights[order]
    all_weights /= all_weights.sum()
    return Grid(nodes=all_nodes[order], weights=all_weights)
