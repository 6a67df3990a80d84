import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smallball import (
    DataError,
    Grid,
    bridge,
    diagonal_jump,
    gauss_legendre_grid,
    kernel_eval,
    kernel_matrix,
    ornstein_uhlenbeck,
    sampled,
    wiener,
)
from smallball.kernels import _kernel_diagonal, _kernel_rows

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_catalog_values():
    assert kernel_eval(bridge(), 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert kernel_eval(wiener(), 0.3, 0.7) == pytest.approx(0.3, abs=1e-15)
    assert kernel_eval(ornstein_uhlenbeck(1.0), 0.0, 1.0) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )


def test_green_order_metadata():
    assert wiener().green_order == 1
    assert bridge().green_order == 1
    assert ornstein_uhlenbeck(2.0).green_order is None


@pytest.mark.parametrize("order, error", [(True, TypeError), (1.0, TypeError), ("1", TypeError), (0, ValueError)])
def test_green_order_must_be_a_positive_integer(order, error):
    # a bool is an int to Python, but True is not an order
    grid = gauss_legendre_grid(4)
    with pytest.raises(error, match="green_order"):
        sampled(grid, kernel_matrix(bridge(), grid), green_order=order)
    assert sampled(grid, kernel_matrix(bridge(), grid), green_order=np.int64(2)).green_order == 2


@given(unit, unit)
def test_symmetry(x, y):
    for spec in (wiener(), bridge(), ornstein_uhlenbeck(0.7)):
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


def test_two_node_bridge_matrix():
    grid = Grid(nodes=np.array([1.0 / 3.0, 2.0 / 3.0]), weights=np.array([0.5, 0.5]))
    m = kernel_matrix(bridge(), grid)
    np.testing.assert_allclose(m, [[2.0 / 9.0, 1.0 / 9.0], [1.0 / 9.0, 2.0 / 9.0]], atol=1e-15)


def test_empty_grid():
    # an empty grid cannot have weights that sum to 1, so it is refused before
    # any kernel matrix is built on it
    with pytest.raises(ValueError, match="non-empty"):
        kernel_matrix(wiener(), Grid(nodes=np.array([]), weights=np.array([])))


def test_wiener_weighted_trace():
    # quadrature oracle: int_0^1 t dt = 1/2, exact for Gauss of any order
    grid = gauss_legendre_grid(200)
    m = kernel_matrix(wiener(), grid)
    assert abs(float(grid.integrate(np.diag(m))) - 0.5) < 1e-8


@pytest.mark.parametrize(
    "spec,trace",
    [(bridge(), 1.0 / 6.0), (wiener(), 0.5), (ornstein_uhlenbeck(1.3), 1.0)],
)
def test_trace_convergence(spec, trace):
    grid = gauss_legendre_grid(500)
    val = float(grid.integrate(np.diag(kernel_matrix(spec, grid))))
    assert abs(val - trace) / trace < 1e-6


@pytest.mark.parametrize("spec", [bridge(), wiener(), ornstein_uhlenbeck(2.0)])
def test_matrix_symmetric_psd(spec):
    grid = gauss_legendre_grid(200)
    m = kernel_matrix(spec, grid)
    assert np.array_equal(m, m.T)
    eig = np.linalg.eigvalsh(m)
    assert eig[0] >= -1e-10 * eig[-1]


def test_sampled_kernel_roundtrip():
    grid = gauss_legendre_grid(50)
    m = kernel_matrix(bridge(), grid)
    spec = sampled(grid, m)
    x = float(grid.nodes[7])
    assert kernel_eval(spec, x, x) == m[7, 7]
    out = kernel_matrix(spec, grid)
    np.testing.assert_array_equal(out, m)
    # the caller owns the result: writing to it leaves the spec unchanged
    out[7, 7] = -1.0
    assert spec.matrix[7, 7] == m[7, 7]
    np.testing.assert_array_equal(kernel_matrix(spec, grid), m)


def test_sampled_matrix_exactly_symmetric():
    # an input asymmetric within tolerance comes back exactly symmetric
    grid = gauss_legendre_grid(50)
    rng = np.random.default_rng(3)
    m = kernel_matrix(bridge(), grid) + 1e-13 * rng.normal(size=(50, 50))
    out = kernel_matrix(sampled(grid, m), grid)
    assert np.array_equal(out, out.T)


def _broadcast_reference(spec, grid):
    # the kernels as one broadcast expression over the whole tensor grid
    x, y = grid.nodes[:, None], grid.nodes[None, :]
    if spec.variant == "wiener":
        return np.minimum(x, y)
    if spec.variant == "bridge":
        return np.minimum(x, y) - x * y
    return np.exp(-spec.alpha * np.abs(x - y))


@pytest.mark.parametrize("spec", [wiener(), bridge(), ornstein_uhlenbeck(2.5)], ids=lambda s: s.variant)
@pytest.mark.parametrize("n", [150, 151])
def test_row_blocks_match_broadcast(spec, n):
    grid = gauss_legendre_grid(n)
    m = kernel_matrix(spec, grid)
    np.testing.assert_array_equal(m, _broadcast_reference(spec, grid))
    assert m.flags.writeable and m.flags.owndata
    np.testing.assert_array_equal(_kernel_diagonal(spec, grid), np.diagonal(m))
    np.testing.assert_array_equal(_kernel_rows(spec, grid, 64, 128, np.empty((64, n))), m[64:128])


def test_sampled_shares_read_only_owner():
    grid = gauss_legendre_grid(50)
    owner = kernel_matrix(bridge(), grid)
    owner.flags.writeable = False
    spec = sampled(grid, owner)
    assert np.shares_memory(spec.matrix, owner)
    assert not spec.matrix.flags.writeable
    # a writable input, or a read-only view of a writable base, could still
    # change under the spec, so both are copied
    writable = kernel_matrix(bridge(), grid)
    view = writable[:]
    view.flags.writeable = False
    for given_matrix in (writable, view):
        spec = sampled(grid, given_matrix)
        assert not np.shares_memory(spec.matrix, writable)
        assert not spec.matrix.flags.writeable
    writable[7, 7] = -1.0
    assert spec.matrix[7, 7] == owner[7, 7]
    # a matrix symmetrized within tolerance is new and read-only as well
    nudged = kernel_matrix(bridge(), grid)
    nudged[0, 1] += 1e-13
    assert not sampled(grid, nudged).matrix.flags.writeable


def test_sampled_off_grid_query():
    grid = gauss_legendre_grid(50)
    spec = sampled(grid, kernel_matrix(bridge(), grid))
    with pytest.raises(ValueError):
        kernel_eval(spec, 0.123456, 0.5)


def test_sampled_validation():
    grid = gauss_legendre_grid(4)
    bad = np.arange(16.0).reshape(4, 4)
    with pytest.raises(DataError):
        sampled(grid, bad)
    with pytest.raises(ValueError):
        sampled(grid, np.eye(3))
    # asymmetry up to 1e-10 * max(1, max|m|) is accepted, beyond it rejected
    edge = np.eye(4)
    edge[0, 1] = 1e-10
    sampled(grid, edge)
    edge[0, 1] = 2e-10
    with pytest.raises(DataError):
        sampled(grid, edge)


def test_out_of_domain_rejected():
    with pytest.raises(ValueError):
        kernel_eval(bridge(), -0.1, 0.5)
    with pytest.raises(ValueError):
        ornstein_uhlenbeck(-1.0)


@given(st.sampled_from([math.nan, math.inf]))
def test_non_finite_ou_rate_rejected(alpha):
    with pytest.raises(ValueError, match="finite rate"):
        ornstein_uhlenbeck(alpha)


@pytest.mark.parametrize("alpha", [1e308, 0.6 * sys.float_info.max])
def test_ou_rate_with_overflowing_jump_rejected(alpha):
    # the kink correction uses the diagonal jump 2 alpha, which overflows
    # here; the spectrum used to fail with "Eigenvalues did not converge"
    with pytest.raises(ValueError, match="alpha"):
        ornstein_uhlenbeck(alpha)
    assert diagonal_jump(ornstein_uhlenbeck(0.4 * sys.float_info.max), np.zeros(1))[0] < math.inf


@given(st.sampled_from([math.nan, math.inf]))
def test_non_finite_sampled_matrix_rejected(bad):
    # checked before symmetry: a NaN used to read as "not symmetric", and an
    # inf passed with a RuntimeWarning into an empty spectrum
    grid = gauss_legendre_grid(4)
    m = kernel_matrix(bridge(), grid)
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(ValueError, match="matrix must be finite"):
        sampled(grid, m)


@given(st.sampled_from([math.nan, math.inf]))
def test_non_finite_diag_jump_rejected(bad):
    grid = gauss_legendre_grid(4)
    jump = np.ones(grid.size)
    jump[3] = bad
    with pytest.raises(ValueError, match="diag_jump must be finite"):
        sampled(grid, kernel_matrix(bridge(), grid), diag_jump=jump)
