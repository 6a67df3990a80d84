import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smallball import (
    DataError,
    Grid,
    KernelSpec,
    bridge,
    diagonal_jump,
    gauss_legendre_grid,
    compute_psi,
    kernel_eval,
    kernel_matrix,
    ornstein_uhlenbeck,
    perturbed,
    perturbed_kernel,
    sampled,
    wiener,
)
from smallball.kernels import _exactly_symmetric, _kernel_diagonal, _kernel_rows

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


_G4 = gauss_legendre_grid(4)
_B4 = kernel_matrix(bridge(), _G4)


@pytest.mark.parametrize(
    "variant, fields, name",
    [
        ("bridge", {"green_order": 2}, "green_order"),
        ("wiener", {"green_order": 1}, "green_order"),
        ("ornstein_uhlenbeck", {"alpha": 1.0, "green_order": 1}, "green_order"),
        ("wiener", {"alpha": 3.0}, "alpha"),
        ("bridge", {"grid": _G4, "matrix": _B4}, "grid"),
        ("bridge", {"matrix": _B4}, "matrix"),
        ("wiener", {"diag_jump": np.ones(4)}, "diag_jump"),
        ("ornstein_uhlenbeck", {"alpha": 1.0, "grid": _G4}, "grid"),
        ("sampled", {"grid": _G4, "matrix": _B4, "alpha": 1.0}, "alpha"),
        ("sampled", {"grid": _G4, "matrix": _B4, "psi": np.ones((4, 1))}, "psi"),
        ("perturbed", {"base": bridge(), "grid": _G4, "psi": np.ones((4, 1)), "d": [[1.0]], "matrix": _B4}, "matrix"),
        ("perturbed", {"base": bridge(), "grid": _G4, "psi": np.ones((4, 1)), "d": [[1.0]], "green_order": 1},
         "green_order"),
    ],
    ids=["bridge_green_order", "wiener_green_order", "ou_green_order", "wiener_alpha", "bridge_grid_matrix",
         "bridge_matrix", "wiener_diag_jump", "ou_grid", "sampled_alpha", "sampled_psi", "perturbed_matrix",
         "perturbed_green_order"],
)
def test_spec_takes_only_fields_its_variant_reads(variant, fields, name):
    # each was accepted, and a bridge's green_order 2 would have reached
    # theorem3_asymptotic as l = 2
    with pytest.raises(ValueError, match=rf"^{name} must be None on a {variant} kernel"):
        KernelSpec(variant=variant, **fields)


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


@pytest.mark.parametrize("i,j", [(0, 0), (3, 5), (5, 3), (0, 299), (299, 0), (130, 200), (250, 140), (299, 298)])
def test_tiled_symmetry_check_matches_whole_matrix(i, j):
    # one changed entry in a diagonal, an off-diagonal or a short last tile,
    # on either side of the diagonal, against the whole-array comparison
    grid = gauss_legendre_grid(300)
    m = kernel_matrix(bridge(), grid)
    assert _exactly_symmetric(m)
    m[i, j] += 1e-13
    assert _exactly_symmetric(m) == np.array_equal(m, m.T) == (i == j)
    out = sampled(grid, m).matrix
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


_D_CASES = {"m1": [[-9.0]], "m2": [[-12.0, 3.0], [3.0, -8.0]], "m2_indefinite": [[1.0, 2.0], [2.0, -1.0]]}


@pytest.mark.parametrize("d", _D_CASES.values(), ids=_D_CASES.keys())
@pytest.mark.parametrize("base", ["bridge", "wiener", "sampled"])
@pytest.mark.parametrize("n", [150, 151])
def test_perturbed_rows_match_perturbed_kernel(d, base, n):
    # n spans three row blocks, the last one partial; the spec is formed
    # by rows and never holds G_A, perturbed_kernel forms G_A as one array
    grid = gauss_legendre_grid(n)
    d = np.array(d)
    phi = np.column_stack([np.ones(n), grid.nodes])[:, : d.shape[0]]
    psi = compute_psi(bridge(), phi, grid)
    g0 = {"bridge": bridge(), "wiener": wiener(), "sampled": sampled(grid, kernel_matrix(ornstein_uhlenbeck(2.0), grid))}[base]
    spec = perturbed(g0, grid, psi, d)
    expected = perturbed_kernel(kernel_matrix(g0, grid), psi, d)
    m = kernel_matrix(spec, grid)
    assert m.tobytes() == expected.tobytes()
    assert m.flags.writeable and m.flags.owndata
    assert _kernel_diagonal(spec, grid).tobytes() == np.diagonal(m).tobytes()
    # a row read alone, a row block off the 64-row grid and a last row have
    # the entries of the whole matrix
    for lo, hi in ((0, 1), (75, 76), (n - 1, n), (37, 101), (n - 40, n)):
        assert _kernel_rows(spec, grid, lo, hi, np.empty((hi - lo, n))).tobytes() == m[lo:hi].tobytes()
    assert kernel_eval(spec, grid.nodes[140], grid.nodes[9]) == m[140, 9]
    assert spec.green_order == g0.green_order
    jump = diagonal_jump(g0, grid.nodes)
    assert diagonal_jump(spec, grid.nodes) is None if jump is None else np.array_equal(diagonal_jump(spec, grid.nodes), jump)


def test_perturbed_keeps_read_only_copies():
    grid = gauss_legendre_grid(20)
    psi, d = np.ones((20, 1)), np.array([[-3.0]])
    spec = perturbed(bridge(), grid, psi, d)
    psi[0, 0] = d[0, 0] = 7.0
    assert spec.psi[0, 0] == 1.0 and spec.d[0, 0] == -3.0
    assert not spec.psi.flags.writeable and not spec.d.flags.writeable


def test_perturbed_on_another_grid_rejected():
    # a perturbed kernel, like a sampled one, is read on its own grid only,
    # and its base must accept that grid
    grid, other = gauss_legendre_grid(20), gauss_legendre_grid(21)
    spec = perturbed(bridge(), grid, np.ones((20, 1)), [[-3.0]])
    with pytest.raises(ValueError, match="perturbed kernel can only be evaluated on its own grid"):
        kernel_matrix(spec, other)
    with pytest.raises(ValueError, match="not a node of the perturbed kernel grid"):
        kernel_eval(spec, 0.5, 0.5)


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
