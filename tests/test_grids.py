import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallball import Grid, gauss_legendre_grid, graded_endpoint_grid


def test_midpoint_rule():
    g = gauss_legendre_grid(1)
    assert g.nodes.tolist() == [0.5]
    assert g.weights.tolist() == [1.0]


def test_two_point_nodes():
    # Legendre roots +-1/sqrt(3) mapped to (0, 1)
    g = gauss_legendre_grid(2)
    expected = np.array([0.5 - 1.0 / (2.0 * np.sqrt(3.0)), 0.5 + 1.0 / (2.0 * np.sqrt(3.0))])
    np.testing.assert_allclose(g.nodes, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(g.weights, [0.5, 0.5], rtol=0, atol=1e-15)


def test_polynomial_exactness():
    g = gauss_legendre_grid(64)
    assert abs(float(g.integrate(g.nodes**10)) - 1.0 / 11.0) < 1e-14


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_gauss_legendre_memoised_read_only(n):
    x, w = np.polynomial.legendre.leggauss(n)
    g = gauss_legendre_grid(n)
    assert g.nodes.tobytes() == ((x + 1.0) / 2.0).tobytes()
    assert g.weights.tobytes() == (w / 2.0).tobytes()
    assert gauss_legendre_grid(n) is g
    # the cached grid is shared by every caller, so no caller may write it
    with pytest.raises(ValueError):
        g.nodes[0] = 0.5
    with pytest.raises(ValueError):
        g.weights *= 1.0


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        gauss_legendre_grid(0)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_grid_invariants(n):
    g = gauss_legendre_grid(n)
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < 1
    assert np.all(g.weights > 0)
    assert abs(g.weights.sum() - 1.0) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(nodes=np.array([0.5, 0.2]), weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Grid(nodes=np.array([0.0, 0.5]), weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Grid(nodes=np.array([0.2, 0.5]), weights=np.array([0.9, 0.5]))
    with pytest.raises(ValueError):
        Grid(nodes=np.array([0.2, 0.5]), weights=np.array([0.5, -0.5]))


def test_grid_keeps_read_only_copies():
    # a grid once aliased its caller's arrays, so a later write broke the
    # sum-to-1 invariant unseen
    nodes, weights = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    g = Grid(nodes=nodes, weights=weights)
    weights[0] = 2.0
    nodes[0] = -1.0
    assert g.weights.tolist() == [0.5, 0.5] and g.nodes.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        g.weights[0] = 2.0


def test_graded_grid_basics():
    g = graded_endpoint_grid(500)
    assert abs(g.weights.sum() - 1.0) < 1e-12
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < 1


def test_graded_grid_log_singularity():
    # int_0^1 ln(1/t) dt = 1; a plain 500-point Gauss rule only reaches ~1e-6
    g = graded_endpoint_grid(500)
    val = float(g.integrate(np.log(1.0 / g.nodes)))
    assert abs(val - 1.0) < 1e-10


def test_graded_grid_halving_diagnostic():
    # the n vs n/2 pair brackets the true value of a singular integral
    full = graded_endpoint_grid(500)
    half = graded_endpoint_grid(250)
    f = lambda t: np.log(1.0 / t) ** 2  # noqa: E731  (int = 2)
    err_full = abs(float(full.integrate(f(full.nodes))) - 2.0)
    err_half = abs(float(half.integrate(f(half.nodes))) - 2.0)
    assert err_full < err_half
