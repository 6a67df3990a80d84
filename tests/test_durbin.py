import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from smallball import (
    CRITICAL,
    ConsistencyError,
    NumericError,
    WeightSeq,
    cdf_gil_pelaez,
    compute_psi,
    bridge,
    durbin,
    durbin_kernel_matrix,
    durbin_kernel_spec,
    durbin_model,
    durbin_phi,
    durbin_psi,
    durbin_psi_prime,
    exponential_rate,
    fisher_matrix,
    gauss_legendre_grid,
    graded_endpoint_grid,
    kernel_matrix,
    normal_location,
    normal_location_scale,
    nystrom_spectrum,
    perturbed_kernel,
    sampled,
    simulate_omega2,
)
from smallball.grids import Grid

FAMILIES = [normal_location(), normal_location_scale(), exponential_rate()]

DURBIN_TRACE_NORMAL_LOC = 1.0 / 6.0 - 1.0 / (2.0 * math.pi * math.sqrt(3.0))


@pytest.fixture(scope="module")
def graded():
    return graded_endpoint_grid(500)


def _grid_at(points):
    points = np.asarray(points, dtype=float)
    return Grid(nodes=points, weights=np.full(points.size, 1.0 / points.size))


def _mirrored_upper(k, psi, d):
    # G_A as one array, formed as it was before the limit law was read by
    # rows: the upper triangle of (psi D) psi^T + K by row blocks of 64,
    # mirrored into the lower triangle
    n, p = k.shape[0], psi @ d
    g = np.empty_like(k)
    for lo in range(0, n, 64):
        g[lo : lo + 64, lo:] = p[lo : lo + 64] @ psi[lo:].T + k[lo : lo + 64, lo:]
    upper = np.arange(n)[:, None] <= np.arange(n)
    return np.where(upper, g, g.T)


class TestPsi:
    def test_normal_location_midpoint(self):
        # oracle: standard normal density at 0
        g = _grid_at([0.5])
        psi = durbin_psi(normal_location(), g)
        assert psi[0, 0] == pytest.approx(-norm.pdf(0.0), abs=1e-12)

    def test_exponential_value(self):
        # t = 1 - exp(-1) corresponds to x = 1: psi = x exp(-x) = exp(-1)
        g = _grid_at([1.0 - math.exp(-1.0)])
        psi = durbin_psi(exponential_rate(), g)
        assert psi[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_location_scale_second_component(self):
        g = _grid_at([0.25, 0.75])
        psi = durbin_psi(normal_location_scale(), g)
        z = norm.ppf([0.25, 0.75])
        np.testing.assert_allclose(psi[:, 1], -z * norm.pdf(z), atol=1e-12)

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_boundary_vanishing(self, fam):
        g = _grid_at([1e-12, 1.0 - 1e-12])
        psi = durbin_psi(fam, g)
        assert np.abs(psi).max() < 1e-9

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_prime_is_derivative(self, fam):
        # central differences of psi against the closed-form derivative
        t = np.linspace(0.1, 0.9, 9)
        h = 1e-6
        d_exact = durbin_psi_prime(fam, _grid_at(t))
        d_num = (durbin_psi(fam, _grid_at(t + h)) - durbin_psi(fam, _grid_at(t - h))) / (2 * h)
        np.testing.assert_allclose(d_num, d_exact, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_phi_is_second_derivative(self, fam):
        t = np.linspace(0.2, 0.8, 7)
        h = 1e-5
        phi_exact = durbin_phi(fam, _grid_at(t))
        psi_p = lambda tt: durbin_psi(fam, _grid_at(tt))  # noqa: E731
        second = (psi_p(t + h) - 2.0 * psi_p(t) + psi_p(t - h)) / (h * h)
        np.testing.assert_allclose(-second, phi_exact, rtol=1e-4, atol=1e-4)

    def test_unknown_family(self):
        from smallball import FamilySpec

        with pytest.raises(ValueError):
            FamilySpec("weibull", (1.0,))

    @given(
        st.sampled_from([math.nan, math.inf]),
        st.sampled_from([("normal_location", 0), ("normal_location_scale", 0),
                         ("normal_location_scale", 1), ("exponential_rate", 0)]),
    )
    def test_non_finite_theta0_rejected(self, bad, slot):
        from smallball import FamilySpec

        family, i = slot
        theta0 = [1.0] * (2 if family == "normal_location_scale" else 1)
        theta0[i] = bad
        with pytest.raises(ValueError, match="theta0 must be finite"):
            FamilySpec(family, tuple(theta0))

    @pytest.mark.parametrize(
        "family, names",
        [("normal_location", ("mu",)), ("normal_location_scale", ("mu", "sigma")), ("exponential_rate", ("lam",))],
        ids=["normal_location", "normal_location_scale", "exponential_rate"],
    )
    def test_theta0_components_checked(self, family, names):
        # theta0 holds one value per named component, all of them estimated,
        # and every component but the location mu is positive
        from smallball import FamilySpec

        good = (0.0, 1.0) if family == "normal_location_scale" else (1.0,)
        assert FamilySpec(family, good).m == len(names)
        for wrong in (good + (1.0,), good[:-1]):
            with pytest.raises(ValueError, match=re.escape(f"theta0 must be a non-empty array of shape ({len(names)},)")):
                FamilySpec(family, wrong)
        for bad in (0.0, -1.0):
            theta0 = good[:-1] + (bad,)
            if names[-1] == "mu":
                assert FamilySpec(family, theta0).theta0 == theta0
            else:
                with pytest.raises(ValueError, match=f"{names[-1]} must be positive"):
                    FamilySpec(family, theta0)


class TestFisher:
    def test_normal_location(self, graded):
        s = fisher_matrix(normal_location(), graded)
        assert abs(s[0, 0] - 1.0) < 1e-6

    def test_normal_location_scale(self, graded):
        s = fisher_matrix(normal_location_scale(), graded)
        assert abs(s[0, 0] - 1.0) < 1e-6
        assert abs(s[1, 1] - 2.0) < 1e-6
        assert abs(s[0, 1]) < 1e-8

    def test_exponential(self, graded):
        s = fisher_matrix(exponential_rate(), graded)
        assert abs(s[0, 0] - 1.0) < 1e-6

    def test_exponential_rate_scaling(self, graded):
        # Fisher information of Exp(lam) is 1/lam^2
        s = fisher_matrix(exponential_rate(2.5), graded)
        assert s[0, 0] == pytest.approx(1.0 / 2.5**2, rel=1e-6)


class TestModel:
    @pytest.mark.parametrize("fam", FAMILIES)
    def test_q_matches_fisher(self, fam):
        model = durbin_model(fam)
        assert np.abs(model.q_matrix - model.fisher).max() < 1e-6

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_critical(self, fam):
        assert durbin_model(fam).classification.label == CRITICAL

    def test_normal_location_trace(self):
        model = durbin_model(normal_location())
        assert model.trace == pytest.approx(DURBIN_TRACE_NORMAL_LOC, abs=1e-9)

    def test_exponential_self_dual(self):
        # at criticality A = Q^{-1} is a fixed point of A -> 2 Q^{-1} - A
        model = durbin_model(exponential_rate())
        dual = 2.0 * np.linalg.inv(model.q_matrix) - model.a_matrix
        np.testing.assert_allclose(dual, model.a_matrix, rtol=1e-6)

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_green_property_of_psi(self, fam):
        # the bridge operator applied to phi = -psi'' must reproduce psi:
        # independent check that psi solves the Dirichlet problem.  The
        # comparison stays off the extreme endpoint nodes, where phi blows
        # up too hard for the evaluation-point quadrature (inner products
        # against such nodes are separately validated through Q = S).
        grid = graded_endpoint_grid(500)
        psi_direct = compute_psi(bridge(), durbin_phi(fam, grid), grid)
        psi_closed = durbin_psi(fam, grid)
        interior = (grid.nodes > 1e-3) & (grid.nodes < 1.0 - 1e-3)
        assert np.abs(psi_direct - psi_closed)[interior].max() < 5e-5

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_kernel_annihilates_phi(self, fam):
        # the limiting covariance operator kills its own perturbing
        # functions; with score functions singular at the endpoints the
        # meaningful residual norm is weighted L2 against the psi scale
        from smallball.spectral import kink_correction

        grid = graded_endpoint_grid(500)
        mat = durbin_kernel_matrix(fam, grid)
        phi = durbin_phi(fam, grid)
        psi = durbin_psi(fam, grid)
        action = mat @ (grid.weights[:, None] * phi)
        action += kink_correction(np.ones(grid.size), grid)[:, None] * phi
        num = np.sqrt(grid.weights @ action**2)
        den = np.sqrt(grid.weights @ psi**2)
        assert float((num / den).max()) < 1e-4

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_kernel_is_validated_perturbation(self, fam):
        # the limit law is the critical perturbation durbin_model validates:
        # D = -A - A^T + A Q A^T = -A at A = Q^{-1}
        grid = gauss_legendre_grid(200)
        expected = perturbed_kernel(
            kernel_matrix(bridge(), grid), durbin_psi(fam, grid), -durbin_model(fam).a_matrix
        )
        assert durbin_kernel_matrix(fam, grid).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fam", FAMILIES)
    @pytest.mark.parametrize("n", [1000, 1001])
    def test_limit_spectrum_is_the_sampled_perturbation(self, fam, n):
        # the limit law read by row blocks has the spectrum, bit for bit, of
        # the n x n G_A that was once built and sampled
        grid = gauss_legendre_grid(n)
        g_a = _mirrored_upper(kernel_matrix(bridge(), grid), durbin_psi(fam, grid), -durbin_model(fam).a_matrix)
        dense = sampled(grid, g_a, diag_jump=np.ones(n), green_order=1)
        spec = durbin_kernel_spec(fam, grid)
        assert spec.variant == "perturbed" and spec.matrix is None
        got = nystrom_spectrum(spec, grid, 300).eigenvalues
        assert got.tobytes() == nystrom_spectrum(dense, grid, 300).eigenvalues.tobytes()

    @pytest.mark.parametrize("fam", FAMILIES[:2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_coarse_grid_is_under_resolved(self, fam, n):
        # on one or two nodes the bridge plus the closed-form psi is not
        # positive semidefinite; no sampled data of the caller's is at fault
        grid = gauss_legendre_grid(n)
        with pytest.raises(NumericError, match=rf"under-resolved on n={n} nodes: .*; use more nodes$"):
            nystrom_spectrum(durbin_kernel_spec(fam, grid), grid, n)

    def test_failed_validation_raises(self, monkeypatch):
        # a family whose model fails validation has no limit law
        monkeypatch.setattr(durbin, "Q_VS_S_TOL", 0.0)
        with pytest.raises(ConsistencyError):
            durbin_kernel_spec(normal_location(), gauss_legendre_grid(200))

    def test_spectrum_interlaces_bridge(self):
        grid = gauss_legendre_grid(1000)
        fam = normal_location()
        dk = nystrom_spectrum(durbin_kernel_spec(fam, grid), grid, 200)
        b = nystrom_spectrum(bridge(), grid, 201)
        mu_d = dk.eigenvalues[:150]
        mu_0 = b.eigenvalues
        slack = 1e-9 * mu_0[0]
        assert np.all(mu_d <= mu_0[:150] + slack)
        assert np.all(mu_d >= mu_0[1:151] - slack)


class TestSimulation:
    def test_seed_determinism(self):
        a = simulate_omega2(normal_location(), 50, 400, seed=9)
        b = simulate_omega2(normal_location(), 50, 400, seed=9)
        np.testing.assert_array_equal(a, b)
        c = simulate_omega2(normal_location(), 50, 400, seed=10)
        assert not np.array_equal(a, c)

    def test_mean_approaches_trace(self):
        stats = simulate_omega2(normal_location(), 500, 20000, seed=42)
        se = stats.std(ddof=1) / math.sqrt(stats.size)
        assert abs(stats.mean() - DURBIN_TRACE_NORMAL_LOC) < 3 * se + 2.0 / 500

    def test_location_scale_mean_approaches_trace(self):
        fam = normal_location_scale()
        stats = simulate_omega2(fam, 500, 20000, seed=42)
        se = stats.std(ddof=1) / math.sqrt(stats.size)
        assert abs(stats.mean() - durbin_model(fam).trace) < 3 * se + 2.0 / 500

    def test_location_invariance(self):
        # estimating the mean makes the statistic translation invariant
        a = simulate_omega2(normal_location(0.0), 100, 500, seed=3)
        b = simulate_omega2(normal_location(5.0), 100, 500, seed=3)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_affine_invariance(self):
        # estimating mean and sd makes the statistic affine invariant
        a = simulate_omega2(normal_location_scale(0.0, 1.0), 100, 500, seed=3)
        b = simulate_omega2(normal_location_scale(5.0, 3.0), 100, 500, seed=3)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_exponential_statistic_scale_free(self):
        a = simulate_omega2(exponential_rate(1.0), 100, 500, seed=3)
        b = simulate_omega2(exponential_rate(4.0), 100, 500, seed=3)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @staticmethod
    def _check_quantiles_against_limit_spectrum(fam):
        # the n -> inf law of the statistic is the weighted chi-square form
        # over the Durbin kernel spectrum
        stats = simulate_omega2(fam, 1000, 20000, seed=123)
        grid = gauss_legendre_grid(1000)
        spec = nystrom_spectrum(durbin_kernel_spec(fam, grid), grid, 300)
        w = WeightSeq(head=spec.eigenvalues[:300])
        for p in (0.1, 0.5, 0.9):
            q = float(np.quantile(stats, p))
            est = cdf_gil_pelaez(w, q)
            assert abs(est.value - p) < 0.03

    def test_empirical_cdf_matches_limit_spectrum(self):
        self._check_quantiles_against_limit_spectrum(normal_location())

    def test_location_scale_empirical_cdf_matches_limit_spectrum(self):
        self._check_quantiles_against_limit_spectrum(normal_location_scale())

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_omega2(normal_location(), 1, 10, seed=0)
        with pytest.raises(ValueError):
            simulate_omega2(normal_location(), 10, 0, seed=0)

    @pytest.mark.parametrize(
        "n,reps,seed,error,name",
        [
            (50.0, 10, 1, TypeError, "n"),
            (50, 10.0, 1, TypeError, "reps"),
            (50, 10, -1, ValueError, "seed"),
            (50, 10, 1.5, TypeError, "seed"),
            (50, 10, None, TypeError, "seed"),
        ],
    )
    def test_arguments_named_in_errors(self, n, reps, seed, error, name):
        with pytest.raises(error, match=rf"\b{name} must be an integer"):
            simulate_omega2(normal_location(), n, reps, seed)

    def test_numpy_integer_arguments(self):
        a = simulate_omega2(normal_location(), np.int64(20), np.int32(30), np.uint64(4))
        assert a.tobytes() == simulate_omega2(normal_location(), 20, 30, 4).tobytes()
