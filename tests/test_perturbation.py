import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallball import (
    CRITICAL,
    NON_CRITICAL,
    PARTIALLY_CRITICAL,
    DataError,
    NumericError,
    PerturbationSpec,
    WeightSeq,
    annihilation_residual,
    bridge,
    build_gram,
    cdf_saddlepoint,
    classify,
    compute_psi,
    critical_prefactor,
    d_matrix,
    diagonal_jump,
    distortion_constant,
    fourier_coefficients,
    gauss_legendre_grid,
    gram_q,
    green_base_form,
    kernel_matrix,
    kink_correction,
    nystrom_spectrum,
    ornstein_uhlenbeck,
    perturbed_kernel,
    sampled,
    spectral_product_check,
    theorem1_factor,
    theorem2_closed,
    theorem2_convolution_numeric,
    theorem3_asymptotic,
)
from smallball.perturbation import bateman_ratio


@pytest.fixture(scope="module")
def g500():
    return gauss_legendre_grid(500)


class TestComputePsi:
    def test_bridge_constant_function(self, g500):
        # closed-form antiderivative: int (min(t,s) - ts) ds = t(1-t)/2
        psi = compute_psi(bridge(), np.ones(g500.size), g500)
        exact = g500.nodes * (1.0 - g500.nodes) / 2.0
        assert np.abs(psi[:, 0] - exact).max() < 1e-8

    def test_linearity(self, g500):
        phi = np.sin(2 * np.pi * g500.nodes)
        one = compute_psi(bridge(), phi, g500)
        two = compute_psi(bridge(), 2.0 * phi, g500)
        np.testing.assert_array_equal(two, 2.0 * one)

    @pytest.mark.parametrize("kernel", [bridge(), ornstein_uhlenbeck(2.0)], ids=lambda k: k.variant)
    @pytest.mark.parametrize("n", [150, 151])
    def test_row_blocks_match_dense_action(self, kernel, n):
        # the blocked rule against the same rule on the full kernel matrix;
        # blocks change only the order of the row sums
        grid = gauss_legendre_grid(n)
        phi = np.column_stack([np.ones(n), np.sin(3.0 * grid.nodes)])
        dense = kernel_matrix(kernel, grid) @ (grid.weights[:, None] * phi)
        dense += kink_correction(diagonal_jump(kernel, grid.nodes), grid)[:, None] * phi
        psi = compute_psi(kernel, phi, grid)
        assert np.abs(psi - dense).max() <= 1e-15 * np.abs(dense).max()
        sampled_kernel = sampled(grid, kernel_matrix(kernel, grid), diag_jump=diagonal_jump(kernel, grid.nodes))
        np.testing.assert_array_equal(compute_psi(sampled_kernel, phi, grid), psi)

    def test_zero_function(self, g500):
        psi = compute_psi(bridge(), np.zeros(g500.size), g500)
        assert np.abs(psi).max() == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_rejected(self):
        # finite inputs whose psi overflows once returned inf
        grid = gauss_legendre_grid(4)
        kernel = sampled(grid, 1e300 * kernel_matrix(bridge(), grid))
        with pytest.raises(NumericError, match="overflows"):
            compute_psi(kernel, np.full(grid.size, 1e200), grid)


class TestGramQ:
    def test_bridge_constant(self, g500):
        # oracle: int_0^1 t(1-t)/2 dt = 1/12 by exact antiderivative
        phi = np.ones(g500.size)
        psi = compute_psi(bridge(), phi, g500)
        q = gram_q(phi, psi, g500)
        assert q[0, 0] == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_orthonormalized_pair_gives_identity(self, g500):
        # phi_j = u_j / sqrt(mu_j) has psi_i = sqrt(mu_i) u_i and Q = I
        s = nystrom_spectrum(bridge(), g500, 4)
        phi = s.eigvecs[:, :2] / np.sqrt(s.eigenvalues[:2])
        psi = compute_psi(bridge(), phi, g500)
        q = gram_q(phi, psi, g500)
        assert np.abs(q - np.eye(2)).max() < 1e-8

    def test_fourier_route_reproduces_q(self, bridge_spectrum_2000, gl2000):
        # Q = sum_n lambda_n a_n a_n^T with a_n the coefficients of psi
        phi = np.ones(gl2000.size)
        psi = compute_psi(bridge(), phi, gl2000)
        q = gram_q(phi, psi, gl2000)
        a = fourier_coefficients(bridge_spectrum_2000, psi).a[:, 0]
        lam = bridge_spectrum_2000.inverse_eigenvalues
        total = float(np.sum(lam * a * a))
        assert total == pytest.approx(q[0, 0], rel=1e-6)

    def test_degenerate_family_rejected(self, g500):
        phi = np.column_stack([np.ones(g500.size), np.ones(g500.size)])
        with pytest.raises(DataError):
            PerturbationSpec(phi=phi, a_matrix=np.eye(2), grid=g500)

    @given(st.sampled_from([math.nan, math.inf]), st.booleans())
    def test_non_finite_spec_rejected(self, g500, bad, in_phi):
        # a nan in A used to surface as "SVD did not converge"
        phi = np.ones(g500.size)
        a = np.array([[6.0]])
        if in_phi:
            phi[7] = bad
        else:
            a[0, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            PerturbationSpec(phi=phi, a_matrix=a, grid=g500)


class TestDMatrix:
    def test_zero(self):
        q = np.array([[1.0 / 12.0]])
        np.testing.assert_array_equal(d_matrix(np.zeros((1, 1)), q), np.zeros((1, 1)))

    def test_scalar_arithmetic(self):
        d = d_matrix(np.array([[12.0]]), np.array([[1.0 / 12.0]]))
        assert d[0, 0] == pytest.approx(-12.0, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
    def test_duality(self, m, seed):
        # A and 2 Q^{-1} - A produce the same D (both processes share a law)
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.normal(size=(m, m))
        b = rng.normal(size=(m, m))
        q = b @ b.T + np.eye(m)  # SPD
        dual = 2.0 * np.linalg.inv(q) - a
        np.testing.assert_allclose(d_matrix(a, q), d_matrix(dual, q), rtol=1e-9, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            d_matrix(np.eye(2), np.eye(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_numeric_error(self):
        # A Q A^T overflows at A = 1e200 and 2A at 1e308, and numpy warns of
        # neither; this D was once returned as inf
        for a in (1e200, 1e308):
            with pytest.raises(NumericError, match="overflows double precision"):
                d_matrix(np.array([[a]]), np.array([[1.0 / 12.0]]))


class TestPerturbedKernel:
    def test_zero_d_is_identity(self, g500):
        m = kernel_matrix(bridge(), g500)
        psi = compute_psi(bridge(), np.ones(g500.size), g500)
        np.testing.assert_array_equal(perturbed_kernel(m, psi, np.zeros((1, 1))), m)

    def test_pointwise_value(self, g500):
        # G_A(0.5, 0.5) = 0.25 - 12 * 0.125^2 = 0.0625 for phi = 1, A = 12
        phi = np.ones(g500.size)
        spec = PerturbationSpec(phi=phi, a_matrix=np.array([[12.0]]), grid=g500)
        gram = build_gram(bridge(), spec)
        g_a = perturbed_kernel(kernel_matrix(bridge(), g500), gram.psi, gram.d_matrix)
        i = int(np.argmin(np.abs(g500.nodes - 0.5)))
        t = g500.nodes[i]
        expected = (t - t * t) - 12.0 * (t * (1 - t) / 2.0) ** 2
        assert g_a[i, i] == pytest.approx(expected, abs=1e-9)

    def test_critical_annihilation(self, g500):
        phi = np.ones(g500.size)
        spec = PerturbationSpec(phi=phi, a_matrix=np.array([[12.0]]), grid=g500)
        gram = build_gram(bridge(), spec)
        g_a = perturbed_kernel(kernel_matrix(bridge(), g500), gram.psi, gram.d_matrix)
        assert annihilation_residual(bridge(), g_a, phi, g500) < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_annihilation_overflow_rejected(self):
        # a finite matrix whose action on a finite phi overflows is a numeric
        # failure, not a non-finite argument
        grid = gauss_legendre_grid(4)
        with pytest.raises(NumericError, match="overflows"):
            annihilation_residual(bridge(), np.full((4, 4), 1e300), np.full(4, 1e200), grid)

    @pytest.mark.parametrize(
        "m,d",
        [(1, [[-9.0]]), (2, [[-12.0, 3.0], [3.0, -8.0]]), (2, [[1.0, 2.0], [2.0, -1.0]])],
        ids=["m1", "m2", "m2_indefinite"],
    )
    @pytest.mark.parametrize("n", [150, 151])
    def test_exactly_symmetric_and_read_only(self, m, d, n):
        # n spans three row blocks, the last one partial
        grid = gauss_legendre_grid(n)
        phi = np.column_stack([np.ones(n), grid.nodes])[:, :m]
        psi = compute_psi(bridge(), phi, grid)
        k = kernel_matrix(bridge(), grid)
        d = np.array(d)
        g = perturbed_kernel(k, psi, d)
        assert np.array_equal(g, g.T)
        assert not g.flags.writeable
        assert np.abs(g - (k + psi @ d @ psi.T)).max() <= 1e-15 * np.abs(k).max()
        # the base matrix is read, not written
        np.testing.assert_array_equal(k, kernel_matrix(bridge(), grid))

    def test_asymmetric_base_rejected(self):
        # each row block reads whole rows of the base, so a base that is not
        # exactly symmetric would give an asymmetric G_A
        k = np.eye(20)
        k[3, 5] = 1e-3
        with pytest.raises(ValueError, match="kernel_mat must be exactly symmetric"):
            perturbed_kernel(k, np.ones(20), [[1.0]])

    @pytest.mark.parametrize(
        "k,psi,d,match",
        [
            (np.ones((50, 49)), np.ones(50), [[1.0]], r"kernel_mat must be square, got shape \(50, 49\)"),
            (np.ones((50, 50)), np.array([2.0]), [[1.0]], r"psi must be a non-empty array of shape \(50,\), got shape \(1,\)"),
            (np.ones((50, 50)), np.ones((50, 1, 1)), [[1.0]], r"psi must be a non-empty array of shape \(50, any\), got shape \(50, 1, 1\)"),
            (np.ones((50, 50)), np.ones((50, 2)), [[1.0]], r"d must be a non-empty array of shape \(2, 2\), got shape \(1, 1\)"),
            (np.ones((50, 50)), np.ones(50), 1.0, r"d must be a non-empty array of shape \(1, 1\), got shape \(\)"),
        ],
        ids=["non_square", "short_psi", "psi_3d", "d_too_small", "d_scalar"],
    )
    def test_shapes_validated(self, k, psi, d, match):
        # a short psi used to broadcast: K + 4 everywhere
        with pytest.raises(ValueError, match=match):
            perturbed_kernel(k, psi, d)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["kernel_mat", "psi", "d"])
    def test_non_finite_rejected(self, bad, where):
        args = {"kernel_mat": np.eye(20), "psi": np.ones((20, 2)), "d": np.eye(2)}
        args[where][1, 1] = bad
        with pytest.raises(ValueError, match=f"{where} must be finite"):
            perturbed_kernel(**args)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_rejected(self):
        # finite inputs whose sum overflows once gave an all-inf matrix,
        # whose annihilation residual then read inf
        with pytest.raises(NumericError, match="overflows"):
            perturbed_kernel(np.eye(3), np.full(3, 1e200), np.array([[1e200]]))


class TestClassify:
    def test_zero_matrix_non_critical(self):
        cls = classify(np.zeros((2, 2)), np.eye(2))
        assert cls.label == NON_CRITICAL
        assert cls.rank_defect == 0

    def test_inverse_is_critical(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        cls = classify(np.linalg.inv(q), q)
        assert cls.label == CRITICAL
        assert cls.rank_defect == 2

    def test_partial(self):
        cls = classify(np.diag([1.0, 0.0]), np.eye(2))
        assert cls.label == PARTIALLY_CRITICAL
        assert cls.rank_defect == 1

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_spd_inverse_critical(self, m, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        b = rng.normal(size=(m, m))
        q = b @ b.T + 0.5 * np.eye(m)
        assert classify(np.linalg.inv(q), q).label == CRITICAL


class TestTheorem1:
    def test_zero_perturbation(self):
        assert theorem1_factor(np.zeros((1, 1)), np.array([[1.0 / 12.0]])) == 1.0

    def test_bridge_example(self):
        # det(1 - (1/12) * 6) = 1/2, factor 2
        assert theorem1_factor(np.array([[6.0]]), np.array([[1.0 / 12.0]])) == pytest.approx(2.0)

    def test_critical_input_rejected(self):
        with pytest.raises(NumericError):
            theorem1_factor(np.array([[12.0]]), np.array([[1.0 / 12.0]]))

    def test_nested_lists(self):
        # A and Q as nested lists, which classify and d_matrix take too; the
        # factor once read a.shape of the list and raised AttributeError
        assert theorem1_factor([[6.0]], [[1.0 / 12.0]]) == pytest.approx(2.0)
        assert theorem1_factor([[6.0, 0.0], [0.0, 0.0]], [[1.0 / 12.0, 0.0], [0.0, 1.0]]) == pytest.approx(2.0)

    @pytest.mark.parametrize("a", [18.0, 24.0, 40.0])
    def test_bridge_beyond_critical_is_positive(self, a):
        # A = 18 and A = 6 give the same D; A = 24 gives D = 0 (G_A = G0)
        q = np.array([[1.0 / 12.0]])
        assert theorem1_factor(np.array([[a]]), q) == pytest.approx(1.0 / abs(1.0 - a / 12.0))
        assert theorem1_factor(np.array([[a]]), q) > 0

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**31 - 1))
    def test_equal_d_equal_factor(self, m, seed):
        # A' = 2 Q^-1 - A has the same D (test_duality) and
        # det(E - QA') = (-1)^m det(E - QA)
        rng = np.random.Generator(np.random.PCG64(seed))
        b = rng.normal(size=(m, m))
        q = b @ b.T + 0.5 * np.eye(m)
        a = rng.normal(size=(m, m))
        a_mirror = 2.0 * np.linalg.inv(q) - a
        if classify(a, q).label != NON_CRITICAL or classify(a_mirror, q).label != NON_CRITICAL:
            return
        np.testing.assert_allclose(d_matrix(a_mirror, q), d_matrix(a, q), atol=1e-8 * (1.0 + np.abs(d_matrix(a, q)).max()))
        assert theorem1_factor(a_mirror, q) == pytest.approx(theorem1_factor(a, q), rel=1e-8)
        assert theorem1_factor(a, q) > 0

    def test_spectral_product(self, bridge_spectrum_2000, perturbed_spectrum_a6):
        check = spectral_product_check(bridge_spectrum_2000, perturbed_spectrum_a6, 200)
        assert check.value == pytest.approx(0.25, rel=0.01)
        assert check.diagnostic < 0.01

    def test_product_identity_spectrum(self, bridge_spectrum_2000):
        check = spectral_product_check(bridge_spectrum_2000, bridge_spectrum_2000, 100)
        assert check.value == 1.0
        assert check.diagnostic == 0.0

    def test_distortion_constant_matches(self, bridge_spectrum_2000, perturbed_spectrum_a6):
        num = WeightSeq(head=bridge_spectrum_2000.eigenvalues[:200])
        den = WeightSeq(head=perturbed_spectrum_a6.eigenvalues[:200])
        assert distortion_constant(num, den) == pytest.approx(2.0, rel=0.01)

    def test_end_to_end_transfer(self, bridge_spectrum_2000, perturbed_spectrum_a6):
        # saddlepoint probabilities on the two spectra must transfer by the
        # determinant factor at small eps
        n_w = 400
        tail0 = float(np.sum(1.0 / (np.pi * np.arange(n_w + 1, 200000)) ** 2))
        r = 0.05**2
        lp0 = cdf_saddlepoint(
            WeightSeq(head=bridge_spectrum_2000.eigenvalues[:n_w], tail_sum_bound=tail0), r
        ).log_value
        lp_a = cdf_saddlepoint(
            WeightSeq(head=perturbed_spectrum_a6.eigenvalues[:n_w], tail_sum_bound=tail0), r
        ).log_value
        assert math.exp(lp_a - lp0) == pytest.approx(2.0, rel=0.05)

    def test_interlacing(self, bridge_spectrum_2000, perturbed_spectrum_a6, perturbed_spectrum_a12):
        mu0 = bridge_spectrum_2000.eigenvalues
        for pert in (perturbed_spectrum_a6, perturbed_spectrum_a12):
            mu = pert.eigenvalues[:300]
            slack = 1e-9 * mu0[0]
            assert np.all(mu[1:300] <= mu0[: 300 - 1] + slack)
            assert np.all(mu[:300] >= mu0[1:301] - slack)


@pytest.fixture(scope="module")
def bridge_base_400():
    grid = gauss_legendre_grid(400)
    return grid, nystrom_spectrum(bridge(), grid, 200)


@settings(deadline=None, max_examples=15)
@given(st.floats(min_value=-40.0, max_value=80.0).filter(lambda a: abs(1.0 - a / 12.0) > 0.1))
def test_theorem1_factor_matches_eigenvalue_product(bridge_base_400, a):
    # factor^2 * prod mu_k(A) / mu_k(0) -> 1 on both sides of A = Q^-1 = 12
    grid, base = bridge_base_400
    pert = PerturbationSpec(phi=np.ones(grid.size), a_matrix=np.array([[a]]), grid=grid)
    gram = build_gram(bridge(), pert)
    g_a = perturbed_kernel(kernel_matrix(bridge(), grid), gram.psi, gram.d_matrix)
    spec_a = nystrom_spectrum(sampled(grid, g_a, diag_jump=np.ones(grid.size), green_order=1), grid, 200)
    product = spectral_product_check(base, spec_a, 100).value
    factor = theorem1_factor(pert.a_matrix, gram.q_matrix)
    assert factor > 0
    assert factor * factor * product == pytest.approx(1.0, abs=1e-3)


class TestCorollaries:
    def test_duality_spectra_coincide(self, gl2000, bridge_spectrum_2000):
        # A and 2 Q^{-1} - A give identically distributed processes, so the
        # perturbed kernels share their Nystrom spectrum
        phi = np.ones(gl2000.size)
        a = np.array([[6.0]])
        spec = PerturbationSpec(phi=phi, a_matrix=a, grid=gl2000)
        gram = build_gram(bridge(), spec)
        dual_a = 2.0 * np.linalg.inv(gram.q_matrix) - a
        base = kernel_matrix(bridge(), gl2000)
        g_1 = perturbed_kernel(base, gram.psi, gram.d_matrix)
        g_2 = perturbed_kernel(base, gram.psi, d_matrix(dual_a, gram.q_matrix))
        np.testing.assert_allclose(g_1, g_2, rtol=0, atol=1e-12)


class TestCriticalCase:
    def test_shifted_eigenproduct(self, bridge_spectrum_2000, perturbed_spectrum_a12):
        # prod mu_k(A) / mu_{k+1}(0) -> det(int phi phi^T)/(det Q * lambda_1)
        # = 12 / pi^2 for the constant-function critical bridge perturbation
        check = spectral_product_check(bridge_spectrum_2000, perturbed_spectrum_a12, 200, shift=1)
        assert check.value == pytest.approx(12.0 / math.pi**2, rel=0.01)
        assert check.diagnostic < 0.01

    def test_prefactor_value(self, g500):
        phi = np.ones(g500.size)
        psi = compute_psi(bridge(), phi, g500)
        q = gram_q(phi, psi, g500)
        assert critical_prefactor(q, phi, g500) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), rel=1e-9)

    def test_prefactor_scale_invariance(self, g500):
        c = 3.7
        phi = np.ones(g500.size)
        psi = compute_psi(bridge(), phi, g500)
        q = gram_q(phi, psi, g500)
        q_scaled = gram_q(c * phi, compute_psi(bridge(), c * phi, g500), g500)
        assert critical_prefactor(q_scaled, c * phi, g500) == pytest.approx(
            critical_prefactor(q, phi, g500), rel=1e-10
        )

    def test_prefactor_orthonormal_family(self, g500):
        s = nystrom_spectrum(bridge(), g500, 3)
        phi = s.eigvecs[:, :2]  # weighted-orthonormal: int phi phi^T = I
        q = np.diag([2.0, 3.0])
        assert critical_prefactor(q, phi, g500) == pytest.approx(math.sqrt(6.0), rel=1e-8)


class TestBateman:
    def test_limit_at_zero(self, bridge_spectrum_2000, bridge_gram_a6):
        _, gram = bridge_gram_a6
        coeffs = fourier_coefficients(bridge_spectrum_2000, gram.psi)
        assert bateman_ratio(0.0, coeffs, gram.d_matrix) == 1.0

    def test_matches_fredholm_product(
        self, bridge_spectrum_2000, perturbed_spectrum_a6, bridge_gram_a6
    ):
        _, gram = bridge_gram_a6
        coeffs = fourier_coefficients(bridge_spectrum_2000, gram.psi)
        z = -10.0
        det_l = bateman_ratio(z, coeffs, gram.d_matrix)
        lam0 = bridge_spectrum_2000.inverse_eigenvalues[:200]
        lam_a = perturbed_spectrum_a6.inverse_eigenvalues[:200]
        product = float(np.prod((1.0 - z / lam_a) / (1.0 - z / lam0)))
        assert abs(det_l.real / product - 1.0) < 1e-3
        assert abs(det_l.imag) < 1e-12

    def test_critical_z_det_limit(self, bridge_spectrum_2000, bridge_gram_a12):
        # critically perturbed: z det L(z) tends to the finite value
        # -(int phi^2) / Q = -12 as z -> -inf
        _, gram = bridge_gram_a12
        coeffs = fourier_coefficients(bridge_spectrum_2000, gram.psi)
        vals = [
            z * bateman_ratio(z, coeffs, gram.d_matrix)
            for z in (-1e3, -1e5, -1e7)
        ]
        mags = [abs(v) for v in vals]
        assert abs(mags[-1] - 12.0) / 12.0 < 0.05
        assert abs(mags[2] - 12.0) < abs(mags[0] - 12.0)

    def test_pole_rejected(self, bridge_spectrum_2000, bridge_gram_a6):
        _, gram = bridge_gram_a6
        coeffs = fourier_coefficients(bridge_spectrum_2000, gram.psi)
        z = float(bridge_spectrum_2000.inverse_eigenvalues[0])
        with pytest.raises(NumericError):
            bateman_ratio(z, coeffs, gram.d_matrix)


class TestTheorem2Closed:
    def test_m_zero_scales_amplitude_only(self):
        base = green_base_form(1, amplitude=2.0, power=0.5)
        out = theorem2_closed(base, 0, 0.3)
        assert out.amplitude == pytest.approx(0.6, rel=1e-15)
        assert (out.power, out.order, out.rate) == (base.power, base.order, base.rate)

    def test_amplitude_and_power_ledger(self):
        base = green_base_form(1, amplitude=1.0, power=0.0)  # order 1, rate 1/8
        pref = 0.7
        for m in (1, 2, 3):
            out = theorem2_closed(base, m, pref)
            assert out.power == pytest.approx(-m * 1.0, rel=1e-14)
            expected_amp = pref * (2.0 * base.rate * base.order) ** (m / 2.0)
            assert out.amplitude == pytest.approx(expected_amp, rel=1e-12)

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_identity_with_theorem3(self, l, m):
        base = green_base_form(l, amplitude=1.3, power=0.4)
        pref = 0.2886751345948129
        closed = theorem2_closed(base, m, pref)
        for eps in (0.05, 0.1, 0.3):
            ratio = math.exp(closed.log_evaluate(eps * eps) - base.log_evaluate(eps * eps))
            assert ratio == pytest.approx(theorem3_asymptotic(l, m, pref, eps), rel=1e-10)


class TestTheorem2Numeric:
    def test_constant_derivative(self):
        # int_0^r (r-x)^(-1/2) dx = 2 sqrt(r)
        r = 0.3
        assert theorem2_convolution_numeric(lambda x: 1.0, 1, r) == pytest.approx(
            2.0 * math.sqrt(r), rel=1e-10
        )

    def test_exponential_integrand_matches_abel(self):
        r = 0.02
        num = theorem2_convolution_numeric(lambda x: math.exp(-1.0 / x) if x > 0 else 0.0, 1, r)
        assert abs(num / abel_value(r) - 1.0) < 0.10

    def test_double_convolution_beta_closed_form(self):
        # F0''(x) = x: two Abel steps give B(2,1/2) B(5/2,1/2) r^2 = (pi/2) r^2
        r = 0.25
        num = theorem2_convolution_numeric(lambda x: x, 2, r)
        assert num == pytest.approx(math.pi / 2.0 * r * r, rel=1e-8)

    def test_double_convolution_vs_mc_quadrature(self):
        # independent 2-d Monte Carlo evaluation of the same nested integral
        r = 0.25
        rng = np.random.Generator(np.random.PCG64(5))
        n = 400000
        r1 = r * rng.random(n)
        r2 = r1 * rng.random(n)
        vals = r2 / np.sqrt((r - r1) * (r1 - r2)) * r * r1
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(n))
        num = theorem2_convolution_numeric(lambda x: x, 2, r)
        assert abs(num - mc) < 4 * se

    @given(st.sampled_from([math.nan, math.inf]))
    def test_non_finite_r_rejected(self, r):
        # a nan r used to come back as 0.0
        with pytest.raises(ValueError, match="r must be positive and finite"):
            theorem2_convolution_numeric(lambda x: 1.0, 1, r)


def abel_value(r):
    from smallball import AsymptoticForm, abel_reduce

    return abel_reduce(AsymptoticForm(1.0, 0.0, 1.0, 1.0)).evaluate(r)


class TestTheorem3:
    def test_bridge_value(self):
        pref = 1.0 / (2.0 * math.sqrt(3.0))
        factor = theorem3_asymptotic(1, 1, pref, 0.1)
        assert factor == pytest.approx(pref / 0.02, rel=1e-12)

    def test_eps_scaling(self):
        f1 = theorem3_asymptotic(1, 1, 1.0, 0.1)
        f2 = theorem3_asymptotic(1, 1, 1.0, 0.05)
        assert f2 / f1 == pytest.approx(4.0, rel=1e-12)

    def test_order_two_base(self):
        # 2l sin(pi/(2l)) = 2 sqrt(2) at l = 2
        f = theorem3_asymptotic(2, 1, 1.0, 1.0)
        assert f == pytest.approx((2.0 * math.sqrt(2.0)) ** (-2.0 / 3.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem3_asymptotic(0, 1, 1.0, 0.1)
        with pytest.raises(ValueError):
            theorem3_asymptotic(1, 1, 1.0, -0.1)

    @given(st.sampled_from([math.nan, math.inf]))
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            theorem3_asymptotic(1, 1, 1.0, eps)

    @pytest.mark.parametrize("l, m, eps", [(1, 1, 1e-200), (2, 3, 1e-120), (1, 2, 1e-100)])
    def test_factor_beyond_double_range_raises(self, l, m, eps):
        # eps^2 = 1e-400 once raised ZeroDivisionError, and (2 sqrt 2 1e-240)^-2
        # an OverflowError; both factors exceed the double range
        with pytest.raises(NumericError, match=f"eps = {eps!r}"):
            theorem3_asymptotic(l, m, 1.0, eps)

    def test_underflowing_eps_square(self):
        # eps^2 = 1e-340 is below the double range but the factor is not:
        # (3 eps^2)^(-3/5) at l = 3, and the prefactor alone at m = 0
        expected = math.exp(-0.6 * (math.log(3.0) - 340.0 * math.log(10.0)))
        assert theorem3_asymptotic(3, 1, 1.0, 1e-170) == pytest.approx(expected, rel=1e-12)
        assert theorem3_asymptotic(1, 0, 0.7, 1e-200) == pytest.approx(0.7, rel=1e-15)


@pytest.fixture(scope="module")
def wiener_setup():
    from smallball import wiener

    grid = gauss_legendre_grid(1500)
    phi = np.ones(grid.size)
    spec = PerturbationSpec(phi=phi, a_matrix=np.array([[1.0]]), grid=grid)
    gram = build_gram(wiener(), spec)
    return grid, phi, spec, gram


class TestWienerPipeline:
    """The full transfer machinery on the second catalog kernel."""

    def test_psi_and_q_closed_forms(self, wiener_setup):
        # int_0^1 min(x,y) dy = x - x^2/2 and Q = int (x - x^2/2) dx = 1/3
        grid, phi, spec, gram = wiener_setup
        exact_psi = grid.nodes - grid.nodes**2 / 2.0
        assert np.abs(gram.psi[:, 0] - exact_psi).max() < 1e-9
        assert gram.q_matrix[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_transfer_factor_and_product(self, wiener_setup):
        from smallball import sampled, wiener

        grid, phi, spec, gram = wiener_setup
        factor = theorem1_factor(spec.a_matrix, gram.q_matrix)
        assert factor == pytest.approx(1.5, rel=1e-9)
        spec0 = nystrom_spectrum(wiener(), grid, 300)
        g_a = perturbed_kernel(kernel_matrix(wiener(), grid), gram.psi, gram.d_matrix)
        spec_a = nystrom_spectrum(
            sampled(grid, g_a, diag_jump=np.ones(grid.size)), grid, 300
        )
        check = spectral_product_check(spec0, spec_a, 150)
        assert check.value == pytest.approx((2.0 / 3.0) ** 2, rel=0.01)

    def test_critical_configuration(self, wiener_setup):
        from smallball import wiener

        grid, phi, _, _ = wiener_setup
        crit = PerturbationSpec(phi=phi, a_matrix=np.array([[3.0]]), grid=grid)
        gram = build_gram(wiener(), crit)
        assert classify(crit.a_matrix, gram.q_matrix).label == CRITICAL
        g_c = perturbed_kernel(kernel_matrix(wiener(), grid), gram.psi, gram.d_matrix)
        assert annihilation_residual(wiener(), g_c, phi, grid) < 1e-9


class TestBatemanComplex:
    def test_complex_argument_matches_product(
        self, bridge_spectrum_2000, perturbed_spectrum_a6, bridge_gram_a6
    ):
        from smallball import fourier_coefficients

        _, gram = bridge_gram_a6
        coeffs = fourier_coefficients(bridge_spectrum_2000, gram.psi)
        z = complex(-4.0, 9.0)
        det_l = bateman_ratio(z, coeffs, gram.d_matrix)
        lam0 = bridge_spectrum_2000.inverse_eigenvalues[:250]
        lam_a = perturbed_spectrum_a6.inverse_eigenvalues[:250]
        product = complex(np.prod((1.0 - z / lam_a) / (1.0 - z / lam0)))
        assert abs(det_l - product) / abs(product) < 1e-3
