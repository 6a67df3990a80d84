import numpy as np
import pytest
from scipy.integrate import quad

from smallball import (
    DataError,
    NumericError,
    PerturbationSpec,
    annihilation_residual,
    bridge,
    build_gram,
    compute_psi,
    diagonal_jump,
    durbin_kernel_spec,
    exponential_rate,
    fourier_coefficients,
    gauss_legendre_grid,
    graded_endpoint_grid,
    kernel_matrix,
    kink_correction,
    normal_location,
    normal_location_scale,
    nystrom_spectrum,
    ornstein_uhlenbeck,
    perturbed_kernel,
    sampled,
    spectral_product_check,
    wiener,
)
from smallball import spectral
from smallball.spectral import EIGENVALUE_FLOOR, _Discretization, _eigenvalues

BRIDGE_MU = lambda k: 1.0 / (np.pi * k) ** 2  # noqa: E731
WIENER_MU = lambda k: 1.0 / ((k - 0.5) * np.pi) ** 2  # noqa: E731


def test_bridge_leading_eigenvalue(bridge_spectrum_2000):
    assert bridge_spectrum_2000.eigenvalues[0] == pytest.approx(1.0 / np.pi**2, rel=1e-7)


def test_wiener_leading_eigenvalue(wiener_spectrum_2000):
    assert wiener_spectrum_2000.eigenvalues[0] == pytest.approx((np.pi / 2.0) ** -2, rel=1e-7)


def test_bridge_closed_form_head(bridge_spectrum_2000):
    k = np.arange(1, 21)
    rel = np.abs(bridge_spectrum_2000.eigenvalues[:20] / BRIDGE_MU(k) - 1.0)
    assert rel.max() < 1e-6


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts calls of numpy.linalg.eigh, the eigensolver with vectors."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_zero_kernel_empty_spectrum():
    grid = gauss_legendre_grid(20)
    spec = sampled(grid, np.zeros((20, 20)))
    s = nystrom_spectrum(spec, grid, 5)
    assert s.truncation_count == 0
    assert s.eigenvalues.size == 0
    assert s.eigvecs.shape == (20, 0)


def test_k_max_validation():
    grid = gauss_legendre_grid(10)
    with pytest.raises(ValueError):
        nystrom_spectrum(bridge(), grid, 11)
    with pytest.raises(ValueError):
        nystrom_spectrum(bridge(), grid, 0)


def test_non_psd_sampled_rejected(eigh_calls):
    grid = gauss_legendre_grid(5)
    with pytest.raises(DataError):
        nystrom_spectrum(sampled(grid, -np.eye(5)), grid, 2)
    # rejected at construction, from the eigenvalue pass alone
    assert eigh_calls == []


def _bridge_perturbation(grid, a):
    # the perturb_sweep op: G_A = G0 + psi D psi^T for phi = 1
    gram = build_gram(bridge(), PerturbationSpec(phi=np.ones(grid.size), a_matrix=np.array([[a]]), grid=grid))
    g_a = perturbed_kernel(kernel_matrix(bridge(), grid), gram.psi, gram.d_matrix)
    return sampled(grid, g_a, diag_jump=np.ones(grid.size), green_order=1)


def test_eigenvectors_computed_only_on_read(eigh_calls):
    grid = gauss_legendre_grid(300)
    base = nystrom_spectrum(bridge(), grid, 100)
    spec_a = nystrom_spectrum(_bridge_perturbation(grid, 6.0), grid, 100)
    spectral_product_check(base, spec_a, 50)
    assert eigh_calls == []
    # a catalog spectrum keeps no n x n array
    assert base.kernel.matrix is None
    assert all(v.size < grid.size**2 for v in vars(base).values() if isinstance(v, np.ndarray))
    vecs = spec_a.eigvecs
    assert eigh_calls == [(300, 300)]
    assert vecs.shape == (300, spec_a.truncation_count)
    # the second read is cached
    assert spec_a.eigvecs is vecs
    assert eigh_calls == [(300, 300)]


def _eager_reference(spec, grid, k_max):
    """The former eager solver: one eigh for eigenvalues and eigenvectors,
    the floor as a mask, the sign convention column by column."""
    sqrt_w = np.sqrt(grid.weights)
    b = kernel_matrix(spec, grid) * np.outer(sqrt_w, sqrt_w)
    jump = diagonal_jump(spec, grid.nodes)
    if jump is not None:
        b.flat[:: grid.size + 1] += kink_correction(jump, grid)
    vals, vecs = np.linalg.eigh(b)
    vals, vecs = vals[::-1][:k_max], vecs[:, ::-1][:, :k_max]
    keep = vals > EIGENVALUE_FLOOR * max(vals[0], 0.0)
    u = vecs[:, keep] / sqrt_w[:, None]
    for j in range(u.shape[1]):
        col = u[:, j]
        if col[np.argmax(np.abs(col) > 1e-6 * np.abs(col).max())] < 0:
            u[:, j] *= -1.0
    return vals[keep], u


@pytest.mark.parametrize("name", ["bridge", "wiener", "ou1", "non_critical", "critical", "durbin"])
def test_matches_eager_reference(name):
    grid = gauss_legendre_grid(500)
    spec = {
        "bridge": bridge,
        "wiener": wiener,
        "ou1": lambda: ornstein_uhlenbeck(1.0),
        "non_critical": lambda: _bridge_perturbation(grid, 6.0),
        "critical": lambda: _bridge_perturbation(grid, 12.0),
        "durbin": lambda: durbin_kernel_spec(normal_location(), grid),
    }[name]()
    vals, vecs = _eager_reference(spec, grid, 300)
    s = nystrom_spectrum(spec, grid, 300)
    assert s.truncation_count == vals.size
    # the split and the full solve differ by rounding of order eps * mu_1;
    # their accuracy on the head is checked against exact eigenvalues in
    # test_head_matches_exact_eigenvalues
    assert np.abs(s.eigenvalues - vals).max() <= 1e-14 * vals[0]
    np.testing.assert_array_equal(s.eigvecs, vecs)


@pytest.mark.parametrize("n", [40, 41])
def test_head_matches_exact_eigenvalues(n):
    # oracle: the eigenvalues of the same weighted matrix at 30 digits
    import mpmath

    grid = gauss_legendre_grid(n)
    head = int(0.4 * n)
    specs = {
        "bridge": bridge(),
        "ou1": ornstein_uhlenbeck(1.0),
        "critical": _bridge_perturbation(grid, 12.0),
        "durbin_nls": durbin_kernel_spec(normal_location_scale(), grid),
    }
    with mpmath.workdps(30):
        for name, spec in specs.items():
            b = _Discretization(spec, grid).matrix()
            exact = sorted(mpmath.eigsy(mpmath.matrix(b.tolist()), eigvals_only=True), reverse=True)
            exact = np.array([float(v) for v in exact])
            # the floor drops the annihilated direction of the critical kernel
            vals = nystrom_spectrum(spec, grid, n).eigenvalues
            assert np.abs(vals[:head] / exact[:head] - 1.0).max() <= 1e-13, name
            assert np.abs(vals - exact[: vals.size]).max() <= 1e-14 * exact[0], name


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes passed to numpy.linalg.eigvalsh, the eigenvalue-only solver."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("n", [49, 1001])
def test_split_route_odd_size(n, eigvalsh_calls):
    grid = gauss_legendre_grid(n)
    b = _Discretization(bridge(), grid).matrix()
    full = np.linalg.eigvalsh(b)[::-1]
    eigvalsh_calls.clear()
    vals = nystrom_spectrum(bridge(), grid, n).eigenvalues
    # the even block holds the middle node
    assert eigvalsh_calls == [(n // 2 + 1, n // 2 + 1), (n // 2, n // 2)]
    assert np.abs(vals - full[: vals.size]).max() <= 1e-14 * full[0]


def _split_reference(b):
    """E and O of the docstring of _eigenvalues, from the full matrix b."""
    n = b.shape[0]
    h, m = n // 2, n - n // 2
    a, c = b[:h, :h], b[:h, m:][:, ::-1]
    ct, d = b[m:, :h][::-1], b[m:, m:][::-1, ::-1]
    even = np.empty((m, m))
    even[:h, :h] = 0.5 * ((a + d) + (c + ct))
    odd = 0.5 * ((a + d) - (c + ct))
    if m > h:
        even[h, :h] = even[:h, h] = (b[h, :h] + b[h, m:][::-1]) / np.sqrt(2.0)
        even[h, h] = b[h, h]
    return even, odd


@pytest.mark.parametrize("n", [150, 151])
@pytest.mark.parametrize("name", ["bridge", "ou", "critical"])
def test_split_blocks_match_full_matrix(name, n):
    # the row-blocked split forms E and O bit for bit as the formulas do on
    # the full weighted matrix, over blocks that do not divide h
    grid = gauss_legendre_grid(n)
    spec = {
        "bridge": bridge,
        "ou": lambda: ornstein_uhlenbeck(3.0),
        "critical": lambda: _bridge_perturbation(grid, 12.0),
    }[name]()
    even, odd = _split_reference(_Discretization(spec, grid).matrix())
    expected = np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd))))
    np.testing.assert_array_equal(_eigenvalues(spec, grid), expected)


def _nudged_bridge(grid):
    # one symmetric off-diagonal pair moved by 1e-9 relative: at n = 50
    # ||F||_F / ||B||_F reads 1.3e-11, 18 times REFLECTION_TOL * n; at
    # n = 51 the pair sits in the middle row
    m = kernel_matrix(bridge(), grid)
    i, j = grid.size // 4, grid.size // 2
    m[i, j] = m[j, i] = m[i, j] * (1.0 + 1e-9)
    return sampled(grid, m, diag_jump=np.ones(grid.size))


@pytest.mark.parametrize(
    "name,n", [("wiener", 50), ("durbin_exponential", 50), ("nudged_bridge", 50), ("nudged_bridge", 51)]
)
def test_asymmetric_matrix_takes_full_solve(name, n, eigvalsh_calls):
    grid = gauss_legendre_grid(n)
    spec = {
        "wiener": wiener,
        "durbin_exponential": lambda: durbin_kernel_spec(exponential_rate(), grid),
        "nudged_bridge": lambda: _nudged_bridge(grid),
    }[name]()
    eigvalsh_calls.clear()
    vals = nystrom_spectrum(spec, grid, n).eigenvalues
    assert eigvalsh_calls == [(n, n)]
    full = np.linalg.eigvalsh(_Discretization(spec, grid).matrix())[::-1]
    np.testing.assert_array_equal(vals, full[: vals.size])


def test_reflection_symmetric_indefinite_rejected(eigvalsh_calls):
    grid = gauss_legendre_grid(40)
    spec = sampled(grid, kernel_matrix(bridge(), grid) - 0.5)
    eigvalsh_calls.clear()
    with pytest.raises(DataError, match="not positive semidefinite"):
        nystrom_spectrum(spec, grid, 5)
    assert eigvalsh_calls == [(20, 20), (20, 20)]


@pytest.mark.parametrize("alpha", [1e3, 1e6])
def test_under_resolved_catalog_kernel_raises(alpha):
    # the kink diagonal swamps exp(-alpha |s - t|) once alpha * h >> 1
    with pytest.raises(NumericError, match=r"alpha=.*n=100"):
        nystrom_spectrum(ornstein_uhlenbeck(alpha), gauss_legendre_grid(100), 5)


def test_spectral_integer_arguments():
    grid = gauss_legendre_grid(20)
    for bad in (5.5, True, np.float64(5.0)):
        with pytest.raises(TypeError, match="k_max"):
            nystrom_spectrum(bridge(), grid, bad)
    s = nystrom_spectrum(bridge(), grid, np.int64(10))
    with pytest.raises(TypeError, match="n_terms"):
        spectral_product_check(s, s, 5.0)
    with pytest.raises(ValueError, match="n_terms"):
        spectral_product_check(s, s, 1)
    with pytest.raises(TypeError, match="shift"):
        spectral_product_check(s, s, 5, shift=1.0)
    with pytest.raises(ValueError, match="shift"):
        spectral_product_check(s, s, 5, shift=-1)


def test_weighted_orthonormality(bridge_spectrum_2000):
    s = bridge_spectrum_2000
    gram = (s.eigvecs * s.grid.weights[:, None]).T @ s.eigvecs
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8


def test_trace_domination(bridge_spectrum_2000, gl2000):
    trace = float(gl2000.integrate(np.diag(kernel_matrix(bridge(), gl2000))))
    assert bridge_spectrum_2000.eigenvalues.sum() <= trace + 1e-12


def test_grid_refinement_convergence(gl1000, bridge_spectrum_2000):
    coarse = nystrom_spectrum(bridge(), gl1000, 20)
    rel = np.abs(coarse.eigenvalues[:20] / bridge_spectrum_2000.eigenvalues[:20] - 1.0)
    assert rel.max() < 1e-6


def test_eigenfunction_matches_sine(bridge_spectrum_2000):
    s = bridge_spectrum_2000
    t = s.grid.nodes
    for k in (1, 2, 5):
        exact = np.sqrt(2.0) * np.sin(k * np.pi * t)
        err = min(np.abs(s.eigvecs[:, k - 1] - exact).max(), np.abs(s.eigvecs[:, k - 1] + exact).max())
        assert err < 1e-6


def test_sign_convention_deterministic(gl1000):
    for spec in (bridge(), ornstein_uhlenbeck(2.5), durbin_kernel_spec(normal_location(), gl1000)):
        a = nystrom_spectrum(spec, gl1000, 200)
        b = nystrom_spectrum(spec, gl1000, 200)
        np.testing.assert_array_equal(a.eigvecs, b.eigvecs)
        # first non-negligible sample is positive, column by column
        for j in range(a.truncation_count):
            col = a.eigvecs[:, j]
            big = np.abs(col) > 1e-6 * np.abs(col).max()
            assert col[np.argmax(big)] > 0


@pytest.mark.parametrize(
    "make_grid,n", [(gauss_legendre_grid, 500), (gauss_legendre_grid, 2000), (graded_endpoint_grid, 500)]
)
def test_kink_correction_matches_dense_sum(make_grid, n):
    # oracle: the quadrature sum of |y - x_i| over the full n x n distance
    # matrix, against the prefix-sum form the library uses
    grid = make_grid(n)
    t, w = grid.nodes, grid.weights
    jump = np.linspace(0.5, 2.0, grid.size)
    dense = 0.5 * jump * (np.abs(t[None, :] - t[:, None]) @ w - (t * t - t + 0.5))
    assert np.abs(kink_correction(jump, grid) - dense).max() <= 1e-14


def test_kink_diagonal_built_once_per_call(monkeypatch):
    # each entry point builds one discretization, so one kink diagonal;
    # the annihilation check applies that one discretization twice
    grid = gauss_legendre_grid(200)
    phi = np.ones(grid.size)
    gram = build_gram(bridge(), PerturbationSpec(phi=phi, a_matrix=np.array([[12.0]]), grid=grid))
    g_c = perturbed_kernel(kernel_matrix(bridge(), grid), gram.psi, gram.d_matrix)
    calls = []

    def counted(jump, grid):
        calls.append(grid.size)
        return kink_correction(jump, grid)

    monkeypatch.setattr(spectral, "kink_correction", counted)
    for run in (
        lambda: annihilation_residual(bridge(), g_c, phi, grid),
        lambda: compute_psi(bridge(), phi, grid),
        lambda: nystrom_spectrum(bridge(), grid, 10),
    ):
        calls.clear()
        run()
        assert calls == [grid.size]


@pytest.mark.parametrize("name", ["bridge", "ou1", "critical", "no_jump"])
def test_discretization_diagonal_is_matrix_diagonal(name):
    grid = gauss_legendre_grid(101)
    spec = {
        "bridge": bridge,
        "ou1": lambda: ornstein_uhlenbeck(1.0),
        "critical": lambda: _bridge_perturbation(grid, 12.0),
        "no_jump": lambda: sampled(grid, kernel_matrix(bridge(), grid)),
    }[name]()
    op = _Discretization(spec, grid)
    np.testing.assert_array_equal(op.diagonal(), np.diagonal(op.matrix()))


def test_fourier_of_eigenfunction(bridge_spectrum_2000):
    s = bridge_spectrum_2000
    coeffs = fourier_coefficients(s, s.eigvecs[:, 0])
    a = coeffs.a[:, 0]
    assert abs(a[0] - 1.0) < 1e-8
    assert np.abs(a[1:]).max() < 1e-8


def test_fourier_of_zero(bridge_spectrum_2000):
    coeffs = fourier_coefficients(bridge_spectrum_2000, np.zeros(2000))
    assert np.abs(coeffs.a).max() == 0.0


def test_fourier_against_quadrature_oracle(bridge_spectrum_2000):
    # psi = t(1-t)/2 against u_k = sqrt(2) sin(k pi t); oracle is direct
    # adaptive quadrature of the closed-form integrand
    s = bridge_spectrum_2000
    psi = s.grid.nodes * (1.0 - s.grid.nodes) / 2.0
    a = fourier_coefficients(s, psi).a[:, 0]
    for k in (1, 2, 3, 8):
        oracle, _ = quad(lambda t, k=k: t * (1 - t) / 2 * np.sqrt(2) * np.sin(k * np.pi * t), 0, 1)
        assert abs(abs(a[k - 1]) - abs(oracle)) < 1e-8


def test_fourier_grid_mismatch(bridge_spectrum_2000):
    with pytest.raises(ValueError):
        fourier_coefficients(bridge_spectrum_2000, np.ones(123))


def test_parseval_truncation(bridge_spectrum_2000):
    s = bridge_spectrum_2000
    psi = s.grid.nodes * (1.0 - s.grid.nodes) / 2.0
    norm2 = float(s.grid.integrate(psi * psi))
    a = fourier_coefficients(s, psi).a[:, 0]
    partial_50 = float(np.sum(a[:50] ** 2))
    partial_all = float(np.sum(a**2))
    assert partial_50 <= norm2 + 1e-15
    assert partial_all <= norm2 + 1e-15
    assert norm2 - partial_all <= norm2 - partial_50 + 1e-18


def test_wiener_closed_form_head(wiener_spectrum_2000):
    k = np.arange(1, 21)
    rel = np.abs(wiener_spectrum_2000.eigenvalues[:20] / WIENER_MU(k) - 1.0)
    assert rel.max() < 1e-6


class TestOrnsteinUhlenbeck:
    @staticmethod
    def _exact_eigenvalues(alpha, count):
        # transcendental-equation oracle: on a unit interval the modes of
        # exp(-alpha|s-t|) satisfy alpha = w tan(w/2) (cosine modes) and
        # w = -alpha tan(w/2) (sine modes), with eigenvalue 2 alpha/(w^2+alpha^2)
        from scipy.optimize import brentq

        roots = []
        eps = 1e-9
        for k in range(1, count + 1):
            lo, hi = (k - 1) * np.pi + eps, k * np.pi - eps
            if k % 2 == 1:
                f = lambda w: alpha - w * np.tan(w / 2.0)  # noqa: E731
            else:
                f = lambda w: w + alpha * np.tan(w / 2.0)  # noqa: E731
            roots.append(brentq(f, lo, hi, rtol=1e-15))
        return 2.0 * alpha / (np.array(roots) ** 2 + alpha**2)

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_spectrum_matches_transcendental_roots(self, alpha):
        from smallball import ornstein_uhlenbeck

        exact = self._exact_eigenvalues(alpha, 6)
        s = nystrom_spectrum(ornstein_uhlenbeck(alpha), gauss_legendre_grid(1000), 6)
        assert np.abs(s.eigenvalues / exact - 1.0).max() < 1e-8

    def test_kink_correction_pays_off(self):
        from smallball import kernel_matrix, ornstein_uhlenbeck, sampled

        exact = self._exact_eigenvalues(1.0, 6)
        grid = gauss_legendre_grid(1000)
        corrected = nystrom_spectrum(ornstein_uhlenbeck(1.0), grid, 6)
        # a sampled kernel without jump data gets the plain rule
        plain = nystrom_spectrum(sampled(grid, kernel_matrix(ornstein_uhlenbeck(1.0), grid)), grid, 6)
        err_c = np.abs(corrected.eigenvalues / exact - 1.0).max()
        err_p = np.abs(plain.eigenvalues / exact - 1.0).max()
        assert err_c < 1e-3 * err_p
