"""Durbin limiting processes for goodness-of-fit with estimated parameters.

When the first m parameters of F(x, theta) are estimated by maximum
likelihood, the empirical process of the transformed sample converges to a
Gaussian process with covariance

    G(s, t) = G_B(s, t) - psi(s)^T S^{-1} psi(t),

where G_B is the Brownian bridge covariance, psi_j(t) = dF/dtheta_j at
t = F(x, theta0), and S is the Fisher information matrix, equal to
int_0^1 psi' psi'^T dt in the time-transformed coordinates.

For the bridge the perturbing functions are phi_j = -psi_j'', the Gram
matrix Q reproduces S, and A = S^{-1} = Q^{-1}: every catalog family is a
critical perturbation.  ``durbin_model`` verifies both facts numerically at
construction, and the limit law is that validated perturbation:
``durbin_kernel_matrix`` is ``perturbed_kernel`` of the bridge with
D = -A = -S^{-1}, so ``durbin_kernel_spec`` raises ConsistencyError for a
family whose model fails validation.

Catalog families (closed-form psi, psi', psi'' and MLE):

* normal_location        N(mu, 1), mu estimated by the sample mean
* normal_location_scale  N(mu, sigma^2), (mu, sigma) by mean and MLE sd
* exponential_rate       Exp(lam), lam by 1/mean
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, perturbation
from .errors import ConsistencyError, _check_array, _check_integer, _check_positive
from .grids import Grid, graded_endpoint_grid
from .quadform import SAMPLER_BLOCK, _norm_pdf, _sharded_map

__all__ = [
    "FamilySpec",
    "DurbinModel",
    "normal_location",
    "normal_location_scale",
    "exponential_rate",
    "durbin_psi",
    "durbin_psi_prime",
    "durbin_phi",
    "fisher_matrix",
    "durbin_model",
    "durbin_kernel_matrix",
    "durbin_kernel_spec",
    "simulate_omega2",
]


def __getattr__(name):
    # benchmark/tracing.py times ``durbin.ndtr`` and ``durbin.ndtri``, which
    # this module imports where it calls them, so scipy.special is imported
    # only when the tracer looks the names up.  Serves the tracer only;
    # delete with ROADMAP item 1.
    if name in ("ndtr", "ndtri"):
        import scipy.special

        return getattr(scipy.special, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the theta0 components of each catalog family, all of them estimated;
# every component but the location mu must be positive
_FAMILIES = {"normal_location": ("mu",), "normal_location_scale": ("mu", "sigma"), "exponential_rate": ("lam",)}

Q_VS_S_TOL = 1e-6
MODEL_GRID_SIZE = 500

# replications per generator shard of the omega^2 simulator; the split fixes
# which generator draws which replication, so it is part of every seeded
# result.  A shard works through its replications in row blocks of about
# quadform.SAMPLER_BLOCK draws, so a worker's memory does not grow with it.
OMEGA2_SHARD_REPS = 8192


@dataclass(frozen=True)
class FamilySpec:
    """A parametric family with the set of estimated parameters fixed by
    the catalog tag.  theta0 is the true parameter vector used both for the
    closed forms (scale/rate enter them) and as the sampling distribution of
    the simulator."""

    family: str
    theta0: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unsupported family {self.family!r}")
        names = _FAMILIES[self.family]
        object.__setattr__(self, "theta0", tuple(_check_array("theta0", self.theta0, (len(names),)).tolist()))
        for name, v in zip(names, self.theta0):
            if name != "mu":
                _check_positive(name, v)

    @property
    def m(self) -> int:
        return len(_FAMILIES[self.family])


def normal_location(mu: float = 0.0) -> FamilySpec:
    return FamilySpec("normal_location", (mu,))


def normal_location_scale(mu: float = 0.0, sigma: float = 1.0) -> FamilySpec:
    return FamilySpec("normal_location_scale", (mu, sigma))


def exponential_rate(lam: float = 1.0) -> FamilySpec:
    return FamilySpec("exponential_rate", (lam,))


def _closed_forms(fam: FamilySpec, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, psi', phi) on the grid nodes, one column per estimated
    parameter.  The normal location column is the location-scale one at
    sigma = 1."""
    t = grid.nodes
    if fam.family == "exponential_rate":
        lam = fam.theta0[0]
        log_surv = np.log1p(-t)
        cols = [(-(1.0 - t) * log_surv / lam, (log_surv + 1.0) / lam, 1.0 / (lam * (1.0 - t)))]
    else:
        from scipy.special import ndtri  # kept off the import path

        sigma = fam.theta0[1] if fam.m == 2 else 1.0
        z = ndtri(t)
        p = _norm_pdf(z)
        cols = [(-p / sigma, z / sigma, -1.0 / (sigma * p))]
        if fam.m == 2:
            cols.append((-z * p / sigma, (z * z - 1.0) / sigma, -2.0 * z / (sigma * p)))
    return tuple(np.column_stack(c) for c in zip(*cols))


def durbin_psi(fam: FamilySpec, grid: Grid) -> np.ndarray:
    """psi_j(t) = dF/dtheta_j at t = F(x, theta0), one column per estimated
    parameter.  All catalog psi vanish at both endpoints."""
    return _closed_forms(fam, grid)[0]


def durbin_psi_prime(fam: FamilySpec, grid: Grid) -> np.ndarray:
    """Analytic d psi / dt (the score in transformed time)."""
    return _closed_forms(fam, grid)[1]


def durbin_phi(fam: FamilySpec, grid: Grid) -> np.ndarray:
    """phi_j = -psi_j'', analytic per family.

    The second derivatives involve 1/pdf factors that explode toward the
    endpoints, which is why these are closed forms and not difference
    quotients.
    """
    return _closed_forms(fam, grid)[2]


def fisher_matrix(fam: FamilySpec, grid: Grid) -> np.ndarray:
    """S = int_0^1 psi' psi'^T dt on the given grid.

    The integrands have logarithmic endpoint singularities, so pass a
    graded grid (as durbin_model does) rather than a plain Gauss rule when
    1e-6 accuracy matters.
    """
    return _gram_of_scores(durbin_psi_prime(fam, grid), grid)


def _gram_of_scores(psi_prime: np.ndarray, grid: Grid) -> np.ndarray:
    s = (psi_prime * grid.weights[:, None]).T @ psi_prime
    return 0.5 * (s + s.T)


@dataclass(frozen=True, eq=False)
class DurbinModel:
    """Validated Durbin perturbation data for one family."""

    fam: FamilySpec
    grid: Grid
    psi: np.ndarray
    phi: np.ndarray
    fisher: np.ndarray
    q_matrix: np.ndarray
    a_matrix: np.ndarray
    classification: perturbation.Classification

    @property
    def trace(self) -> float:
        """int G(t, t) dt of the limiting covariance, which is also the mean
        of the limiting statistic."""
        bridge_trace = float(np.sum(self.grid.weights * self.grid.nodes * (1.0 - self.grid.nodes)))
        red = float(np.einsum("ij,ni,nj,n->", self.a_matrix, self.psi, self.psi, self.grid.weights))
        return bridge_trace - red


def durbin_model(fam: FamilySpec) -> DurbinModel:
    """Build and validate the Durbin perturbation of the Brownian bridge on
    ``graded_endpoint_grid(MODEL_GRID_SIZE)``.

    Validation recomputes Q = int psi_i phi_j through the bridge pairing and
    requires max|Q - S| <= Q_VS_S_TOL, then classifies (A = S^{-1}, Q),
    which must come out critical.
    """
    grid = graded_endpoint_grid(MODEL_GRID_SIZE)
    psi, psi_prime, phi = _closed_forms(fam, grid)
    s = _gram_of_scores(psi_prime, grid)
    q = perturbation.gram_q(phi, psi, grid)
    gap = float(np.abs(q - s).max())
    if gap > Q_VS_S_TOL:
        raise ConsistencyError(
            f"Gram matrix disagrees with Fisher information: max|Q - S| = {gap:.3e}"
        )
    a = np.linalg.inv(s)
    cls = perturbation.classify(a, q)
    if cls.label != perturbation.CRITICAL:
        raise ConsistencyError(f"Durbin perturbation classified {cls.label}, expected critical")
    return DurbinModel(
        fam=fam,
        grid=grid,
        psi=psi,
        phi=phi,
        fisher=s,
        q_matrix=q,
        a_matrix=a,
        classification=cls,
    )


def durbin_kernel_matrix(fam: FamilySpec, grid: Grid) -> np.ndarray:
    """The limiting covariance G_B - psi^T S^{-1} psi on a grid: the critical
    perturbation ``durbin_model`` validates, where A = S^{-1} = Q^{-1} makes
    D = -A.  S comes from the model's graded grid, so coarse evaluation grids
    do not distort the subtracted term."""
    d = -durbin_model(fam).a_matrix
    bridge = kernels.kernel_matrix(kernels.bridge(), grid)
    return perturbation.perturbed_kernel(bridge, durbin_psi(fam, grid), d)


def durbin_kernel_spec(fam: FamilySpec, grid: Grid) -> kernels.KernelSpec:
    """Sampled kernel spec of the limiting covariance, carrying the bridge
    diagonal jump and Green order so the spectral solver keeps its accuracy."""
    mat = durbin_kernel_matrix(fam, grid)
    bridge = kernels.bridge()
    jump = kernels.diagonal_jump(bridge, grid.nodes)
    return kernels.sampled(grid, mat, diag_jump=jump, green_order=bridge.green_order)


def _mle_transform(fam: FamilySpec, x: np.ndarray) -> np.ndarray:
    """Estimate the family parameters row-wise and push each sample through
    its fitted distribution function."""
    if fam.family == "exponential_rate":
        lam_hat = 1.0 / x.mean(axis=1, keepdims=True)
        return -np.expm1(-lam_hat * x)
    from scipy.special import ndtr  # kept off the import path

    mu_hat = x.mean(axis=1, keepdims=True)
    if fam.family == "normal_location":
        return ndtr(x - mu_hat)
    sd_hat = np.sqrt(np.mean((x - mu_hat) ** 2, axis=1, keepdims=True))
    return ndtr((x - mu_hat) / sd_hat)


def _draw(fam: FamilySpec, rng: np.random.Generator, shape) -> np.ndarray:
    """Samples from F(., theta0): exponentials by inverse CDF of uniforms,
    normals as mu + sigma z with z from ``Generator.standard_normal`` (the
    ziggurat) and sigma = 1 for the location family."""
    if fam.family == "exponential_rate":
        return -np.log1p(-rng.random(shape)) / fam.theta0[0]
    sigma = fam.theta0[1] if fam.m == 2 else 1.0
    return fam.theta0[0] + sigma * rng.standard_normal(shape)


def simulate_omega2(fam: FamilySpec, n: int, reps: int, seed: int) -> np.ndarray:
    """Replications of the omega^2 statistic n * int (F_hat_n(t) - t)^2 dt
    with parameters re-estimated on every replication.

    Each replication draws n samples from F(., theta0), fits the closed-form
    MLE, transforms the data through the fitted distribution function and
    evaluates the order-statistic form

        sum_i (t_(i) - (2i-1)/(2n))^2 + 1/(12 n).

    Replication j falls in shard j // OMEGA2_SHARD_REPS, and each shard
    draws from its own generator spawned from seed (``quadform._sharded_map``),
    so output is reproducible for a fixed seed and independent of threading
    (SMALLBALL_THREADS).
    """
    _check_integer("sample size n", n, 2)
    _check_integer("reps", reps, 1)
    _check_integer("seed", seed, 0)
    centers = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)

    rows = max(1, SAMPLER_BLOCK // n)

    def omega2(rng, b):
        # rows come from the shard's generator in order and each is reduced
        # on its own, so the row blocking does not change any value
        out = np.empty(b)
        for lo in range(0, b, rows):
            hi = min(lo + rows, b)
            t = _mle_transform(fam, _draw(fam, rng, (hi - lo, n)))
            t.sort(axis=1)
            out[lo:hi] = ((t - centers) ** 2).sum(axis=1) + 1.0 / (12.0 * n)
        return out

    sizes = [min(OMEGA2_SHARD_REPS, reps - pos) for pos in range(0, reps, OMEGA2_SHARD_REPS)]
    return np.concatenate(_sharded_map(omega2, seed, sizes))
