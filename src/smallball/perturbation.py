"""Finite-dimensional perturbations of a Gaussian function and their
small-ball transfer factors.

Given m perturbing functions phi_1..phi_m and an m x m parameter matrix A,
the perturbed process has covariance

    G_A = G0 + psi^T D psi,     psi_j = int G0(., y) phi_j(y) dy,
    D   = -A - A^T + A Q A^T,   Q_ij = int psi_i phi_j.

Classification by the rank defect s of E_m - A^T Q:
s = 0 non-critical, 0 < s < m partially critical, s = m critical
(equivalently A = Q^{-1}).

Non-critical transfer: P{||X_A|| < eps} ~ P{||X_0|| < eps} / |det(E - QA)|.
Critical transfer: a prefactor sqrt(det Q / det int phi phi^T) times the
m-fold Abel smoothing of the m-th derivative of the base distribution;
for Green covariances of order 2l this collapses to the closed factor
(2l sin(pi/(2l)) eps^2)^(-lm/(2l-1)).

The Fredholm-determinant ratio of the perturbed and base kernels is the
m x m determinant det L(z) with

    L(z) = E_m + sum_n [lambda_n a_n a_n^T / (1 - lambda_n / z)] D,

which is what makes the eigenvalue products behind these factors
computable from truncated spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import AsymptoticForm, _derived_form, abel_reduce, differentiate_form
from .errors import DataError, NumericError, _check_array, _check_complex, _check_integer, _check_positive
from .grids import Grid, gauss_legendre_grid
from .kernels import ROW_BLOCK, KernelSpec, _add_rank_m, _exactly_symmetric
from .quadform import _log_product_drift
from .spectral import FourierCoeffs, Spectrum, _as_samples, _Discretization

__all__ = [
    "PerturbationSpec",
    "GramData",
    "Classification",
    "NON_CRITICAL",
    "PARTIALLY_CRITICAL",
    "CRITICAL",
    "compute_psi",
    "gram_q",
    "d_matrix",
    "perturbed_kernel",
    "annihilation_residual",
    "classify",
    "theorem1_factor",
    "spectral_product_check",
    "ProductCheck",
    "bateman_ratio",
    "critical_prefactor",
    "theorem2_closed",
    "theorem2_convolution_numeric",
    "theorem3_asymptotic",
    "build_gram",
]

CLASSIFY_TOL = 1e-8

NON_CRITICAL = "non_critical"
PARTIALLY_CRITICAL = "partially_critical"
CRITICAL = "critical"


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """m perturbing functions sampled on a grid, plus the parameter matrix.

    The sampled family must have numerical rank m in the weighted inner
    product; dependent or vanishing functions are rejected.
    """

    phi: np.ndarray
    a_matrix: np.ndarray
    grid: Grid

    def __post_init__(self):
        phi = _as_samples("phi", self.phi, self.grid.size)
        m = phi.shape[1]
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "a_matrix", _check_array("A", self.a_matrix, (m, m)))
        gram = (phi * self.grid.weights[:, None]).T @ phi
        scale = max(float(np.trace(gram)), 0.0)
        if scale <= 0:
            raise DataError("perturbing functions must not vanish")
        rank = int(np.linalg.matrix_rank(gram, tol=1e-12 * scale))
        if rank < m:
            raise DataError(f"perturbing family has rank {rank} < m = {m}")

    @property
    def m(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True, eq=False)
class GramData:
    """psi samples and the induced matrices Q and D."""

    psi: np.ndarray
    q_matrix: np.ndarray
    d_matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class Classification:
    """Rank classification of E_m - A^T Q: the label, the rank defect s and
    the singular values s was counted from."""

    label: str
    rank_defect: int
    singular_values: np.ndarray


def compute_psi(kernel: KernelSpec, phi: np.ndarray, grid: Grid) -> np.ndarray:
    """psi_j(x_i) = int G0(x_i, y) phi_j(y) dy by grid quadrature.

    The same diagonal kink correction as the spectral solver applies: for a
    catalog kernel the row-i integrand has its derivative jump exactly at
    node i.  The kernel is applied one row block at a time, so no n x n
    array is made.
    """
    psi = _Discretization(kernel, grid).apply(_as_samples("phi", phi, grid.size))
    if not np.isfinite(psi).all():
        raise NumericError("psi = G0 phi overflows double precision")
    return psi


def gram_q(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Gram matrix Q_ij = int psi_i phi_j, symmetrized.

    Q is the Gram matrix of the perturbing family in the norm induced by
    the covariance, so it must come out (numerically) symmetric positive
    definite; anything else means the family is degenerate for this kernel.
    """
    phi = _as_samples("phi", phi, grid.size)
    psi = _as_samples("psi", psi, grid.size)
    q = (psi * grid.weights[:, None]).T @ phi
    scale = max(float(np.abs(q).max()), 1e-300)
    if not np.allclose(q, q.T, rtol=0, atol=1e-10 * scale):
        raise DataError("Q is not symmetric within tolerance")
    q = 0.5 * (q + q.T)
    eigvals = np.linalg.eigvalsh(q)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 0.0):
        raise DataError("Q is not positive definite: degenerate perturbing family")
    return q


def _check_aq(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and Q checked as finite square matrices of one size."""
    a = _check_array("A and Q", a, (None, None))
    q = _check_array("A and Q", q, a.shape)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"A and Q must be square, got shape {a.shape}")
    return a, q


def d_matrix(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D = -A - A^T + A Q A^T (always symmetric); a D beyond double
    precision raises NumericError."""
    a, q = _check_aq(a, q)
    with np.errstate(over="ignore", invalid="ignore"):
        d = -a - a.T + a @ q @ a.T
        d = 0.5 * (d + d.T)
    if not np.isfinite(d).all():
        raise NumericError("D = -A - A^T + A Q A^T overflows double precision")
    return d


def build_gram(kernel: KernelSpec, spec: PerturbationSpec) -> GramData:
    """psi, Q and D for a perturbation of the given kernel."""
    psi = compute_psi(kernel, spec.phi, spec.grid)
    q = gram_q(spec.phi, psi, spec.grid)
    return GramData(psi=psi, q_matrix=q, d_matrix=d_matrix(spec.a_matrix, q))


def perturbed_kernel(kernel_mat: np.ndarray, psi: np.ndarray, d: np.ndarray) -> np.ndarray:
    """G_A = G0 + psi^T D psi on the grid, as one new read-only array.

    ``kernel_mat`` is the n x n base matrix, exactly symmetric as
    ``kernel_matrix`` returns it; ``psi`` is (n,) or (n, m) and ``d`` is
    m x m, all finite, or ValueError is raised.  Each row block is formed by
    ``kernels._add_rank_m``, the rule a ``perturbed`` kernel spec reads its
    rows by, so this array is ``kernel_matrix`` of that spec bit for bit and
    exactly symmetric.  Each row block of the result is checked, so a
    non-finite ``kernel_mat`` raises ValueError and an overflow
    NumericError.  ``sampled`` keeps the result without a copy.
    """
    # a float64 kernel_mat is checked one row block at a time below, and
    # any other value as a whole when it is converted
    if not (isinstance(kernel_mat, np.ndarray) and kernel_mat.dtype == np.float64):
        kernel_mat = _check_array("kernel_mat", kernel_mat, (None, None))
    if kernel_mat.ndim != 2 or kernel_mat.shape[0] != kernel_mat.shape[1]:
        raise ValueError(f"kernel_mat must be square, got shape {kernel_mat.shape}")
    n = kernel_mat.shape[0]
    psi = _as_samples("psi", psi, n)
    p = psi @ _check_array("d", d, (psi.shape[1],) * 2)
    out = np.empty((n, n))
    for lo in range(0, n, ROW_BLOCK):
        base = kernel_mat[lo : lo + ROW_BLOCK]
        if not np.isfinite(_add_rank_m(base, psi, p, lo, out[lo : lo + ROW_BLOCK])).all():
            if not np.isfinite(base).all():
                raise ValueError("kernel_mat must be finite")
            raise NumericError("G0 + psi^T D psi overflows double precision")
    if not _exactly_symmetric(kernel_mat):
        raise ValueError("kernel_mat must be exactly symmetric")
    out.flags.writeable = False
    return out


def annihilation_residual(
    kernel: KernelSpec,
    perturbed_mat: np.ndarray,
    phi: np.ndarray,
    grid: Grid,
) -> float:
    """Relative residual of sum_l w_l G_A(x_i, x_l) phi_j(x_l) over all i, j.

    For a critical perturbation the perturbed operator annihilates each
    phi_j.  The quadrature applies the base kernel's diagonal kink
    correction (the rank-m term is smooth across the diagonal), matching
    how every other operator action in the package is discretized.
    Every weight is positive and phi is checked, so a non-finite entry of
    ``perturbed_mat`` reaches its n x m action, which is checked instead;
    the matrix is read again only to tell that from an overflow.
    """
    phi = _as_samples("phi", phi, grid.size)
    op = _Discretization(kernel, grid)
    scale = max(float(np.abs(op.apply(phi)).max()), 1e-300)
    action = op.apply(phi, perturbed_mat)
    if not np.isfinite(action).all():
        if not np.isfinite(perturbed_mat).all():
            raise ValueError("perturbed_mat must be finite")
        raise NumericError("G_A phi overflows double precision")
    return float(np.abs(action).max()) / scale


def classify(a: np.ndarray, q: np.ndarray) -> Classification:
    """Rank classification of E_m - A^T Q.

    The rank defect s counts singular values below
    CLASSIFY_TOL * max(s_max, 1); s = 0 is non-critical, s = m critical
    (A = Q^{-1}), else partially critical of rank s.
    """
    a, q = _check_aq(a, q)
    m = a.shape[0]
    sv = np.linalg.svd(np.eye(m) - a.T @ q, compute_uv=False)
    cut = CLASSIFY_TOL * max(float(sv[0]) if sv.size else 0.0, 1.0)
    s = int(np.count_nonzero(sv < cut))
    if s == 0:
        label = NON_CRITICAL
    elif s == m:
        label = CRITICAL
    else:
        label = PARTIALLY_CRITICAL
    return Classification(label=label, rank_defect=s, singular_values=sv)


def theorem1_factor(a: np.ndarray, q: np.ndarray) -> float:
    """Small-ball transfer factor 1 / |det(E_m - Q A)| of a non-critical
    perturbation.

    The factor is a ratio of probabilities, so it is positive: it is the
    square root of the eigenvalue-product limit det(E - QA)^2.  Two
    parameter matrices with the same D (for m = 1, A and 2/Q - A) have the
    same covariance and the same factor, whatever the sign of the
    determinant."""
    a, q = _check_aq(a, q)
    cls = classify(a, q)
    if cls.label != NON_CRITICAL:
        raise NumericError(
            f"transfer factor needs a non-critical perturbation, got {cls.label} "
            f"(rank defect {cls.rank_defect})"
        )
    m = a.shape[0]
    det = float(np.linalg.det(np.eye(m) - q @ a))
    return 1.0 / abs(det)


class ProductCheck(NamedTuple):
    value: float
    diagnostic: float


def spectral_product_check(
    spec0: Spectrum,
    spec_a: Spectrum,
    n_terms: int,
    shift: int = 0,
) -> ProductCheck:
    """Truncated eigenvalue product prod_{k<=N} mu_k(A) / mu_{k+shift}(0).

    With shift = 0 the product converges to det(E - QA)^2 for non-critical
    perturbations; with shift = m it converges to the critical limit
    det(int phi phi^T) / (det Q * prod_{l<=m} lambda_l).  The diagnostic is
    |log product(N) - log product(N//2)|.
    """
    _check_integer("n_terms", n_terms, 2)
    _check_integer("shift", shift, 0)
    if not spec0.grid.same_nodes(spec_a.grid):
        raise ValueError("spectra must come from the same grid")
    if n_terms > spec_a.truncation_count or n_terms + shift > spec0.truncation_count:
        raise ValueError("n_terms exceeds the available truncated spectra")
    full, drift = _log_product_drift(
        spec_a.eigenvalues[:n_terms], spec0.eigenvalues[shift : shift + n_terms]
    )
    return ProductCheck(value=math.exp(full), diagnostic=drift)


def bateman_ratio(z: complex, coeffs: FourierCoeffs, d: np.ndarray) -> complex:
    """det L(z), the ratio F(z)/F0(z) of the perturbed and base Fredholm
    determinants, from the truncated coefficient series.

    The base eigenvalues lambda_k are those of ``coeffs.spectrum``, the
    spectrum the coefficients were computed against.  z must stay away from
    them; queries within 1e-8 relative of one raise.
    """
    lam = coeffs.spectrum.inverse_eigenvalues
    z = _check_complex("z", z)
    if z != 0:
        rel_gap = np.min(np.abs(z - lam) / np.abs(lam))
        if rel_gap < 1e-8:
            raise NumericError(f"z = {z} is within tolerance of a base eigenvalue")
    a = coeffs.a
    m = a.shape[1]
    d = _check_array("d", d, (m, m))
    if z == 0:
        return complex(1.0)
    weights = lam / (1.0 - lam / z)
    core = (a * weights[:, None]).T @ a
    return complex(np.linalg.det(np.eye(m) + core @ d))


def critical_prefactor(q: np.ndarray, phi: np.ndarray, grid: Grid) -> float:
    """sqrt(det Q / det int phi phi^T), the constant of the critical
    transfer."""
    phi = _as_samples("phi", phi, grid.size)
    q = _check_array("q", q, (phi.shape[1],) * 2)
    gram = (phi * grid.weights[:, None]).T @ phi
    det_gram = float(np.linalg.det(gram))
    if det_gram <= 1e-14 * max(float(np.trace(gram)) ** phi.shape[1], 1e-300):
        raise DataError("perturbing family Gram matrix is rank deficient")
    det_q = float(np.linalg.det(q))
    return math.sqrt(det_q / det_gram)


def theorem2_closed(base: AsymptoticForm, m: int, prefactor: float) -> AsymptoticForm:
    """Critical small-ball form: differentiate the base form m times, apply
    the Abel smoothing m times, and scale by prefactor * (2/pi)^(m/2).

    Net effect on (A, alpha, beta, D): amplitude gains
    prefactor * (2 D beta)^(m/2) and the power drops by m (beta+1)/2.  A
    form beyond the double range raises NumericError.
    """
    _check_integer("m", m, 0)
    prefactor = _check_positive("prefactor", prefactor)
    form = differentiate_form(base, m)
    for _ in range(m):
        form = abel_reduce(form)
    return _derived_form(
        "theorem2_closed",
        amplitude=form.amplitude * prefactor * (2.0 / math.pi) ** (m / 2.0),
        power=form.power,
        order=form.order,
        rate=form.rate,
    )


# Gauss-Legendre nodes per level of the Abel convolution: after x = r - y^2
# an integrand that vanishes like (r - x)^(3/2) at the upper end, the
# roughest of the checks, converges as p^-5; at p = 64 the double
# convolution of F0'' = x is within 4e-10 of (pi/2) r^2
_ABEL_NODES = 64


def theorem2_convolution_numeric(
    f0_derivative: Callable[[float], float],
    m: int,
    r: float,
) -> float:
    """The m-fold Abel convolution

        int_0^r ... int_0^{r_{m-1}} F0^(m)(r_m)
            prod (r_{i-1} - r_i)^(-1/2) dr_m ... dr_1

    with the substitution x = r - y^2 absorbing each square-root endpoint,
    and each level on the package's ``_ABEL_NODES``-point Gauss-Legendre
    rule in y.  Cross-check for the closed pipeline on synthetic
    integrands; it calls ``f0_derivative`` _ABEL_NODES^m times.  A
    non-finite result raises NumericError.
    """
    _check_integer("m", m, 1)
    r = _check_positive("r", r)
    grid = gauss_legendre_grid(_ABEL_NODES)

    def level(j: int, upper: float) -> float:
        inner = f0_derivative if j == 1 else (lambda x: level(j - 1, x))
        root = math.sqrt(upper)
        y = root * grid.nodes
        return 2.0 * root * float(grid.weights @ np.array([inner(x) for x in upper - y * y]))

    value = level(m, r)
    if not math.isfinite(value):
        raise NumericError("nested Abel convolution is not finite")
    return value


def theorem3_asymptotic(l: int, m: int, prefactor: float, eps: float) -> float:
    """Closed critical transfer factor for a Green covariance of order 2l:

        prefactor * (2l sin(pi/(2l)) eps^2)^(-l m / (2l - 1));

    multiply by P{||X_0|| <= eps} to get the perturbed probability.  The
    factor is formed in logs, so eps^2 may underflow; a factor beyond the
    double range raises NumericError."""
    _check_integer("green order l", l, 1)
    _check_integer("m", m, 0)
    prefactor = _check_positive("prefactor", prefactor)
    eps = _check_positive("eps", eps)
    log_base = math.log(2.0 * l * math.sin(math.pi / (2.0 * l))) + 2.0 * math.log(eps)
    try:
        return math.exp(math.log(prefactor) - (l * m) / (2.0 * l - 1.0) * log_base)
    except OverflowError:
        raise NumericError(f"critical transfer factor overflows the double range at eps = {eps!r}") from None
