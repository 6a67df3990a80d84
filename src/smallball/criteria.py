"""The paper's consistency criteria c01-c11 as one table, ``CRITERIA``.

Each row names a paper quantity and its two routes, and computes named
checks at a grid size n that the caller gives; every count a row uses
(eigenvalues kept, product terms, the saddlepoint head, the simulation
reps) derives from n.  A check passes when |value - target| < tolerance, or,
for a label, when the value is the target.  ``smallball validate`` runs the
table at n = 500 and ``tests/test_acceptance.py`` at n = 2000, where each
tolerance is pinned.  The package namespace does not load this module.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import asymptotics, durbin, kernels, perturbation, quadform
from .errors import _check_integer
from .grids import gauss_legendre_grid
from .quadform import WeightSeq
from .spectral import nystrom_spectrum


class Check(NamedTuple):
    name: str
    value: float | str
    target: float | str
    tolerance: float

    @property
    def passed(self) -> bool:
        if isinstance(self.target, str):
            return self.value == self.target
        return bool(abs(self.value - self.target) < self.tolerance)


class Criterion(NamedTuple):
    id: str
    quantity: str
    routes: tuple[str, str]
    checks: Callable[[Inputs], list[Check]]


class Inputs:
    """The data several rows read at grid size n >= 200 (so every derived
    count fits its grid), each built on first read and kept: the bridge
    spectrum, the bridge with phi = 1 perturbed at A = 6 and A = 12 as
    (spec, Gram data, spectrum), and the three Durbin models."""

    def __init__(self, n: int):
        _check_integer("grid size n", n, 200)
        self.n, self.grid = n, gauss_legendre_grid(n)

    @cached_property
    def bridge(self):
        return nystrom_spectrum(kernels.bridge(), self.grid, self.n // 5)

    def _perturbed(self, a: float) -> tuple:
        bridge = kernels.bridge()
        spec = perturbation.PerturbationSpec(phi=np.ones(self.n), a_matrix=np.array([[a]]), grid=self.grid)
        gram = perturbation.build_gram(bridge, spec)
        kernel = kernels.perturbed(bridge, self.grid, gram.psi, gram.d_matrix)
        return spec, gram, nystrom_spectrum(kernel, self.grid, self.n // 5)

    @cached_property
    def a6(self):
        return self._perturbed(6.0)

    @cached_property
    def a12(self):
        return self._perturbed(12.0)

    @cached_property
    def durbin_models(self) -> dict:
        fams = (durbin.normal_location(), durbin.normal_location_scale(), durbin.exponential_rate())
        return {fam.family: durbin.durbin_model(fam) for fam in fams}


def _shrinking(kind: str, radii: tuple, gaps: list) -> list[Check]:
    """One check per radius after the first: its gap over the one before,
    below 1 exactly when the gap shrinks."""
    ratios = [after / before if before > 0 else math.inf for before, after in zip(gaps, gaps[1:])]
    return [Check(f"{kind}_shrink_r{r:g}", x, 0.0, 1.0) for r, x in zip(radii[1:], ratios)]


def _spectral_fidelity(data: Inputs) -> list[Check]:
    k = np.arange(1, data.n // 100 + 1)
    wiener = nystrom_spectrum(kernels.wiener(), data.grid, k.size).eigenvalues
    pairs = (("bridge_rel", data.bridge.eigenvalues[: k.size], np.pi * k), ("wiener_rel", wiener, (k - 0.5) * np.pi))
    return [Check(name, float(np.abs(mu / (1.0 / root**2) - 1.0).max()), 0.0, 1e-4) for name, mu, root in pairs]


def _naznik_constants(data: Inputs) -> list[Check]:
    names = ("wiener_gamma", "naznik_wiener_amplitude", "naznik_wiener_coefficient",
             "bridge_gamma", "naznik_bridge_amplitude", "naznik_bridge_coefficient")
    values = (*asymptotics.naznik_params(math.pi, -0.5, 2.0), *asymptotics.naznik_params(math.pi, 0.0, 2.0))
    targets = (1.0, 4.0 / math.sqrt(math.pi), 0.125, 0.0, 2.0 * math.sqrt(2.0) / math.sqrt(math.pi), 0.125)
    return [Check(name, value, target, 1e-12) for name, value, target in zip(names, values, targets)]


def _dll_vs_naznik(data: Inputs) -> list[Check]:
    spec, radii = asymptotics.PowerLawPhi(theta=math.pi, delta=0.0, d=2.0), (1e-2, 1e-3, 1e-4)
    log_ratios = [
        asymptotics.dll_asymptotic(spec, r) - asymptotics.naznik_asymptotic(math.pi, 0.0, 2.0, math.sqrt(r))
        for r in radii
    ]
    gaps = [abs(math.exp(x) - 1.0) for x in log_ratios]
    return [Check("gap_r0.0001", gaps[2], 0.0, 0.05), *_shrinking("gap", radii, gaps)]


def _saddlepoint_vs_naznik(data: Inputs) -> list[Check]:
    size = 50 * data.n
    mu = 1.0 / ((np.arange(1, size + 1) - 0.5) * np.pi) ** 2
    est = quadform.cdf_saddlepoint(WeightSeq(head=mu, tail_sum_bound=1.0 / (np.pi**2 * (size - 0.5))), 0.05**2)
    return [Check("log_probability", est.log_value, asymptotics.naznik_asymptotic(math.pi, -0.5, 2.0, 0.05), 1.0)]


def _theorem1_identity(data: Inputs) -> list[Check]:
    spec, gram, spectrum = data.a6
    mu0, mu_a = data.bridge.eigenvalues, spectrum.eigenvalues
    terms, head = data.n // 10, data.n // 5
    factor = perturbation.theorem1_factor(spec.a_matrix, gram.q_matrix)
    product = perturbation.spectral_product_check(data.bridge, spectrum, terms).value
    distortion = quadform.distortion_constant(WeightSeq(head=mu0[:terms]), WeightSeq(head=mu_a[:terms]))
    tail = float(np.sum(1.0 / (np.pi * np.arange(head + 1, 100 * data.n)) ** 2))
    lp0, lp_a = (quadform.cdf_saddlepoint(WeightSeq(head=mu[:head], tail_sum_bound=tail), 0.05**2).log_value
                 for mu in (mu0, mu_a))
    return [
        Check("bridge_gram_q", float(gram.q_matrix[0, 0]), 1.0 / 12.0, 1e-8),
        Check("theorem1_factor", factor, 2.0, 1e-6),
        Check("theorem1_product", product, 0.25, 0.0025),
        Check("distortion", distortion, 2.0, 0.02),
        Check("transfer_ratio", math.exp(lp_a - lp0), factor, 0.05 * factor),
    ]


def _criticality(data: Inputs) -> list[Check]:
    spec, gram, spectrum = data.a12
    label = perturbation.classify(spec.a_matrix, gram.q_matrix).label
    g_a = kernels.kernel_matrix(spectrum.kernel, data.grid)
    resid = perturbation.annihilation_residual(kernels.bridge(), g_a, spec.phi, data.grid)
    product = perturbation.spectral_product_check(data.bridge, spectrum, data.n // 10, shift=1).value
    target = 12.0 / math.pi**2
    return [
        Check("critical_classification", label, perturbation.CRITICAL, 0.0),
        Check("critical_annihilation", resid, 0.0, 1e-9),
        Check("shifted_product", product, target, 0.01 * target),
    ]


def _theorem2_equals_theorem3(data: Inputs) -> list[Check]:
    def gap(l: int, m: int, eps: float) -> float:  # noqa: E741
        base = asymptotics.green_base_form(l, amplitude=1.0, power=0.0)
        lhs = math.exp(perturbation.theorem2_closed(base, m, 1.0).log_evaluate(eps**2) - base.log_evaluate(eps**2))
        return abs(lhs / perturbation.theorem3_asymptotic(l, m, 1.0, eps) - 1.0)

    return [
        Check(f"theorem2_vs_theorem3_l{l}_m{m}", max(gap(l, m, 0.05), gap(l, m, 0.2)), 0.0, 1e-10)
        for l, m in ((1, 1), (1, 2), (2, 1), (2, 2))  # noqa: E741
    ]


def _abel_quadrature(data: Inputs) -> list[Check]:
    reduced = asymptotics.abel_reduce(asymptotics.AsymptoticForm(1.0, 0.0, 1.0, 1.0))
    f = lambda x: math.exp(-1.0 / x) if x > 0 else 0.0  # noqa: E731
    radii = (0.05, 0.02, 0.01)
    errs = [abs(perturbation.theorem2_convolution_numeric(f, 1, r) / reduced.evaluate(r) - 1.0) for r in radii]
    return [Check("rel_error_r0.02", errs[1], 0.0, 0.10), *_shrinking("error", radii, errs)]


def _derivative_anchor(data: Inputs) -> list[Check]:
    f = lambda x: math.exp(-1.0 / x)  # noqa: E731
    x, h = 0.2, 1e-3
    fd = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12.0 * h)
    lead = asymptotics.differentiate_form(asymptotics.AsymptoticForm(1.0, 0.0, 1.0, 1.0), 1).evaluate(x)
    return [Check("rel_gap", abs(fd - lead) / abs(fd), 0.0, 2e-3)]


def _durbin_criticality(data: Inputs) -> list[Check]:
    # S on the model's graded grid, for normal location, location-scale and exponential rate
    s1, s2, s3 = (model.fisher for model in data.durbin_models.values())
    err = max(abs(s1[0, 0] - 1.0), float(np.abs(s2 - np.diag([1.0, 2.0])).max()), abs(s3[0, 0] - 1.0))
    gaps = [
        Check(f"durbin_q_vs_s_{name}", float(np.abs(model.q_matrix - model.fisher).max()), 0.0, 1e-6)
        for name, model in data.durbin_models.items()
    ]
    return gaps + [Check("fisher_values", err, 0.0, 1e-6)]


def _durbin_simulation(data: Inputs) -> list[Check]:
    model, size, keep = data.durbin_models["normal_location"], 500, math.isqrt(45 * data.n)
    stats = durbin.simulate_omega2(model.fam, size, data.n**2 // 40, seed=20260808)
    se = float(stats.std(ddof=1) / math.sqrt(stats.size))
    grid = gauss_legendre_grid(data.n // 2)
    mu = nystrom_spectrum(durbin.durbin_kernel_spec(model.fam, grid), grid, keep).eigenvalues[:keep]
    cdf = quadform.cdf_gil_pelaez(WeightSeq(head=mu), float(np.quantile(stats, 0.10))).value
    return [
        Check("mean_vs_trace", float(stats.mean()), model.trace, 3.0 * se + 2.0 / size),
        Check("cdf_at_q10", cdf, 0.10, 0.02),
    ]


CRITERIA = (
    Criterion("c01", "leading n/100 eigenvalues of the bridge and the Wiener process",
              ("kink-corrected Nystrom on n nodes", "closed forms"), _spectral_fidelity),
    Criterion("c02", "Naznik (gamma, C, exponent coefficient) of the Wiener and bridge members",
              ("naznik_params", "closed forms"), _naznik_constants),
    Criterion("c03", "small-ball probability of the bridge member at r = 1e-2, 1e-3, 1e-4",
              ("DLL tilted integrals", "Naznik explicit asymptotic"), _dll_vs_naznik),
    Criterion("c04", "log P(||W||^2 < 0.05^2) of the Wiener process",
              ("saddlepoint on 50 n weights", "Naznik explicit asymptotic"), _saddlepoint_vs_naznik),
    Criterion("c05", "Theorem 1 factor 1/|det(E - QA)| of the bridge, phi = 1, A = 6",
              ("perturbed spectrum: product, distortion, saddlepoint ratio", "Gram matrix Q"), _theorem1_identity),
    Criterion("c06", "critical perturbation A = Q^-1 = 12 of the bridge, phi = 1",
              ("classification, annihilation, shifted product", "critical limit 12/pi^2"), _criticality),
    Criterion("c07", "critical transfer factor for Green orders l and ranks m in {1, 2}",
              ("theorem2_closed", "theorem3_asymptotic"), _theorem2_equals_theorem3),
    Criterion("c08", "Abel convolution of F0' = exp(-1/x) at r = 0.05, 0.02, 0.01",
              ("theorem2_convolution_numeric", "abel_reduce"), _abel_quadrature),
    Criterion("c09", "derivative of the form exp(-1/x) at x = 0.2",
              ("5-point finite difference", "differentiate_form"), _derivative_anchor),
    Criterion("c10", "Durbin criticality Q = S of the three families",
              ("bridge pairing Q = int psi phi^T", "Fisher information S and its closed values"), _durbin_criticality),
    Criterion("c11", "Durbin omega^2 law of the normal-location family at sample size 500",
              ("n^2/40 seeded simulations", "trace, and CDF from (45 n)^(1/2) eigenvalues on n/2 nodes"),
              _durbin_simulation),
)
