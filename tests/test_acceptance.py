"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line with the
measured numbers (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from smallball import (
    CRITICAL,
    AsymptoticForm,
    PowerLawPhi,
    WeightSeq,
    abel_reduce,
    annihilation_residual,
    bridge,
    cdf_gil_pelaez,
    cdf_saddlepoint,
    classify,
    differentiate_form,
    distortion_constant,
    dll_asymptotic,
    durbin_kernel_spec,
    durbin_model,
    exponential_rate,
    fisher_matrix,
    gauss_legendre_grid,
    graded_endpoint_grid,
    green_base_form,
    kernel_matrix,
    naznik_asymptotic,
    naznik_params,
    normal_location,
    normal_location_scale,
    nystrom_spectrum,
    perturbed_kernel,
    simulate_omega2,
    spectral_product_check,
    theorem1_factor,
    theorem2_closed,
    theorem3_asymptotic,
    wiener,
)
from smallball.cli import run


def report(num, passed, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_c01_spectral_fidelity():
    t0 = time.monotonic()
    grid = gauss_legendre_grid(2000)
    k = np.arange(1, 21)
    sb = nystrom_spectrum(bridge(), grid, 20)
    rel_b = float(np.abs(sb.eigenvalues / (1.0 / (np.pi * k) ** 2) - 1.0).max())
    sw = nystrom_spectrum(wiener(), grid, 20)
    rel_w = float(np.abs(sw.eigenvalues / (1.0 / ((k - 0.5) * np.pi) ** 2) - 1.0).max())
    elapsed = time.monotonic() - t0
    report(
        1,
        rel_b < 1e-4 and rel_w < 1e-4 and elapsed < 30.0,
        f"bridge rel {rel_b:.2e}, wiener rel {rel_w:.2e} (tol 1e-4), {elapsed:.1f}s (cap 30s)",
    )


def test_c02_naznik_constants():
    g_w, c_w, coef_w = naznik_params(math.pi, -0.5, 2.0)
    g_b, c_b, coef_b = naznik_params(math.pi, 0.0, 2.0)
    errs = [
        abs(g_w - 1.0),
        abs(c_w - 4.0 / math.sqrt(math.pi)),
        abs(coef_w - 0.125),
        abs(g_b - 0.0),
        abs(c_b - 2.0 * math.sqrt(2.0) / math.sqrt(math.pi)),
        abs(coef_b - 0.125),
    ]
    report(
        2,
        max(errs) < 1e-12,
        f"(gamma, C, coef) errors max {max(errs):.2e} (tol 1e-12) for the "
        f"classical first-order families",
    )


def test_c03_dll_vs_naznik():
    t0 = time.monotonic()
    spec = PowerLawPhi(theta=math.pi, delta=0.0, d=2.0)
    ratios = []
    for r in (1e-2, 1e-3, 1e-4):
        ratios.append(
            math.exp(dll_asymptotic(spec, r) - naznik_asymptotic(math.pi, 0.0, 2.0, math.sqrt(r)))
        )
    elapsed = time.monotonic() - t0
    gaps = [abs(x - 1.0) for x in ratios]
    report(
        3,
        gaps[2] < 0.05 and gaps[2] < gaps[1] < gaps[0] and elapsed < 10.0,
        f"probability ratios {ratios[0]:.4f}, {ratios[1]:.4f}, {ratios[2]:.4f} "
        f"at r = 1e-2, 1e-3, 1e-4 (5% at 1e-4, monotone), {elapsed:.1f}s (cap 10s)",
    )


def test_c04_saddlepoint_vs_naznik_tail():
    t0 = time.monotonic()
    n = 100000
    k = np.arange(1, n + 1)
    w = WeightSeq(
        head=1.0 / ((k - 0.5) * np.pi) ** 2,
        tail_sum_bound=1.0 / (np.pi**2 * (n - 0.5)),
    )
    est = cdf_saddlepoint(w, 0.05**2)
    target = naznik_asymptotic(math.pi, -0.5, 2.0, 0.05)
    elapsed = time.monotonic() - t0
    gap = abs(est.log_value - target)
    report(
        4,
        gap < 1.0 and elapsed < 5.0,
        f"saddlepoint log {est.log_value:.3f} vs explicit asymptotic {target:.3f}, "
        f"|diff| {gap:.3f} (tol 1.0), {elapsed:.1f}s (cap 5s)",
    )


def test_c05_theorem1_identity(
    gl2000, bridge_spectrum_2000, perturbed_spectrum_a6, bridge_gram_a6
):
    pspec, gram = bridge_gram_a6
    check = spectral_product_check(bridge_spectrum_2000, perturbed_spectrum_a6, 200)
    dc = distortion_constant(
        WeightSeq(head=bridge_spectrum_2000.eigenvalues[:200]),
        WeightSeq(head=perturbed_spectrum_a6.eigenvalues[:200]),
    )
    factor = theorem1_factor(pspec.a_matrix, gram.q_matrix)
    n_w = 400
    tail = float(np.sum(1.0 / (np.pi * np.arange(n_w + 1, 200000)) ** 2))
    r = 0.05**2
    lp0 = cdf_saddlepoint(
        WeightSeq(head=bridge_spectrum_2000.eigenvalues[:n_w], tail_sum_bound=tail), r
    ).log_value
    lp_a = cdf_saddlepoint(
        WeightSeq(head=perturbed_spectrum_a6.eigenvalues[:n_w], tail_sum_bound=tail), r
    ).log_value
    ratio = math.exp(lp_a - lp0)
    ok = (
        abs(check.value - 0.25) < 0.0025
        and abs(dc - 2.0) < 0.02
        and abs(ratio - factor) < 0.05 * factor
    )
    report(
        5,
        ok,
        f"eigenvalue product {check.value:.5f} (target 0.25, tol 1%), distortion "
        f"{dc:.4f} (target 2.0, tol 1%), transfer ratio {ratio:.4f} vs factor "
        f"{factor:.1f} (tol 5%)",
    )


def test_c06_criticality_suite(gl2000, bridge_spectrum_2000, perturbed_spectrum_a12, bridge_gram_a12):
    pspec, gram = bridge_gram_a12
    cls = classify(pspec.a_matrix, gram.q_matrix)
    g_a = perturbed_kernel(kernel_matrix(bridge(), gl2000), gram.psi, gram.d_matrix)
    resid = annihilation_residual(bridge(), g_a, pspec.phi, gl2000)
    check = spectral_product_check(bridge_spectrum_2000, perturbed_spectrum_a12, 200, shift=1)
    target = 12.0 / math.pi**2
    ok = (
        cls.label == CRITICAL
        and resid < 1e-9
        and abs(check.value - target) < 0.01 * target
    )
    report(
        6,
        ok,
        f"classification {cls.label}, annihilation residual {resid:.2e} (tol 1e-9), "
        f"shifted product {check.value:.5f} vs {target:.5f} (tol 1%)",
    )


def test_c07_theorem2_equals_theorem3():
    worst = 0.0
    for l in (1, 2):  # noqa: E741
        for m in (1, 2):
            base = green_base_form(l, amplitude=1.0, power=0.0)
            closed = theorem2_closed(base, m, 1.0)
            for eps in (0.05, 0.2):
                lhs = math.exp(closed.log_evaluate(eps**2) - base.log_evaluate(eps**2))
                rhs = theorem3_asymptotic(l, m, 1.0, eps)
                worst = max(worst, abs(lhs / rhs - 1.0))
    report(
        7,
        worst < 1e-10,
        f"closed pipeline vs Green-process factor: worst relative gap {worst:.2e} "
        f"(tol 1e-10) over l, m in {{1, 2}}",
    )


def test_c08_abel_quadrature():
    errs = []
    for r in (0.05, 0.02, 0.01):
        num, _ = quad(lambda y: 2.0 * math.exp(-1.0 / (r - y * y)), 0.0, math.sqrt(r) * (1 - 1e-14))
        asym = abel_reduce(AsymptoticForm(1.0, 0.0, 1.0, 1.0)).evaluate(r)
        errs.append(abs(num / asym - 1.0))
    report(
        8,
        errs[1] < 0.10 and errs[2] < errs[1] < errs[0],
        f"numeric convolution vs reduction formula: rel errors "
        f"{errs[0]:.4f}, {errs[1]:.4f}, {errs[2]:.4f} at r = 0.05, 0.02, 0.01 "
        f"(10% at 0.02, monotone improvement)",
    )


def test_c09_derivative_exactness_anchor():
    f = lambda x: math.exp(-1.0 / x)  # noqa: E731
    x, h = 0.2, 1e-3
    fd = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12.0 * h)
    lead = differentiate_form(AsymptoticForm(1.0, 0.0, 1.0, 1.0), 1).evaluate(x)
    rel = abs(fd - lead) / abs(fd)
    report(
        9,
        rel < 2e-3,
        f"5-point finite difference vs differentiated form at x = 0.2: "
        f"rel gap {rel:.2e} (tol 2e-3)",
    )


def test_c10_durbin_criticality():
    grid = graded_endpoint_grid(500)
    gaps = []
    for fam in (normal_location(), normal_location_scale(), exponential_rate()):
        model = durbin_model(fam)
        gaps.append(float(np.abs(model.q_matrix - model.fisher).max()))
    s1 = fisher_matrix(normal_location(), grid)
    s2 = fisher_matrix(normal_location_scale(), grid)
    s3 = fisher_matrix(exponential_rate(), grid)
    fisher_err = max(
        abs(s1[0, 0] - 1.0),
        float(np.abs(s2 - np.diag([1.0, 2.0])).max()),
        abs(s3[0, 0] - 1.0),
    )
    report(
        10,
        max(gaps) < 1e-6 and fisher_err < 1e-6,
        f"max|Q - S| {max(gaps):.2e} over the three families (tol 1e-6), "
        f"Fisher values off by {fisher_err:.2e} (tol 1e-6)",
    )


def test_c11_durbin_simulation_end_to_end():
    t0 = time.monotonic()
    fam = normal_location()
    model = durbin_model(fam)
    stats = simulate_omega2(fam, 500, 100000, seed=20260808)
    mean = float(stats.mean())
    se = float(stats.std(ddof=1) / math.sqrt(stats.size))
    mean_ok = abs(mean - model.trace) < 3.0 * se + 2.0 / 500
    grid = gauss_legendre_grid(1000)
    spec = nystrom_spectrum(durbin_kernel_spec(fam, grid), grid, 300)
    q10 = float(np.quantile(stats, 0.10))
    cdf = cdf_gil_pelaez(WeightSeq(head=spec.eigenvalues[:300]), q10).value
    cdf_ok = abs(cdf - 0.10) < 0.02
    elapsed = time.monotonic() - t0
    report(
        11,
        mean_ok and cdf_ok and elapsed < 120.0,
        f"mean {mean:.5f} vs limit trace {model.trace:.5f} "
        f"(tol 3se + 2/n = {3 * se + 0.004:.5f}), limit cdf at the empirical 10% "
        f"quantile {cdf:.4f} (tol 0.02), {elapsed:.0f}s (cap 120s)",
    )


def test_c12_determinism(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        stats_csv = tmp_path / f"stats_{tag}.csv"
        spec_csv = tmp_path / f"spec_{tag}.csv"
        assert run(
            ["durbin", "--family", "normal-location", "--simulate", "--n", "100",
             "--reps", "500", "--seed", "77", "--out", str(stats_csv),
             "--report", str(tmp_path / f"d_{tag}.json")]
        ) == 0
        assert run(
            ["spectrum", "--kernel", "bridge", "--n", "200", "--k", "5",
             "--out", str(spec_csv), "--report", str(tmp_path / f"s_{tag}.json")]
        ) == 0
        outputs.append((stats_csv.read_bytes(), spec_csv.read_bytes()))
    report(
        12,
        outputs[0] == outputs[1],
        "repeated seeded runs produce byte-identical CSV outputs "
        f"({len(outputs[0][0])} + {len(outputs[0][1])} bytes compared)",
    )
