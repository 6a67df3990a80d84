"""The package namespace."""

import json
import math
import os
import subprocess
import sys

import smallball

# every name the package has exported since its first release
EXPORTED = """
AsymptoticForm CRITICAL Classification ConsistencyError DataError
DurbinModel FamilySpec FourierCoeffs GramData Grid KernelSpec NON_CRITICAL
NumericError PARTIALLY_CRITICAL PerturbationSpec PowerLawPhi
ProbabilityEstimate SmallBallError Spectrum WeightSeq abel_reduce
annihilation_residual bateman_ratio bridge build_gram cdf_gil_pelaez
cdf_monte_carlo cdf_saddlepoint classify compute_psi critical_prefactor
d_matrix differentiate_form distortion_constant dll_asymptotic dll_prefactor
dll_root durbin_kernel_matrix durbin_kernel_spec durbin_model durbin_phi
durbin_psi durbin_psi_prime exponential_rate fisher_matrix
fourier_coefficients gauss_legendre_grid graded_endpoint_grid gram_q
green_base_form green_rate kernel_eval kernel_matrix naznik_asymptotic
naznik_form naznik_params normal_location normal_location_scale
nystrom_spectrum ornstein_uhlenbeck perturbed_kernel read_weights sampled
simulate_omega2 spectral_product_check theorem1_factor theorem2_closed
theorem2_convolution_numeric theorem3_asymptotic wiener write_weights
""".split()


def test_star_import_exports_every_name():
    namespace = {}
    exec("from smallball import *", namespace)
    assert [n for n in EXPORTED if n not in smallball.__all__] == []
    assert [n for n in EXPORTED if n not in namespace] == []
    assert len(set(smallball.__all__)) == len(smallball.__all__)
    assert "_sharded_map" not in namespace and "_log_product_drift" not in namespace


# scipy packages no library path calls: scipy.stats costs about half a
# second of import time, scipy.integrate and scipy.optimize together about
# 0.3 s and 26 MB of resident memory
UNUSED_SCIPY = ("scipy.stats", "scipy.integrate", "scipy.optimize")


def _fresh_run(code: str, *args) -> subprocess.CompletedProcess:
    # the fresh interpreter imports this same copy of the package
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(smallball.__file__)))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True)


def test_import_leaves_scipy_stats_out():
    # scipy.special stays on the import path: the saddlepoint, the Durbin
    # sampler and the DLL route call it on every op
    code = f"import sys, smallball; print([m for m in {UNUSED_SCIPY!r} if m in sys.modules], 'scipy.special' in sys.modules)"
    out = _fresh_run(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[] True"


def test_hot_paths_leave_unused_scipy_out(tmp_path):
    # one small call through each layer the benchmark and the CLI run; none
    # may import a scipy package the import path leaves out, so no hot path
    # can reach scipy.integrate.quad or scipy.optimize.brentq
    weights = tmp_path / "w.csv"
    weights.write_text("".join(f"{1 / (math.pi * k) ** 2!r}\n" for k in range(1, 51)))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"kernel": {"type": "bridge"}, "grid_size": 60, "phi": [{"poly": [1.0]}], "A": [[12.0]]}))
    code = """
import sys
import numpy as np
import smallball as sb
from smallball import cli

grid = sb.gauss_legendre_grid(60)
bridge = sb.bridge()
spec0 = sb.nystrom_spectrum(bridge, grid, 10)
phi = np.ones(grid.size)
gram = sb.build_gram(bridge, sb.PerturbationSpec(phi=phi, a_matrix=[[6.0]], grid=grid))
sb.classify([[6.0]], gram.q_matrix)
sb.theorem1_factor([[6.0]], gram.q_matrix)
g_a = sb.perturbed_kernel(sb.kernel_matrix(bridge, grid), gram.psi, gram.d_matrix)
sb.nystrom_spectrum(sb.sampled(grid, g_a, diag_jump=np.ones(grid.size), green_order=1), grid, 10)
sb.annihilation_residual(bridge, g_a, phi, grid)
w = sb.WeightSeq(head=spec0.eigenvalues)
sb.cdf_gil_pelaez(w, 0.1)
sb.cdf_saddlepoint(w, 0.02)
sb.cdf_monte_carlo(w, 0.1, 1000, 1)
sb.naznik_asymptotic(np.pi, 0.0, 2.0, 0.05)
sb.dll_asymptotic(sb.PowerLawPhi(np.pi, 0.0, 2.0), 1e-3)
fam = sb.normal_location()
sb.durbin_kernel_spec(fam, grid)
sb.simulate_omega2(fam, 20, 100, 1)
assert cli.run(["exact", "--weights", sys.argv[1], "--r", "0.05", "--method", "saddle", "--report", sys.argv[3]]) == 0
assert cli.run(["perturb", "--config", sys.argv[2], "--eps", "0.05", "--report", sys.argv[3]]) == 0
"""
    code += f"print([m for m in {UNUSED_SCIPY!r} if m in sys.modules])\n"
    out = _fresh_run(code, weights, problem, tmp_path / "report.json")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
