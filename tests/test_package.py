"""The package namespace."""

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


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of import time and nothing in
    # the package needs it
    code = "import sys, smallball; sys.exit('scipy.stats' in sys.modules)"
    # the fresh interpreter imports this same copy of the package
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(smallball.__file__)))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
