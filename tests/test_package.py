"""The package namespace."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

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


def _fresh_run(code: str, *args, **env_vars) -> subprocess.CompletedProcess:
    # the fresh interpreter imports this same copy of the package; a run that
    # hangs fails on the timeout
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(smallball.__file__)), **env_vars)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True, timeout=300)


def test_import_leaves_scipy_stats_out():
    # scipy.special is imported by the functions that call it, so a fresh
    # import loads none of scipy's subpackages
    code = f"import sys, smallball; print([m for m in {UNUSED_SCIPY!r} if m in sys.modules], 'scipy.special' in sys.modules)"
    out = _fresh_run(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[] False"


def test_numpy_only_chain_leaves_scipy_special_out(tmp_path):
    # grid, kernel, Nystrom eigensolve, Gram data, classification and the
    # transfer factors, Gil-Pelaez and Monte Carlo, the exponential-rate
    # Durbin family, and the CLI commands made of them run on numpy alone
    weights = tmp_path / "w.csv"
    weights.write_text("".join(f"{1 / (math.pi * k) ** 2!r}\n" for k in range(1, 51)))
    problem = tmp_path / "critical.json"
    problem.write_text(json.dumps({"kernel": {"type": "bridge"}, "grid_size": 60, "phi": [{"poly": [1.0]}], "A": [[12.0]]}))
    code = """
import sys
import numpy as np
import smallball as sb
from smallball import cli

grid = sb.gauss_legendre_grid(60)
bridge = sb.bridge()
spec0 = sb.nystrom_spectrum(bridge, grid, 20)
phi = np.ones(grid.size)
for a in (6.0, 12.0):
    gram = sb.build_gram(bridge, sb.PerturbationSpec(phi=phi, a_matrix=[[a]], grid=grid))
    sb.classify([[a]], gram.q_matrix)
    g_a = sb.perturbed_kernel(sb.kernel_matrix(bridge, grid), gram.psi, gram.d_matrix)
    spec_a = sb.nystrom_spectrum(sb.sampled(grid, g_a, diag_jump=np.ones(grid.size), green_order=1), grid, 20)
sb.theorem1_factor([[6.0]], gram.q_matrix)
sb.annihilation_residual(bridge, g_a, phi, grid)
sb.spectral_product_check(spec0, spec_a, 10, shift=1)
pre = sb.critical_prefactor(gram.q_matrix, phi, grid)
sb.theorem3_asymptotic(1, 1, pre, 0.05)
w = sb.WeightSeq(head=spec0.eigenvalues)
sb.cdf_gil_pelaez(w, 0.1)
sb.cdf_monte_carlo(w, 0.1, 1000, 1)
sb.durbin_kernel_spec(sb.exponential_rate(), grid)
sb.simulate_omega2(sb.exponential_rate(), 20, 100, 1)
weights, problem, report = sys.argv[1:]
for argv in (["spectrum", "--kernel", "bridge", "--n", "200", "--k", "20"],
             ["perturb", "--config", problem, "--eps", "0.05"],
             ["exact", "--weights", weights, "--r", "0.05", "--method", "gilpelaez"],
             ["exact", "--weights", weights, "--r", "0.05", "--method", "mc", "--samples", "1000"],
             ["durbin", "--family", "exponential-rate", "--simulate", "--n", "20", "--reps", "100"]):
    assert cli.run([*argv, "--report", report]) == 0, argv
print("scipy.special" in sys.modules)
"""
    out = _fresh_run(code, weights, problem, tmp_path / "report.json")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# each case's first call is the first scipy.special use of its interpreter
FIRST_CALLS = {
    "cdf_saddlepoint": "est = sb.cdf_saddlepoint(sb.WeightSeq(head=1.0 / (np.pi * np.arange(1, 2001)) ** 2), 0.02); "
                       "out = [est.value, est.log_value, est.error_bound]",
    "naznik_asymptotic": "out = sb.naznik_asymptotic(np.pi, -0.5, 2.0, 0.05)",
    "dll_asymptotic": "out = sb.dll_asymptotic(sb.PowerLawPhi(np.pi, 0.0, 2.0), 1e-3)",
    "durbin_psi": "out = sb.durbin_psi(sb.normal_location_scale(), sb.gauss_legendre_grid(200))",
    "simulate_omega2": "out = sb.simulate_omega2(sb.normal_location_scale(), 20, 300, 7)",
}


def _digest(out) -> str:
    return hashlib.sha256(np.asarray(out, dtype=float).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(FIRST_CALLS))
def test_first_call_in_fresh_interpreter_matches_warm_call(case):
    code = f"""
import hashlib, sys
import numpy as np
import smallball as sb
assert "scipy.special" not in sys.modules
{FIRST_CALLS[case]}
print(hashlib.sha256(np.asarray(out, dtype=float).tobytes()).hexdigest())
"""
    out = _fresh_run(code)
    assert out.returncode == 0, out.stderr
    namespace = {"np": np, "sb": smallball}
    for _ in range(2):
        exec(FIRST_CALLS[case], namespace)
    assert out.stdout.strip() == _digest(namespace["out"])


def test_first_scipy_special_import_in_worker_threads():
    # three shards, so at two threads the first ndtr lookups run in two
    # worker threads at once
    reps = 2 * smallball.durbin.OMEGA2_SHARD_REPS + 100
    code = f"""
import hashlib, sys
import smallball as sb
assert "scipy.special" not in sys.modules
out = sb.simulate_omega2(sb.normal_location(), 20, {reps}, 5)
print(hashlib.sha256(out.tobytes()).hexdigest())
"""
    runs = {t: _fresh_run(code, SMALLBALL_THREADS=t) for t in ("1", "2")}
    assert all(r.returncode == 0 for r in runs.values()), [r.stderr for r in runs.values()]
    assert runs["2"].stdout == runs["1"].stdout
    assert runs["1"].stdout.strip() == _digest(smallball.simulate_omega2(smallball.normal_location(), 20, reps, 5))


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
