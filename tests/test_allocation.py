"""Allocation budgets of the perturbed-spectrum path.

Each step of the perturb_sweep op (n = 1000 Gauss-Legendre nodes, the
bridge, phi = 1, A = 6) is run under tracemalloc, and its peak of traced
memory above the start is read in units of one n x n float64 array.  NumPy
reports its array buffers to tracemalloc; LAPACK's own work buffers inside
``eigvalsh`` are allocated outside it and are not counted.
"""

import tracemalloc

import numpy as np
import pytest

from smallball import (
    PerturbationSpec,
    bridge,
    build_gram,
    gauss_legendre_grid,
    kernel_matrix,
    nystrom_spectrum,
    perturbed_kernel,
    sampled,
)

N = 1000


def _peak(fn):
    """fn's result and its peak of traced memory, in n x n float64 arrays."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already running")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak / (8.0 * N * N)


def test_perturbed_spectrum_budgets():
    grid = gauss_legendre_grid(N)
    spec = PerturbationSpec(phi=np.ones(N), a_matrix=np.array([[6.0]]), grid=grid)
    gram, gram_peak = _peak(lambda: build_gram(bridge(), spec))
    base, base_peak = _peak(lambda: kernel_matrix(bridge(), grid))
    g_a, perturbed_peak = _peak(lambda: perturbed_kernel(base, gram.psi, gram.d_matrix))
    del base
    ker, sampled_peak = _peak(lambda: sampled(grid, g_a, diag_jump=np.ones(N), green_order=1))
    spectrum, nystrom_peak = _peak(lambda: nystrom_spectrum(ker, grid, 400))
    assert spectrum.truncation_count == 400
    peaks = {
        "build_gram": gram_peak,
        "kernel_matrix": base_peak,
        "perturbed_kernel": perturbed_peak,
        "sampled": sampled_peak,
        "nystrom_spectrum": nystrom_peak,
    }
    budgets = {
        # psi by row blocks: no n x n array at all
        "build_gram": 0.25,
        # the result, plus one row block of temporaries
        "kernel_matrix": 1.25,
        "perturbed_kernel": 1.25,
        # the input is kept, not copied: only the finiteness and symmetry
        # checks' boolean arrays
        "sampled": 0.25,
        # the half-size blocks E and O (a quarter each) and row blocks of
        # the weighted matrix; the full weighted matrix is never built
        "nystrom_spectrum": 1.0,
    }
    over = {k: round(v, 3) for k, v in peaks.items() if v > budgets[k]}
    assert not over, f"peaks over budget: {over} (budgets {budgets})"
    assert ker.matrix is g_a
