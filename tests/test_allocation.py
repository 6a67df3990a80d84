"""Allocation budgets of the perturbed-spectrum paths and the samplers.

Each step of the perturb_sweep op (n = 1000 Gauss-Legendre nodes, the
bridge, phi = 1, A = 6), and the Durbin limit spectrum on the same grid,
is run under tracemalloc, and its peak of traced memory above the start
is read in units of one n x n float64 array.  NumPy
reports its array buffers to tracemalloc; LAPACK's own work buffers inside
``eigvalsh`` are allocated outside it and are not counted.  The samplers'
peaks are read in units of one sampler block.
"""

import tracemalloc

import numpy as np
import pytest

from smallball import (
    PerturbationSpec,
    WeightSeq,
    bridge,
    build_gram,
    cdf_monte_carlo,
    durbin,
    gauss_legendre_grid,
    kernel_matrix,
    nystrom_spectrum,
    perturbed_kernel,
    sampled,
    simulate_omega2,
)
from smallball.quadform import SAMPLER_BLOCK

N = 1000


def _traced(fn, unit=8.0 * N * N):
    """fn's result, its peak of traced memory and the traced memory still
    held when it returns, in units of ``unit`` bytes (by default one n x n
    float64 array)."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already running")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, (peak - start) / unit, (held - start) / unit


def _peak(fn, unit=8.0 * N * N):
    """fn's result and its peak of traced memory, in units of ``unit``."""
    out, peak, _ = _traced(fn, unit)
    return out, peak


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


@pytest.mark.parametrize(
    "name,budget",
    [
        # the half-size blocks E and O (a quarter each) and row blocks
        ("normal_location", 1.0),
        ("normal_location_scale", 1.0),
        # not reflection-symmetric: the full weighted matrix and row blocks
        ("exponential_rate", 1.25),
    ],
)
def test_durbin_limit_spectrum_holds_no_kernel_array(name, budget):
    # the limit law's kernel is the bridge plus psi^T D psi, read by rows:
    # neither the bridge matrix nor G_A is made, and the spectrum keeps
    # O(n) data; the first call imports scipy.special, which is not counted
    grid = gauss_legendre_grid(N)
    fam = getattr(durbin, name)()
    run = lambda: nystrom_spectrum(durbin.durbin_kernel_spec(fam, grid), grid, 300)  # noqa: E731
    run()
    spectrum, peak, held = _traced(run)
    assert spectrum.truncation_count == 300
    assert peak <= budget and held <= 0.01, (peak, held)


@pytest.mark.parametrize(
    "name,budget",
    [
        # the shard's block buffer, its result and the row sums
        ("normal_location", 1.5),
        ("exponential_rate", 1.5),
        # and the buffer of squares the scale fit reads
        ("normal_location_scale", 2.5),
    ],
)
def test_omega2_shard_holds_one_block(monkeypatch, name, budget):
    # each of the two shards draws, transforms and reduces its 16 row blocks
    # in one buffer; the first call imports scipy.special, which is not counted
    monkeypatch.setenv("SMALLBALL_THREADS", "1")
    fam = getattr(durbin, name)()
    run = lambda: simulate_omega2(fam, 500, 8193, seed=5)  # noqa: E731
    run()
    _, peak = _peak(run, unit=8.0 * SAMPLER_BLOCK)
    assert peak <= budget


def test_monte_carlo_shard_holds_one_block(monkeypatch):
    monkeypatch.setenv("SMALLBALL_THREADS", "1")
    cases = {
        # each of the 16 shards draws its 2500 samples in 3 row blocks, in
        # one buffer of 1024 rows by the widest chunk, 128 of the 300 weights
        "k300": (300, 0.15, 40000),
        # a left-tail radius: most samples leave after the first chunk
        "k300-left-tail": (300, 0.03, 40000),
        # a one-weight head and 2^17 samples per shard: the row count is
        # capped, so the per-row arrays stay small
        "k1": (1, 1.0, 16 * SAMPLER_BLOCK),
    }
    peaks = {}
    for name, (k, r, n_samples) in cases.items():
        w = WeightSeq(head=1.0 / (np.pi * np.arange(1, k + 1)) ** 2)
        run = lambda: cdf_monte_carlo(w, r, n_samples, seed=5)  # noqa: E731
        run()
        peaks[name] = round(_peak(run, unit=8.0 * SAMPLER_BLOCK)[1], 3)
    assert all(peak <= 1.5 for peak in peaks.values()), peaks
