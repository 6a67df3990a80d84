"""Scalar and array arguments at the public entry points: each bad value
raises a documented error that names the argument."""

import math
import re

import numpy as np
import pytest

from smallball import (
    AsymptoticForm,
    Grid,
    PerturbationSpec,
    PowerLawPhi,
    WeightSeq,
    annihilation_residual,
    bateman_ratio,
    bridge,
    build_gram,
    cdf_gil_pelaez,
    cdf_saddlepoint,
    classify,
    compute_psi,
    critical_prefactor,
    d_matrix,
    differentiate_form,
    dll_root,
    durbin_model,
    exponential_rate,
    fourier_coefficients,
    gauss_legendre_grid,
    graded_endpoint_grid,
    gram_q,
    green_base_form,
    green_rate,
    kernel_matrix,
    normal_location,
    nystrom_spectrum,
    ornstein_uhlenbeck,
    perturbed_kernel,
    sampled,
    theorem1_factor,
    theorem2_convolution_numeric,
    theorem3_asymptotic,
    wiener,
)
from smallball.errors import _check_array

_FORM = AsymptoticForm(1.0, 0.0, 1.0, 1.0)
_WEIGHTS = WeightSeq(head=np.array([0.5, 0.25]))
_NAN_A = np.array([[math.nan]])
_Q = np.array([[1.0 / 12.0]])
# an int beyond the double range, as a JSON problem file can hold it
_HUGE = 10**400
_GRID = gauss_legendre_grid(8)
_ONES = np.ones(_GRID.size)
_SPECTRUM = nystrom_spectrum(bridge(), _GRID, 4)
_COEFFS = fourier_coefficients(_SPECTRUM, _ONES)
_BRIDGE_MAT = kernel_matrix(bridge(), _GRID)


def _with(values, i, bad):
    """A copy of ``values`` as a list, entry i replaced by ``bad``."""
    out = list(values)
    out[i] = bad
    return out


@pytest.mark.parametrize(
    "call, error, name",
    [
        (lambda: theorem3_asymptotic(1.5, 1, 1.0, 0.1), TypeError, "green order l"),
        (lambda: theorem3_asymptotic(1, 0.5, 1.0, 0.1), TypeError, "m"),
        (lambda: theorem3_asymptotic(1, 1, math.nan, 0.1), ValueError, "prefactor"),
        (lambda: green_rate(1.5), TypeError, "green order l"),
        (lambda: green_base_form(2.5), TypeError, "green order l"),
        (lambda: differentiate_form(_FORM, 1.5), TypeError, "m"),
        (lambda: _FORM.log_evaluate(math.nan), ValueError, "x"),
        (lambda: _FORM.log_evaluate(math.inf), ValueError, "x"),
        (lambda: theorem2_convolution_numeric(lambda x: 1.0, 1.5, 0.1), TypeError, "m"),
        (lambda: classify(_NAN_A, _Q), ValueError, "A and Q"),
        (lambda: classify(np.array([[6.0]]), np.array([[math.nan]])), ValueError, "A and Q"),
        (lambda: theorem1_factor(_NAN_A, _Q), ValueError, "A and Q"),
        (lambda: d_matrix(_NAN_A, _Q), ValueError, "A and Q"),
        (lambda: cdf_gil_pelaez(_WEIGHTS, _HUGE), ValueError, "r"),
        (lambda: cdf_saddlepoint(_WEIGHTS, _HUGE), ValueError, "r"),
        (lambda: dll_root(PowerLawPhi(math.pi, 0.0, 2.0), _HUGE), ValueError, "r"),
        (lambda: ornstein_uhlenbeck(_HUGE), ValueError, "ornstein_uhlenbeck finite rate alpha"),
        (lambda: ornstein_uhlenbeck("2"), TypeError, "ornstein_uhlenbeck finite rate alpha"),
        (lambda: graded_endpoint_grid(_HUGE), ValueError, "grid size n"),
        (lambda: gauss_legendre_grid(True), TypeError, "grid size n"),
        # array arguments: each once returned nan, raised OverflowError or
        # another error, or was accepted
        (lambda: compute_psi(bridge(), _with(_ONES, 3, math.nan), _GRID), ValueError, "phi"),
        (lambda: fourier_coefficients(_SPECTRUM, _with(_ONES, 3, math.nan)), ValueError, "funcs"),
        (lambda: annihilation_residual(bridge(), _BRIDGE_MAT, _with(_ONES, 3, math.nan), _GRID), ValueError, "phi"),
        (lambda: annihilation_residual(bridge(), np.where(np.eye(_GRID.size) > 0, math.nan, _BRIDGE_MAT), _ONES,
                                       _GRID), ValueError, "perturbed_mat"),
        (lambda: bateman_ratio(-1.0, _COEFFS, _NAN_A), ValueError, "d"),
        (lambda: bateman_ratio(complex(math.nan, 1.0), _COEFFS, _Q), ValueError, "z"),
        (lambda: bateman_ratio(_HUGE, _COEFFS, _Q), ValueError, "z"),
        (lambda: bateman_ratio("1+2j", _COEFFS, _Q), TypeError, "z"),
        (lambda: bateman_ratio(True, _COEFFS, _Q), TypeError, "z"),
        (lambda: bateman_ratio(None, _COEFFS, _Q), TypeError, "z"),
        (lambda: critical_prefactor(_NAN_A, _ONES, _GRID), ValueError, "q"),
        (lambda: gram_q(_with(_ONES, 3, math.nan), _ONES, _GRID), ValueError, "phi"),
        (lambda: critical_prefactor(_Q, _with(_ONES, 3, math.inf), _GRID), ValueError, "phi"),
        (lambda: WeightSeq(head=[_HUGE]), ValueError, "head"),
        (lambda: WeightSeq(head=[0.5], tail_sum_bound=_HUGE), ValueError, "tail_sum_bound"),
        (lambda: WeightSeq(head=[0.5], tail_sum_bound="x"), TypeError, "tail_sum_bound"),
        (lambda: Grid(nodes=[_HUGE], weights=[1.0]), ValueError, "nodes"),
        (lambda: sampled(Grid(nodes=[0.5], weights=[1.0]), [[_HUGE]]), ValueError, "matrix"),
        (lambda: PerturbationSpec(phi=_ONES, a_matrix=[[_HUGE]], grid=_GRID), ValueError, "A"),
        (lambda: classify([[_HUGE]], _Q), ValueError, "A and Q"),
        (lambda: compute_psi(bridge(), _with(_ONES, 3, _HUGE), _GRID), ValueError, "phi"),
        (lambda: perturbed_kernel(_BRIDGE_MAT, _ONES, [[_HUGE]]), ValueError, "d"),
        (lambda: Grid(nodes=[math.nan], weights=[1.0]), ValueError, "nodes"),
        (lambda: WeightSeq(head=[[1.0, 0.5], [0.2, 0.1]]), ValueError, "head"),
        (lambda: normal_location("0.5"), TypeError, "theta0"),
        (lambda: normal_location(True), TypeError, "theta0"),
        (lambda: PerturbationSpec(phi=[[1.0] * 8, [1.0] * 7], a_matrix=[[1.0]], grid=_GRID), ValueError, "phi"),
    ],
    ids=[
        "theorem3_l_fractional", "theorem3_m_fractional", "theorem3_prefactor_nan", "green_rate_fractional",
        "green_base_form_fractional", "differentiate_form_fractional", "log_evaluate_nan", "log_evaluate_inf",
        "convolution_m_fractional", "classify_nan_a", "classify_nan_q", "theorem1_nan", "d_matrix_nan",
        "gil_pelaez_huge_r", "saddlepoint_huge_r", "dll_root_huge_r", "ou_huge_alpha", "ou_string_alpha",
        "graded_grid_huge", "gauss_legendre_bool", "compute_psi_nan_phi", "fourier_nan_funcs",
        "annihilation_nan_phi", "annihilation_nan_matrix", "bateman_nan_d", "bateman_nan_z",
        "bateman_huge_z", "bateman_string_z", "bateman_bool_z", "bateman_none_z", "prefactor_nan_q",
        "gram_q_nan_phi", "prefactor_inf_phi", "weights_huge_head", "weights_huge_tail", "weights_string_tail",
        "grid_huge_node", "sampled_huge_entry", "spec_huge_a", "classify_huge_a", "compute_psi_huge_phi",
        "perturbed_kernel_huge_d", "grid_nan_node", "weights_2d_head", "normal_location_string",
        "normal_location_bool", "spec_ragged_phi",
    ],
)
def test_bad_argument_named(call, error, name):
    # each of these once returned a number, nan or a grid, or raised
    # OverflowError, RecursionError or LinAlgError
    with pytest.raises(error, match=rf"^{re.escape(name)} must be"):
        call()


def test_check_array_keeps_float64_arrays():
    # the check makes no copy of a float64 array, so an n x n matrix costs
    # one finiteness pass; other numbers come back as a new float64 array
    mat = np.eye(3)
    assert _check_array("m", mat, (3, 3)) is mat
    out = _check_array("m", [[1, 2**64]], (1, None))
    assert out.dtype == np.float64 and out.tolist() == [[1.0, 2.0**64]]


def _gram(scale):
    return build_gram(bridge(), PerturbationSpec(phi=scale * _ONES, a_matrix=[[6.0]], grid=_GRID))


@pytest.mark.parametrize(
    "make",
    [
        lambda i: Grid(nodes=[0.25, 0.5 + 0.1 * i], weights=[0.5, 0.5]),
        lambda i: WeightSeq(head=[1.0, 0.5 - 0.1 * i]),
        lambda i: sampled(_GRID, _BRIDGE_MAT + i),
        lambda i: nystrom_spectrum((bridge(), wiener())[i], _GRID, 4),
        lambda i: fourier_coefficients(_SPECTRUM, _ONES + i),
        lambda i: PerturbationSpec(phi=_ONES + i, a_matrix=[[6.0]], grid=_GRID),
        lambda i: _gram(1.0 + i),
        lambda i: durbin_model((normal_location, exponential_rate)[i]()),
        lambda i: classify(np.eye(2), (1.0 + i) * np.eye(2)),
    ],
    ids=["Grid", "WeightSeq", "KernelSpec", "Spectrum", "FourierCoeffs", "PerturbationSpec", "GramData",
         "DurbinModel", "Classification"],
)
def test_equality_is_identity(make):
    # the generated __eq__ compared the array fields and raised "truth value
    # of an array is ambiguous"; each object now equals itself alone
    a, b = make(0), make(1)
    assert a == a and a != b and b != a and a != make(0)


@pytest.mark.parametrize("z", [-2, -1.5, np.float64(-1.5), complex(-1.0, 2.0), np.complex128(-1.0 + 2.0j)])
def test_bateman_ratio_accepts_numbers(z):
    assert bateman_ratio(z, _COEFFS, _Q) == bateman_ratio(complex(z), _COEFFS, _Q)
