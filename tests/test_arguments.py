"""Scalar and matrix arguments at the public entry points: each bad value
raises a documented error that names the argument."""

import math
import re

import numpy as np
import pytest

from smallball import (
    AsymptoticForm,
    PowerLawPhi,
    WeightSeq,
    cdf_gil_pelaez,
    cdf_saddlepoint,
    classify,
    d_matrix,
    differentiate_form,
    dll_root,
    gauss_legendre_grid,
    graded_endpoint_grid,
    green_base_form,
    green_rate,
    ornstein_uhlenbeck,
    theorem1_factor,
    theorem2_convolution_numeric,
    theorem3_asymptotic,
)

_FORM = AsymptoticForm(1.0, 0.0, 1.0, 1.0)
_WEIGHTS = WeightSeq(head=np.array([0.5, 0.25]))
_NAN_A = np.array([[math.nan]])
_Q = np.array([[1.0 / 12.0]])
# an int beyond the double range, as a JSON problem file can hold it
_HUGE = 10**400


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
    ],
    ids=[
        "theorem3_l_fractional", "theorem3_m_fractional", "theorem3_prefactor_nan", "green_rate_fractional",
        "green_base_form_fractional", "differentiate_form_fractional", "log_evaluate_nan", "log_evaluate_inf",
        "convolution_m_fractional", "classify_nan_a", "classify_nan_q", "theorem1_nan", "d_matrix_nan",
        "gil_pelaez_huge_r", "saddlepoint_huge_r", "dll_root_huge_r", "ou_huge_alpha", "ou_string_alpha",
        "graded_grid_huge", "gauss_legendre_bool",
    ],
)
def test_bad_argument_named(call, error, name):
    # each of these once returned a number, nan or a grid, or raised
    # OverflowError, RecursionError or LinAlgError
    with pytest.raises(error, match=rf"^{re.escape(name)} must be"):
        call()
