"""Shared fixtures: the expensive reference spectra are built once per
session and reused across spectral, perturbation and acceptance tests.
The n = 2000 data comes from the criteria table's ``Inputs``, so the
acceptance rows read the same spectra as the unit tests."""

import pytest

from smallball import gauss_legendre_grid, nystrom_spectrum, wiener
from smallball.criteria import Inputs


@pytest.fixture(scope="session")
def full_inputs():
    return Inputs(2000)


@pytest.fixture(scope="session")
def gl2000(full_inputs):
    return full_inputs.grid


@pytest.fixture(scope="session")
def gl1000():
    return gauss_legendre_grid(1000)


@pytest.fixture(scope="session")
def bridge_spectrum_2000(full_inputs):
    return full_inputs.bridge


@pytest.fixture(scope="session")
def wiener_spectrum_2000(gl2000):
    return nystrom_spectrum(wiener(), gl2000, 400)


@pytest.fixture(scope="session")
def bridge_gram_a6(full_inputs):
    return full_inputs.a6[:2]


@pytest.fixture(scope="session")
def bridge_gram_a12(full_inputs):
    return full_inputs.a12[:2]


@pytest.fixture(scope="session")
def perturbed_spectrum_a6(full_inputs):
    return full_inputs.a6[2]


@pytest.fixture(scope="session")
def perturbed_spectrum_a12(full_inputs):
    return full_inputs.a12[2]
