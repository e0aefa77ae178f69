"""Shared fixtures for the default thermal setup used throughout the suite."""

import numpy as np
import pytest

from mpembasim import ThermalEnvironment, qubit_hamiltonian
from mpembasim.operators import random_density as draw_density

HOT_T_KHZ = 4.77
COLD_T_KHZ = 2.38


@pytest.fixture
def hot_env():
    return ThermalEnvironment(temperature=HOT_T_KHZ, gap_frequency=2.0)


@pytest.fixture
def cold_env():
    return ThermalEnvironment(temperature=COLD_T_KHZ, gap_frequency=1.0)


@pytest.fixture
def rho0():
    # weights 0.3 / 0.7 on the sigma_x eigenstates
    return np.array([[0.5, -0.2], [-0.2, 0.5]], dtype=complex)


@pytest.fixture
def h_hot():
    return qubit_hamiltonian(2.0, axis="z")


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def random_density(rng):
    return lambda: draw_density(rng)
