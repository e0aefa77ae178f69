"""Shared fixtures for the default thermal setup used throughout the suite,
and the independent reference constructions that several test modules
import from here."""

import numpy as np
import pytest

from mpembasim.channels import ThermalEnvironment, _check_delays
from mpembasim.operators import qubit_hamiltonian, random_density as draw_density, \
    validate_bloch_vectors

# Columns are the sigma_x eigenstates |x+>, |x->; maps z-basis coordinates to
# the x eigenbasis and back (the matrix is its own inverse).
X_EIGENBASIS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

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


def gibbs_weight(temperature: float, gap: float) -> np.float64:
    """Excited Gibbs population ``1 / (1 + exp(2 nu / T))`` computed on numpy
    scalars throughout, the expression that
    ``ThermalEnvironment.excited_population`` converts to a Python float."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.float64(2.0 * gap / temperature)))


def four_matrix_kraus(p, c, s):
    """The heat-exchange Kraus operators as four weighted 2x2 matrices."""
    return (
        np.sqrt(1.0 - p) * np.array([[1.0, 0.0], [0.0, c]], dtype=complex),
        np.sqrt(1.0 - p) * np.array([[0.0, s], [0.0, 0.0]], dtype=complex),
        np.sqrt(p) * np.array([[c, 0.0], [0.0, 1.0]], dtype=complex),
        np.sqrt(p) * np.array([[0.0, 0.0], [-s, 0.0]], dtype=complex),
    )


def rotation_y(theta: float) -> np.ndarray:
    """``exp(-i theta sigma_y / 2)``, a real rotation of the Bloch sphere about y."""
    half = 0.5 * float(theta)
    return np.array(
        [[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]], dtype=complex
    )


def gad_bloch(env: ThermalEnvironment, j_hz: float, bloch, taus) -> np.ndarray:
    """Bloch vectors ``bloch`` ``(..., 3)`` after every delay of ``taus`` (ms)
    of the heat exchange with ``env`` at coupling ``j_hz`` (Hz), stacked as
    ``(..., n, 3)``, from the generalized-amplitude-damping formula: ``x, y ->
    c x, c y`` and ``z -> z_eq + (z - z_eq) c^2`` with ``c = cos(pi J tau)``.

    The delays are checked first, then the start; the output is not checked.
    """
    taus = _check_delays(j_hz, taus)
    r = validate_bloch_vectors(bloch)
    c = np.cos(np.pi * (j_hz / 1000.0) * taus)
    z_eq = env.polarization
    x, y, z = (r[..., axis, np.newaxis] for axis in range(3))
    return np.stack([x * c, y * c, z_eq + (z - z_eq) * (c * c)], axis=-1)


def build_lindbladian(hamiltonian: np.ndarray, jumps) -> np.ndarray:
    """Vectorized generator from a Hamiltonian and ``(operator, rate)`` pairs,
    in the row-stacking convention of :mod:`mpembasim.liouville`.

    Parameters
    ----------
    hamiltonian:
        Hermitian ``d x d`` matrix in angular units (rad/ms).
    jumps:
        Iterable of ``(A, gamma)`` with ``gamma >= 0`` in 1/ms.

    Raises
    ------
    ValueError
        If any rate is negative, or the Hamiltonian is not Hermitian to 1e-12.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    herm_dev = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if herm_dev > 1e-12:
        raise ValueError(f"Hamiltonian deviates from Hermitian by {herm_dev:.3e}")
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    lind = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in jumps:
        rate = float(rate)
        if rate < 0.0:
            raise ValueError(f"jump rate {rate} is negative")
        a = np.asarray(op, dtype=complex)
        if a.shape != (d, d):
            raise ValueError(f"jump operator shape {a.shape} does not match {h.shape}")
        ada = a.conj().T @ a
        lind += rate * (
            np.kron(a, a.conj())
            - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T))
        )
    return lind
