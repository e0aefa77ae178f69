"""Unit conventions, Pauli constructors, and Bloch-vector helpers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpembasim.operators import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TWO_PI,
    bloch_vector,
    density_from_bloch,
    hermitize,
    mean_energy,
    qubit_hamiltonian,
    validate_bloch_vectors,
    validate_density_matrix,
)

from conftest import X_EIGENBASIS, rotation_y


def test_paulis_square_to_identity():
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert_allclose(sigma @ sigma, IDENTITY, atol=1e-15)


def test_paulis_anticommute():
    assert_allclose(SIGMA_X @ SIGMA_Y + SIGMA_Y @ SIGMA_X, 0.0 * IDENTITY, atol=1e-15)
    assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)


def test_hamiltonian_is_minus_two_pi_nu_sigma():
    assert_allclose(qubit_hamiltonian(2.0, "z"), -2.0 * TWO_PI * SIGMA_Z, atol=1e-15)
    assert_allclose(qubit_hamiltonian(1.0, "x"), -TWO_PI * SIGMA_X, atol=1e-15)


def test_hamiltonian_level_splitting_is_twice_nu():
    # eigenvalues are -+ 2 pi nu in angular units, so the gap is 2 nu in h*kHz
    energies = np.linalg.eigvalsh(qubit_hamiltonian(2.0, "z"))
    assert (energies[1] - energies[0]) / TWO_PI == pytest.approx(4.0, abs=1e-12)


def test_basis_index_zero_is_the_ground_state():
    h = qubit_hamiltonian(1.0, "z")
    assert h[0, 0].real < 0 < h[1, 1].real


def test_hamiltonian_rejects_unknown_axis():
    with pytest.raises(ValueError):
        qubit_hamiltonian(1.0, "w")


def test_rotation_y_basics():
    assert_allclose(rotation_y(0.0), IDENTITY, atol=1e-15)
    # spinor sign: a full turn is -identity
    assert_allclose(rotation_y(2.0 * np.pi), -IDENTITY, atol=1e-12)
    r = rotation_y(0.7)
    assert_allclose(r @ r.conj().T, IDENTITY, atol=1e-14)
    assert np.abs(r.imag).max() == 0.0


def test_rotation_y_moves_x_onto_z_axis():
    rho = density_from_bloch(np.array([-0.4, 0.0, 0.0]))
    r = rotation_y(0.5 * np.pi)
    rotated = r @ rho @ r.conj().T
    x, y, z = bloch_vector(rotated)
    assert abs(x) <= 1e-12 and abs(y) <= 1e-12
    assert abs(z) == pytest.approx(0.4, abs=1e-12)


def test_mean_energy_reports_h_khz():
    h = qubit_hamiltonian(2.0, "z")
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert mean_energy(ground, h) == pytest.approx(-2.0, abs=1e-12)


def test_bloch_vector_of_known_states():
    assert_allclose(bloch_vector(np.diag([1.0, 0.0])), [0.0, 0.0, 1.0], atol=1e-14)
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert_allclose(bloch_vector(plus), [1.0, 0.0, 0.0], atol=1e-14)


def test_density_from_bloch_validates_shape_and_norm():
    with pytest.raises(ValueError):
        density_from_bloch(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        density_from_bloch(np.array([0.8, 0.8, 0.8]))


@settings(max_examples=80)
@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_bloch_round_trip(x, y, z):
    r = np.array([x, y, z])
    assume(np.linalg.norm(r) <= 1.0)
    rho = density_from_bloch(r)
    validate_density_matrix(rho)
    assert_allclose(bloch_vector(rho), r, atol=1e-12)


def test_validate_density_matrix_accepts_valid_state():
    rho = np.array([[0.5, -0.2], [-0.2, 0.5]], dtype=complex)
    assert_allclose(validate_density_matrix(rho), rho)


def test_validate_density_matrix_rejections():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.diag([0.9, 0.9]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="square"):
        validate_density_matrix(np.ones((2, 3)))


def test_validate_bloch_vectors_bounds_the_smallest_eigenvalue():
    edge = np.array([[0.0, 0.0, 1.0 + 1e-10], [0.6, 0.0, -0.8]])
    assert validate_bloch_vectors(edge).shape == (2, 3)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_bloch_vectors([0.0, 0.0, 1.0 + 4e-10])
    assert validate_bloch_vectors([[0.0, 0.0, 1.0 + 4e-10]], psd_tol=1e-8).shape == (1, 3)
    with pytest.raises(ValueError, match="finite"):
        validate_bloch_vectors([0.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="length 3"):
        validate_bloch_vectors([0.0, 0.0])


def test_x_eigenbasis_diagonalizes_sigma_x():
    assert_allclose(
        X_EIGENBASIS.conj().T @ SIGMA_X @ X_EIGENBASIS, SIGMA_Z, atol=1e-14
    )
    assert_allclose(X_EIGENBASIS @ X_EIGENBASIS, IDENTITY, atol=1e-14)


def test_hermitize_projects_onto_hermitian_part():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitize(a)
    assert_allclose(h, h.conj().T, atol=1e-15)
    assert_allclose(h[0, 1], 1.0 + 0.5j, atol=1e-15)
