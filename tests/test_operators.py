"""Unit conventions, Pauli constructors, and Bloch-vector helpers."""

import warnings

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
    random_density,
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


EDGE = 1.0 + 1e-12


@pytest.mark.parametrize(
    "norm",
    [np.nextafter(EDGE, 0.0), EDGE, np.nextafter(EDGE, 2.0)],
    ids=["below", "at", "above"],
)
def test_density_from_bloch_refuses_exactly_what_the_bloch_check_refuses(norm):
    r = np.array([0.0, 0.0, norm])
    try:
        validate_bloch_vectors(r, psd_tol=5e-13)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            density_from_bloch(r)
        assert str(refused.value) == str(exc)
    else:
        assert density_from_bloch(r)[0, 0] == 0.5 * (1.0 + norm)
    # the edge itself lies outside: (1 - |r|)/2 is below -5e-13 there
    assert (norm >= EDGE) == (0.5 * (1.0 - norm) < -5e-13)


def test_density_from_bloch_names_the_worst_vector_of_a_stack():
    below = np.nextafter(EDGE, 0.0)
    stack = np.array([[0.0, 0.0, 0.5], [0.0, below, 0.0], [EDGE, 0.0, 0.0]])
    with pytest.raises(ValueError, match="negative eigenvalue -5.000e-13") as refused:
        density_from_bloch(stack)
    with pytest.raises(ValueError) as checked:
        validate_bloch_vectors(stack, psd_tol=5e-13)
    assert str(refused.value) == str(checked.value)
    assert density_from_bloch(stack[:2]).shape == (2, 2, 2)


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


def _unit_trace_hermitian(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` random Hermitian unit-trace matrices, some of them not
    positive: the eigenvalues are ``(1 +- s)/2`` with ``s`` up to 3."""
    bloch = rng.normal(size=(size, 3))
    bloch *= rng.uniform(0.0, 3.0, size=(size, 1)) / np.linalg.norm(bloch, axis=-1, keepdims=True)
    x, y, z = (bloch[:, k, None, None] for k in range(3))
    return 0.5 * (IDENTITY + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def test_the_closed_form_smallest_eigenvalue_matches_eigvalsh():
    from mpembasim.operators import _hypot, _qubit_deviations

    rng = np.random.default_rng(7)
    states = np.concatenate(
        [_unit_trace_hermitian(rng, 500), np.array([random_density(rng) for _ in range(500)])]
    )
    reference = np.linalg.eigvalsh(hermitize(states))[:, 0]
    stacked = _qubit_deviations(*states.reshape(-1, 4).T, np.hypot)[2]
    single = np.array(
        [_qubit_deviations(*rho.ravel().tolist(), _hypot)[2] for rho in states]
    )
    eps = np.finfo(float).eps
    assert np.abs(stacked - reference).max() <= 4 * eps
    assert np.abs(single - reference).max() <= 4 * eps
    assert np.array_equal(single, stacked)


@pytest.mark.parametrize("psd_tol", [1e-10, 1e-9, 1e-8])
def test_states_at_the_positivity_bound_are_decided_as_by_eigvalsh(psd_tol):
    # eigenvalues 1 + e and -e in a random basis, with e a part in a
    # thousand inside or outside the bound; eigvalsh decides each the same
    rng = np.random.default_rng(11)
    for outside in (False, True):
        e = psd_tol * (1.0 + 1e-3 if outside else 1.0 - 1e-3)
        states = []
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            states.append(hermitize(q @ np.diag([1.0 + e, -e]) @ q.conj().T))
        states = np.array(states)
        expected = np.linalg.eigvalsh(states)[:, 0] < -psd_tol
        assert expected.all() == outside and expected.any() == outside
        for rho in states:
            try:
                validate_density_matrix(rho, psd_tol=psd_tol)
                refused = False
            except ValueError as exc:
                assert "negative eigenvalue" in str(exc)
                refused = True
            assert refused == outside
        if outside:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                validate_density_matrix(states, psd_tol=psd_tol)
        else:
            assert validate_density_matrix(states, psd_tol=psd_tol) is states


def test_only_qubit_states_are_validated():
    for shape in ((3, 3), (4, 4), (5, 3, 3), (2,), ()):
        with pytest.raises(ValueError, match="square 2x2"):
            validate_density_matrix(np.zeros(shape))
    assert validate_density_matrix(np.zeros((0, 2, 2))).shape == (0, 2, 2)


def test_a_huge_finite_bloch_vector_is_refused_for_its_length():
    # its square overflows to inf; it is finite, so the length bound refuses
    # it, with no overflow warning on the way
    huge = [[0.0, 0.0, 0.5], [1e200, 0.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for refuse in (validate_bloch_vectors, density_from_bloch):
            with pytest.raises(ValueError, match="negative eigenvalue -inf"):
                refuse(huge)
