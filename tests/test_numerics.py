"""Eigensystem pairing, matrix exponential, and principal-logarithm contracts."""

import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import mpembasim
from mpembasim import numerics
from mpembasim.channels import build_heat_exchange, swap_window
from mpembasim.exceptions import (
    BranchCutError,
    DefectiveMatrixError,
    NonConvergenceError,
    SingularInputError,
)
from mpembasim.liouville import extract_generator
from mpembasim.numerics import (
    PADE13_THETA,
    eig_general,
    expm,
    logm_principal,
)

COUPLING_HZ = 215.1

#: max |numerics.expm - scipy.linalg.expm| relative to max |scipy.linalg.expm|
EXPM_REFERENCE_RTOL = 1e-12

PAIRING_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


def random_matrix(rng, n=4, scale=1.0):
    return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def assert_matches_reference_expm(a):
    reference = scipy.linalg.expm(a)
    deviation = np.abs(expm(a) - reference).max()
    assert deviation <= EXPM_REFERENCE_RTOL * np.abs(reference).max()


def test_eig_identity():
    system = eig_general(np.eye(2))
    assert_allclose(system.eigenvalues, [1.0, 1.0])
    assert_allclose(system.left @ system.right, np.eye(2), atol=PAIRING_TOL)


def test_eig_diagonal_case():
    system = eig_general(np.diag([2.0, 3.0j]))
    assert_allclose(sorted(system.eigenvalues, key=lambda z: z.real), [3.0j, 2.0])


def test_left_right_pairing_is_biorthonormal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        system = eig_general(random_matrix(rng))
        assert np.abs(system.left @ system.right - np.eye(4)).max() <= PAIRING_TOL


def test_eigensystem_rebuilds_the_matrix():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = random_matrix(rng)
        system = eig_general(a)
        rebuilt = system.right @ np.diag(system.eigenvalues) @ system.left
        assert np.abs(rebuilt - a).max() <= RECONSTRUCTION_TOL * np.abs(a).max()


def test_each_column_is_a_right_eigenvector():
    rng = np.random.default_rng(13)
    a = random_matrix(rng)
    system = eig_general(a)
    for k in range(4):
        v = system.right[:, k]
        assert np.abs(a @ v - system.eigenvalues[k] * v).max() <= 1e-9


def test_eigenvalues_match_reference_solver():
    rng = np.random.default_rng(14)
    a = random_matrix(rng)
    ours = np.sort_complex(eig_general(a).eigenvalues)
    reference = np.sort_complex(np.linalg.eigvals(a))
    assert_allclose(ours, reference, atol=1e-10)


def test_jordan_block_is_rejected():
    with pytest.raises(DefectiveMatrixError):
        eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nonsquare_input_is_rejected():
    with pytest.raises(ValueError):
        eig_general(np.ones((2, 3)))


def test_nonfinite_input_is_rejected():
    with pytest.raises(ValueError):
        eig_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_lapack_failure_becomes_nonconvergence(monkeypatch):
    def failing_eig(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    with pytest.raises(NonConvergenceError, match="did not converge"):
        eig_general(np.eye(2))


def test_condition_estimate_is_reported():
    system = eig_general(np.diag([1.0, 2.0]))
    assert system.condition_estimate == pytest.approx(1.0, abs=1e-12)


def test_condition_estimate_is_computed_on_first_read(monkeypatch):
    calls = []
    real = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(m) or real(m))
    system = eig_general(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert calls == []
    first = system.condition_estimate
    assert first == system.condition_estimate == real(system.right)
    assert len(calls) == 1


def test_expm_zero_matrix():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    assert_matches_reference_expm(np.zeros((4, 4), dtype=complex))


def test_expm_diagonal():
    assert_allclose(
        expm(np.diag([np.log(2.0), np.log(3.0)])), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_expm_pauli_rotation():
    # exp(-i pi/2 sigma_x) = -i sigma_x
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert_allclose(expm(-0.5j * np.pi * sx), -1j * sx, atol=1e-12)


def test_expm_matches_reference_across_scaling_regimes():
    rng = np.random.default_rng(16)
    # the Pade bound and the floats on either side of it
    edges = [np.nextafter(PADE13_THETA, direction) for direction in (0.0, PADE13_THETA, np.inf)]
    norms = np.concatenate([np.geomspace(1e-3, 1e2, 60), edges])
    for norm in norms:
        a = random_matrix(rng)
        assert_matches_reference_expm(a * (norm / np.linalg.norm(a, 1)))
    # the unscaled and the squaring branch ran
    assert norms.min() < PADE13_THETA < norms.max()


def test_expm_rejects_a_matrix_whose_norm_overflows():
    with pytest.raises(ValueError, match="overflows"):
        expm(np.full((4, 4), 1e308))


@pytest.mark.parametrize(
    "a",
    [
        np.full((4, 4), 1e308),
        # the modulus of each entry overflows before the column sum does
        np.full((2, 2), 1.5e308 + 1.5e308j),
    ],
)
def test_expm_refuses_an_overflowing_norm_with_warnings_as_errors(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            expm(a)


def test_expm_refuses_an_exponential_that_overflows_in_its_squarings():
    # exp(800) is beyond the float range; the norm is not, so the squarings
    # reach it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows in 8 squarings"):
            expm(np.diag([800.0, 0.0]))


def test_expm_of_a_subnormal_matrix():
    # the norm underflows against the Pade threshold; no squaring is needed
    a = np.diag([0.0, 0.0, 5e-324j])
    assert_matches_reference_expm(a)


# sizes below the Pade bound and one above it, for the squaring branch
@pytest.mark.parametrize("size", [1e-3, 0.1, 0.5, 1.5, 4.0, 40.0])
def test_expm_of_a_nilpotent_block_is_exact(size):
    b = np.zeros((4, 4), dtype=complex)
    b[0, 1] = size
    b[2, 3] = -1j * size
    assert np.array_equal(expm(b), np.eye(4) + b)


def test_expm_of_the_default_generator_matches_reference(hot_env):
    generator = extract_generator(build_heat_exchange(hot_env, COUPLING_HZ, 1.0), 1.0)
    window = swap_window(COUPLING_HZ)
    times = np.concatenate([np.linspace(0.0, window, 9), np.linspace(0.1, 5.0, 9)])
    for t in times:
        assert_matches_reference_expm(t * generator)


def test_package_imports_no_scipy():
    # a lazy import inside a command would only show after the command ran
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import mpembasim
        from mpembasim import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["spectrum", "--tau", "1.0"])
        assert code == 0, code
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    src = os.path.dirname(os.path.dirname(mpembasim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip() == "[]"


def test_logm_identity_is_zero():
    assert_allclose(logm_principal(np.eye(3)), np.zeros((3, 3)), atol=1e-13)


def test_logm_diagonal():
    assert_allclose(
        logm_principal(np.diag([np.e, np.e**2])), np.diag([1.0, 2.0]), atol=1e-12
    )


def test_logm_inverts_expm():
    rng = np.random.default_rng(15)
    for _ in range(10):
        b = random_matrix(rng, n=3, scale=0.4)
        assert np.abs(logm_principal(expm(b)) - b).max() <= 1e-10


def test_logm_rejects_singular_input():
    with pytest.raises(SingularInputError):
        logm_principal(np.diag([1.0, 1e-13]))


def test_logm_rejects_negative_real_eigenvalue():
    with pytest.raises(BranchCutError):
        logm_principal(np.diag([-1.0, 2.0]))
    with pytest.raises(BranchCutError):
        logm_principal(-np.eye(2))
    # the guard scales with the modulus: |Im| up to 1e-13 |lambda| is on the cut
    with pytest.raises(BranchCutError, match="negative real axis"):
        logm_principal(np.diag([-4.0 + 3e-13j, 2.0]))
    assert np.isfinite(logm_principal(np.diag([-4.0 + 5e-13j, 2.0]))).all()


@pytest.mark.parametrize(
    "a, message",
    [
        (np.ones((2, 3)), "square matrix"),
        (np.ones(4), "square matrix"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), "non-finite"),
    ],
)
def test_logm_validates_its_input_once(monkeypatch, a, message):
    checked = []
    real = numerics._as_square
    monkeypatch.setattr(
        numerics, "_as_square", lambda m, name: checked.append(name) or real(m, name)
    )
    with pytest.raises(ValueError, match=message):
        logm_principal(a)
    assert checked == ["a"]
    checked.clear()
    assert_allclose(logm_principal(np.diag([1.0, np.e])), np.diag([0.0, 1.0]), atol=1e-15)
    assert checked == ["a"]


def test_logm_refuses_the_exponential_of_a_jordan_block():
    # expm of a single off-diagonal entry is I + b: one eigenvalue, one vector
    b = np.zeros((3, 3), dtype=complex)
    b[0, 1] = 0.5
    m = expm(b)
    assert np.array_equal(m, np.eye(3) + b)
    with pytest.raises(DefectiveMatrixError):
        logm_principal(m)


finite_entries = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_entries, min_size=18, max_size=18))
@example([0.0, 0.5] + [0.0] * 16)
def test_exp_log_round_trip(entries):
    """expm and logm_principal invert each other inside the principal strip.

    The property holds for diagonalizable exponentials, the domain of the
    eigendecomposition-based logarithm; defective draws are skipped here and
    their refusal is pinned by the Jordan-block test above.
    """
    flat = np.array(entries)
    b = (flat[:9] + 1j * flat[9:]).reshape(3, 3)
    m = expm(b)
    try:
        eig_general(m)
    except DefectiveMatrixError:
        assume(False)
    assert np.abs(expm(logm_principal(m)) - m).max() <= 1e-9
