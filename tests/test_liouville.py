"""Row-stacking conventions, generator assembly, and the spectral solver."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpembasim import numerics
from mpembasim.channels import KrausChannel, ThermalEnvironment, build_heat_exchange
from mpembasim.exceptions import (
    BranchCutError,
    DefectiveMatrixError,
    HermiticityError,
    MpembaSimError,
    NoStationaryModeError,
    SingularInputError,
)
from mpembasim.liouville import (
    HERMITICITY_TOL,
    Generator,
    decompose,
    devectorize,
    extract_generator,
    mode_overlap,
    propagate_spectral,
    slow_pair_indices,
    transfer_matrix,
    vectorize,
)
from mpembasim.numerics import eig_general, logm_principal
from mpembasim.operators import SIGMA_X, qubit_hamiltonian

from conftest import build_lindbladian

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

# damped qubit used as the analytic reference: gap frequency 0.5 kHz,
# emission rate 2/ms, absorption rate 1/ms
NU_REF = 0.5
RATE_DOWN = 2.0
RATE_UP = 1.0


def reference_generator():
    h = qubit_hamiltonian(NU_REF, axis="z")
    return build_lindbladian(h, [(SIGMA_MINUS, RATE_DOWN), (SIGMA_PLUS, RATE_UP)])


def test_vectorize_is_row_major():
    assert_allclose(vectorize(np.array([[1.0, 2.0], [3.0, 4.0]])), [1, 2, 3, 4])


def test_devectorize_round_trip():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert_allclose(devectorize(vectorize(a)), a)


def test_devectorize_rejects_non_square_length():
    with pytest.raises(ValueError):
        devectorize(np.arange(5.0))


def test_sandwich_identity():
    # vec(A rho B) = (A kron B^T) vec(rho) under row stacking
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, rho, b = (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)
        )
        assert_allclose(
            np.kron(a, b.T) @ vectorize(rho), vectorize(a @ rho @ b), atol=1e-12
        )


def test_transfer_matrix_of_identity_map():
    assert_allclose(transfer_matrix([np.eye(2)]), np.eye(4), atol=1e-15)


def test_transfer_matrix_matches_kraus_action():
    rng = np.random.default_rng(8)
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    direct = sum(k @ rho @ k.conj().T for k in ops)
    assert_allclose(
        devectorize(transfer_matrix(ops) @ vectorize(rho)), direct, atol=1e-12
    )


def test_transfer_matrix_needs_operators():
    with pytest.raises(ValueError):
        transfer_matrix([])


def test_generator_spectrum_matches_damped_qubit():
    """Analytic reference: rates gamma_down + gamma_up for populations, half
    of that for each coherence, with the coherence pair rotating at the gap."""
    total = RATE_DOWN + RATE_UP
    gap_angular = 2.0 * np.pi * 2.0 * NU_REF
    decomposition = decompose(reference_generator())
    expected = [
        0.0,
        -0.5 * total - 1j * gap_angular,
        -0.5 * total + 1j * gap_angular,
        -total,
    ]
    assert_allclose(decomposition.eigenvalues, expected, atol=1e-10)


def test_generator_fixed_point_obeys_detailed_balance():
    decomposition = decompose(reference_generator())
    fp = decomposition.fixed_point
    assert fp[1, 1].real == pytest.approx(RATE_UP / (RATE_DOWN + RATE_UP), abs=1e-10)
    assert np.trace(fp).real == pytest.approx(1.0, abs=1e-12)


def test_build_lindbladian_rejects_bad_inputs():
    h = qubit_hamiltonian(1.0, axis="z")
    with pytest.raises(ValueError, match="jump rate -0.1 is negative"):
        build_lindbladian(h, [(SIGMA_MINUS, -0.1)])
    with pytest.raises(ValueError):
        build_lindbladian(np.array([[0.0, 1.0], [0.0, 0.0]]), [])
    with pytest.raises(ValueError):
        build_lindbladian(h, [(np.eye(3), 1.0)])


def test_decompose_orders_by_decay_rate():
    values = decompose(reference_generator()).eigenvalues
    assert np.all(np.diff(np.abs(values.real)) >= -1e-12)
    assert abs(values[0]) <= 1e-10


def test_decompose_pairing_is_biorthonormal():
    decomposition = decompose(reference_generator())
    assert (
        np.abs(decomposition.left @ decomposition.right - np.eye(4)).max() <= 1e-10
    )


def test_decompose_requires_a_stationary_mode():
    with pytest.raises(NoStationaryModeError):
        decompose(-np.eye(4))


def test_decompose_refuses_a_generator_whose_slowest_modes_all_oscillate():
    # both modes with |Re lambda| <= 1e-8 have |Im lambda| = 1, so no
    # candidate is left to carry the trace
    with pytest.raises(NoStationaryModeError, match="oscillates"):
        decompose(np.diag([1j, -1j, -1.0, -2.0]))


def test_decompose_rejects_traceless_stationary_mode():
    with pytest.raises(NoStationaryModeError, match="traceless"):
        decompose(np.diag([-1.0, 0.0, -1.0, -1.0]))


def test_decompose_picks_a_normalizable_null_mode():
    # every mode of the zero generator is stationary; the one carrying trace
    # weight must lead so the fixed point is a state
    decomposition = decompose(np.zeros((4, 4)))
    assert np.trace(decomposition.fixed_point).real == pytest.approx(1.0, abs=1e-12)


def test_mode_overlap_of_trace_mode_is_one(random_density):
    decomposition = decompose(reference_generator())
    for _ in range(5):
        assert mode_overlap(decomposition, 1, random_density()) == pytest.approx(
            1.0, abs=1e-10
        )


def test_mode_overlap_index_is_one_based():
    decomposition = decompose(reference_generator())
    with pytest.raises(IndexError):
        mode_overlap(decomposition, 0, np.eye(2) / 2)
    with pytest.raises(IndexError):
        mode_overlap(decomposition, 5, np.eye(2) / 2)


def test_slow_pair_covers_the_degenerate_coherence_rate():
    assert slow_pair_indices(decompose(reference_generator())) == [2, 3]


def test_the_stationary_tolerance_scales_with_the_rates(hot_env):
    # at rates near 1e11/ms the stationary eigenvalue rounds far above the
    # unscaled 1e-8
    generator = extract_generator(build_heat_exchange(hot_env, 215.1, 1.0), 1.0)
    scaled = decompose(1e12 * generator)
    assert_allclose(scaled.fixed_point, decompose(generator).fixed_point, rtol=0.0, atol=1e-12)
    assert slow_pair_indices(scaled) == [2, 3]


def test_slow_pair_empty_for_zero_generator():
    assert slow_pair_indices(decompose(np.zeros((4, 4)))) == []


def test_spectral_propagation_matches_matrix_exponential(random_density):
    generator = reference_generator()
    decomposition = decompose(generator)
    for t in (0.0, 0.17, 0.9, 2.5):
        rho = random_density()
        expected = devectorize(scipy.linalg.expm(t * generator) @ vectorize(rho))
        assert_allclose(
            propagate_spectral(decomposition, rho, t), expected, atol=1e-10
        )


def test_propagation_refuses_a_state_drifted_off_hermitian():
    # a kick to the rho_01 entry of the stationary mode reaches every
    # unit-trace state with weight 1, and its rho_10 partner stays put
    decomposition = decompose(reference_generator())
    for kick, drifts in ((1e3 * HERMITICITY_TOL, True), (1e-2 * HERMITICITY_TOL, False)):
        right = decomposition.right.copy()
        right[1, 0] += kick
        kicked = decomposition._replace(right=right)
        if drifts:
            with pytest.raises(HermiticityError, match="drifted"):
                propagate_spectral(kicked, np.eye(2) / 2, 0.3)
        else:
            rho = propagate_spectral(kicked, np.eye(2) / 2, 0.3)
            assert np.array_equal(rho, rho.conj().T)


def test_condition_estimate_is_the_unsorted_eigenvector_condition():
    generator = reference_generator()
    expected = float(np.linalg.cond(eig_general(generator).right))
    assert decompose(generator).condition_estimate == expected


def test_propagation_rejects_negative_times():
    decomposition = decompose(reference_generator())
    with pytest.raises(ValueError):
        propagate_spectral(decomposition, np.eye(2) / 2, -0.1)


def test_extract_generator_round_trips(hot_env):
    from mpembasim.channels import build_heat_exchange

    channel = build_heat_exchange(hot_env, 215.1, 1.0)
    generator = extract_generator(channel, 1.0)
    roundtrip = scipy.linalg.expm(1.0 * generator)
    assert np.abs(roundtrip - transfer_matrix(channel.operators)).max() <= 1e-10


def test_extract_generator_fails_at_full_swap(hot_env):
    from mpembasim.channels import build_heat_exchange, swap_window

    window = swap_window(215.1)
    channel = build_heat_exchange(hot_env, 215.1, window)
    with pytest.raises(SingularInputError):
        extract_generator(channel, window)


def test_extract_generator_refuses_branch_ambiguity():
    # a pi rotation has transfer-matrix eigenvalues on the negative real axis
    with pytest.raises(BranchCutError):
        extract_generator(KrausChannel(operators=(1j * SIGMA_X,)), 1.0)


def test_extract_generator_needs_positive_delay(hot_env):
    from mpembasim.channels import build_heat_exchange

    channel = build_heat_exchange(hot_env, 215.1, 0.5)
    with pytest.raises(ValueError):
        extract_generator(channel, 0.0)


def cycle_scan_exchanges(count: int, seed: int = 30):
    """Seeded (channel, delay) pairs from the ``cycle-scan`` workload's ranges:
    gap 0.75-4.5 kHz, T 2-8 kHz, J 100-400 Hz, delay 5-80% of the window."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nu1 = rng.uniform(0.5, 1.5) * rng.uniform(1.5, 3.0)
        env = ThermalEnvironment(temperature=rng.uniform(2.0, 8.0), gap_frequency=nu1)
        j_hz = rng.uniform(100.0, 400.0)
        tau = float(rng.uniform(0.05, 0.8) * 500.0 / j_hz)
        yield build_heat_exchange(env, j_hz, tau), tau


def count_eig_general(monkeypatch) -> list:
    """Record each numerics.eig_general call in the returned list."""
    calls = []

    def counted(a):
        calls.append(a)
        return eig_general(a)

    monkeypatch.setattr(numerics, "eig_general", counted)
    return calls


def assert_same_decomposition(carried, plain, tol=1e-12):
    scale = max(1.0, float(np.abs(plain.eigenvalues).max()))
    assert np.abs(carried.eigenvalues - plain.eigenvalues).max() <= tol * scale
    assert np.abs(carried.fixed_point - plain.fixed_point).max() <= tol


def test_a_reference_pass_diagonalizes_once(hot_env, monkeypatch):
    channel = build_heat_exchange(hot_env, 215.1, 1.0)
    calls = count_eig_general(monkeypatch)
    decompose(extract_generator(channel, 1.0))
    assert len(calls) == 1


def test_the_generator_has_the_bits_of_the_scaled_logarithm():
    for channel, tau in cycle_scan_exchanges(20):
        generator = extract_generator(channel, tau)
        matrix = transfer_matrix(channel.operators)
        assert np.array_equal(generator, logm_principal(matrix) / tau)
        rates = numerics.log_eigensystem(matrix).eigenvalues / tau
        assert np.array_equal(generator.system.eigenvalues, rates)


def test_the_carried_system_decomposes_as_the_plain_array_does():
    for channel, tau in cycle_scan_exchanges(200):
        generator = extract_generator(channel, tau)
        assert_same_decomposition(decompose(generator), decompose(np.array(generator)))


def test_the_generator_is_read_only(hot_env):
    generator = extract_generator(build_heat_exchange(hot_env, 215.1, 1.0), 1.0)
    assert isinstance(generator, Generator)
    with pytest.raises(ValueError):
        generator[0, 0] = 1.0


def test_arrays_derived_from_a_generator_carry_no_system(hot_env, monkeypatch):
    generator = extract_generator(build_heat_exchange(hot_env, 215.1, 1.0), 1.0)
    calls = count_eig_general(monkeypatch)
    for derived in (2 * generator, generator.copy(), np.array(generator)):
        decompose(derived)
    assert len(calls) == 3


def test_a_generator_with_another_matrix_system_is_refused(hot_env):
    generator = extract_generator(build_heat_exchange(hot_env, 215.1, 1.0), 1.0)
    other = extract_generator(build_heat_exchange(hot_env, 215.1, 0.5), 0.5)
    with pytest.raises(DefectiveMatrixError, match="rebuilds the generator"):
        decompose(Generator(np.array(generator), other.system))
    with pytest.raises(DefectiveMatrixError, match="rebuilds the generator"):
        decompose(Generator(np.zeros((2, 2)), generator.system))


@pytest.mark.parametrize("temperature", (2.0, 4.77))
@pytest.mark.parametrize("tau", (1e-9, 1e-6))
def test_short_delays_fail_alike_on_the_carried_and_plain_paths(temperature, tau):
    # the route loses the rates at these delays (see ROADMAP item 5): at
    # 1e-9 ms the generator is zero at 4.77 kHz and has no stationary mode
    # at 2 kHz; the carried system must not change either outcome
    env = ThermalEnvironment(temperature=temperature, gap_frequency=2.0)
    generator = extract_generator(build_heat_exchange(env, 215.1, tau), tau)
    outcomes = []
    for array in (generator, np.array(generator)):
        try:
            outcomes.append(decompose(array))
        except MpembaSimError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    if isinstance(outcomes[0], str) or isinstance(outcomes[1], str):
        assert outcomes[0] == outcomes[1]
    else:
        assert_same_decomposition(*outcomes)


matrix_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=50)
@given(st.lists(matrix_entries, min_size=8, max_size=8))
def test_vectorize_preserves_trace_and_linearity(entries):
    flat = np.array(entries)
    a = (flat[:4] + 1j * flat[4:]).reshape(2, 2)
    assert vectorize(np.eye(2)) @ vectorize(a) == pytest.approx(
        complex(np.trace(a)), abs=1e-12
    )
    assert_allclose(vectorize(2.5 * a), 2.5 * vectorize(a), atol=1e-12)
