"""The accelerating pulse and unitary, angle families, and the relaxation sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpembasim import channels, mpemba
from mpembasim.channels import ThermalEnvironment, build_heat_exchange, swap_window
from mpembasim.exceptions import DegenerateHamiltonianError
from mpembasim.liouville import decompose, extract_generator, mode_overlap, \
    slow_pair_indices
from mpembasim.mpemba import (
    MpembaTransform,
    build_theta_family,
    cooling_curves,
    free_energy_surface,
    mpemba_bloch,
    mpemba_unitary,
)
from mpembasim.operators import PAULIS, TWO_PI, bloch_vector, density_from_bloch, \
    qubit_hamiltonian, random_density, validate_bloch_vectors
from mpembasim.thermo import ENTROPY_FLOOR, detect_crossing, f_neq, gibbs_state

from conftest import gad_bloch, rotation_y

COUPLING_HZ = 215.1
HOT_T = 4.77
KILL_TOL = 1e-10

HALF = 0.5 * np.eye(2, dtype=complex)

#: the hot-exchange generator the transform's target must decouple from
DECOMPOSITION = decompose(
    extract_generator(
        build_heat_exchange(ThermalEnvironment(HOT_T, 2.0), COUPLING_HZ, 1.0), 1.0
    )
)


def slow_weights(rho):
    """Weights of ``rho`` on the slowest decaying mode pair of DECOMPOSITION."""
    pair = slow_pair_indices(DECOMPOSITION)
    return [abs(mode_overlap(DECOMPOSITION, k, rho)) for k in pair]


def test_transform_inverts_populations_in_the_energy_basis(rho0, h_hot):
    transform = mpemba_unitary(rho0, h_hot)
    assert isinstance(transform, MpembaTransform)
    # largest eigenvalue of rho lands on the upper level
    assert_allclose(transform.target_state, np.diag([0.3, 0.7]), atol=1e-12)


def test_a_transform_that_is_not_unitary_is_refused(rho0, h_hot, monkeypatch):
    # the record holds no checks; its one constructor checks what it built
    original = mpemba._phase_fixed
    monkeypatch.setattr(mpemba, "_phase_fixed", lambda columns: 1.001 * original(columns))
    with pytest.raises(ValueError, match="not unitary"):
        mpemba_unitary(rho0, h_hot)


def test_transform_is_unitary_and_spectrum_preserving(rho0, h_hot):
    transform = mpemba_unitary(rho0, h_hot)
    u = transform.unitary
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12
    assert_allclose(
        np.linalg.eigvalsh(transform.target_state),
        np.linalg.eigvalsh(rho0),
        atol=1e-12,
    )


def test_transform_gain_is_the_energy_flip(rho0, h_hot):
    # the source carries no z polarization, the target carries the full 0.4,
    # and entropy is untouched, so the price is exactly 2 nu (p1 - p0)
    transform = mpemba_unitary(rho0, h_hot)
    assert transform.f_neq_gain == pytest.approx(0.8, abs=1e-12)


def test_transform_of_the_gibbs_state_costs_twice_its_energy(h_hot):
    equilibrium = gibbs_state(h_hot, HOT_T)
    transform = mpemba_unitary(equilibrium, h_hot)
    expected = 2.0 * 2.0 * np.tanh(2.0 / HOT_T)
    assert transform.f_neq_gain == pytest.approx(expected, abs=1e-10)


def test_transform_kills_both_slow_modes(rho0, h_hot):
    transform = mpemba_unitary(rho0, h_hot)
    assert slow_pair_indices(DECOMPOSITION) == [2, 3]
    assert slow_weights(rho0) == pytest.approx([0.2, 0.2], abs=1e-9)
    assert max(slow_weights(transform.target_state)) <= KILL_TOL


def test_transform_of_the_maximally_mixed_state_is_free(h_hot):
    transform = mpemba_unitary(HALF, h_hot)
    assert_allclose(transform.target_state, HALF, atol=1e-12)
    assert transform.f_neq_gain == pytest.approx(0.0, abs=1e-12)


def test_transform_rejects_degenerate_spectra(rho0):
    with pytest.raises(DegenerateHamiltonianError):
        mpemba_unitary(rho0, np.zeros((2, 2)))
    with pytest.raises(DegenerateHamiltonianError):
        mpemba_unitary(rho0, 5.0 * np.eye(2))


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(-0.55, 0.55),
    y=st.floats(-0.55, 0.55),
    z=st.floats(-0.55, 0.55),
)
def test_transform_properties_hold_on_generic_states(x, y, z):
    h = qubit_hamiltonian(2.0, "z")
    rho = density_from_bloch(np.array([x, y, z]))
    transform = mpemba_unitary(rho, h)
    u = transform.unitary
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12
    assert_allclose(
        np.linalg.eigvalsh(transform.target_state), np.linalg.eigvalsh(rho), atol=1e-11
    )
    assert max(slow_weights(transform.target_state)) <= KILL_TOL
    assert transform.f_neq_gain >= -1e-10


def _pure_state(angles):
    polar, azimuth = angles
    s = np.sin(polar)
    return density_from_bloch(np.array([s * np.cos(azimuth), s * np.sin(azimuth), np.cos(polar)]))


def _full_rank_state(seed):
    return random_density(np.random.default_rng(seed))


@settings(max_examples=100, deadline=None)
@given(
    rho=st.one_of(
        st.integers(0, 2**32 - 1).map(_full_rank_state),
        st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi)).map(_pure_state),
        st.just(HALF),
    ),
    log_nu=st.floats(-3.0, 3.0),
)
def test_closed_form_pulse_matches_the_unitary(rho, log_nu):
    h = qubit_hamiltonian(10.0**log_nu, "z")
    reference = bloch_vector(mpemba_unitary(rho, h).target_state)
    assert_allclose(mpemba_bloch(bloch_vector(rho)), reference, rtol=0.0, atol=1e-12)


def test_closed_form_pulse_maps_arrays_of_bloch_vectors():
    r = np.array([[[0.6, 0.0, 0.8], [0.0, -0.3, 0.4]]])
    assert_allclose(mpemba_bloch(r), [[[0.0, 0.0, -1.0], [0.0, 0.0, -0.5]]], atol=1e-15)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        mpemba_bloch([0.0, 0.0, 1.0 + 1e-6])


def test_the_pulse_keeps_numpys_length_on_arrays_and_on_floats():
    # |r| as numpy sums a length-3 axis, for a stack, for one vector and for
    # the Python floats the refrigerator cycle passes
    from mpembasim.mpemba import _pulse_z

    r = np.random.default_rng(5).uniform(-0.577, 0.577, size=(2000, 3))
    length = np.sqrt((r * r).sum(axis=-1))
    assert np.array_equal(mpemba_bloch(r)[:, 2], -length)
    assert np.array_equal([mpemba_bloch(v)[2] for v in r], -length)
    assert np.array_equal([_pulse_z(*v) for v in r.tolist()], -length)
    assert not mpemba_bloch(r)[:, :2].any()


# -------------------------------------------------------------- angle family


def test_family_endpoints_reproduce_the_base_state(rho0):
    family = build_theta_family(bloch_vector(rho0), [0.0, 2.0 * np.pi])
    assert family.shape == (2, 3)
    assert_allclose(family[0], bloch_vector(rho0), atol=1e-14)
    assert_allclose(family[1], bloch_vector(rho0), atol=1e-12)


def test_family_quarter_turn_diagonalizes_an_x_aligned_state(rho0):
    family = build_theta_family(bloch_vector(rho0), [0.5 * np.pi])
    x, y, z = family[0]
    assert abs(x) <= 1e-12 and abs(y) <= 1e-12
    assert 0.5 * (1.0 + z) == pytest.approx(0.7, abs=1e-12)


def test_family_extremes_sit_at_the_passive_and_inverted_angles(rho0, h_hot):
    angles = np.linspace(0.0, 2.0 * np.pi, 73)
    family = build_theta_family(bloch_vector(rho0), angles)
    values = np.array([f_neq(density_from_bloch(r), h_hot, HOT_T) for r in family])
    assert int(values.argmin()) == 18  # theta = pi/2
    assert int(values.argmax()) == 54  # theta = 3 pi/2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), theta=st.floats(-10.0, 10.0))
def test_family_rotates_bloch_vectors_as_the_matrices_rotate(seed, theta):
    rho = random_density(np.random.default_rng(seed))
    r = rotation_y(theta)
    family = build_theta_family(bloch_vector(rho), [0.0, theta])
    assert_allclose(family[1], bloch_vector(r @ rho @ r.conj().T), atol=1e-15)


def test_family_input_validation(rho0):
    with pytest.raises(ValueError):
        build_theta_family(bloch_vector(rho0), [])
    with pytest.raises(ValueError):
        build_theta_family([0.0, 0.0, 1.4], [0.0])
    with pytest.raises(ValueError, match="one Bloch vector"):
        build_theta_family(np.zeros((2, 3)), [0.0])


def test_family_refuses_a_base_state_outside_the_bloch_ball():
    # |r| = 1 + 1e-6 off every axis: eigenvalue -5e-7, beyond the 1e-10 bound
    outside = np.full(3, (1.0 + 1e-6) / np.sqrt(3.0))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        build_theta_family(outside, [0.0, 1.0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        build_theta_family([0.0, 0.0, 1.0 + 1e-6], [0.0])


# ------------------------------------------------------------------- surfaces


def test_surface_rows_are_theta_major(rho0, hot_env, h_hot):
    family = build_theta_family(bloch_vector(rho0), [0.0, 1.0, 2.0])
    surface = free_energy_surface(family, hot_env, COUPLING_HZ, [0.0, 0.5])
    f_eq = f_neq(gibbs_state(h_hot, HOT_T), h_hot, HOT_T)
    assert surface.shape == (3, 2)
    for i, r in enumerate(family):
        expected = f_neq(density_from_bloch(r), h_hot, HOT_T) - f_eq
        assert surface[i, 0] == pytest.approx(expected, abs=1e-12)


def test_surface_collapses_to_equilibrium_at_the_full_swap(rho0, hot_env):
    family = build_theta_family(bloch_vector(rho0), np.linspace(0.0, 2.0 * np.pi, 9))
    surface = free_energy_surface(
        family, hot_env, COUPLING_HZ, [swap_window(COUPLING_HZ)]
    )
    assert surface.shape == (9, 1)
    assert np.abs(surface).max() <= 1e-6


def test_inverted_angle_reaches_equilibrium_first(rho0, hot_env):
    """The farther-from-equilibrium branch enters the 0.01 kHz neighborhood
    at a shorter delay than the unrotated one."""
    taus = np.linspace(0.0, swap_window(COUPLING_HZ), 64)
    family = build_theta_family(bloch_vector(rho0), [0.0, 1.5 * np.pi])
    plain, inverted = free_energy_surface(family, hot_env, COUPLING_HZ, taus)
    assert inverted[0] > plain[0]
    first_plain = np.flatnonzero(plain <= 0.01)[0]
    first_inverted = np.flatnonzero(inverted <= 0.01)[0]
    assert first_inverted < first_plain


def test_surface_requires_delays(rho0, hot_env, h_hot):
    family = build_theta_family(bloch_vector(rho0), [0.0])
    with pytest.raises(ValueError):
        free_energy_surface(family, hot_env, COUPLING_HZ, [])


# ------------------------------------------------------------- cooling sweeps


def test_cooling_curves_record_the_excess_over_equilibrium(rho0, hot_env):
    taus = np.linspace(0.0, swap_window(COUPLING_HZ), 16)
    r0 = bloch_vector(rho0)
    plain, boosted = cooling_curves(r0, hot_env, COUPLING_HZ, taus)
    assert plain.label == "plain" and boosted.label == "mpemba"

    # scalar bookkeeping for the starting excess: zero mean energy, binary
    # entropy of 0.3, equilibrium free energy -T log Z
    entropy = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
    z = np.exp(2.0 / 4.77) + np.exp(-2.0 / 4.77)
    expected0 = -4.77 * entropy + 4.77 * np.log(z)
    assert plain.f_neq[0] == pytest.approx(expected0, abs=1e-10)
    assert boosted.f_neq[0] == pytest.approx(expected0 + 0.8, abs=1e-10)

    assert plain.f_neq.min() >= -1e-12
    assert plain.f_neq[-1] <= 1e-10 and boosted.f_neq[-1] <= 1e-10
    assert plain.trace_dist[-1] <= 1e-10


def test_cooling_curves_cross_persistently(rho0, hot_env):
    taus = np.linspace(0.0, swap_window(COUPLING_HZ), 64)
    r0 = bloch_vector(rho0)
    plain, boosted = cooling_curves(r0, hot_env, COUPLING_HZ, taus)
    report = detect_crossing(boosted, plain, observable="f_neq")
    assert report.exists and report.persistent
    assert 0.0 < report.t_cross < swap_window(COUPLING_HZ)


def test_cooling_an_equilibrium_state_is_flat(hot_env, h_hot):
    target = bloch_vector(gibbs_state(h_hot, hot_env.temperature))
    taus = np.linspace(0.0, 2.0, 8)
    plain, _ = cooling_curves(target, hot_env, COUPLING_HZ, taus)
    assert plain.f_neq.max() <= 1e-12
    assert plain.trace_dist.max() <= 1e-12


# ------------------------------------------- planar kernel vs the stacked route
#
# The sweeps run the exchange on Bloch-component planes; the stacked route maps
# (..., 3) vectors with the test-local gad_bloch and takes the free energy and
# the distance of the result from the vectors' Pauli components and norms.
# Both form each number by the same operations in the same order, so they
# agree bit for bit.


def _p_ln_p(p):
    support = np.where(p > ENTROPY_FLOOR, p, 1.0)
    return support * np.log(support)


def _free_energy(r, h, temperature):
    """``Tr(H rho)/(2 pi) - T S`` of Bloch vectors ``r``: the energy
    ``(Tr H + r . (Tr H sigma_a)_a)/(4 pi)`` and the entropy over the
    eigenvalues ``(1 +- |r|)/2``."""
    components = np.array([np.trace(h @ PAULIS[axis]).real for axis in "xyz"])
    length = np.linalg.norm(r, axis=-1)
    energy = 0.5 * (np.trace(h).real + r @ components) / TWO_PI
    entropy_terms = _p_ln_p(0.5 * (1.0 + length)) + _p_ln_p(0.5 * (1.0 - length))
    return energy + temperature * entropy_terms


def _stacked_route(bloch, env, j_hz, taus):
    """Excess free energy and distance to the target, through the stack."""
    evolved = validate_bloch_vectors(gad_bloch(env, j_hz, bloch, taus))
    h = qubit_hamiltonian(env.gap_frequency, axis="z")
    target = np.array([0.0, 0.0, env.polarization])
    excess = _free_energy(evolved, h, env.temperature) - _free_energy(
        target, h, env.temperature
    )
    return excess, 0.5 * np.linalg.norm(evolved - target, axis=-1)


def _seeded_sweep(seed):
    """A model drawn log-uniformly over several decades, a stack of starts
    (``y != 0``, pure, the centre, a pulsed one) and delays from 0 to the
    full window, both ends included."""
    rng = np.random.default_rng(seed)
    env = ThermalEnvironment(
        temperature=10.0 ** rng.uniform(-2.0, 3.0),
        gap_frequency=10.0 ** rng.uniform(-2.0, 2.0),
    )
    j_hz = 10.0 ** rng.uniform(0.0, 4.0)
    inside = rng.normal(size=(4, 3))
    inside *= rng.uniform(0.0, 1.0, size=(4, 1)) / np.linalg.norm(inside, axis=1)[:, None]
    pure = rng.normal(size=3)
    pure /= np.linalg.norm(pure)
    starts = np.vstack([inside, pure, [0.0, 0.0, 0.0], mpemba_bloch(inside[0])])
    window = swap_window(j_hz)
    taus = np.unique(np.concatenate([[0.0, window], rng.uniform(0.0, window, 37)]))
    return env, j_hz, starts, taus


@pytest.mark.parametrize("seed", range(12))
def test_surface_has_the_bits_of_the_stacked_route(seed):
    env, j_hz, starts, taus = _seeded_sweep(seed)
    expected, _ = _stacked_route(starts, env, j_hz, taus)
    assert np.array_equal(free_energy_surface(starts, env, j_hz, taus), expected)


def test_surface_of_an_empty_stack_is_empty():
    env, j_hz, _, taus = _seeded_sweep(0)
    surface = free_energy_surface(np.empty((0, 3)), env, j_hz, taus)
    expected, _ = _stacked_route(np.empty((0, 3)), env, j_hz, taus)
    assert surface.shape == expected.shape == (0, taus.size)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("pulsed", [False, True])
def test_cooling_curves_have_the_bits_of_the_stacked_route(seed, pulsed):
    # pulsed picks the curve of the pair: 0 the plain one, 1 the pulsed one
    env, j_hz, starts, taus = _seeded_sweep(seed)
    for r0 in starts:
        curve = cooling_curves(r0, env, j_hz, taus)[pulsed]
        start = mpemba_bloch(r0) if pulsed else r0
        excess, distance = _stacked_route(start, env, j_hz, taus)
        assert np.array_equal(curve.f_neq, excess)
        assert np.array_equal(curve.trace_dist, distance)


def _error_of(call):
    """The type and message of what ``call`` raises (a NaN it forms is not
    reported on the way)."""
    with pytest.raises(Exception) as caught, np.errstate(invalid="ignore"):
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize(
    "bloch, taus, j_hz",
    [
        ([[0.1, 0.2, 0.3]], [0.0, 1.1 * swap_window(COUPLING_HZ)], COUPLING_HZ),
        ([[0.1, 0.2, 0.3], [1.1, 0.0, 0.0]], [0.0, 1.0], COUPLING_HZ),
        # an infinite coupling leaves only tau = 0, where the swap angle is NaN
        ([[0.1, 0.2, 0.3]], [0.0], np.inf),
    ],
    ids=["delay-outside-the-window", "start-outside-the-ball", "non-finite-output"],
)
def test_the_planar_kernel_raises_as_the_stacked_route(hot_env, bloch, taus, j_hz):
    bloch = np.array(bloch)
    stacked = _error_of(lambda: _stacked_route(bloch, hot_env, j_hz, taus))
    assert _error_of(lambda: free_energy_surface(bloch, hot_env, j_hz, taus)) == stacked

    def stacked_pair():
        # the pair's two passes in their order
        _stacked_route(bloch[-1], hot_env, j_hz, taus)
        _stacked_route(mpemba_bloch(bloch[-1]), hot_env, j_hz, taus)

    assert _error_of(lambda: cooling_curves(bloch[-1], hot_env, j_hz, taus)) == _error_of(
        stacked_pair
    )


def test_the_planar_kernel_bounds_its_output_as_the_stacked_route(hot_env, monkeypatch):
    # the exchange cannot lengthen a Bloch vector, so a map that does is a
    # stand-in for a broken one; the stacked route gets the same stretch
    original = channels._exchange_components

    def lengthening(*args):
        return tuple(1.5 * plane for plane in original(*args))

    monkeypatch.setattr(channels, "_exchange_components", lengthening)
    bloch, taus = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.9]]), [0.0, 1.0]
    kind, message = _error_of(
        lambda: validate_bloch_vectors(1.5 * gad_bloch(hot_env, COUPLING_HZ, bloch, taus))
    )
    assert (kind, "negative eigenvalue" in message) == (ValueError, True)
    assert _error_of(
        lambda: free_energy_surface(bloch, hot_env, COUPLING_HZ, taus)
    ) == (kind, message)
