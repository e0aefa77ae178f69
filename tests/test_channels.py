"""Heat-exchange channel construction, its dilation, and CPTP checks."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpembasim.channels import (
    KrausChannel,
    ThermalEnvironment,
    _check_delays,
    _exchange_grid,
    apply_channel,
    build_heat_exchange,
    exchange_spectrum,
    swap_window,
)
from mpembasim.exceptions import SingularInputError, TauOutOfRangeError
from mpembasim.liouville import decompose, extract_generator, transfer_matrix
from mpembasim.mpemba import _relaxation, free_energy_surface
from mpembasim.otto import CycleConfig, run_cycle
from mpembasim.operators import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    bloch_vector,
    density_from_bloch,
    qubit_hamiltonian,
)
from mpembasim.thermo import f_neq, gibbs_state, trace_distance

from conftest import X_EIGENBASIS, four_matrix_kraus, gibbs_weight

COUPLING_HZ = 215.1
COMPLETENESS_TOL = 1e-12


def test_excited_population_is_the_boltzmann_weight(hot_env):
    expected = 1.0 / (1.0 + np.exp(2.0 * 2.0 / 4.77))
    assert hot_env.excited_population == pytest.approx(expected, abs=1e-15)
    assert hot_env.excited_population == pytest.approx(0.301835112, abs=1e-9)


def test_populations_sum_to_one(cold_env):
    p = cold_env.excited_population
    assert np.sum([1.0 - p, p]) == pytest.approx(1.0, abs=1e-15)


def test_excited_population_far_below_the_gap_is_zero_without_a_warning():
    # exp(2 nu / T) overflows here; the weight is its limit, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ThermalEnvironment(temperature=1e-3, gap_frequency=2.0).excited_population
        near = ThermalEnvironment(temperature=4.77, gap_frequency=2.0).excited_population
    assert p == 0.0
    assert near == 1.0 / (1.0 + np.exp(2.0 * 2.0 / 4.77))


@pytest.mark.parametrize("nu", [0.5, 2.0, 7.0])
@pytest.mark.parametrize("temperature", [1e-3, 0.3, 4.77, 1e3])
def test_polarization_is_the_gibbs_state_bloch_component(nu, temperature):
    # T = 1e-3 puts exp(2 nu / T) past overflow, where the weight is exactly 0
    env = ThermalEnvironment(temperature=temperature, gap_frequency=nu)
    gibbs = bloch_vector(gibbs_state(qubit_hamiltonian(nu, "z"), temperature))
    assert env.polarization == pytest.approx(gibbs[2], abs=1e-15)


@pytest.mark.parametrize("temperature", [1e-3, 0.3, 4.77, 1e3])
def test_gibbs_numbers_are_python_floats_with_numpys_bits(temperature):
    # T = 1e-3 puts exp(2 nu / T) past overflow, where the weight is exactly 0
    env = ThermalEnvironment(temperature=temperature, gap_frequency=2.0)
    p, z = env.excited_population, env.polarization
    assert type(p) is float and type(z) is float
    expected = gibbs_weight(temperature, 2.0)
    assert type(expected) is np.float64
    assert np.float64(p).tobytes() == expected.tobytes()
    assert np.float64(z).tobytes() == (1.0 - 2.0 * expected).tobytes()


def test_environment_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        ThermalEnvironment(temperature=0.0, gap_frequency=1.0)
    with pytest.raises(ValueError):
        ThermalEnvironment(temperature=1.0, gap_frequency=-2.0)


@pytest.mark.parametrize(
    "temperature, gap",
    [
        (float("nan"), 1.0),
        (1.0, float("nan")),
        (float("inf"), 1.0),
        (1.0, float("inf")),
        (-float("inf"), 1.0),
        (1.0, -float("inf")),
    ],
)
def test_environment_rejects_non_finite_parameters(temperature, gap):
    # NaN passes a "<= 0" test, and would give a NaN polarization
    with pytest.raises(ValueError, match="must be positive and finite"):
        ThermalEnvironment(temperature=temperature, gap_frequency=gap)


EXP_EDGE = float(np.log(np.finfo(float).max))


@pytest.mark.parametrize(
    "x",
    [
        709.0,
        np.nextafter(709.78, 0.0),
        709.78,
        np.nextafter(709.78, np.inf),
        np.nextafter(EXP_EDGE, 0.0),
        EXP_EDGE,
        np.nextafter(EXP_EDGE, np.inf),
        710.0,
        1e6,
    ],
)
def test_excited_population_near_the_overflow_edge_is_the_formula_bit_for_bit(x):
    # 2 nu / T equals x exactly at T = 2; either side of the edge the weight
    # is 1 / (1 + exp(x)), subnormal or 0, and no warning is raised
    with np.errstate(over="ignore"):
        expected = 1.0 / (1.0 + np.exp(x))
    env = ThermalEnvironment(temperature=2.0, gap_frequency=float(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = env.excited_population
    assert np.float64(p).tobytes() == np.float64(expected).tobytes()
    assert (p > 0.0) == (x <= EXP_EDGE)


def test_one_array_kraus_build_equals_the_four_matrix_form():
    rng = np.random.default_rng(2718)
    draws = [
        (rng.uniform(0.05, 50.0), rng.uniform(0.1, 20.0), rng.uniform(20.0, 2000.0),
         rng.uniform(0.0, 1.0))
        for _ in range(300)
    ]
    # no delay, the full window, and a partner cold enough that p is 0
    draws += [(4.77, 2.0, COUPLING_HZ, 0.0), (4.77, 2.0, COUPLING_HZ, 1.0),
              (1e-3, 2.0, COUPLING_HZ, 0.4)]
    for temperature, gap, j_hz, fraction in draws:
        env = ThermalEnvironment(temperature=temperature, gap_frequency=gap)
        tau = fraction * swap_window(j_hz)
        angle = np.pi * (j_hz / 1000.0) * tau
        # every weight and entry a numpy scalar, so the build's Python floats
        # are held to numpy's bits
        p = gibbs_weight(temperature, gap)
        expected = four_matrix_kraus(p, np.cos(angle), np.sin(angle))
        operators = build_heat_exchange(env, j_hz, tau).operators
        assert len(operators) == 4
        for got, want in zip(operators, expected):
            assert (got == want).all()
            assert got.tobytes() == want.tobytes()


def test_swap_window_value():
    assert swap_window(COUPLING_HZ) == pytest.approx(2.3245002, abs=1e-6)
    assert swap_window(500.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        swap_window(0.0)


def test_channel_is_trace_preserving_across_the_window(hot_env):
    window = swap_window(COUPLING_HZ)
    for tau in np.linspace(0.0, window, 50):
        channel = build_heat_exchange(hot_env, COUPLING_HZ, float(tau))
        total = sum(k.conj().T @ k for k in channel.operators)
        assert np.abs(total - IDENTITY).max() <= COMPLETENESS_TOL


def test_kraus_channel_rejects_incomplete_operator_sets():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel(operators=(0.9 * IDENTITY,))


@pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2, 2), (3, 2, 3), (0, 2, 2)])
def test_kraus_channel_refuses_anything_but_a_stack_of_square_operators(shape):
    with pytest.raises(ValueError, match=r"\(k, d, d\) stack, got shape " + re.escape(str(shape))):
        KrausChannel(operators=np.zeros(shape))


def test_zero_delay_is_the_identity_map(hot_env, rho0):
    channel = build_heat_exchange(hot_env, COUPLING_HZ, 0.0)
    assert_allclose(apply_channel(channel, rho0), rho0, atol=1e-14)


def test_full_swap_lands_on_the_partner_populations(hot_env, rho0, random_density):
    channel = build_heat_exchange(hot_env, COUPLING_HZ, swap_window(COUPLING_HZ))
    p = hot_env.excited_population
    expected = np.diag([1.0 - p, p]).astype(complex)
    assert_allclose(apply_channel(channel, rho0), expected, atol=1e-12)
    for _ in range(5):
        assert_allclose(apply_channel(channel, random_density()), expected, atol=1e-12)


def test_partial_swap_mixes_populations_linearly(hot_env):
    """Populations relax with weight sin^2(pi J tau) toward the partner's."""
    tau = 0.8
    eta = np.sin(np.pi * (COUPLING_HZ / 1000.0) * tau) ** 2
    p = hot_env.excited_population
    channel = build_heat_exchange(hot_env, COUPLING_HZ, tau)
    out = apply_channel(channel, np.diag([0.1, 0.9]).astype(complex))
    assert out[1, 1].real == pytest.approx((1.0 - eta) * 0.9 + eta * p, abs=1e-12)


def test_coherences_scale_by_the_swap_cosine(hot_env, rho0):
    tau = 0.6
    c = np.cos(np.pi * (COUPLING_HZ / 1000.0) * tau)
    out = apply_channel(build_heat_exchange(hot_env, COUPLING_HZ, tau), rho0)
    assert out[0, 1] == pytest.approx(c * rho0[0, 1], abs=1e-12)


def test_delay_outside_the_window_is_rejected(hot_env):
    window = swap_window(COUPLING_HZ)
    with pytest.raises(TauOutOfRangeError):
        build_heat_exchange(hot_env, COUPLING_HZ, -0.01)
    with pytest.raises(TauOutOfRangeError):
        build_heat_exchange(hot_env, COUPLING_HZ, window + 0.01)


def test_bloch_kernel_matches_the_kraus_route(hot_env, rng, random_density):
    """The sweeps' planar kernel reproduces apply_channel, and the free-energy
    excess and trace distance of its output, on random mixed, pure and nearly
    pure states, at delays from 0 to the full window."""
    window = swap_window(COUPLING_HZ)
    taus = np.concatenate([[0.0, window], np.sort(rng.uniform(0.0, window, 6))])
    pure = rng.normal(size=(3, 3))
    pure /= np.linalg.norm(pure, axis=1, keepdims=True)
    edges = np.concatenate([pure, (1.0 - 1e-6) * pure])
    states = [random_density() for _ in range(12)] + [density_from_bloch(r) for r in edges]
    starts = np.array([bloch_vector(rho) for rho in states])
    h = qubit_hamiltonian(hot_env.gap_frequency, "z")
    temperature = hot_env.temperature
    target = gibbs_state(h, temperature)
    f_eq = f_neq(target, h, temperature)

    evolved = np.stack(_exchange_grid(hot_env, COUPLING_HZ, starts, taus), axis=-1)
    assert evolved.shape == (len(states), taus.size, 3)
    excess, dist = _relaxation(starts, hot_env, COUPLING_HZ, taus)
    for k, tau in enumerate(taus):
        channel = build_heat_exchange(hot_env, COUPLING_HZ, float(tau))
        for i, rho in enumerate(states):
            out = apply_channel(channel, rho)
            assert np.abs(density_from_bloch(evolved[i, k]) - out).max() <= 1e-12
            assert abs(excess[i, k] - (f_neq(out, h, temperature) - f_eq)) <= 1e-12
            assert abs(dist[i, k] - trace_distance(out, target)) <= 1e-12


def test_bloch_kernel_rejects_delays_outside_the_window(hot_env):
    window = swap_window(COUPLING_HZ)
    for bad in ([0.0, window * 1.01], [-1e-6], [np.nan]):
        with pytest.raises(TauOutOfRangeError):
            _exchange_grid(hot_env, COUPLING_HZ, [0.0, 0.0, 0.5], bad)


@pytest.mark.parametrize(
    "call, edge_errors",
    [
        (lambda env, tau: build_heat_exchange(env, COUPLING_HZ, tau), ()),
        (
            lambda env, tau: free_energy_surface([[0.0, 0.0, 0.5]], env, COUPLING_HZ, [tau]),
            (),
        ),
        (lambda env, tau: run_cycle(CycleConfig(j_hz=COUPLING_HZ), tau), ()),
        # the closed-form spectrum refuses a delay that is not positive, and
        # the singular generator at the window's far edge, for reasons of its own
        (
            lambda env, tau: exchange_spectrum(env, COUPLING_HZ, tau),
            (TauOutOfRangeError, SingularInputError),
        ),
    ],
    ids=["build_heat_exchange", "free_energy_surface", "run_cycle", "exchange_spectrum"],
)
def test_every_delay_meets_one_window_check(hot_env, call, edge_errors):
    """Rounding of 1e-9 ms past either edge passes the window, and no more:
    each caller refuses what _check_delays refuses, with its text."""
    window = swap_window(COUPLING_HZ)
    for tau in (-1e-9, window + 1e-9, -2e-9, window + 2e-9, np.nan, np.inf, -np.inf):
        try:
            _check_delays(COUPLING_HZ, [tau])
        except TauOutOfRangeError as exc:
            with pytest.raises(TauOutOfRangeError) as refused:
                call(hot_env, tau)
            assert str(refused.value) == str(exc)
            continue
        assert tau in (-1e-9, window + 1e-9)
        if not edge_errors:
            call(hot_env, tau)
            continue
        with pytest.raises(edge_errors) as refused:
            call(hot_env, tau)
        assert "outside" not in str(refused.value)


@pytest.mark.parametrize(
    "temperature, gap, j_hz",
    [(4.77, 2.0, COUPLING_HZ), (0.05, 3.0, 10.0), (300.0, 0.1, 5000.0)],
)
def test_kraus_channel_is_the_dilated_partial_swap(temperature, gap, j_hz):
    """The Kraus operators are those of a partial swap with a Gibbs auxiliary.

    The auxiliary starts in ``diag(1 - p, p)`` and the pair evolves under
    ``U = exp(-i theta (XX + YY)/2)`` with ``theta = pi J tau``; tracing the
    auxiliary out leaves the operators ``sqrt(p_j) <i|_aux U |j>_aux``
    (Nielsen & Chuang, section 8.3.5), whose transfer matrix is the channel's.
    """
    env = ThermalEnvironment(temperature=temperature, gap_frequency=gap)
    p = env.excited_population
    weights = np.sqrt([1.0 - p, p])
    exchange = 0.5 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))
    for tau in np.linspace(0.0, swap_window(j_hz), 50):
        theta = np.pi * (j_hz / 1000.0) * tau
        # axes (system out, auxiliary out, system in, auxiliary in)
        u = scipy.linalg.expm(-1j * theta * exchange).reshape(2, 2, 2, 2)
        dilated = [weights[j] * u[:, i, :, j] for i in range(2) for j in range(2)]
        channel = build_heat_exchange(env, j_hz, float(tau))
        deviation = np.abs(transfer_matrix(dilated) - transfer_matrix(channel.operators))
        assert deviation.max() <= 1e-12


def test_partner_gibbs_state_is_a_fixed_point(hot_env, h_hot):
    target = gibbs_state(h_hot, hot_env.temperature)
    for tau in (0.3, 1.0, 2.0):
        out = apply_channel(build_heat_exchange(hot_env, COUPLING_HZ, tau), target)
        assert np.abs(out - target).max() <= 1e-14


def test_conjugated_channel_fixes_the_rotated_gibbs_state(cold_env):
    h_x = qubit_hamiltonian(cold_env.gap_frequency, axis="x")
    target = gibbs_state(h_x, cold_env.temperature)
    channel = KrausChannel(
        operators=tuple(
            X_EIGENBASIS @ k @ X_EIGENBASIS.conj().T
            for k in build_heat_exchange(cold_env, COUPLING_HZ, 1.1).operators
        )
    )
    assert np.abs(apply_channel(channel, target) - target).max() <= 1e-13


def test_apply_channel_validates_the_input(hot_env):
    channel = build_heat_exchange(hot_env, COUPLING_HZ, 0.5)
    with pytest.raises(ValueError):
        apply_channel(channel, np.diag([1.2, 0.8]))


def test_generator_decouples_populations_from_coherences(hot_env):
    # the computational basis is the exchange's energy eigenbasis; the
    # populations sit at the row-stacked indices {0, 3}, the coherences at {1, 2}
    generator = extract_generator(build_heat_exchange(hot_env, COUPLING_HZ, 1.0), 1.0)
    pop, coh = [0, 3], [1, 2]
    assert np.abs(generator[np.ix_(pop, coh)]).max() < 1e-9
    assert np.abs(generator[np.ix_(coh, pop)]).max() < 1e-9


@pytest.mark.parametrize("tau", [1e-9, 1e-6, 1e-3, 1.0, 2.3])
def test_closed_form_spectrum_matches_a_50_digit_evaluation(hot_env, tau):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.pi * mpmath.mpf(COUPLING_HZ) / 1000 * mpmath.mpf(tau)
        rate = mpmath.log(mpmath.cos(x)) / mpmath.mpf(tau)
        p = 1 / (1 + mpmath.exp(2 * mpmath.mpf(hot_env.gap_frequency) / hot_env.temperature))
        want = [float(v) for v in (0, rate, rate, 2 * rate)]
        populations = [float(1 - p), float(p)]
    eigenvalues, fixed = exchange_spectrum(hot_env, COUPLING_HZ, tau)
    assert_allclose(eigenvalues, want, rtol=1e-12, atol=0.0)
    assert_allclose(fixed, populations, rtol=0.0, atol=1e-15)


def test_closed_form_spectrum_refuses_what_the_generator_refuses(hot_env):
    window = swap_window(COUPLING_HZ)
    for tau in (0.0, -1e-9, window + 2e-9, np.nan):
        with pytest.raises(TauOutOfRangeError):
            exchange_spectrum(hot_env, COUPLING_HZ, tau)
    # c^2 = 2.467e-14, below the logarithm's 1e-12 singularity threshold
    for tau in (2.3245, window):
        with pytest.raises(SingularInputError):
            exchange_spectrum(hot_env, COUPLING_HZ, tau)
        with pytest.raises(SingularInputError):
            extract_generator(build_heat_exchange(hot_env, COUPLING_HZ, tau), tau)


@settings(max_examples=20, deadline=None)
@given(
    temperature=st.floats(0.1, 50.0),
    gap=st.floats(0.1, 20.0),
    j_hz=st.floats(20.0, 2000.0),
    fraction=st.floats(0.01, 0.9),
)
def test_closed_form_spectrum_matches_the_liouville_route(temperature, gap, j_hz, fraction):
    env = ThermalEnvironment(temperature=temperature, gap_frequency=gap)
    tau = fraction * swap_window(j_hz)
    eigenvalues, populations = exchange_spectrum(env, j_hz, tau)
    d = decompose(extract_generator(build_heat_exchange(env, j_hz, tau), tau))
    assert np.abs(d.eigenvalues - eigenvalues).max() <= 1e-9 * np.abs(eigenvalues).max()
    assert np.abs(np.diag(d.fixed_point).real - populations).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(0.0, 2.3245002),
    x=st.floats(-0.57, 0.57),
    y=st.floats(-0.57, 0.57),
    z=st.floats(-0.57, 0.57),
)
def test_channel_outputs_are_valid_states(tau, x, y, z):
    from mpembasim.operators import density_from_bloch, validate_density_matrix

    env = ThermalEnvironment(temperature=4.77, gap_frequency=2.0)
    rho = density_from_bloch(np.array([x, y, z]))
    out = apply_channel(build_heat_exchange(env, COUPLING_HZ, tau), rho)
    validate_density_matrix(out)
    assert np.linalg.eigvalsh(out).min() >= -1e-12
