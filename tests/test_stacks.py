"""The reference functions on stacks of states ``(..., 2, 2)``: a stack gives
what the per-state calls give, element by element, and a stack holding one bad
state is refused as that state alone is."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpembasim.channels import ThermalEnvironment, apply_channel, build_heat_exchange
from mpembasim.liouville import decompose, extract_generator, mode_overlap
from mpembasim.operators import (
    bloch_vector,
    density_from_bloch,
    hermitize,
    mean_energy,
    qubit_hamiltonian,
    random_density,
    validate_density_matrix,
)
from mpembasim.thermo import (
    f_neq,
    gibbs_state,
    kl_divergence,
    trace_distance,
    von_neumann_entropy,
)

ENV = ThermalEnvironment(temperature=4.77, gap_frequency=2.0)
H = qubit_hamiltonian(2.0, axis="z")
J_HZ = 215.1
WINDOW_MS = 500.0 / J_HZ
DECOMPOSITION = decompose(extract_generator(build_heat_exchange(ENV, J_HZ, 1.0), 1.0))


def draw_stack(seed: int, shape: tuple) -> np.ndarray:
    rng = np.random.default_rng(seed)
    states = [random_density(rng) for _ in range(int(np.prod(shape)))]
    return np.array(states).reshape(shape + (2, 2))


def per_state(fn, shape: tuple, *stacks) -> np.ndarray:
    """``fn`` called on the entries at each index of ``shape``, the leading
    axes of ``stacks``, one index at a time, and stacked back."""
    flat = [s.reshape((-1,) + s.shape[len(shape):]) for s in stacks]
    out = np.array([fn(*entries) for entries in zip(*flat)])
    return out.reshape(shape + out.shape[1:])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 2),
    st.sampled_from([(1,), (7,), (2, 3)]),
    st.floats(0.0, 1.0),
)
def test_stacked_calls_equal_the_per_state_calls(seed, shape, fraction):
    stack = draw_stack(seed, shape)
    other = draw_stack(seed + 1, shape)
    skewed = stack + 0.3j * np.triu(np.ones((2, 2)))
    bloch = bloch_vector(stack)
    sigma = gibbs_state(H, ENV.temperature)
    channel = build_heat_exchange(ENV, J_HZ, fraction * WINDOW_MS)
    t_hot = ENV.temperature
    pairs = [
        (hermitize(skewed), per_state(hermitize, shape, skewed)),
        (
            validate_density_matrix(stack),
            per_state(validate_density_matrix, shape, stack),
        ),
        (
            apply_channel(channel, stack),
            per_state(lambda rho: apply_channel(channel, rho), shape, stack),
        ),
        (mean_energy(stack, H), per_state(lambda rho: mean_energy(rho, H), shape, stack)),
        (von_neumann_entropy(stack), per_state(von_neumann_entropy, shape, stack)),
        (f_neq(stack, H, t_hot), per_state(lambda rho: f_neq(rho, H, t_hot), shape, stack)),
        (
            trace_distance(stack, sigma),
            per_state(lambda rho: trace_distance(rho, sigma), shape, stack),
        ),
        (trace_distance(stack, other), per_state(trace_distance, shape, stack, other)),
        (
            kl_divergence(stack, sigma),
            per_state(lambda rho: kl_divergence(rho, sigma), shape, stack),
        ),
        (bloch, per_state(bloch_vector, shape, stack)),
        (density_from_bloch(bloch), per_state(density_from_bloch, shape, bloch)),
    ]
    for k in range(1, 5):
        def overlap(rho, k=k):
            return mode_overlap(DECOMPOSITION, k, rho)

        pairs.append((mode_overlap(DECOMPOSITION, k, stack), per_state(overlap, shape, stack)))
    for stacked, single in pairs:
        assert stacked.shape == single.shape
        assert_allclose(stacked, single, rtol=0.0, atol=1e-15)


def test_a_single_state_keeps_its_return_type():
    rho = draw_stack(3, (1,))[0]
    sigma = gibbs_state(H, ENV.temperature)
    for value in (
        mean_energy(rho, H),
        von_neumann_entropy(rho),
        f_neq(rho, H, ENV.temperature),
        trace_distance(rho, sigma),
        kl_divergence(rho, sigma),
    ):
        assert type(value) is float
    assert type(mode_overlap(DECOMPOSITION, 2, rho)) is complex
    assert apply_channel(build_heat_exchange(ENV, J_HZ, 1.0), rho).shape == (2, 2)
    assert bloch_vector(rho).shape == (3,)
    assert density_from_bloch(bloch_vector(rho)).shape == (2, 2)


BAD_STATES = {
    "not Hermitian": np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex),
    "trace": np.diag([0.9, 0.9]).astype(complex),
    "negative eigenvalue": np.diag([1.5, -0.5]).astype(complex),
}

STATE_CHECKS = {
    "validate_density_matrix": validate_density_matrix,
    "apply_channel": lambda rho: apply_channel(
        build_heat_exchange(ENV, J_HZ, 1.0), rho
    ),
    "f_neq": lambda rho: f_neq(rho, H, ENV.temperature),
    "kl_divergence": lambda rho: kl_divergence(rho, gibbs_state(H, ENV.temperature)),
}


@pytest.mark.parametrize("check", sorted(STATE_CHECKS))
@pytest.mark.parametrize("defect", sorted(BAD_STATES))
def test_one_bad_state_refuses_the_stack_as_it_refuses_the_state(check, defect):
    fn, bad = STATE_CHECKS[check], BAD_STATES[defect]
    with pytest.raises(Exception) as alone:
        fn(bad)
    stack = draw_stack(11, (6,))
    stack[4] = bad
    with pytest.raises(type(alone.value), match=defect) as stacked:
        fn(stack)
    assert str(stacked.value) == str(alone.value)


def test_a_stack_reports_its_worst_deviation():
    stack = draw_stack(5, (3,))
    stack[0] = np.diag([0.6, 0.5])
    stack[2] = np.diag([0.7, 0.5])
    with pytest.raises(ValueError, match="deviates from 1 by 2.000e-01"):
        validate_density_matrix(stack)
    with pytest.raises(ValueError, match="negative eigenvalue -2.500e-01"):
        density_from_bloch([[0.0, 0.0, 0.5], [0.0, 0.0, -1.5]])


@pytest.mark.parametrize(
    "defect, message",
    [
        ("not Hermitian", "state is not Hermitian: max deviation 3.000e-01"),
        ("trace", "state trace deviates from 1 by 8.000e-01"),
        ("negative eigenvalue", "state has negative eigenvalue -5.000e-01"),
    ],
)
def test_single_state_messages_are_unchanged(defect, message):
    with pytest.raises(ValueError) as refused:
        validate_density_matrix(BAD_STATES[defect])
    assert str(refused.value) == message


NON_FINITE_STATES = {
    "nan diagonal": np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex),
    "inf coherence": np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex),
    "inf imaginary coherence": np.array(
        [[0.5, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.5]]
    ),
}


# numpy warns on inf - inf while the deviation is formed; the refusal follows
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(NON_FINITE_STATES))
def test_non_finite_states_are_refused(name):
    bad = NON_FINITE_STATES[name]
    with pytest.raises(ValueError, match="non-finite"):
        validate_density_matrix(bad)
    stack = draw_stack(13, (5,))
    stack[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        validate_density_matrix(stack)


def test_a_nan_state_does_not_mask_another_bad_state():
    stack = draw_stack(17, (4,))
    stack[0] = NON_FINITE_STATES["nan diagonal"]
    stack[3] = np.diag([1.5, 0.5])
    with pytest.raises(ValueError):
        validate_density_matrix(stack)
    with pytest.raises(ValueError):
        validate_density_matrix(stack[3])


def test_a_non_finite_bloch_vector_is_refused():
    with pytest.raises(ValueError, match="finite"):
        density_from_bloch([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        density_from_bloch([[0.0, 0.0, 0.5], [np.inf, 0.0, 0.0]])
