"""Free-energy bookkeeping, information distances, and crossing detection."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpembasim.channels import apply_channel, build_heat_exchange
from mpembasim.exceptions import GridMismatchError, SingularReferenceError
from mpembasim.operators import density_from_bloch, qubit_hamiltonian
from mpembasim.thermo import (
    CrossingReport,
    RelaxationTrajectory,
    detect_crossing,
    f_neq,
    gibbs_state,
    kl_divergence,
    trace_distance,
    von_neumann_entropy,
)

from conftest import X_EIGENBASIS, rotation_y

IDENTITY_TOL = 1e-10

HALF = 0.5 * np.eye(2, dtype=complex)


def make_trajectory(times, f_values, d_values=None, label="synthetic"):
    return RelaxationTrajectory(
        times=np.asarray(times, dtype=float),
        f_neq=np.asarray(f_values, dtype=float),
        trace_dist=np.asarray(d_values if d_values is not None else f_values, float),
        label=label,
    )


# ---------------------------------------------------------------- gibbs state


def test_gibbs_populations_match_the_boltzmann_weights(h_hot):
    rho = gibbs_state(h_hot, 4.77)
    w = np.exp(-2.0 * 2.0 / 4.77)
    assert rho[0, 0].real == pytest.approx(1.0 / (1.0 + w), abs=1e-12)
    assert rho[1, 1].real == pytest.approx(w / (1.0 + w), abs=1e-12)
    assert abs(rho[0, 1]) <= 1e-15


def test_gibbs_high_temperature_limit(h_hot):
    assert_allclose(gibbs_state(h_hot, 1e8), HALF, atol=1e-7)


def test_gibbs_commutes_with_basis_rotation():
    hz = qubit_hamiltonian(1.0, "z")
    hx = qubit_hamiltonian(1.0, "x")
    rotated = X_EIGENBASIS @ gibbs_state(hz, 2.38) @ X_EIGENBASIS.conj().T
    assert_allclose(gibbs_state(hx, 2.38), rotated, atol=1e-13)


def test_gibbs_requires_positive_temperature(h_hot):
    with pytest.raises(ValueError):
        gibbs_state(h_hot, 0.0)


# ------------------------------------------------------------------ entropies


def test_entropy_of_pure_and_mixed_states():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(HALF) == pytest.approx(np.log(2.0), abs=1e-12)


def test_entropy_is_unitarily_invariant(rho0):
    r = rotation_y(1.3)
    assert von_neumann_entropy(r @ rho0 @ r.conj().T) == pytest.approx(
        von_neumann_entropy(rho0), abs=1e-12
    )


def test_free_energy_of_the_gibbs_state_is_minus_t_log_z(h_hot):
    z = np.exp(2.0 / 4.77) + np.exp(-2.0 / 4.77)
    assert f_neq(gibbs_state(h_hot, 4.77), h_hot, 4.77) == pytest.approx(
        -4.77 * np.log(z), abs=1e-10
    )


def test_free_energy_of_the_maximally_mixed_state(h_hot):
    assert f_neq(HALF, h_hot, 4.77) == pytest.approx(-4.77 * np.log(2.0), abs=1e-12)


def test_excess_free_energy_equals_t_times_kl(h_hot, random_density):
    equilibrium = gibbs_state(h_hot, 4.77)
    f_eq = f_neq(equilibrium, h_hot, 4.77)
    for _ in range(10):
        rho = random_density()
        excess = f_neq(rho, h_hot, 4.77) - f_eq
        assert excess == pytest.approx(
            4.77 * kl_divergence(rho, equilibrium), abs=IDENTITY_TOL
        )


def test_kl_divergence_basics(h_hot):
    sigma = gibbs_state(h_hot, 4.77)
    assert kl_divergence(sigma, sigma) == pytest.approx(0.0, abs=1e-12)
    rho = np.diag([0.9, 0.1]).astype(complex)
    assert kl_divergence(rho, sigma) > 0.0


def test_kl_divergence_rejects_rank_deficient_references():
    pure = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SingularReferenceError):
        kl_divergence(HALF, pure)


# ------------------------------------------------------------- trace distance


def test_trace_distance_of_known_pairs():
    assert trace_distance(HALF, HALF) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(
        1.0, abs=1e-14
    )
    a = np.diag([0.3, 0.7]).astype(complex)
    b = np.diag([0.302, 0.698]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(0.002, abs=1e-12)


def test_trace_distance_is_symmetric_and_unitarily_invariant(rho0, h_hot):
    sigma = gibbs_state(h_hot, 4.77)
    assert trace_distance(rho0, sigma) == pytest.approx(
        trace_distance(sigma, rho0), abs=1e-14
    )
    r = rotation_y(0.8)
    assert trace_distance(
        r @ rho0 @ r.conj().T, r @ sigma @ r.conj().T
    ) == pytest.approx(trace_distance(rho0, sigma), abs=1e-13)


def test_distances_contract_under_the_channel(hot_env, random_density):
    channel = build_heat_exchange(hot_env, 215.1, 0.9)
    for _ in range(10):
        rho, sigma = random_density(), random_density()
        before = trace_distance(rho, sigma)
        after = trace_distance(apply_channel(channel, rho), apply_channel(channel, sigma))
        assert after <= before + 1e-12
        assert kl_divergence(
            apply_channel(channel, rho), apply_channel(channel, sigma)
        ) <= kl_divergence(rho, sigma) + 1e-10


bloch_component = st.floats(-0.57, 0.57)


@settings(max_examples=60)
@given(*(bloch_component for _ in range(9)))
def test_trace_distance_triangle_inequality(ax, ay, az, bx, by, bz, cx, cy, cz):
    a = density_from_bloch(np.array([ax, ay, az]))
    b = density_from_bloch(np.array([bx, by, bz]))
    c = density_from_bloch(np.array([cx, cy, cz]))
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


@settings(max_examples=60)
@given(*(st.floats(-0.55, 0.55) for _ in range(6)))
def test_kl_divergence_is_nonnegative(ax, ay, az, bx, by, bz):
    assume(np.linalg.norm([bx, by, bz]) < 0.98)
    rho = density_from_bloch(np.array([ax, ay, az]))
    sigma = density_from_bloch(np.array([bx, by, bz]))
    assert kl_divergence(rho, sigma) >= -1e-12


# ------------------------------------------------------ trajectory containers


def test_trajectory_validates_grid_consistency():
    with pytest.raises(ValueError, match="grid length"):
        RelaxationTrajectory(
            times=[0.0, 1.0], f_neq=[0.0], trace_dist=[0.0, 0.0], label="bad",
        )
    with pytest.raises(ValueError, match="increasing"):
        make_trajectory([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="below zero"):
        make_trajectory([0.0, 1.0], [0.5, -0.5], [0.0, 0.0])


# ------------------------------------------------------------------ crossings


def test_crossing_interpolates_between_grid_points():
    a = make_trajectory([0.0, 1.0], [2.0, 0.0])
    b = make_trajectory([0.0, 1.0], [1.0, 1.0])
    report = detect_crossing(a, b)
    assert isinstance(report, CrossingReport)
    assert report.exists
    assert report.t_cross == pytest.approx(0.5, abs=1e-12)
    assert report.persistent


def test_identical_curves_do_not_cross():
    a = make_trajectory([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
    report = detect_crossing(a, a)
    assert not report.exists
    assert np.isnan(report.t_cross)


def test_one_sided_curves_do_not_cross():
    a = make_trajectory([0.0, 1.0, 2.0], [2.0, 1.5, 1.2])
    b = make_trajectory([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    assert not detect_crossing(a, b).exists
    assert not detect_crossing(b, a).exists


def test_flip_back_is_reported_as_transient():
    a = make_trajectory([0.0, 1.0, 2.0], [2.0, 0.0, 2.0])
    b = make_trajectory([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    report = detect_crossing(a, b)
    assert report.exists
    assert not report.persistent


def test_persistence_is_direction_sensitive():
    # the first curve rises through the second and stays above: a crossing,
    # but not the relaxation-overtake kind
    a = make_trajectory([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    b = make_trajectory([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    report = detect_crossing(a, b)
    assert report.exists
    assert not report.persistent


def test_curves_collapsing_to_equilibrium_stay_persistent():
    # both curves end exactly equal; the reversed order was still realized
    a = make_trajectory([0.0, 1.0, 2.0], [2.0, 0.0, 1.0])
    b = make_trajectory([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    report = detect_crossing(a, b)
    assert report.exists
    assert report.persistent


def test_crossing_observable_selection():
    a = make_trajectory([0.0, 1.0], [1.0, 1.0], [2.0, 0.0])
    b = make_trajectory([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    assert not detect_crossing(a, b, observable="f_neq").exists
    assert detect_crossing(a, b, observable="trace_dist").exists
    with pytest.raises(ValueError):
        detect_crossing(a, b, observable="entropy")


def test_crossing_requires_a_shared_grid():
    a = make_trajectory([0.0, 1.0], [1.0, 0.0])
    b = make_trajectory([0.0, 2.0], [0.5, 0.5])
    with pytest.raises(GridMismatchError):
        detect_crossing(a, b)
