"""Cycle strokes, energy bookkeeping, and the threshold-power comparison."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpembasim import channels, otto
from mpembasim.channels import (
    KrausChannel,
    ThermalEnvironment,
    apply_channel,
    build_heat_exchange,
    swap_window,
)
from mpembasim.exceptions import (
    GridMismatchError,
    MpembaSimError,
    NoAdvantageError,
    TauOutOfRangeError,
    ThresholdUnreachableError,
)
from mpembasim.mpemba import mpemba_bloch, mpemba_unitary
from mpembasim.operators import (
    IDENTITY,
    SIGMA_X,
    bloch_vector,
    mean_energy,
    qubit_hamiltonian,
    validate_bloch_vectors,
)
from mpembasim.otto import (
    CycleConfig,
    StrokeName,
    StrokeRecord,
    default_delta_grid,
    distance_curves,
    energy_balance,
    power_ratio,
    ramp_unitary,
    run_cycle,
    threshold_times,
)
from mpembasim.thermo import (
    RelaxationTrajectory,
    detect_crossing,
    gibbs_state,
    trace_distance,
)

from conftest import X_EIGENBASIS, four_matrix_kraus, gibbs_weight

CLOSURE_TOL = 1e-10
BALANCE_TOL = 1e-8

R_COLD = np.tanh(1.0 / 2.38)
R_HOT = np.tanh(2.0 / 4.77)


def analytic_plain_distance(tau):
    c = np.cos(np.pi * 0.2151 * tau)
    return 0.5 * np.sqrt(c**2 * R_COLD**2 + c**4 * R_HOT**2)


def analytic_mb_distance(tau):
    c = np.cos(np.pi * 0.2151 * tau)
    return 0.5 * c**2 * (R_COLD + R_HOT)


def make_distance_pair(times, plain_values, mb_values):
    def traj(values, label):
        return RelaxationTrajectory(
            times=np.asarray(times, float),
            f_neq=np.zeros(len(times)),
            trace_dist=np.asarray(values, float),
            label=label,
        )

    return traj(plain_values, "plain"), traj(mb_values, "mpemba")


def kraus_cycle(cfg, tau2):
    """The cycle evolved as 2x2 density matrices, stroke by stroke: ramps as
    ``ramp_unitary`` conjugations, exchanges as Kraus channels, and the reset
    as the exchange channel conjugated into the x eigenbasis.  This is the
    matrix route that the Bloch-vector strokes of ``run_cycle`` replace."""
    h_cold = qubit_hamiltonian(cfg.nu0, "x")
    h_drive = qubit_hamiltonian(cfg.nu1, "x")
    h_exchange = qubit_hamiltonian(cfg.nu1, "z")

    rho0 = gibbs_state(h_cold, cfg.t_cold)
    u_exp = ramp_unitary(cfg.nu0, cfg.nu1, cfg.tau1)
    rho1 = u_exp @ rho0 @ u_exp.conj().T
    rho2 = rho1
    if cfg.use_mpemba:
        rho2 = mpemba_unitary(rho1, h_exchange).target_state
    env_hot = ThermalEnvironment(temperature=cfg.t_hot, gap_frequency=cfg.nu1)
    rho3 = apply_channel(build_heat_exchange(env_hot, cfg.j_hz, tau2), rho2)
    u_comp = ramp_unitary(cfg.nu1, cfg.nu0, cfg.tau1)
    rho4 = u_comp @ rho3 @ u_comp.conj().T
    env_cold = ThermalEnvironment(temperature=cfg.t_cold, gap_frequency=cfg.nu0)
    reset_delay = swap_window(cfg.j_hz)
    exchange = build_heat_exchange(env_cold, cfg.j_hz, reset_delay)
    v = X_EIGENBASIS
    reset = KrausChannel(operators=tuple(v @ k @ v.conj().T for k in exchange.operators))
    rho5 = apply_channel(reset, rho4)

    strokes = (
        (StrokeName.EXPANSION, cfg.tau1, rho0, h_cold, rho1, h_drive),
        (StrokeName.MPEMBA, 0.0, rho1, h_drive, rho2, h_exchange),
        (StrokeName.COOLING, tau2, rho2, h_exchange, rho3, h_exchange),
        (StrokeName.COMPRESSION, cfg.tau1, rho3, h_exchange, rho4, h_cold),
        (StrokeName.HOT_RESET, reset_delay, rho4, h_cold, rho5, h_cold),
    )
    return [
        StrokeRecord(
            name,
            duration,
            mean_energy(before, h_in),
            mean_energy(after, h_out),
            bloch_vector(after),
        )
        for name, duration, before, h_in, after, h_out in strokes
    ]


@st.composite
def cycle_inputs(draw):
    """A random cycle config and an exchange delay inside its swap window."""
    nu0 = draw(st.floats(0.1, 10.0))
    j_hz = draw(st.floats(20.0, 2000.0))
    cfg = CycleConfig(
        nu0=nu0,
        nu1=nu0 * draw(st.floats(1.05, 5.0)),
        j_hz=j_hz,
        t_hot=draw(st.floats(0.1, 50.0)),
        t_cold=draw(st.floats(0.1, 50.0)),
        tau1=draw(st.floats(1e-3, 2.0)),
        use_mpemba=draw(st.booleans()),
    )
    return cfg, draw(st.floats(0.0, 1.0)) * swap_window(j_hz)


# --------------------------------------------------------------------- ramps


def test_ramp_with_no_gap_is_the_identity():
    assert_allclose(ramp_unitary(0.0, 0.0, 1.0), IDENTITY, atol=1e-15)


def test_ramp_closed_form():
    phi = 2.0 * np.pi * 1.5 * 0.1
    expected = np.cos(phi) * IDENTITY + 1j * np.sin(phi) * SIGMA_X
    assert_allclose(ramp_unitary(1.0, 2.0, 0.1), expected, atol=1e-14)


def test_ramp_composition_doubles_the_angle():
    u_exp = ramp_unitary(1.0, 2.0, 0.1)
    u_comp = ramp_unitary(2.0, 1.0, 0.1)
    phi = 2.0 * np.pi * 1.5 * 0.1
    expected = np.cos(2 * phi) * IDENTITY + 1j * np.sin(2 * phi) * SIGMA_X
    assert_allclose(u_comp @ u_exp, expected, atol=1e-13)


def test_ramp_matches_a_piecewise_constant_product():
    steps = 100
    duration = 0.1
    dt = duration / steps
    product = IDENTITY.copy()
    for k in range(steps):
        nu = 1.0 + (2.0 - 1.0) * (k + 0.5) / steps
        product = scipy.linalg.expm(-1j * qubit_hamiltonian(nu, "x") * dt) @ product
    assert np.abs(ramp_unitary(1.0, 2.0, duration) - product).max() <= 1e-10


def test_ramp_leaves_axis_aligned_states_alone():
    rho = gibbs_state(qubit_hamiltonian(1.0, "x"), 2.38)
    u = ramp_unitary(1.0, 2.0, 0.1)
    assert_allclose(u @ rho @ u.conj().T, rho, atol=1e-13)


def test_ramp_requires_positive_duration():
    with pytest.raises(ValueError):
        ramp_unitary(1.0, 2.0, 0.0)


# ------------------------------------------------------------- configuration


def test_cycle_config_defaults():
    cfg = CycleConfig()
    assert cfg.tau_bar == pytest.approx(4.65)
    assert cfg.use_mpemba


def test_cycle_config_validation():
    with pytest.raises(ValueError, match="nu1 > nu0"):
        CycleConfig(nu0=2.0, nu1=1.0)
    with pytest.raises(ValueError, match="temperature -1.0 must be positive"):
        CycleConfig(t_hot=-1.0)
    with pytest.raises(ValueError, match="ramp duration 0.0 ms must be positive"):
        CycleConfig(tau1=0.0)
    with pytest.raises(ValueError, match="finite"):
        CycleConfig(j_hz=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        CycleConfig(t_hot=float("inf"))
    # an infinite field or ramp angle ended the cycle in a math domain
    # error, and an infinite swap window warned in the distance curves
    with pytest.raises(ValueError, match=re.escape("nu1 1e+308 kHz is too large")):
        CycleConfig(nu1=1e308)
    with pytest.raises(ValueError, match="J 5e-324 Hz is too small"):
        CycleConfig(j_hz=5e-324)
    with pytest.raises(
        ValueError, match=re.escape("nu1 1e+300 kHz and tau1 1e+308 ms are too large")
    ):
        CycleConfig(nu1=1e300, tau1=1e308)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.5])
@pytest.mark.parametrize(
    "name", ["nu0", "nu1", "j_hz", "t_hot", "t_cold", "tau1", "tau_bar"]
)
def test_cycle_config_refuses_each_bad_input_by_its_value(name, value):
    # the config, swap_window, _ramp_phase or ThermalEnvironment refuses it,
    # whichever owns the rule, and the message names the value it was given
    with pytest.raises(ValueError) as caught:
        CycleConfig(**{name: value})
    assert str(value) in re.findall(r"[-+\w.]+", str(caught.value))


def test_ramp_phase_refuses_a_duration_that_is_not_positive_and_finite():
    for duration in (math.nan, math.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match=f"ramp duration {duration} ms"):
            otto._ramp_phase(1.0, 2.0, duration)
        with pytest.raises(ValueError, match=f"ramp duration {duration} ms"):
            ramp_unitary(1.0, 2.0, duration)


def test_cycle_config_derives_its_record_afresh_on_replace():
    # a derived value left stale by dataclasses.replace would go unnoticed
    # by every parameter check, so each is compared with its own derivation
    cfg = dataclasses.replace(CycleConfig(), j_hz=430.2, t_hot=6.1, t_cold=1.7, tau1=0.05)
    assert cfg.window == swap_window(430.2)
    assert cfg.hot == ThermalEnvironment(temperature=6.1, gap_frequency=2.0)
    assert cfg.z_cold == ThermalEnvironment(temperature=1.7, gap_frequency=1.0).polarization
    phi = 2.0 * otto._ramp_phase(1.0, 2.0, 0.05)
    assert cfg.ramp == (math.cos(phi), math.sin(phi))
    assert dataclasses.replace(CycleConfig(), j_hz=430.2).window == swap_window(430.2)


@pytest.mark.parametrize("name", ["window", "hot", "z_cold", "ramp"])
def test_cycle_config_derived_fields_are_not_parameters(name):
    derived = {field.name: field for field in dataclasses.fields(CycleConfig)}[name]
    assert not derived.init and not derived.compare
    with pytest.raises(TypeError):
        CycleConfig(**{name: 1.0})


# -------------------------------------------------------------------- cycles


def test_cycle_produces_five_ordered_strokes():
    cfg = CycleConfig()
    records = run_cycle(cfg, tau2=1.0)
    assert [r.name for r in records] == [
        StrokeName.EXPANSION,
        StrokeName.MPEMBA,
        StrokeName.COOLING,
        StrokeName.COMPRESSION,
        StrokeName.HOT_RESET,
    ]
    assert [r.duration for r in records] == pytest.approx(
        [cfg.tau1, 0.0, 1.0, cfg.tau1, swap_window(cfg.j_hz)]
    )


def test_stroke_boundaries_share_their_energies():
    records = run_cycle(CycleConfig(), tau2=0.7)
    for left, right in zip(records, records[1:]):
        assert right.energy_in == pytest.approx(left.energy_out, abs=1e-13)


def test_cycle_returns_to_its_starting_state():
    cfg = CycleConfig()
    start = gibbs_state(qubit_hamiltonian(cfg.nu0, "x"), cfg.t_cold)
    for tau2 in (0.0, 0.9, 2.0):
        for use_mpemba in (False, True):
            records = run_cycle(CycleConfig(use_mpemba=use_mpemba), tau2)
            assert np.abs(records[-1].state_after - start).max() <= CLOSURE_TOL
            assert abs(energy_balance(records)) <= BALANCE_TOL


def test_full_exchange_thermalizes_the_medium():
    cfg = CycleConfig(use_mpemba=False)
    records = run_cycle(cfg, tau2=swap_window(cfg.j_hz))
    hot_target = gibbs_state(qubit_hamiltonian(cfg.nu1, "z"), cfg.t_hot)
    assert trace_distance(records[2].state_after, hot_target) <= 1e-10


def test_zero_exchange_leaves_the_medium_alone():
    records = run_cycle(CycleConfig(use_mpemba=False), tau2=0.0)
    assert_allclose(records[2].state_after, records[1].state_after, atol=1e-13)


def test_cycle_rejects_delays_outside_the_window():
    cfg = CycleConfig()
    with pytest.raises(TauOutOfRangeError):
        run_cycle(cfg, tau2=-0.05)
    with pytest.raises(TauOutOfRangeError):
        run_cycle(cfg, tau2=swap_window(cfg.j_hz) + 0.05)
    with pytest.raises(TauOutOfRangeError):
        run_cycle(cfg, tau2=float("nan"))


def test_cycle_builds_density_matrices_only_when_read(monkeypatch):
    built = []
    real = otto.density_from_bloch

    def counting(r):
        built.append(r)
        return real(r)

    monkeypatch.setattr(otto, "density_from_bloch", counting)
    records = run_cycle(CycleConfig(), tau2=1.0)
    assert built == []
    for count, record in enumerate(records + records, start=1):
        assert np.array_equal(record.state_after, real(record.bloch_after))
        assert len(built) == count


def test_cycle_validates_its_vectors_in_one_call(monkeypatch):
    # one bound per cycle, on the largest of the five lengths, with the bits
    # the array validator takes from the records' (5, 3) array
    seen = []
    real = otto._check_bloch_length

    def recording(largest, *args):
        seen.append(largest)
        return real(largest, *args)

    monkeypatch.setattr(otto, "_check_bloch_length", recording)
    for use_mpemba in (False, True):
        records = run_cycle(CycleConfig(use_mpemba=use_mpemba), tau2=1.0)
        states = np.array([r.bloch_after for r in records])
        largest = math.sqrt(np.maximum.reduce(np.add.reduce(states * states, axis=-1)))
        assert seen[-1] == largest
    assert len(seen) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.0 + 3e-10, 1e200])
def test_cycle_refuses_a_bad_vector_with_the_validators_message(monkeypatch, bad):
    # both exchanges put |bad| on one axis, which the ramp about x keeps
    monkeypatch.setattr(otto, "_exchange_components", lambda *_: (bad, 0.0, 0.0))
    with pytest.raises(ValueError) as expected:
        validate_bloch_vectors(np.array([[bad, 0.0, 0.0]]))
    with pytest.raises(ValueError) as refused:
        run_cycle(CycleConfig(), tau2=1.0)
    assert str(refused.value) == str(expected.value)


def test_cycle_keeps_the_validators_rounding_slack(monkeypatch):
    # a length up to 1 + 2e-10 passes, as it passes validate_bloch_vectors
    monkeypatch.setattr(otto, "_exchange_components", lambda *_: (1.0 + 1e-10, 0.0, 0.0))
    records = run_cycle(CycleConfig(), tau2=1.0)
    assert records[2].bloch_after[0] == 1.0 + 1e-10


def _composed_cycle(cfg: CycleConfig, tau2: float) -> tuple:
    """The junction energies and the five Bloch vectors of a cycle, from the
    generalized-amplitude-damping formula, the public pulse and the ramp on
    ``(3,)`` arrays, none of them read from the config's derived fields.  The
    Gibbs numbers (:func:`conftest.gibbs_weight`) and the exchange's cosine
    are numpy scalars, so the cycle's Python floats are held to numpy's
    bits."""
    window = swap_window(cfg.j_hz)

    def polarization(temperature, gap):
        z_eq = 1.0 - 2.0 * gibbs_weight(temperature, gap)
        assert type(z_eq) is np.float64
        return z_eq

    def exchange(z_eq, r, tau):
        c = np.cos(np.pi * (cfg.j_hz / 1000.0) * np.float64(tau))
        x, y, z = r
        return np.array([x * c, y * c, z_eq + (z - z_eq) * (c * c)])

    def ramp(r, nu_start, nu_end):
        # a rotation about x by twice the ramp's phase
        phi = 2.0 * otto._ramp_phase(nu_start, nu_end, cfg.tau1)
        c, s = math.cos(phi), math.sin(phi)
        x, y, z = r
        return np.array([x, c * y + s * z, c * z - s * y])

    z_cold = polarization(cfg.t_cold, cfg.nu0)
    r0 = np.array([z_cold, 0.0, 0.0])
    r1 = ramp(r0, cfg.nu0, cfg.nu1)
    r2 = mpemba_bloch(r1) if cfg.use_mpemba else r1
    r3 = exchange(polarization(cfg.t_hot, cfg.nu1), r2, tau2)
    r4 = ramp(r3, cfg.nu1, cfg.nu0)
    r5 = exchange(z_cold, r4[::-1], window)[::-1]
    energies = [
        float(e)
        for e in (
            -cfg.nu0 * r0[0], -cfg.nu1 * r1[0], -cfg.nu1 * r2[2],
            -cfg.nu1 * r3[2], -cfg.nu0 * r4[0], -cfg.nu0 * r5[0],
        )
    ]
    return energies, [r1, r2, r3, r4, r5]


def test_cycle_has_the_bits_of_the_composed_stroke_maps():
    # 200 seeded configs in the ranges of the cycle-scan benchmark, each with
    # and without the pulse, and the delays 0 and the full window
    rng = np.random.default_rng(2024)
    for k in range(200):
        nu0 = rng.uniform(0.5, 1.5)
        base = CycleConfig(
            nu0=nu0,
            nu1=nu0 * rng.uniform(1.5, 3.0),
            j_hz=rng.uniform(100.0, 400.0),
            t_hot=rng.uniform(2.0, 8.0),
            t_cold=rng.uniform(1.0, 4.0),
            tau1=rng.uniform(0.02, 0.2),
            tau_bar=rng.uniform(1.0, 10.0),
        )
        fraction = (0.0, 1.0)[k] if k < 2 else rng.uniform(0.0, 1.0)
        tau2 = fraction * swap_window(base.j_hz)
        for use_mpemba in (False, True):
            cfg = dataclasses.replace(base, use_mpemba=use_mpemba)
            records = run_cycle(cfg, tau2)
            energies, states = _composed_cycle(cfg, tau2)
            assert [r.energy_in for r in records] == energies[:-1]
            assert [r.energy_out for r in records] == energies[1:]
            assert all(type(e) is float for r in records for e in (r.energy_in, r.energy_out))
            for record, state in zip(records, states):
                assert record.bloch_after.shape == (3,)
                assert record.bloch_after.tobytes() == state.tobytes()
        assert type(base.z_cold) is float
        # the tunable stroke's Kraus operators, with numpy-scalar weights and entries
        angle = np.pi * (base.j_hz / 1000.0) * np.float64(tau2)
        expected = four_matrix_kraus(
            gibbs_weight(base.t_hot, base.nu1), np.cos(angle), np.sin(angle)
        )
        operators = build_heat_exchange(base.hot, base.j_hz, tau2).operators
        assert operators.tobytes() == np.array(expected).tobytes()


def test_cycle_rejects_a_vector_outside_the_bloch_ball(monkeypatch):
    # a kernel that overshoots the ball is caught by the cycle's one check
    monkeypatch.setattr(otto, "_ramp_bloch", lambda r, *_: np.array([1.5, 0.0, 0.0]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        run_cycle(CycleConfig(), tau2=1.0)


def test_a_cycle_builds_no_thermal_partner(monkeypatch):
    # both partners come from the config, derived once when it is built
    configs = [CycleConfig(use_mpemba=use_mpemba) for use_mpemba in (False, True)]
    built = []
    post_init = ThermalEnvironment.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ThermalEnvironment, "__post_init__", counting)
    for cfg in configs:
        run_cycle(cfg, 1.0)
    assert built == []


def test_a_cycle_checks_its_delay_against_the_configs_window(monkeypatch):
    # the window is derived once, with the config; a cycle derives it again
    # nowhere, and still refuses a delay past it with the channel's text
    cfg = CycleConfig()

    def refused(j_hz):
        raise AssertionError("the swap window was derived again")

    monkeypatch.setattr(channels, "swap_window", refused)
    monkeypatch.setattr(otto, "swap_window", refused)
    run_cycle(cfg, cfg.window)
    with pytest.raises(TauOutOfRangeError) as outside:
        run_cycle(cfg, cfg.window + 2e-9)
    assert str(outside.value) == (
        f"tau={cfg.window + 2e-9} ms outside [0, {cfg.window:.6f}] ms for J={cfg.j_hz} Hz"
    )


def test_bridge_stroke_changes_frame_even_when_disabled():
    """The record between the ramps re-expresses the energy in the exchange
    frame; with the unitary disabled the state must pass through untouched."""
    records = run_cycle(CycleConfig(use_mpemba=False), tau2=1.0)
    bridge = records[1]
    assert_allclose(bridge.state_after, records[0].state_after, atol=1e-14)
    assert bridge.energy_in != pytest.approx(bridge.energy_out, abs=1e-3)
    assert bridge.energy_out == pytest.approx(0.0, abs=1e-12)


def test_bridge_stroke_applies_the_population_inversion():
    records = run_cycle(CycleConfig(use_mpemba=True), tau2=1.0)
    state = records[1].state_after
    assert abs(state[0, 1]) <= 1e-12
    p_cold = 1.0 / (1.0 + np.exp(2.0 / 2.38))
    assert state[1, 1].real == pytest.approx(1.0 - p_cold, abs=1e-12)


# ----------------------------------------------------------- distance curves


def test_distance_curves_match_the_analytic_damping_solution():
    """Both sweeps reduce to closed-form expressions in cos(pi J tau)."""
    cfg = CycleConfig()
    taus = np.linspace(0.0, swap_window(cfg.j_hz), 32)
    plain, boosted = distance_curves(cfg, taus)
    assert_allclose(plain.trace_dist, analytic_plain_distance(taus), atol=1e-10)
    assert_allclose(boosted.trace_dist, analytic_mb_distance(taus), atol=1e-10)


def test_distance_curves_start_and_end_where_they_should():
    cfg = CycleConfig()
    taus = np.linspace(0.0, swap_window(cfg.j_hz), 64)
    plain, boosted = distance_curves(cfg, taus)
    assert plain.trace_dist[0] == pytest.approx(
        0.5 * np.hypot(R_COLD, R_HOT), abs=1e-10
    )
    assert boosted.trace_dist[0] == pytest.approx(
        0.5 * (R_COLD + R_HOT), abs=1e-10
    )
    assert plain.trace_dist[-1] <= 1e-10
    assert boosted.trace_dist[-1] <= 1e-10


def test_distance_curves_cross_at_the_analytic_delay():
    # squaring the two closed forms gives cos^2 = rc / (rc + 2 rh) at the
    # crossing; the grid-interpolated estimate must land on it
    cfg = CycleConfig()
    taus = np.linspace(0.0, swap_window(cfg.j_hz), 64)
    plain, boosted = distance_curves(cfg, taus)
    report = detect_crossing(boosted, plain, observable="trace_dist")
    assert report.exists and report.persistent
    c2 = R_COLD / (R_COLD + 2.0 * R_HOT)
    tau_exact = np.arccos(np.sqrt(c2)) / (np.pi * 0.2151)
    assert report.t_cross == pytest.approx(tau_exact, abs=5e-3)


# ---------------------------------------------------------------- thresholds


def test_threshold_times_interpolate_linearly():
    times = [0.0, 1.0, 2.0]
    curves = make_distance_pair(times, [0.4, 0.2, 0.0], [0.3, 0.1, 0.0])
    tp, tm = threshold_times(curves, 0.3)
    assert tp == pytest.approx(0.5, abs=1e-12)
    assert tm == pytest.approx(0.0, abs=1e-12)


def test_threshold_already_met_reports_the_first_grid_point():
    curves = make_distance_pair([0.0, 1.0], [0.4, 0.2], [0.3, 0.1])
    tp, tm = threshold_times(curves, 0.9)
    assert tp == 0.0 and tm == 0.0


def test_threshold_never_reached_raises():
    curves = make_distance_pair([0.0, 1.0], [0.4, 0.2], [0.3, 0.1])
    with pytest.raises(ThresholdUnreachableError):
        threshold_times(curves, 0.05)


def test_threshold_grids_must_match():
    plain, _ = make_distance_pair([0.0, 1.0], [0.4, 0.2], [0.3, 0.1])
    _, mb = make_distance_pair([0.0, 2.0], [0.4, 0.2], [0.3, 0.1])
    with pytest.raises(GridMismatchError):
        threshold_times((plain, mb), 0.3)


def test_accelerated_branch_reaches_every_sampled_threshold_first():
    cfg = CycleConfig()
    taus = np.linspace(0.0, swap_window(cfg.j_hz), 64)
    curves = distance_curves(cfg, taus)
    for delta in default_delta_grid(curves):
        tp, tm = threshold_times(curves, float(delta))
        assert tm <= tp + 1e-12



def reference_threshold_time(trajectory, delta):
    """One threshold's delay, found one grid point at a time."""
    values, times = trajectory.trace_dist, trajectory.times
    i = int(np.flatnonzero(values <= delta + otto.THRESHOLD_TOL)[0])
    if i == 0:
        return float(times[0])
    v0, v1 = values[i - 1], values[i]
    if v0 - v1 <= otto.THRESHOLD_TOL:
        return float(times[i])
    t = times[i - 1] + (times[i] - times[i - 1]) * (v0 - delta) / (v0 - v1)
    return float(min(t, times[i]))


def test_array_thresholds_match_one_threshold_at_a_time_bit_for_bit():
    cfg = CycleConfig()
    taus = np.linspace(0.0, swap_window(cfg.j_hz), 64)
    curves = distance_curves(cfg, taus)
    deltas = default_delta_grid(curves)
    assert deltas.size == 40
    tp, tm = threshold_times(curves, deltas)
    assert tp.shape == tm.shape == (40,)
    for k, delta in enumerate(deltas.tolist()):
        scalar = threshold_times(curves, delta)
        reference = tuple(reference_threshold_time(c, delta) for c in curves)
        assert (tp[k], tm[k]) == scalar == reference


def test_array_thresholds_cover_the_first_point_and_flat_steps():
    # 0.9 is met at the first point, 0.2 on a flat step, the rest interpolate
    curves = make_distance_pair(
        [0.0, 1.0, 2.0, 3.0], [0.4, 0.2, 0.2, 0.0], [0.3, 0.1, 0.1, 0.0]
    )
    deltas = np.array([[0.9, 0.3], [0.2, 0.05]])
    tp, tm = threshold_times(curves, deltas)
    assert tp.shape == tm.shape == (2, 2)
    for index in np.ndindex(deltas.shape):
        delta = float(deltas[index])
        assert (tp[index], tm[index]) == threshold_times(curves, delta)
        assert tp[index] == reference_threshold_time(curves[0], delta)
        assert tm[index] == reference_threshold_time(curves[1], delta)


def test_an_unreachable_threshold_in_an_array_is_named():
    curves = make_distance_pair([0.0, 1.0], [0.4, 0.2], [0.3, 0.1])
    with pytest.raises(ThresholdUnreachableError, match=r"delta=0\.0123 below"):
        threshold_times(curves, np.array([0.3, 0.25, 0.0123, 0.001]))


def test_default_delta_grid_spans_the_advantage_window():
    cfg = CycleConfig()
    taus = np.linspace(0.0, swap_window(cfg.j_hz), 64)
    curves = distance_curves(cfg, taus)
    grid = default_delta_grid(curves)
    assert grid.size == 40
    assert np.all(np.diff(grid) <= 1e-12)
    crossing = detect_crossing(curves[1], curves[0], observable="trace_dist")
    level = np.interp(crossing.t_cross, curves[0].times, curves[0].trace_dist)
    assert grid[0] == pytest.approx(level, abs=1e-12)


def test_delta_grid_requires_a_crossing():
    curves = make_distance_pair([0.0, 1.0], [0.3, 0.1], [0.4, 0.2])
    with pytest.raises(ThresholdUnreachableError):
        default_delta_grid(curves)


# -------------------------------------------------------------- power ratios


def default_power_ratio():
    cfg = CycleConfig()
    return power_ratio(cfg, np.linspace(0.0, swap_window(cfg.j_hz), 64))


def test_power_ratio_never_reports_a_slowdown():
    reports = default_power_ratio()
    assert len(reports) == 40
    assert all(r.ratio >= 1.0 - 1e-12 for r in reports)


def test_power_ratio_returns_to_one_at_the_window_edges():
    reports = default_power_ratio()
    assert reports[0].ratio == pytest.approx(1.0, abs=1e-6)
    assert reports[-1].ratio == pytest.approx(1.0, abs=1e-3)


def test_power_ratio_peak_shows_a_real_advantage():
    reports = default_power_ratio()
    peak = max(r.ratio for r in reports)
    assert 1.0 + 1e-3 < peak < 1.2


def test_power_report_rejects_ratios_below_one(monkeypatch):
    cfg = CycleConfig()
    grid = np.linspace(0.0, swap_window(cfg.j_hz), 64)
    curves = distance_curves(cfg, grid)
    deltas = default_delta_grid(curves)
    tau2_plain, tau2_mb = threshold_times(curves, deltas)
    # with the delays swapped the accelerated cycle is the slower one
    swapped = (cfg.tau_bar + tau2_mb) / (cfg.tau_bar + tau2_plain)
    first = int(np.flatnonzero(swapped < 1.0 - 1e-12)[0])
    real = otto.threshold_times
    monkeypatch.setattr(otto, "threshold_times", lambda *args: real(*args)[::-1])
    with pytest.raises(NoAdvantageError) as refused:
        power_ratio(cfg, grid)
    assert str(refused.value) == (
        f"ratio {float(swapped[first])!r} below 1; delta {float(deltas[first])!r} "
        "lies outside the advantage window"
    )
    assert issubclass(NoAdvantageError, MpembaSimError)
    assert issubclass(NoAdvantageError, ValueError)


@settings(max_examples=20, deadline=None)
@given(
    tau2=st.floats(0.0, 2.3245002),
    use_mpemba=st.booleans(),
)
def test_cycles_close_for_arbitrary_exchange_delays(tau2, use_mpemba):
    cfg = CycleConfig(use_mpemba=use_mpemba)
    start = gibbs_state(qubit_hamiltonian(cfg.nu0, "x"), cfg.t_cold)
    records = run_cycle(cfg, tau2)
    assert np.abs(records[-1].state_after - start).max() <= CLOSURE_TOL
    assert abs(energy_balance(records)) <= BALANCE_TOL


@settings(max_examples=40, deadline=None)
@given(cycle_inputs())
def test_cycle_matches_the_kraus_reference(inputs):
    cfg, tau2 = inputs
    energy_tol = 1e-12 * max(1.0, cfg.nu1)
    for bloch, kraus in zip(run_cycle(cfg, tau2), kraus_cycle(cfg, tau2), strict=True):
        assert (bloch.name, bloch.duration) == (kraus.name, kraus.duration)
        assert np.abs(bloch.state_after - kraus.state_after).max() <= 1e-12
        assert bloch.energy_in == pytest.approx(kraus.energy_in, rel=0.0, abs=energy_tol)
        assert bloch.energy_out == pytest.approx(kraus.energy_out, rel=0.0, abs=energy_tol)
