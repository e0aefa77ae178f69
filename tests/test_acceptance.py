"""Release gate: the end-to-end checks the build must answer for.

Each check prints one ``[PASS]``/``[FAIL]`` line with the measured numbers
before asserting, so a red run still shows what was actually computed.
"""

import dataclasses
import time

import numpy as np
import scipy.linalg

from mpembasim.channels import (
    ThermalEnvironment,
    apply_channel,
    build_heat_exchange,
    swap_window,
)
from mpembasim.liouville import (
    decompose,
    devectorize,
    extract_generator,
    mode_overlap,
    propagate_spectral,
    slow_pair_indices,
    transfer_matrix,
    vectorize,
)
from mpembasim.mpemba import cooling_curves, mpemba_unitary
from mpembasim.operators import bloch_vector, density_from_bloch, qubit_hamiltonian, \
    random_density
from mpembasim.otto import (
    CycleConfig,
    distance_curves,
    energy_balance,
    power_ratio,
    ramp_unitary,
    run_cycle,
)
from mpembasim.thermo import detect_crossing, f_neq, gibbs_state, kl_divergence

J_HZ = 215.1
T_HOT = 4.77
T_COLD = 2.38
NU_HOT = 2.0
WINDOW = swap_window(J_HZ)
HOT_ENV = ThermalEnvironment(temperature=T_HOT, gap_frequency=NU_HOT)
BASE = density_from_bloch((-0.4, 0.0, 0.0))
H_HOT = qubit_hamiltonian(NU_HOT, axis="z")
SEED = 20260822


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_accelerated_cooling_overtakes_plain():
    start = time.perf_counter()
    grid = np.linspace(0.0, WINDOW, 64)
    plain, boosted = cooling_curves(bloch_vector(BASE), HOT_ENV, J_HZ, grid)
    crossing = detect_crossing(boosted, plain, observable="f_neq")
    elapsed = time.perf_counter() - start

    starts_above = boosted.f_neq[0] > plain.f_neq[0]
    crosses = (
        crossing.exists
        and crossing.persistent
        and 0.0 < crossing.t_cross < WINDOW
    )
    ok = starts_above and crosses and elapsed < 1.0
    _report(
        "cooling-advantage",
        ok,
        f"initial excess {boosted.f_neq[0]:.4f} vs {plain.f_neq[0]:.4f} kHz, "
        f"persistent crossing at {crossing.t_cross:.6f} ms, {elapsed:.3f}s",
    )
    assert starts_above
    assert crosses
    assert elapsed < 1.0


def test_transform_empties_the_slow_modes():
    start = time.perf_counter()
    channel = build_heat_exchange(HOT_ENV, J_HZ, 1.0)
    decomposition = decompose(extract_generator(channel, 1.0))
    transform = mpemba_unitary(BASE, H_HOT)
    pair = slow_pair_indices(decomposition)
    before = max(abs(mode_overlap(decomposition, k, BASE)) for k in pair)
    after = max(
        abs(mode_overlap(decomposition, k, transform.target_state)) for k in pair
    )
    elapsed = time.perf_counter() - start

    ok = before > 0.05 and after <= 1e-10 and elapsed < 0.1
    _report(
        "slow-mode-suppression",
        ok,
        f"amplitude {before:.6f} before, {after:.3e} after, {elapsed:.3f}s",
    )
    assert before > 0.05
    assert after <= 1e-10
    assert elapsed < 0.1


def test_exchange_stroke_crossing_location():
    start = time.perf_counter()
    grid = np.linspace(0.0, WINDOW, 64)
    plain, boosted = distance_curves(CycleConfig(), grid)
    crossing = detect_crossing(boosted, plain, observable="trace_dist")
    gap = plain.trace_dist - boosted.trace_dist
    peak_tau = float(grid[int(np.argmax(gap))])
    elapsed = time.perf_counter() - start

    cross_ok = crossing.exists and abs(crossing.t_cross - 0.87) <= 0.15
    peak_ok = abs(peak_tau - 1.99) <= 0.15
    ok = cross_ok and peak_ok and elapsed < 2.0
    _report(
        "stroke-crossing",
        ok,
        f"crossing at {crossing.t_cross:.6f} ms (want 0.87 +/- 0.15), "
        f"separation peak at {peak_tau:.6f} ms (want 1.99 +/- 0.15), "
        f"{elapsed:.3f}s",
    )
    assert crossing.exists and crossing.persistent
    assert abs(crossing.t_cross - 0.87) <= 0.15
    assert abs(peak_tau - 1.99) <= 0.15
    assert elapsed < 2.0


def test_power_ratio_advantage_window():
    start = time.perf_counter()
    cycle = CycleConfig()
    assert cycle.tau_bar == 4.65
    reports = power_ratio(cycle, tau2_grid=np.linspace(0.0, WINDOW, 64))
    ratios = np.array([report.ratio for report in reports])
    elapsed = time.perf_counter() - start

    floor_ok = bool(np.all(ratios >= 1.0))
    peak = float(ratios.max())
    peak_ok = 1.05 <= peak <= 1.15
    edges_ok = abs(ratios[0] - 1.0) <= 1e-6 and abs(ratios[-1] - 1.0) <= 1e-6
    ok = floor_ok and peak_ok and edges_ok and elapsed < 2.0
    _report(
        "power-ratio",
        ok,
        f"floor {ratios.min():.12f}, peak {peak:.6f} (want within [1.05, 1.15]), "
        f"edges {ratios[0]:.6f}/{ratios[-1]:.6f}, {elapsed:.3f}s",
    )
    assert floor_ok
    assert edges_ok
    assert 1.05 <= peak <= 1.15
    assert elapsed < 2.0


def test_channel_matches_its_generator():
    rebuild_worst = 0.0
    for tau in np.linspace(0.9 * WINDOW / 20.0, 0.9 * WINDOW, 20):
        channel = build_heat_exchange(HOT_ENV, J_HZ, float(tau))
        generator = extract_generator(channel, float(tau))
        rebuilt = scipy.linalg.expm(generator * float(tau))
        defect = float(np.abs(rebuilt - transfer_matrix(channel.operators)).max())
        rebuild_worst = max(rebuild_worst, defect)

    completeness_worst = 0.0
    for tau in np.linspace(0.0, WINDOW, 50):
        channel = build_heat_exchange(HOT_ENV, J_HZ, float(tau))
        total = sum(k.conj().T @ k for k in channel.operators)
        completeness_worst = max(
            completeness_worst, float(np.abs(total - np.eye(2)).max())
        )

    decomposition = decompose(
        extract_generator(build_heat_exchange(HOT_ENV, J_HZ, 1.0), 1.0)
    )
    rates = np.sort(decomposition.eigenvalues.real)
    ratio = rates[1] / rates[0]  # coherence decay over population decay

    ok = (
        rebuild_worst <= 1e-8
        and completeness_worst <= 1e-12
        and abs(ratio - 0.5) <= 1e-8
    )
    _report(
        "channel-consistency",
        ok,
        f"re-exponentiation defect {rebuild_worst:.3e}, completeness defect "
        f"{completeness_worst:.3e}, decay-rate ratio {ratio:.12f}",
    )
    assert rebuild_worst <= 1e-8
    assert completeness_worst <= 1e-12
    assert abs(ratio - 0.5) <= 1e-8


def test_free_energy_accounting():
    rng = np.random.default_rng(SEED)
    equilibrium = gibbs_state(H_HOT, T_HOT)
    f_eq = f_neq(equilibrium, H_HOT, T_HOT)
    identity_worst = 0.0
    for _ in range(100):
        rho = random_density(rng)
        excess = f_neq(rho, H_HOT, T_HOT) - f_eq
        identity_worst = max(
            identity_worst,
            abs(excess - T_HOT * kl_divergence(rho, equilibrium)),
        )

    rise_worst = -np.inf
    grid = np.linspace(0.0, WINDOW, 40)
    for rho in [BASE] + [random_density(rng) for _ in range(5)]:
        values = [
            f_neq(apply_channel(build_heat_exchange(HOT_ENV, J_HZ, float(t)), rho),
                  H_HOT, T_HOT)
            for t in grid
        ]
        rise_worst = max(rise_worst, float(np.diff(values).max()))

    fixed = decompose(
        extract_generator(build_heat_exchange(HOT_ENV, J_HZ, 1.0), 1.0)
    ).fixed_point
    boltzmann = 1.0 / (1.0 + np.exp(2.0 * NU_HOT / T_HOT))
    fp_defect = max(
        abs(fixed[0, 0].real - (1.0 - boltzmann)),
        abs(fixed[1, 1].real - boltzmann),
    )

    ok = identity_worst <= 1e-10 and rise_worst <= 1e-10 and fp_defect <= 1e-3
    _report(
        "free-energy-accounting",
        ok,
        f"identity defect {identity_worst:.3e}, worst rise {rise_worst:.3e}, "
        f"fixed-point defect {fp_defect:.3e}",
    )
    assert identity_worst <= 1e-10
    assert rise_worst <= 1e-10
    assert fp_defect <= 1e-3


def test_cycle_recurrence_and_energy_books():
    rng = np.random.default_rng(SEED)
    cycle = CycleConfig()
    cold_start = gibbs_state(qubit_hamiltonian(cycle.nu0, axis="x"), T_COLD)
    state_worst = balance_worst = 0.0
    for k in range(10):
        records = run_cycle(
            dataclasses.replace(cycle, use_mpemba=bool(k % 2)),
            float(rng.uniform(0.0, WINDOW)),
        )
        state_worst = max(
            state_worst, float(np.abs(records[-1].state_after - cold_start).max())
        )
        balance_worst = max(balance_worst, abs(energy_balance(records)))

    reports = power_ratio(cycle, tau2_grid=np.linspace(0.0, WINDOW, 64))
    floor = min(report.ratio for report in reports)

    ok = (
        state_worst <= 1e-10
        and balance_worst <= 1e-8
        and len(reports) == 40
        and floor >= 1.0 - 1e-12
    )
    _report(
        "cycle-recurrence",
        ok,
        f"recurrence defect {state_worst:.3e}, balance defect "
        f"{balance_worst:.3e}, ratio floor {floor:.12f} over {len(reports)} "
        "thresholds",
    )
    assert state_worst <= 1e-10
    assert balance_worst <= 1e-8
    assert len(reports) == 40
    assert floor >= 1.0 - 1e-12


def test_propagation_routes_agree():
    rng = np.random.default_rng(SEED)
    generator = extract_generator(build_heat_exchange(HOT_ENV, J_HZ, 1.0), 1.0)
    decomposition = decompose(generator)
    spectral_worst = 0.0
    for _ in range(10):
        rho = random_density(rng)
        t = float(rng.uniform(0.1, 5.0))
        spectral = propagate_spectral(decomposition, rho, t)
        direct = devectorize(scipy.linalg.expm(generator * t) @ vectorize(rho))
        spectral_worst = max(spectral_worst, float(np.abs(spectral - direct).max()))

    nu0, nu1, duration, steps = 1.0, 2.0, 0.1, 1000
    exact = ramp_unitary(nu0, nu1, duration)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    dt = duration / steps
    stepped = np.eye(2, dtype=complex)
    for k in range(steps):
        nu = nu0 + (nu1 - nu0) * (k + 0.5) / steps
        stepped = scipy.linalg.expm(1j * 2.0 * np.pi * nu * dt * sigma_x) @ stepped
    ramp_defect = float(np.abs(exact - stepped).max())

    ok = spectral_worst <= 1e-8 and ramp_defect <= 1e-8
    _report(
        "propagation-equivalence",
        ok,
        f"spectral-vs-direct defect {spectral_worst:.3e}, ramp-vs-stepped "
        f"defect {ramp_defect:.3e}",
    )
    assert spectral_worst <= 1e-8
    assert ramp_defect <= 1e-8
