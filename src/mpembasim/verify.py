"""The invariant battery that ``mpembasim verify`` runs.

Each check compares a production result with an independent route (the
Kraus channel, the Liouville spectral stack, the Gibbs reference or an
identity of the model) and prints one ``PASS``/``FAIL`` line; the sweeps'
planar kernel, for one, is checked straight against the Kraus channel
(``sweep-kernel-agreement``), and the exchange channel against the
collision with a Gibbs partner that it models (``dilation-agreement``,
which bounds :func:`dilation_deviation`).  It runs on the config that
:func:`mpembasim.cli.main` resolved, and :func:`mpembasim.cli.cmd_verify`
imports it when ``verify`` runs, so the other subcommands do not load it.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .channels import _exchange_grid, apply_channel, build_heat_exchange, \
    exchange_spectrum
from .config_io import ExperimentConfig
from .exceptions import MpembaSimError
from .liouville import decompose, devectorize, extract_generator, mode_overlap, \
    propagate_spectral, slow_pair_indices, transfer_matrix, vectorize
from .mpemba import _relaxation, mpemba_bloch
from .numerics import expm
from .operators import SIGMA_X, SIGMA_Y, TWO_PI, bloch_vector, density_from_bloch, \
    qubit_hamiltonian, random_density
from .otto import energy_balance, power_ratio, run_cycle
from .thermo import f_neq, gibbs_state, trace_distance, von_neumann_entropy


def dilation_deviation(environment, j_hz: float, taus) -> float:
    """Largest entrywise deviation, over the delays ``taus``, of the transfer
    matrix of :func:`build_heat_exchange` from the exchange's dilation.

    The qubit collides with a partner fresh in ``diag(1 - p, p)`` under the
    partial swap ``U = exp(-i theta (XX + YY) / 2)``, ``theta = pi J tau``,
    built by :func:`expm`; tracing the partner out leaves the operators
    ``sqrt(p_j) <i|_aux U |j>_aux`` (Nielsen & Chuang, section 8.3.5).  The
    model assumes that the effective exchange Hamiltonian is ``pi J (XX +
    YY) / 2``, which the NMR sequence builds from the ``sigma_z sigma_z``
    coupling; the paper's abstract does not give the sequence.
    """
    p = environment.excited_population
    weights = np.sqrt([1.0 - p, p])
    exchange = 0.5 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))
    worst = 0.0
    for tau in taus:
        # axes (system out, partner out, system in, partner in)
        u = expm(-1j * np.pi * (j_hz / 1000.0) * tau * exchange).reshape(2, 2, 2, 2)
        dilated = [weights[j] * u[:, i, :, j] for i in range(2) for j in range(2)]
        channel = build_heat_exchange(environment, j_hz, float(tau))
        deviation = np.abs(transfer_matrix(dilated) - transfer_matrix(channel.operators))
        worst = max(worst, float(deviation.max()))
    return worst


def _report(name: str, passed: bool, detail: str) -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"{'PASS' if passed else 'FAIL'} {name}{suffix}")


def cmd_verify(config: ExperimentConfig) -> int:
    cycle = config.cycle
    env, window = cycle.hot, cycle.window
    h = qubit_hamiltonian(config.nu1_khz, axis="z")
    probe_tau = 1.0 if window > 1.0 else 0.43 * window
    # Free energies hold terms of size T ln 2, which carry rounding errors of
    # a few eps * T (measured against a 50-digit evaluation up to T = 1e6 kHz),
    # so their bounds are per kHz of temperature above 1 kHz.
    free_energy_scale = max(1.0, config.t_hot_khz)

    # every random input is drawn up front, in the order the checks use them
    rng = np.random.default_rng(20260822)
    identity_states = np.array([random_density(rng) for _ in range(100)])
    propagation_inputs = [
        (random_density(rng), float(rng.uniform(0.1, 5.0))) for _ in range(10)
    ]
    cycle_delays = [float(rng.uniform(0.0, window)) for _ in range(10)]

    @functools.cache
    def generator():
        return extract_generator(build_heat_exchange(env, config.j_hz, probe_tau), probe_tau)

    @functools.cache
    def decomposition():
        return decompose(generator())

    @functools.cache
    def equilibrium():
        state = gibbs_state(h, config.t_hot_khz)
        return state, f_neq(state, h, config.t_hot_khz)

    @functools.cache
    def cycle_runs():
        return [
            run_cycle(dataclasses.replace(cycle, use_mpemba=bool(k % 2)), tau2)
            for k, tau2 in enumerate(cycle_delays)
        ]

    def dilation_agreement():
        # the channel against the collision it models, over the window
        taus = [*np.linspace(0.0, window, 5), probe_tau]
        deviation = dilation_deviation(env, config.j_hz, taus)
        return deviation <= 1e-12, f"max deviation {deviation:.3e}"

    def biorthonormality():
        d = decomposition()
        residual = float(np.abs(d.left @ d.right - np.eye(4)).max())
        return residual <= 1e-10, f"residual {residual:.3e}"

    def free_energy_identity():
        # T S(rho || rho_eq) = -T S(rho) + <H - E_min>/(2 pi) + T ln Z with
        # ln rho_eq = -(H - E_min)/(2 pi T) - ln Z, which needs no rank test:
        # a Gibbs weight that underflows to 0 leaves the ground term of Z
        temperature = config.t_hot_khz
        energies, vectors = np.linalg.eigh(h)
        gaps = (energies - energies.min()) / TWO_PI  # in h*kHz
        with np.errstate(over="ignore"):
            log_z = np.log(np.exp(-gaps / temperature).sum())
        populations = np.einsum(
            "ji,njk,ki->ni", vectors.conj(), identity_states, vectors
        ).real
        identity = (
            -temperature * von_neumann_entropy(identity_states)
            + populations @ gaps
            + temperature * log_z
        )
        excess = f_neq(identity_states, h, temperature) - equilibrium()[1]
        worst = float(np.abs(excess - identity).max())
        return worst <= 1e-10 * free_energy_scale, f"max defect {worst:.3e}"

    def spectral_propagation():
        # the drawn times shrink by the largest |lambda| above 1/ms, the scale
        # of liouville.STATIONARY_TOL, so the defect stays at rounding size
        d = decomposition()
        scale = max(1.0, float(np.abs(d.eigenvalues).max()))
        worst = 0.0
        for rho, t in propagation_inputs:
            t /= scale
            spectral = propagate_spectral(d, rho, t)
            direct = devectorize(expm(generator() * t) @ vectorize(rho))
            worst = max(worst, float(np.abs(spectral - direct).max()))
        return worst <= 1e-8, f"max defect {worst:.3e}"

    def cycle_closure():
        h_cold = qubit_hamiltonian(config.nu0_khz, axis="x")
        cold_state = gibbs_state(h_cold, config.t_cold_khz)
        worst = max(
            float(np.abs(records[-1].state_after - cold_state).max())
            for records in cycle_runs()
        )
        return worst <= 1e-10, f"max defect {worst:.3e}"

    def energy_balance_check():
        worst = max(abs(energy_balance(records)) for records in cycle_runs())
        return worst <= 1e-8, f"max defect {worst:.3e}"

    def power_ratio_floor():
        # power_ratio itself refuses a ratio below its floor
        reports = power_ratio(cycle, tau2_grid=config.delays)
        return True, f"min ratio {min(report.ratio for report in reports):.12f}"

    def sweep_kernel_agreement():
        # the sweeps' planar kernel against the Kraus route it replaces: the
        # checked exchange grid's states, and the excess and distance planes
        state, f_eq = equilibrium()
        taus = np.linspace(0.0, window, 4)
        starts = bloch_vector(identity_states)
        evolved = np.stack(_exchange_grid(env, config.j_hz, starts, taus), axis=-1)
        excess, dist = _relaxation(starts, env, config.j_hz, taus)
        worst = worst_free = 0.0
        for k, tau in enumerate(taus):
            channel = build_heat_exchange(env, config.j_hz, float(tau))
            out = apply_channel(channel, identity_states)
            worst = max(
                worst,
                float(np.abs(density_from_bloch(evolved[:, k]) - out).max()),
                float(np.abs(dist[:, k] - trace_distance(out, state)).max()),
            )
            free = f_neq(out, h, config.t_hot_khz) - f_eq
            worst_free = max(worst_free, float(np.abs(excess[:, k] - free).max()))
        passed = worst <= 1e-12 and worst_free <= 1e-12 * free_energy_scale
        return passed, f"max deviation {max(worst, worst_free):.3e}"

    def slow_mode_removal():
        # the pulse builds no generator, so its purpose is checked here
        d = decomposition()
        pair = slow_pair_indices(d)
        if len(pair) != 2:
            return False, f"{len(pair)} slowest decaying modes, expected one pair"
        starts = np.vstack([config.base_bloch, bloch_vector(identity_states)])
        pulsed = density_from_bloch(mpemba_bloch(starts))
        worst = max(float(np.abs(mode_overlap(d, k, pulsed)).max()) for k in pair)
        return worst <= 1e-10, f"max slow-mode weight {worst:.3e}"

    def spectrum_agreement():
        # the closed form that spectrum prints against the Liouville route
        eigenvalues, populations = exchange_spectrum(env, config.j_hz, probe_tau)
        d = decomposition()
        scale = max(1.0, float(np.abs(eigenvalues).max()))
        rates = float(np.abs(d.eigenvalues - eigenvalues).max()) / scale
        fixed = float(np.abs(np.diag(d.fixed_point).real - populations).max())
        passed = rates <= 1e-10 and fixed <= 1e-10
        return passed, f"max deviation {max(rates, fixed):.3e}"

    all_passed = True
    for name, run in (
        ("dilation-agreement", dilation_agreement),
        ("biorthonormality", biorthonormality),
        ("free-energy-identity", free_energy_identity),
        ("spectral-propagation", spectral_propagation),
        ("cycle-closure", cycle_closure),
        ("energy-balance", energy_balance_check),
        ("power-ratio-floor", power_ratio_floor),
        ("sweep-kernel-agreement", sweep_kernel_agreement),
        ("slow-mode-removal", slow_mode_removal),
        ("spectrum-agreement", spectrum_agreement),
    ):
        # a check whose inputs, shared or its own, cannot be built fails alone
        try:
            passed, detail = run()
        except (MpembaSimError, ValueError) as exc:
            passed, detail = False, str(exc)
        all_passed = all_passed and passed
        _report(name, passed, detail)
    return 0 if all_passed else 1
