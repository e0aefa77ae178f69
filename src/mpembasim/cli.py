"""Command-line pipelines: spectra, sweeps, refrigerator tables, self checks.

Summaries go to stdout, tables to files, logs to stderr.  Exit codes: 0
success, 1 self-check failure, 2 numerical failure, 3 config or IO failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys

import numpy as np

from .channels import (
    ThermalEnvironment,
    apply_channel,
    build_heat_exchange,
    exchange_spectrum,
    heat_exchange_bloch,
    swap_window,
    verify_davies_blocks,
    verify_gad_equivalence,
)
from .config_io import ExperimentConfig, load_config, write_table
from .exceptions import ConfigError, MpembaSimError
from .liouville import decompose, devectorize, extract_generator, mode_overlap, \
    propagate_spectral, slow_pair_indices, vectorize
from .mpemba import build_theta_family, cooling_curves, free_energy_surface, \
    mpemba_bloch
from .numerics import expm
from .operators import bloch_vector, density_from_bloch, qubit_hamiltonian, \
    random_density
from .otto import distance_curves, energy_balance, power_ratio, run_cycle
from .thermo import detect_crossing, f_neq, f_neq_bloch, gibbs_state, \
    kl_divergence, trace_distance, trace_distance_bloch


def _populations_arg(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated weights, got {text!r}"
        )
    try:
        return tuple(float(piece) for piece in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric weight in {text!r}") from None


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    path = args.config or os.environ.get("MPEMBA_CONFIG")
    config = load_config(path) if path else ExperimentConfig()
    overrides = {}
    if args.populations is not None:
        overrides["populations"] = args.populations
    if args.tau_steps is not None:
        overrides["tau_steps"] = args.tau_steps
    if args.theta_steps is not None:
        overrides["theta_steps"] = args.theta_steps
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _base_state(config: ExperimentConfig) -> np.ndarray:
    # weights on the two x eigenstates: Bloch vector (p0 - p1) along x
    p0, p1 = config.populations
    return np.array([p0 - p1, 0.0, 0.0])


def _tau_grid(config: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, swap_window(config.j_hz), config.tau_steps)


def _hot_environment(config: ExperimentConfig) -> ThermalEnvironment:
    return ThermalEnvironment(
        temperature=config.t_hot_khz, gap_frequency=config.nu1_khz
    )


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    tau = args.tau
    window = swap_window(config.j_hz)
    # the chained comparison is false for nan and +-inf as well
    if not 0.0 < tau <= window:
        raise ConfigError(
            f"--tau {tau!r} ms outside the exchange window (0, {window:.6f}] ms"
        )
    eigenvalues, populations = exchange_spectrum(
        _hot_environment(config), config.j_hz, tau
    )

    print(f"exchange-generator spectrum at tau = {tau:g} ms (rates in 1/ms):")
    kinds = ("population", "coherence", "coherence", "population")
    rows = []
    for k, (eigenvalue, kind) in enumerate(zip(eigenvalues, kinds), start=1):
        print(f"  lambda_{k} = {eigenvalue:+.9f} +0.000000000i  [{kind}]")
        rows.append((k, eigenvalue, 0.0, kind))
    print(f"fixed-point populations: {populations[0]:.9f}, {populations[1]:.9f}")
    if args.out:
        write_table(
            rows,
            ["index", "re_per_ms", "im_per_ms", "kind"],
            args.out,
            args.format,
            config.output_precision,
        )
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    angles = np.linspace(0.0, 2.0 * np.pi, config.theta_steps)
    family = build_theta_family(_base_state(config), angles)
    taus = _tau_grid(config)
    excess = free_energy_surface(family, _hot_environment(config), config.j_hz, taus)
    rows = np.column_stack(
        [np.repeat(angles, taus.size), np.tile(taus, angles.size), excess.ravel()]
    )
    write_table(
        rows,
        ["theta_rad", "tau_ms", "delta_f_neq_khz"],
        args.out,
        args.format,
        config.output_precision,
    )
    lowest = int(np.argmin(excess[:, 0]))
    print(f"surface: {len(rows)} rows -> {args.out}")
    print(
        f"lowest initial excess {excess[lowest, 0]:.6f} kHz "
        f"at theta = {angles[lowest]:.6f} rad"
    )
    return 0


def cmd_cooling(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    base = _base_state(config)
    env = _hot_environment(config)
    grid = _tau_grid(config)
    plain = cooling_curves(base, env, config.j_hz, grid, with_mpemba=False)
    accelerated = cooling_curves(base, env, config.j_hz, grid, with_mpemba=True)

    write_table(
        np.column_stack(
            [
                grid,
                plain.f_neq,
                accelerated.f_neq,
                plain.trace_dist,
                accelerated.trace_dist,
            ]
        ),
        ["tau_ms", "delta_f_plain_khz", "delta_f_mb_khz", "dist_plain", "dist_mb"],
        args.out,
        args.format,
        config.output_precision,
    )
    crossing = detect_crossing(accelerated, plain, observable="f_neq")
    if crossing.exists:
        kind = "persistent" if crossing.persistent else "transient"
        print(
            f"cooling: crossing detected, {kind}, t_cross = {crossing.t_cross:.6f} ms"
        )
    else:
        print("cooling: no crossing on this grid")
    eps = config.epsilon_equilibrium_khz
    for trajectory in (plain, accelerated):
        inside = np.flatnonzero(trajectory.f_neq <= eps)
        when = f"tau = {grid[inside[0]]:.6f} ms" if inside.size else "never"
        print(
            f"cooling: {trajectory.label} curve enters the {eps:g} kHz "
            f"neighborhood at {when}"
        )
    return 0


def cmd_otto_distance(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    cycle = config.cycle_config()
    grid = _tau_grid(config)
    plain, accelerated = distance_curves(cycle, grid)
    write_table(
        np.column_stack([grid, plain.trace_dist, accelerated.trace_dist]),
        ["tau2_ms", "dist_plain", "dist_mb"],
        args.out,
        args.format,
        config.output_precision,
    )
    crossing = detect_crossing(accelerated, plain, observable="trace_dist")
    if crossing.exists:
        print(f"otto-distance: crossing at tau2 = {crossing.t_cross:.6f} ms")
        gap = plain.trace_dist - accelerated.trace_dist
        peak = int(np.argmax(gap))
        print(
            f"otto-distance: maximum separation {gap[peak]:.6f} "
            f"at tau2 = {grid[peak]:.6f} ms"
        )
    else:
        print("otto-distance: no crossing on this grid")
    return 0


def cmd_otto_ratio(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    cycle = config.cycle_config()
    reports = power_ratio(cycle, tau2_grid=_tau_grid(config))
    write_table(
        [
            (report.delta, report.tau2_plain, report.tau2_mb, report.ratio)
            for report in reports
        ],
        ["delta", "tau2_plain_ms", "tau2_mb_ms", "ratio"],
        args.out,
        args.format,
        config.output_precision,
    )
    peak = max(reports, key=lambda report: report.ratio)
    print(
        f"otto-ratio: peak ratio {peak.ratio:.6f} at delta = {peak.delta:.6f} "
        f"(tau2_plain = {peak.tau2_plain:.6f} ms, tau2_mb = {peak.tau2_mb:.6f} ms)"
    )
    return 0


def _report(name: str, passed: bool, detail: str) -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"{'PASS' if passed else 'FAIL'} {name}{suffix}")


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        config = _resolve_config(args)
    except (MpembaSimError, ValueError, OSError) as exc:
        _report("construction", False, str(exc))
        return 1
    env = _hot_environment(config)
    window = swap_window(config.j_hz)
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
    def probe_channel():
        return build_heat_exchange(env, config.j_hz, probe_tau)

    @functools.cache
    def generator():
        return extract_generator(probe_channel(), probe_tau)

    @functools.cache
    def decomposition():
        return decompose(generator())

    @functools.cache
    def equilibrium():
        state = gibbs_state(h, config.t_hot_khz)
        return state, f_neq(state, h, config.t_hot_khz)

    @functools.cache
    def cycle_runs():
        cycle = config.cycle_config()
        return [
            run_cycle(dataclasses.replace(cycle, use_mpemba=bool(k % 2)), tau2)
            for k, tau2 in enumerate(cycle_delays)
        ]

    def kraus_completeness():
        ops = np.array([
            build_heat_exchange(env, config.j_hz, float(tau)).operators
            for tau in np.linspace(0.0, window, 50)
        ])
        total = np.einsum("nkji,nkjl->nil", ops.conj(), ops)
        worst = float(np.abs(total - np.eye(2)).max())
        return worst <= 1e-12, f"max defect {worst:.3e}"

    def damping_equivalence():
        gad = verify_gad_equivalence(probe_channel())
        return gad.passed, f"deviation {gad.max_deviation:.3e}"

    def biorthonormality():
        d = decomposition()
        residual = float(np.abs(d.left @ d.right - np.eye(4)).max())
        return residual <= 1e-10, f"residual {residual:.3e}"

    def decoupling():
        davies = verify_davies_blocks(generator())
        return davies.passed, f"max coupling {davies.max_coupling:.3e}"

    def free_energy_identity():
        state, f_eq = equilibrium()
        excess = f_neq(identity_states, h, config.t_hot_khz) - f_eq
        identity = config.t_hot_khz * kl_divergence(identity_states, state)
        worst = float(np.abs(excess - identity).max())
        return worst <= 1e-10 * free_energy_scale, f"max defect {worst:.3e}"

    def spectral_propagation():
        worst = 0.0
        for rho, t in propagation_inputs:
            spectral = propagate_spectral(decomposition(), rho, t)
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
        reports = power_ratio(config.cycle_config(), tau2_grid=_tau_grid(config))
        floor = min(report.ratio for report in reports)
        return floor >= 1.0 - 1e-12, f"min ratio {floor:.12f}"

    def sweep_kernel_agreement():
        # the closed-form sweep kernel against the Kraus route it replaces
        state, _ = equilibrium()
        taus = np.linspace(0.0, window, 4)
        starts = bloch_vector(identity_states)
        evolved = heat_exchange_bloch(env, config.j_hz, starts, taus)
        free = f_neq_bloch(evolved, h, config.t_hot_khz)
        dist = trace_distance_bloch(evolved, bloch_vector(state))
        worst = worst_free = 0.0
        for k, tau in enumerate(taus):
            channel = build_heat_exchange(env, config.j_hz, float(tau))
            out = apply_channel(channel, identity_states)
            worst = max(
                worst,
                float(np.abs(density_from_bloch(evolved[:, k]) - out).max()),
                float(np.abs(dist[:, k] - trace_distance(out, state)).max()),
            )
            worst_free = max(
                worst_free,
                float(np.abs(free[:, k] - f_neq(out, h, config.t_hot_khz)).max()),
            )
        passed = worst <= 1e-12 and worst_free <= 1e-12 * free_energy_scale
        return passed, f"max deviation {max(worst, worst_free):.3e}"

    def slow_mode_removal():
        # the pulse builds no generator, so its purpose is checked here
        d = decomposition()
        pair = slow_pair_indices(d)
        if len(pair) != 2:
            return False, f"{len(pair)} slowest decaying modes, expected one pair"
        starts = np.vstack([_base_state(config), bloch_vector(identity_states)])
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
        ("kraus-completeness", kraus_completeness),
        ("damping-equivalence", damping_equivalence),
        ("biorthonormality", biorthonormality),
        ("population-coherence-decoupling", decoupling),
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


def _add_common(parser: argparse.ArgumentParser, table: bool) -> None:
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="config file (default: $MPEMBA_CONFIG, else built-in defaults)",
    )
    parser.add_argument(
        "--populations",
        type=_populations_arg,
        metavar="A,B",
        help="weights of the two x eigenstates in the base state",
    )
    parser.add_argument("--tau-steps", type=int, metavar="N", help="delay-grid size")
    parser.add_argument(
        "--theta-steps", type=int, metavar="N", help="angle-grid size"
    )
    if table:
        parser.add_argument(
            "--out", required=True, metavar="PATH", help="output table path"
        )
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh Namespace per call
    parser = argparse.ArgumentParser(
        prog="mpembasim",
        description="Spectral simulator for anomalous thermal relaxation and "
        "a Mpemba-boosted Otto refrigerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser(
        "spectrum", help="exchange-generator eigenvalues and fixed point"
    )
    _add_common(spectrum, table=False)
    spectrum.add_argument(
        "--tau", type=float, default=1.0, metavar="MS", help="exchange delay in ms"
    )
    spectrum.add_argument("--out", metavar="PATH", help="optional table path")
    spectrum.add_argument("--format", choices=("csv", "json"), default="csv")
    spectrum.set_defaults(handler=cmd_spectrum)

    for name, handler, help_text in (
        ("surface", cmd_surface, "free-energy excess over the angle/delay grid"),
        ("cooling", cmd_cooling,
         "relaxation curves with and without the acceleration"),
        ("otto-distance", cmd_otto_distance,
         "exchange-stroke distance curves of the cycle"),
        ("otto-ratio", cmd_otto_ratio,
         "cycle-power ratio across distance thresholds"),
    ):
        command = sub.add_parser(name, help=help_text)
        _add_common(command, table=True)
        command.set_defaults(handler=handler)

    verify = sub.add_parser("verify", help="run the full invariant battery")
    _add_common(verify, table=False)
    verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except MpembaSimError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
