"""Command-line pipelines: spectra, sweeps, refrigerator tables, self checks.

Summaries go to stdout, tables to files.  Exit codes: 0 success, 1
self-check failure, 2 numerical failure, 3 config or IO failure.  The
``verify`` battery lives in :mod:`mpembasim.verify`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

# only verify runs the Liouville route, but the benchmark's tracer imports just
# this module and then looks every traced module up in sys.modules
from . import liouville  # noqa: F401
from .channels import ThermalEnvironment, exchange_spectrum, swap_window
from .config_io import ExperimentConfig, load_config, write_table
from .exceptions import ConfigError, MpembaSimError
from .mpemba import build_theta_family, cooling_curves, free_energy_surface
from .otto import distance_curves, power_ratio
from .thermo import detect_crossing


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
    # a subcommand's namespace holds only the override flags it was given
    overrides = {
        key: value
        for key in ("populations", "tau_steps", "theta_steps")
        if (value := getattr(args, key, None)) is not None
    }
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


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # the battery loads only when it runs

    return verify.cmd_verify(args)


#: the flags that override a config key, in the order the help lists them
_OVERRIDES = {
    "--populations": dict(
        type=_populations_arg,
        metavar="A,B",
        help="weights of the two x eigenstates in the base state",
    ),
    "--tau-steps": dict(type=int, metavar="N", help="delay-grid size"),
    "--theta-steps": dict(type=int, metavar="N", help="angle-grid size"),
}


def _add_common(
    parser: argparse.ArgumentParser, overrides: tuple, table: bool
) -> None:
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="config file (default: $MPEMBA_CONFIG, else built-in defaults)",
    )
    for flag in overrides:
        parser.add_argument(flag, **_OVERRIDES[flag])
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
    _add_common(spectrum, (), table=False)
    spectrum.add_argument(
        "--tau", type=float, default=1.0, metavar="MS", help="exchange delay in ms"
    )
    spectrum.add_argument("--out", metavar="PATH", help="optional table path")
    spectrum.add_argument("--format", choices=("csv", "json"), default="csv")
    spectrum.set_defaults(handler=cmd_spectrum)

    # otto-distance and otto-ratio build no base state and no angle grid,
    # but keep --theta-steps: the benchmark's warm-up passes it to them
    cycle_overrides = ("--tau-steps", "--theta-steps")
    for name, handler, overrides, help_text in (
        ("surface", cmd_surface, tuple(_OVERRIDES),
         "free-energy excess over the angle/delay grid"),
        ("cooling", cmd_cooling, tuple(_OVERRIDES),
         "relaxation curves with and without the acceleration"),
        ("otto-distance", cmd_otto_distance, cycle_overrides,
         "exchange-stroke distance curves of the cycle"),
        ("otto-ratio", cmd_otto_ratio, cycle_overrides,
         "cycle-power ratio across distance thresholds"),
    ):
        command = sub.add_parser(name, help=help_text)
        _add_common(command, overrides, table=True)
        command.set_defaults(handler=handler)

    verify = sub.add_parser("verify", help="run the full invariant battery")
    _add_common(verify, ("--populations", "--tau-steps"), table=False)
    verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
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
