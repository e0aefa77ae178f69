"""Command-line pipelines: spectra, sweeps, refrigerator tables, self checks.

Summaries go to stdout, tables to files.  The five table commands share
one handler, :func:`cmd_table`: it resolves the config, runs the command's
computation ``(config, args) -> (rows, schema, summary_lines)``, writes the
table when ``--out`` is given and only then prints, so a run whose table
cannot be written exits 3 with nothing on stdout.  :data:`_SUBCOMMANDS`
declares each subcommand's help, handler, computation and flags.  Exit
codes: 0 success, 1 self-check failure, 2 numerical failure or an argparse
usage error, 3 config or IO failure.  The ``verify`` battery lives in
:mod:`mpembasim.verify`.
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
from .config_io import MAX_GRID_POINTS, ExperimentConfig, load_config, write_table
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
    # override flags are the namespace's config keys; one not given is None
    keys = {field.name for field in dataclasses.fields(ExperimentConfig)}
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in keys and value is not None
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


def spectrum_table(config: ExperimentConfig, args: argparse.Namespace) -> tuple:
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
    kinds = ("population", "coherence", "coherence", "population")
    rows = [
        (k, eigenvalue, 0.0, kind)
        for k, (eigenvalue, kind) in enumerate(zip(eigenvalues, kinds), start=1)
    ]
    lines = [
        f"exchange-generator spectrum at tau = {tau:g} ms (rates in 1/ms):",
        *(
            f"  lambda_{k} = {eigenvalue:+.9f} +0.000000000i  [{kind}]"
            for k, eigenvalue, _, kind in rows
        ),
        f"fixed-point populations: {populations[0]:.9f}, {populations[1]:.9f}",
    ]
    return rows, ["index", "re_per_ms", "im_per_ms", "kind"], lines


def surface_table(config: ExperimentConfig, args: argparse.Namespace) -> tuple:
    if config.theta_steps * config.tau_steps > MAX_GRID_POINTS:
        raise ConfigError(
            f"theta_steps * tau_steps must be at most {MAX_GRID_POINTS}, "
            f"got {config.theta_steps} * {config.tau_steps}"
        )
    angles = np.linspace(0.0, 2.0 * np.pi, config.theta_steps)
    family = build_theta_family(_base_state(config), angles)
    taus = _tau_grid(config)
    excess = free_energy_surface(family, _hot_environment(config), config.j_hz, taus)
    rows = np.column_stack(
        [np.repeat(angles, taus.size), np.tile(taus, angles.size), excess.ravel()]
    )
    lowest = int(np.argmin(excess[:, 0]))
    lines = [
        f"surface: {len(rows)} rows -> {args.out}",
        f"lowest initial excess {excess[lowest, 0]:.6f} kHz "
        f"at theta = {angles[lowest]:.6f} rad",
    ]
    return rows, ["theta_rad", "tau_ms", "delta_f_neq_khz"], lines


def cooling_table(config: ExperimentConfig, args: argparse.Namespace) -> tuple:
    base = _base_state(config)
    env = _hot_environment(config)
    grid = _tau_grid(config)
    plain = cooling_curves(base, env, config.j_hz, grid, with_mpemba=False)
    accelerated = cooling_curves(base, env, config.j_hz, grid, with_mpemba=True)
    rows = np.column_stack(
        [grid, plain.f_neq, accelerated.f_neq, plain.trace_dist, accelerated.trace_dist]
    )
    crossing = detect_crossing(accelerated, plain, observable="f_neq")
    if crossing.exists:
        kind = "persistent" if crossing.persistent else "transient"
        lines = [
            f"cooling: crossing detected, {kind}, t_cross = {crossing.t_cross:.6f} ms"
        ]
    else:
        lines = ["cooling: no crossing on this grid"]
    eps = config.epsilon_equilibrium_khz
    for trajectory in (plain, accelerated):
        inside = np.flatnonzero(trajectory.f_neq <= eps)
        when = f"tau = {grid[inside[0]]:.6f} ms" if inside.size else "never"
        lines.append(
            f"cooling: {trajectory.label} curve enters the {eps:g} kHz "
            f"neighborhood at {when}"
        )
    schema = ["tau_ms", "delta_f_plain_khz", "delta_f_mb_khz", "dist_plain", "dist_mb"]
    return rows, schema, lines


def otto_distance_table(config: ExperimentConfig, args: argparse.Namespace) -> tuple:
    grid = _tau_grid(config)
    plain, accelerated = distance_curves(config.cycle_config(), grid)
    rows = np.column_stack([grid, plain.trace_dist, accelerated.trace_dist])
    crossing = detect_crossing(accelerated, plain, observable="trace_dist")
    if crossing.exists:
        gap = plain.trace_dist - accelerated.trace_dist
        peak = int(np.argmax(gap))
        lines = [
            f"otto-distance: crossing at tau2 = {crossing.t_cross:.6f} ms",
            f"otto-distance: maximum separation {gap[peak]:.6f} "
            f"at tau2 = {grid[peak]:.6f} ms",
        ]
    else:
        lines = ["otto-distance: no crossing on this grid"]
    return rows, ["tau2_ms", "dist_plain", "dist_mb"], lines


def otto_ratio_table(config: ExperimentConfig, args: argparse.Namespace) -> tuple:
    reports = power_ratio(config.cycle_config(), tau2_grid=_tau_grid(config))
    peak = max(reports, key=lambda report: report.ratio)
    line = (
        f"otto-ratio: peak ratio {peak.ratio:.6f} at delta = {peak.delta:.6f} "
        f"(tau2_plain = {peak.tau2_plain:.6f} ms, tau2_mb = {peak.tau2_mb:.6f} ms)"
    )
    # PowerReport's fields are the table's columns, in order
    return reports, ["delta", "tau2_plain_ms", "tau2_mb_ms", "ratio"], [line]


def cmd_table(args: argparse.Namespace) -> int:
    """Run a table command: compute, write the table if asked, then print."""
    config = _resolve_config(args)
    rows, schema, lines = args.compute(config, args)
    if args.out is not None:
        write_table(rows, schema, args.out, args.format, config.output_precision)
    print("\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # the battery loads only when it runs

    return verify.cmd_verify(args)


#: one (flag, argparse spec) per flag; an override flag's dest is its config key
_CONFIG = ("--config", dict(
    metavar="PATH", help="config file (default: $MPEMBA_CONFIG, else built-in defaults)"
))
_POPULATIONS = ("--populations", dict(
    type=_populations_arg,
    metavar="A,B",
    help="weights of the two x eigenstates in the base state",
))
_TAU_STEPS = ("--tau-steps", dict(type=int, metavar="N", help="delay-grid size"))
_THETA_STEPS = ("--theta-steps", dict(type=int, metavar="N", help="angle-grid size"))
_OUT = ("--out", dict(required=True, metavar="PATH", help="output table path"))
_FORMAT = ("--format", dict(choices=("csv", "json"), default="csv"))

#: (name, help, handler, computation, flags in the order --help lists them).
#: Only surface builds an angle grid, but cooling and the otto commands keep
#: --theta-steps: the benchmark's sweep-large warm-up passes it to all four.
_SUBCOMMANDS = (
    ("spectrum", "exchange-generator eigenvalues and fixed point",
     cmd_table, spectrum_table,
     (_CONFIG,
      ("--tau", dict(type=float, default=1.0, metavar="MS", help="exchange delay in ms")),
      ("--out", dict(metavar="PATH", help="optional table path")),
      _FORMAT)),
    ("surface", "free-energy excess over the angle/delay grid",
     cmd_table, surface_table,
     (_CONFIG, _POPULATIONS, _TAU_STEPS, _THETA_STEPS, _OUT, _FORMAT)),
    ("cooling", "relaxation curves with and without the acceleration",
     cmd_table, cooling_table,
     (_CONFIG, _POPULATIONS, _TAU_STEPS, _THETA_STEPS, _OUT, _FORMAT)),
    ("otto-distance", "exchange-stroke distance curves of the cycle",
     cmd_table, otto_distance_table,
     (_CONFIG, _TAU_STEPS, _THETA_STEPS, _OUT, _FORMAT)),
    ("otto-ratio", "cycle-power ratio across distance thresholds",
     cmd_table, otto_ratio_table,
     (_CONFIG, _TAU_STEPS, _THETA_STEPS, _OUT, _FORMAT)),
    ("verify", "run the full invariant battery",
     cmd_verify, None,
     (_CONFIG, _POPULATIONS, _TAU_STEPS)),
)


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
    for name, help_text, handler, compute, flags in _SUBCOMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag, spec in flags:
            command.add_argument(flag, **spec)
        command.set_defaults(handler=handler, compute=compute)
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
