"""The three benchmark workloads.

Each is a closed loop with one client: the next operation starts when the
previous one has finished.  A workload object builds its inputs from the
seed in :meth:`setup`, hands out operation inputs from :meth:`prepare`
(untimed), runs one operation in :meth:`run` (timed) and checks its outputs
against the closed forms in :mod:`reference` in :meth:`check` (untimed).

* ``cli-defaults``: the six subcommands at the default grids, each in a fresh
  interpreter, as a user reproduces the figures.  Import-bound.
* ``sweep-large``: ``surface`` at 200x200 and ``cooling``, ``otto-distance``
  and ``otto-ratio`` at 4096 delays through ``mpembasim.cli.main`` in
  process.  Bound by the per-point channel, validation and entropy loops.
* ``cycle-scan``: one fresh seeded cycle configuration per operation: a
  spectrum step and two ``run_cycle`` calls.  Bound by ``eig``/``logm`` in the
  probe decomposition; no two operations share inputs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import reference

#: what a console-script install of ``mpembasim`` runs
ENTRY = "import sys; from mpembasim.cli import main; sys.exit(main())"

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

_CROSSING = re.compile(r"crossing at tau2 = (\S+) ms")
_FIXED_POINT = re.compile(r"fixed-point populations: (\S+), (\S+)")


@dataclass
class Call:
    """One subcommand invocation inside an operation."""

    command: str
    wall_s: float
    code: int
    stdout: str
    stderr: str = ""
    rss_kb: int = 0
    summary: dict | None = None


@dataclass
class Outcome:
    calls: list = field(default_factory=list)
    payload: object = None


def read_table(path: str) -> dict:
    """Columns of a csv or json table; numeric columns become float arrays."""
    with open(path, encoding="utf-8") as handle:
        if path.endswith(".json"):
            rows = json.load(handle)
            columns = {key: [row[key] for row in rows] for key in (rows[0] if rows else {})}
        else:
            reader = csv.reader(handle)
            header = next(reader)
            values = list(zip(*reader)) or [()] * len(header)
            columns = dict(zip(header, values))
    out = {}
    for key, values in columns.items():
        try:
            out[key] = np.array([float(v) for v in values])
        except (TypeError, ValueError):
            out[key] = list(values)
    return out


def _remove(paths) -> None:
    """Delete last round's tables, so a call that writes nothing cannot pass."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _config_text(model: reference.Model, theta_steps: int, tau_steps: int) -> str:
    p0, p1 = model.populations
    return (
        "[experiment]\n"
        f"nu0_khz = {model.nu0!r}\n"
        f"nu1_khz = {model.nu1!r}\n"
        f"j_hz = {model.j_hz!r}\n"
        f"tau_bar_ms = {model.tau_bar!r}\n"
        f"t_hot_khz = {model.t_hot!r}\n"
        f"t_cold_khz = {model.t_cold!r}\n"
        f"populations = {p0!r}, {p1!r}\n"
        f"theta_steps = {theta_steps}\n"
        f"tau_steps = {tau_steps}\n"
    )


def _seeded_model(rng: np.random.Generator) -> reference.Model:
    """Default physics with seeded base populations and bath temperatures."""
    p0 = float(rng.uniform(0.05, 0.45))
    return reference.Model(
        nu0=1.0,
        nu1=2.0,
        j_hz=215.1,
        t_hot=float(rng.uniform(4.0, 5.5)),
        t_cold=float(rng.uniform(2.0, 2.8)),
        tau_bar=4.65,
        populations=(p0, 1.0 - p0),
    )


def _table_problems(
    model, command, path, tau_steps, theta_steps, stdout, spectrum_tau=None
) -> list:
    """Closed-form check of one table-writing subcommand's output."""
    try:
        table = read_table(path)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"{command}: table {path} does not parse: {exc}"]
    step = model.window / (tau_steps - 1)
    if command == "surface":
        return reference.check_table(
            command, table, reference.expected_surface(model, theta_steps, tau_steps)
        )
    if command == "cooling":
        return reference.check_table(command, table, reference.expected_cooling(model, tau_steps))
    if command == "otto-distance":
        found = _CROSSING.search(stdout)
        return reference.check_table(
            command, table, reference.expected_distance(model, tau_steps)
        ) + reference.check_crossing(model, float(found.group(1)) if found else None, step)
    if command == "otto-ratio":
        return reference.check_ratio(model, table, step)
    if command == "spectrum":
        found = _FIXED_POINT.search(stdout)
        if "re_per_ms" not in table or "im_per_ms" not in table or not found:
            return ["spectrum: table or fixed point missing"]
        eigenvalues = table["re_per_ms"] + 1j * table["im_per_ms"]
        populations = [float(found.group(1)), float(found.group(2))]
        return reference.check_spectrum(model, spectrum_tau, eigenvalues, populations)
    raise ValueError(f"no table check for {command}")


class CliDefaults:
    """Six subcommands, each a fresh ``mpembasim`` process, at default grids."""

    name = "cli-defaults"
    work_unit = "subcommand calls"
    THETA_STEPS = 73
    TAU_STEPS = 64

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        #: wraps each child process; the speed sampler pauses there
        self.pause = contextlib.nullcontext

    def setup(self) -> None:
        import mpembasim.cli  # noqa: F401  (the import a fresh call pays)

        rng = np.random.default_rng(self.seed)
        self.model = _seeded_model(rng)
        self.spectrum_tau = float(rng.uniform(0.2, 0.8) * self.model.window)
        self.config = os.path.join(self.workdir, "config.ini")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(_config_text(self.model, self.THETA_STEPS, self.TAU_STEPS))
        table = lambda command: os.path.join(self.workdir, f"{command}.csv")  # noqa: E731
        self.commands = [
            ("spectrum", ["--tau", repr(self.spectrum_tau), "--out", table("spectrum")]),
            *(
                (command, ["--out", table(command)])
                for command in ("surface", "cooling", "otto-distance", "otto-ratio")
            ),
            ("verify", []),
        ]
        self.tables = {command: table(command) for command, _ in self.commands[:-1]}

    def describe(self) -> dict:
        return {
            "model": dataclasses.asdict(self.model),
            "theta_steps": self.THETA_STEPS,
            "tau_steps": self.TAU_STEPS,
            "spectrum_tau_ms": self.spectrum_tau,
            "commands": [
                [command, *(os.path.relpath(a, self.workdir) if a.startswith(self.workdir) else a
                            for a in argv)]
                for command, argv in self.commands
            ],
            "work_per_operation": len(self.commands),
        }

    def warm_up(self) -> None:
        pass

    def prepare(self, index: int):
        _remove(self.tables.values())
        return index

    def work(self, op) -> int:
        return len(self.commands)

    def _spawn(self, command: str, argv: list, traced: bool) -> Call:
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        summary_path = os.path.join(self.workdir, "summary.json")
        full = [command, "--config", self.config, *argv]
        if traced:
            args = [sys.executable, CHILD, summary_path, *full]
        else:
            args = [sys.executable, "-c", ENTRY, *full]
        with open(out_path, "w") as out, open(err_path, "w") as err, self.pause():
            started = perf_counter()
            child = subprocess.Popen(args, stdout=out, stderr=err, cwd=self.workdir)
            _, status, usage = os.wait4(child.pid, 0)
            wall = perf_counter() - started
        child.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            call = Call(command, wall, code, out.read(), err.read(), usage.ru_maxrss)
        if traced and code == 0:
            with open(summary_path, encoding="utf-8") as handle:
                call.summary = json.load(handle)
        return call

    def run(self, op, traced: bool = False) -> Outcome:
        return Outcome([self._spawn(command, argv, traced) for command, argv in self.commands])

    def check(self, op, outcome: Outcome) -> list:
        problems = []
        for call in outcome.calls:
            if call.code != 0:
                problems.append(f"{call.command}: exit {call.code}: {call.stderr.strip()[-300:]}")
            elif call.command == "verify":
                lines = call.stdout.splitlines()
                if len(lines) < 9 or not all(line.startswith("PASS ") for line in lines):
                    problems.append(f"verify: not every check passed: {lines}")
            else:
                problems += _table_problems(
                    self.model,
                    call.command,
                    self.tables[call.command],
                    self.TAU_STEPS,
                    self.THETA_STEPS,
                    call.stdout,
                    self.spectrum_tau,
                )
        return problems

    def rss_kb(self, outcome: Outcome) -> int:
        """Peak resident memory of this operation's child processes."""
        return max(call.rss_kb for call in outcome.calls)


class SweepLarge:
    """The four sweeps at large grids through ``mpembasim.cli.main`` in process."""

    name = "sweep-large"
    work_unit = "(state x delay) points"
    THETA_STEPS = 200
    SURFACE_TAU_STEPS = 200
    TAU_STEPS = 4096
    #: one table format per command, so every round writes both formats
    FORMATS = {"surface": "csv", "cooling": "json", "otto-distance": "csv", "otto-ratio": "json"}

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        import mpembasim.cli

        self.cli = mpembasim.cli
        self.model = _seeded_model(np.random.default_rng(self.seed))
        self.config = os.path.join(self.workdir, "config.ini")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(_config_text(self.model, self.THETA_STEPS, self.TAU_STEPS))
        self.commands = []
        for command, fmt in self.FORMATS.items():
            path = os.path.join(self.workdir, f"{command}.{fmt}")
            argv = [command, "--config", self.config, "--out", path, "--format", fmt]
            if command == "surface":
                argv += ["--tau-steps", str(self.SURFACE_TAU_STEPS)]
            self.commands.append((command, argv, path))

    def describe(self) -> dict:
        return {
            "model": dataclasses.asdict(self.model),
            "surface_grid": [self.THETA_STEPS, self.SURFACE_TAU_STEPS],
            "tau_steps": self.TAU_STEPS,
            "formats": self.FORMATS,
            "work_per_operation": self.work(None),
        }

    def work(self, op) -> int:
        # surface: every angle at every delay; the others: two curves each
        return self.THETA_STEPS * self.SURFACE_TAU_STEPS + 3 * 2 * self.TAU_STEPS

    def _main(self, argv: list) -> tuple:
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = self.cli.main(argv)
        return code, captured.getvalue()

    def warm_up(self) -> None:
        for command, argv, _ in self.commands:
            self._main(argv + ["--tau-steps", "8", "--theta-steps", "3"])

    def prepare(self, index: int):
        _remove(path for _, _, path in self.commands)
        return index

    def run(self, op, traced: bool = False) -> Outcome:
        calls = []
        for command, argv, _ in self.commands:
            started = perf_counter()
            code, stdout = self._main(argv)
            calls.append(Call(command, perf_counter() - started, code, stdout))
        return Outcome(calls)

    def check(self, op, outcome: Outcome) -> list:
        problems = []
        for call, (command, _, path) in zip(outcome.calls, self.commands):
            if call.code != 0:
                problems.append(f"{command}: exit {call.code}")
                continue
            tau_steps = self.SURFACE_TAU_STEPS if command == "surface" else self.TAU_STEPS
            problems += _table_problems(
                self.model, command, path, tau_steps, self.THETA_STEPS, call.stdout
            )
        return problems

    def rss_kb(self, outcome: Outcome) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass(frozen=True)
class ScanInput:
    model: reference.Model
    cycle_off: object
    cycle_on: object
    spectrum_tau: float
    tau2: float


class CycleScan:
    """One fresh seeded cycle configuration analysed per operation."""

    name = "cycle-scan"
    work_unit = "configs"
    #: ranges where every step is meant to succeed (kHz, Hz, ms)
    RANGES = {
        "nu0_khz": (0.5, 1.5),
        "nu1_over_nu0": (1.5, 3.0),
        "j_hz": (100.0, 400.0),
        "t_hot_khz": (2.0, 8.0),
        "t_cold_khz": (1.0, 4.0),
        "tau1_ms": (0.02, 0.2),
        "tau_bar_ms": (1.0, 10.0),
        "spectrum_tau_over_window": (0.05, 0.8),
        "tau2_over_window": (0.0, 1.0),
    }

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        from mpembasim import channels, liouville, otto

        self.channels, self.liouville, self.otto = channels, liouville, otto
        self.prepare(0)

    def describe(self) -> dict:
        return {"ranges": self.RANGES, "work_per_operation": 1}

    def work(self, op) -> int:
        return 1

    def _draw(self, rng: np.random.Generator) -> ScanInput:
        value = {key: float(rng.uniform(low, high)) for key, (low, high) in self.RANGES.items()}
        nu0 = value["nu0_khz"]
        model = reference.Model(
            nu0=nu0,
            nu1=nu0 * value["nu1_over_nu0"],
            j_hz=value["j_hz"],
            t_hot=value["t_hot_khz"],
            t_cold=value["t_cold_khz"],
            tau_bar=value["tau_bar_ms"],
        )
        cycle = self.otto.CycleConfig(
            nu0=model.nu0,
            nu1=model.nu1,
            j_hz=model.j_hz,
            t_hot=model.t_hot,
            t_cold=model.t_cold,
            tau1=value["tau1_ms"],
            tau_bar=model.tau_bar,
        )
        return ScanInput(
            model,
            dataclasses.replace(cycle, use_mpemba=False),
            cycle,
            value["spectrum_tau_over_window"] * model.window,
            value["tau2_over_window"] * model.window,
        )

    def warm_up(self) -> None:
        for k in range(20):
            self.run(self._draw(np.random.default_rng([self.seed, k, 1])))

    def prepare(self, index: int) -> ScanInput:
        # one generator per operation, so the traced pass replays the same inputs
        return self._draw(np.random.default_rng([self.seed, index]))

    def run(self, op: ScanInput, traced: bool = False) -> Outcome:
        model = op.model
        environment = self.channels.ThermalEnvironment(
            temperature=model.t_hot, gap_frequency=model.nu1
        )
        channel = self.channels.build_heat_exchange(environment, model.j_hz, op.spectrum_tau)
        decomposition = self.liouville.decompose(
            self.liouville.extract_generator(channel, op.spectrum_tau)
        )
        plain = self.otto.run_cycle(op.cycle_off, op.tau2)
        pulsed = self.otto.run_cycle(op.cycle_on, op.tau2)
        return Outcome(payload=(decomposition, plain, pulsed))

    def check(self, op: ScanInput, outcome: Outcome) -> list:
        decomposition, plain, pulsed = outcome.payload
        problems = reference.check_spectrum(
            op.model,
            op.spectrum_tau,
            decomposition.eigenvalues,
            np.diag(decomposition.fixed_point).real,
        )
        for with_pulse, records in ((False, plain), (True, pulsed)):
            if len(records) != 5:
                problems.append(f"cycle: {len(records)} stroke records, expected 5")
                continue
            energy = math.fsum(r.energy_out - r.energy_in for r in records)
            problems += reference.check_cycle(
                op.model,
                op.tau2,
                with_pulse,
                records[-1].state_after,
                records[2].state_after,
                energy,
            )
        return problems

    def rss_kb(self, outcome: Outcome) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {w.name: w for w in (CliDefaults, SweepLarge, CycleScan)}
