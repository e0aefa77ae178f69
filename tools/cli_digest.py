"""Hash the output of every mpembasim subcommand, for byte-identity checks.

Usage::

    python3 tools/cli_digest.py SRC_DIR

Runs the package found in ``SRC_DIR`` (the directory holding ``mpembasim/``)
as fresh processes: all six subcommands at the default grids and, except
``spectrum``, which takes no grid flag, at ``--theta-steps 200 --tau-steps
4096`` (each given only the grid flags it takes, :data:`GRID_FLAGS`), each
table command in csv and json,
and then every subcommand once more with a config file (:data:`CONFIG`) that
sets each key to a value other than its default, so that config parsing and
validation are covered as well; its ``output_precision`` of 10 puts the
table commands' csv and json cells through a precision other than the
default 12.  Then ``spectrum`` runs at the delays of
:data:`SPECTRUM_DELAYS`, at the default grid, in csv and json, and
``surface`` at :data:`SPLIT_GRID`, whose delay grid is longer than one
block of the table writer, in csv and json.  Last come
``--help`` for the program and each subcommand, the failing runs of
:data:`ERROR_RUNS`: a numerical error, a config error, and a ``cooling`` and
a ``spectrum`` whose table cannot be written, a ``spectrum`` given the
empty config path ``--config ""``, a ``verify`` whose battery fails, the
two runs of :data:`CAP_RUNS` at the grid cap, the two runs of
:data:`NO_CROSSING_RUNS` on a grid too short to cross, one ``spectrum`` and
one ``verify`` per physics refusal of :data:`REFUSALS`, each through its own
config file, and a ``verify`` given a config path that does not exist
(:data:`MISSING_CONFIG`).
Every run gets its own temporary working directory, which holds every
config file, and a fixed relative output name, so paths echoed to stdout
match between checkouts, and ``COLUMNS=80``, so argparse wraps help and
usage text the same way in any terminal.  One SHA-256 line is printed per
stdout, per table, and per stderr that is not empty: 132 lines in all (131
for a package that ignores an empty ``--config``, whose run then succeeds
and writes no stderr).

Two checkouts are byte-identical when the printouts of both are::

    python3 tools/cli_digest.py old/src > old.txt
    python3 tools/cli_digest.py new/src > new.txt
    diff old.txt new.txt

The large ``surface`` run writes 819,200 rows; the runs go one at a time.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

GRIDS = (
    ("default", {}),
    ("large", {"--theta-steps": "200", "--tau-steps": "4096"}),
)
#: the grid flags of the subcommands that do not take both
GRID_FLAGS = {"spectrum": (), "verify": ("--tau-steps",)}
TABLE_COMMANDS = ("spectrum", "surface", "cooling", "otto-distance", "otto-ratio")

#: every config key, none at its default
CONFIG = """\
[experiment]
nu0_khz = 1.1
nu1_khz = 2.3
j_hz = 230.0
t_hot_khz = 5.2
t_cold_khz = 2.5
tau1_us = 120.0
tau_bar_ms = 4.2
populations = 0.25, 0.75
theta_steps = 37
tau_steps = 97
epsilon_equilibrium_khz = 0.02
output_precision = 10
"""
CONFIG_NAME = "run.cfg"

#: config files the physics checks refuse (exit 3, the message on stderr):
#: the domain of the parameters, then the edges of the float range
REFUSALS = {
    "nu1-below-nu0.cfg": "nu1_khz = 0.5\n",
    "cold-temperature.cfg": "t_cold_khz = 0\n",
    "coupling.cfg": "j_hz = -1\n",
    "coupling-nan.cfg": "j_hz = nan\n",
    "tau1-underflow.cfg": "tau1_us = 5e-324\n",
    "window-overflow.cfg": "j_hz = 5e-324\n",
    "field-overflow.cfg": "nu1_khz = 1e308\n",
    "ramp-overflow.cfg": "nu1_khz = 1e300\ntau1_us = 1e308\n",
}

#: a config path that no run creates
MISSING_CONFIG = "missing.cfg"

#: ``spectrum`` delays besides its default of 1 ms
SPECTRUM_DELAYS = ("0.3", "1e-9")

#: a surface grid whose delay axis is longer than one block of
#: ``config_io.BLOCK_ROWS = 4096`` rows, so each angle's rows span two blocks
SPLIT_GRID = ("--theta-steps", "3", "--tau-steps", "4099")

#: runs that fail: a numerical error (exit 2), then a config error, two IO
#: errors, where a table command's table cannot be written, an IO error for
#: a config path given as the empty string, and a ``verify`` whose
#: ``power-ratio-floor`` fails on a grid too short to cross (exit 1)
ERROR_RUNS = (
    ("otto-ratio", "--tau-steps", "2", "--out", "table.csv"),
    ("spectrum", "--tau", "0"),
    ("cooling", "--out", "missing/a.csv"),
    ("spectrum", "--out", "missing/a.csv"),
    ("spectrum", "--config", ""),
    ("verify", "--tau-steps", "2"),
)

#: runs at the grid cap of MAX_GRID_POINTS = 2**22: an angle grid that
#: otto-ratio never builds, and a surface whose angle x delay grid is over it
CAP_RUNS = (
    ("otto-ratio", "--theta-steps", "1000000", "--tau-steps", "64", "--out", "table.csv"),
    ("surface", "--theta-steps", "2049", "--tau-steps", "2049", "--out", "table.csv"),
)

#: runs on a two-point delay grid, where the curves do not cross: each table
#: command that reports a crossing prints its no-crossing summary instead
NO_CROSSING_RUNS = (
    ("cooling", "--tau-steps", "2", "--out", "table.csv"),
    ("otto-distance", "--tau-steps", "2", "--out", "table.csv"),
)


def grid_args(command: str, grid: dict) -> list:
    """The flags of ``grid`` that ``command`` takes, with their values."""
    flags = GRID_FLAGS.get(command, grid)
    return [arg for flag in flags if flag in grid for arg in (flag, grid[flag])]


def runs():
    """(label, argv, table name or None) for every run, in a fixed order."""
    for grid, sizes in GRIDS:
        for fmt in ("csv", "json"):
            table = f"table.{fmt}"
            for command in TABLE_COMMANDS:
                if sizes and not grid_args(command, sizes):
                    continue  # it would repeat the default run
                argv = [command, *grid_args(command, sizes), "--out", table, "--format", fmt]
                yield f"{command} {grid} {fmt}", argv, table
        yield f"verify {grid}", ["verify", *grid_args("verify", sizes)], None
    for fmt in ("csv", "json"):
        table = f"table.{fmt}"
        for command in TABLE_COMMANDS:
            argv = [command, "--config", CONFIG_NAME, "--out", table, "--format", fmt]
            yield f"{command} config {fmt}", argv, table
    yield "verify config", ["verify", "--config", CONFIG_NAME], None
    for tau in SPECTRUM_DELAYS:
        for fmt in ("csv", "json"):
            table = f"table.{fmt}"
            argv = ["spectrum", "--tau", tau, "--out", table, "--format", fmt]
            yield f"spectrum --tau {tau} default {fmt}", argv, table
    for fmt in ("csv", "json"):
        table = f"table.{fmt}"
        argv = ["surface", *SPLIT_GRID, "--out", table, "--format", fmt]
        yield f"surface split {fmt}", argv, table
    yield "--help", ["--help"], None
    for command in (*TABLE_COMMANDS, "verify"):
        yield f"{command} --help", [command, "--help"], None
    for argv in ERROR_RUNS:
        yield " ".join(argv), list(argv), None
    for argv in (*CAP_RUNS, *NO_CROSSING_RUNS):
        yield " ".join(argv), list(argv), "table.csv"
    for name in REFUSALS:
        yield f"spectrum --config {name}", ["spectrum", "--config", name], None
    for name in (*REFUSALS, MISSING_CONFIG):
        yield f"verify --config {name}", ["verify", "--config", name], None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    if not os.path.isdir(os.path.join(src, "mpembasim")):
        print(f"no mpembasim package under {src}", file=sys.stderr)
        return 2
    env = {key: value for key, value in os.environ.items() if key != "MPEMBA_CONFIG"}
    env["PYTHONPATH"] = src
    env["COLUMNS"] = "80"
    for label, args, table in runs():
        with tempfile.TemporaryDirectory() as workdir:
            for name, text in {CONFIG_NAME: CONFIG, **REFUSALS}.items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                    handle.write(text)
            done = subprocess.run(
                [sys.executable, "-m", "mpembasim.cli", *args],
                cwd=workdir,
                env=env,
                capture_output=True,
                check=False,
            )
            print(f"{sha256(done.stdout)}  {label} stdout (exit {done.returncode})")
            if done.stderr:
                print(f"{sha256(done.stderr)}  {label} stderr")
            if table is not None:
                path = os.path.join(workdir, table)
                if os.path.exists(path):
                    with open(path, "rb") as handle:
                        print(f"{sha256(handle.read())}  {label} table")
                else:
                    print(f"{'-' * 64}  {label} table (missing)")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
