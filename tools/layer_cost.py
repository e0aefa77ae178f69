"""Time each step of the Liouville reference stack and of the cycle, per call.

Usage::

    python3 tools/layer_cost.py SRC_DIR [SRC_DIR ...] [--rounds N]

Each ``SRC_DIR`` holds ``mpembasim/``, for example the ``src`` of two
checkouts.  Each package is imported into this one interpreter under its own
name.  Every round times each layer of :data:`LAYERS` on each package in
turn, in an order that reverses from round to round (ABBA), so a drift in
the machine's speed falls on all alike.  A sample is the best over repeats of
the time per call over 16 inputs.  No input is written here: each package
gets its own ``CycleScan(28, ...)`` from ``benchmarks/workloads.py``, with
the package's ``channels``, ``liouville`` and ``otto`` bound as
``CycleScan.setup`` binds them, and ``prepare(0..15)`` gives the inputs,
``ScanInput`` records.  The reference layers and ``reference_pass`` (build,
extract, decompose) take each input's hot environment at ``spectrum_tau``;
``run_cycle`` takes ``cycle_off`` and ``cycle_on`` in turn at ``tau2``; and
``cycle_scan_op`` is that scan's ``CycleScan.run``.  The inputs are reused
across calls, as ``cycle-scan`` builds its configs in its untimed
``prepare``; so work moved into a config's construction reads there as a
gain.  ``config_and_cycles`` also times that construction: it rebuilds
``cycle_on`` and its plain twin with ``dataclasses.replace`` and runs both.
Each table of ``SweepLarge.FORMATS`` is written by ``config_io.write_table``
alone, at the default physics and ``SweepLarge``'s grids, into a temporary
directory, from rows computed when the package loads.  Last, each table
command of :data:`TABLE_COMMANDS` is timed as ``ExperimentConfig()`` and its
computation at the default grids, with no table written, and ``verify`` as
``cli.main(["verify"])`` with its stdout discarded; these, and the writes,
run once per sample.  Importing this module loads no ``mpembasim`` module.

Printed per directory: each layer's median sample in microseconds, or
``absent`` where the package lacks it; after the first directory, the median
and interquartile range of the per-round ratios to the first's, and a
seeded bootstrap 95% interval of that median.  A ratio counts as resolved
only when its interval excludes 1.  Exit code:
2 when a directory holds no package, 1 when a package fails to load or a
layer raises, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import os
import sys
import tempfile
import timeit
import traceback
from importlib import import_module, util

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# workloads imports reference by name, as benchmarks/run.py does
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
import workloads  # noqa: E402

#: the functions timed, in the order printed, with their modules (None: a
#: pass over several of them)
LAYERS = {
    "build_heat_exchange": "channels",
    "transfer_matrix": "liouville",
    "eig_general": "numerics",
    "log_eigensystem": "numerics",
    "expm": "numerics",
    "extract_generator": "liouville",
    "decompose": "liouville",
    "reference_pass": None,
    "run_cycle": "otto",
    "cycle_scan_op": None,
    "config_and_cycles": None,
}
#: one write row per table of the ``sweep-large`` workload
LAYERS.update({f"write_{command}": "config_io" for command in workloads.SweepLarge.FORMATS})

#: the table commands timed after the layers, each with a fresh default
#: config, and then the whole ``verify`` run in process
TABLE_COMMANDS = ("spectrum", "surface", "cooling", "otto-distance", "otto-ratio")
LAYERS.update(dict.fromkeys((*TABLE_COMMANDS, "verify"), "cli"))

#: resamples of the bootstrap interval of a median ratio
RESAMPLES = 2000


def load(src: str, name: str, workdir: str) -> dict:
    """Import ``src``'s ``mpembasim`` afresh as the package ``name``; map each
    layer to its function and arguments, or to ``None`` where it is absent.
    The write rows write their tables into ``workdir``."""
    for key in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[key]
    root = os.path.join(src, "mpembasim")
    spec = util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    sys.modules[name] = util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    channels, liouville, otto, config_io, cli = (
        import_module(f"{name}.{module}")
        for module in ("channels", "liouville", "otto", "config_io", "cli")
    )

    def reference_pass(env, j_hz, tau):
        channel = channels.build_heat_exchange(env, j_hz, tau)
        return liouville.decompose(liouville.extract_generator(channel, tau))

    def config_and_cycles(op):
        pulsed = dataclasses.replace(op.cycle_on)
        otto.run_cycle(dataclasses.replace(pulsed, use_mpemba=False), op.tau2)
        otto.run_cycle(pulsed, op.tau2)

    scan = workloads.CycleScan(28, workdir)
    # CycleScan.setup would import the installed package: bind this one
    scan.channels, scan.liouville, scan.otto = channels, liouville, otto
    calls = []
    for k in range(16):
        op = scan.prepare(k)
        j_hz, tau = op.model.j_hz, op.spectrum_tau
        env = channels.ThermalEnvironment(op.model.t_hot, op.model.nu1)
        channel = channels.build_heat_exchange(env, j_hz, tau)
        generator = liouville.extract_generator(channel, tau)
        # the arguments of each layer, in the order of LAYERS
        calls.append((
            (env, j_hz, tau), (channel.operators,), (generator,),
            (liouville.transfer_matrix(channel.operators),), (tau * generator,),
            (channel, tau), (generator,), (env, j_hz, tau),
            ((op.cycle_off, op.cycle_on)[k % 2], op.tau2), (op,), (op,),
        ))
    passes = {
        "reference_pass": reference_pass,
        "cycle_scan_op": scan.run,
        "config_and_cycles": config_and_cycles,
    }
    computations = {command: compute for command, _, _, compute, _ in cli._SUBCOMMANDS}

    def table(compute, args):
        compute(config_io.ExperimentConfig(), args)

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify"])

    def written(command):
        sweep = workloads.SweepLarge
        fmt = sweep.FORMATS[command]
        grid = sweep.SURFACE_TAU_STEPS if command == "surface" else sweep.TAU_STEPS
        config = config_io.ExperimentConfig(theta_steps=sweep.THETA_STEPS, tau_steps=grid)
        args = cli._build_parser().parse_args([command, "--out", f"{command}.{fmt}"])
        rows, schema, _ = computations[command](config, args)
        path = os.path.join(workdir, f"{name}-{command}.{fmt}")
        return rows, schema, path, fmt, config.output_precision

    layers = {}
    for column, (layer, module) in enumerate(LAYERS.items()):
        if layer == "verify":
            layers[layer] = (verify, [()])
            continue
        if module == "config_io":
            command = layer.removeprefix("write_")
            layers[layer] = (config_io.write_table, [written(command)])
            continue
        if module == "cli":
            args = cli._build_parser().parse_args([layer, "--out", "table.csv"])
            layers[layer] = (table, [(computations[layer], args)])
            continue
        module = module and import_module(f"{name}.{module}")
        function = getattr(module, layer, None) if module else passes[layer]
        layers[layer] = (function, [call[column] for call in calls]) if function else None
    return layers


def per_call(function, calls: list) -> float:
    """Seconds per call of ``function`` over ``calls``, the best of 3 repeats."""

    def loop():
        for args in calls:
            function(*args)

    return min(timeit.repeat(loop, number=2, repeat=3)) / (2 * len(calls))


def median_interval(ratios: np.ndarray) -> np.ndarray:
    """Seeded bootstrap 95% interval of the median of ``ratios``: the 2.5th
    and 97.5th percentiles of the medians of :data:`RESAMPLES` resamples."""
    draws = np.random.default_rng(0).choice(ratios, size=(RESAMPLES, ratios.size))
    return np.percentile(np.median(draws, axis=1), [2.5, 97.5])


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", metavar="SRC_DIR")
    parser.add_argument("--rounds", type=int, default=40, metavar="N")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sources = [os.path.abspath(src) for src in args.src]
    for src in sources:
        if not os.path.isdir(os.path.join(src, "mpembasim")):
            print(f"no mpembasim package under {src}", file=sys.stderr)
            return 2
    packages, samples = [], [{layer: [] for layer in LAYERS} for _ in sources]
    order = list(range(len(sources)))
    with tempfile.TemporaryDirectory() as workdir:
        try:
            for index in order:
                packages.append(load(sources[index], f"mpembasim_{index}", workdir))
            for _ in range(args.rounds):
                for layer in LAYERS:
                    for index in order:
                        if packages[index][layer]:
                            samples[index][layer].append(per_call(*packages[index][layer]))
                order.reverse()
        except Exception:  # the code under test may raise anything
            print(f"{sources[index]} failed:", file=sys.stderr)
            traceback.print_exc()
            return 1

    for src, times in zip(sources, samples):
        print(src)
        for layer, runs in times.items():
            if not runs:
                print(f"  {layer:<20} absent")
                continue
            line = f"  {layer:<20} median {1e6 * np.median(runs):8.2f} us per call  (n={len(runs)})"
            if times is not samples[0] and samples[0][layer]:
                ratios = np.divide(runs, samples[0][layer])
                low, mid, high = np.percentile(ratios, [25, 50, 75])
                lower, upper = median_interval(ratios)
                line += (
                    f"  ratio to the first: {mid:.3f} (IQR {low:.3f}-{high:.3f},"
                    f" 95% CI {lower:.3f}-{upper:.3f})"
                )
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
