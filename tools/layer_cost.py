"""Time each step of the Liouville reference stack and of the cycle, per call.

Usage::

    python3 tools/layer_cost.py SRC_DIR [SRC_DIR ...] [--rounds N]

Each ``SRC_DIR`` is a directory holding ``mpembasim/``, for example the
``src`` of two checkouts.  Every round starts one fresh interpreter per
directory, in an order that rotates from round to round, so a drift in the
machine's speed falls on every directory alike.  Each interpreter draws the
same seeded inputs from the ``cycle-scan`` ranges of
``benchmarks/workloads.py`` (:data:`RANGES`, a copy) and times, with
:mod:`timeit`, each function of :data:`LAYERS` over all of them; a layer's
sample is the minimum over the repeats of the time per call.  The inputs are
the ones a ``cycle-scan`` operation hands each function: the exchange at the
spectrum delay, its transfer matrix and generator, the generator times the
delay (the argument of ``extract_generator``'s round trip), and a cycle at
the tunable delay, every other one with the accelerating pulse.  The
``reference_pass`` row times a whole pass of the reference route as one
call: the exchange is built, its generator extracted and decomposed, as a
``cycle-scan`` operation does before its two cycles.

Printed per directory: the median over the rounds of each layer's per-call
minimum, in microseconds; a directory after the first also gets each
median's difference from the first one's.  The exit code is 2 when a
directory holds no package, 1 when an interpreter fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

#: the ranges of ``CycleScan.RANGES`` in ``benchmarks/workloads.py`` (kHz, Hz, ms)
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

#: the functions timed, in the order printed
LAYERS = (
    "build_heat_exchange",
    "transfer_matrix",
    "eig_general",
    "logm_principal",
    "expm",
    "extract_generator",
    "decompose",
    "reference_pass",
    "run_cycle",
)

#: run in each fresh interpreter with the ranges as its argument; prints one
#: JSON line of seconds per call
PROBE = """\
import json, sys, timeit
import numpy as np
from mpembasim import channels, liouville, numerics, otto

ranges = json.loads(sys.argv[1])
rng = np.random.default_rng(28)
inputs = []
for k in range(16):
    v = {key: float(rng.uniform(low, high)) for key, (low, high) in ranges.items()}
    nu0, j_hz = v["nu0_khz"], v["j_hz"]
    window = 500.0 / j_hz
    env = channels.ThermalEnvironment(temperature=v["t_hot_khz"],
                                      gap_frequency=nu0 * v["nu1_over_nu0"])
    tau = v["spectrum_tau_over_window"] * window
    channel = channels.build_heat_exchange(env, j_hz, tau)
    generator = liouville.extract_generator(channel, tau)
    cycle = otto.CycleConfig(
        nu0=nu0, nu1=nu0 * v["nu1_over_nu0"], j_hz=j_hz, t_hot=v["t_hot_khz"],
        t_cold=v["t_cold_khz"], tau1=v["tau1_ms"], tau_bar=v["tau_bar_ms"],
        use_mpemba=bool(k % 2),
    )
    inputs.append((env, j_hz, tau, channel, liouville.transfer_matrix(channel.operators),
                   generator, cycle, v["tau2_over_window"] * window))
calls = {
    "build_heat_exchange": lambda x: channels.build_heat_exchange(x[0], x[1], x[2]),
    "transfer_matrix": lambda x: liouville.transfer_matrix(x[3].operators),
    "eig_general": lambda x: numerics.eig_general(x[5]),
    "logm_principal": lambda x: numerics.logm_principal(x[4]),
    "expm": lambda x: numerics.expm(x[2] * x[5]),
    "extract_generator": lambda x: liouville.extract_generator(x[3], x[2]),
    "decompose": lambda x: liouville.decompose(x[5]),
    "reference_pass": lambda x: liouville.decompose(
        liouville.extract_generator(channels.build_heat_exchange(x[0], x[1], x[2]), x[2])
    ),
    "run_cycle": lambda x: otto.run_cycle(x[6], x[7]),
}
per_call = {}
for name, call in calls.items():
    def loop(call=call):
        for x in inputs:
            call(x)
    best = min(timeit.repeat(loop, number=10, repeat=5))
    per_call[name] = best / (10 * len(inputs))
print(json.dumps(per_call))
"""


def probe(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(RANGES)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"probe of {src} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", metavar="SRC_DIR")
    parser.add_argument("--rounds", type=int, default=10, metavar="N")
    args = parser.parse_args(argv)
    sources = [os.path.abspath(src) for src in args.src]
    for src in sources:
        if not os.path.isdir(os.path.join(src, "mpembasim")):
            print(f"no mpembasim package under {src}", file=sys.stderr)
            return 2
    samples = [[] for _ in sources]
    try:
        for round_ in range(args.rounds):
            for k in range(len(sources)):
                index = (k + round_) % len(sources)
                samples[index].append(probe(sources[index]))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    first = None
    for src, runs in zip(sources, samples):
        medians = {
            layer: 1e6 * statistics.median(run[layer] for run in runs) for layer in LAYERS
        }
        print(src)
        for layer in LAYERS:
            line = f"  {layer:<20} median {medians[layer]:8.2f} us per call  (n={len(runs)})"
            if first is not None:
                gap = medians[layer] - first[layer]
                line += f"  minus the first SRC_DIR's: {gap:+.2f} us ({gap / first[layer]:+.1%})"
            print(line)
        if first is None:
            first = medians
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
