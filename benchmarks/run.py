#!/usr/bin/env python3
"""Benchmark of the ``mpembasim`` package: one workload, one seed, one run.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload {cli-defaults,sweep-large,cycle-scan}
        --seed N --seconds S --trace {0,1} [--out REPORT.json]

The package is imported from ``src/`` next to this directory; nothing is
installed.  The load is one process with one client in a closed loop; BLAS
thread pools are pinned to one thread.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median over several fresh interpreters of the time to import
  the package and build the workload's inputs up to the first operation;
* ``op_p50_ms``: median operation latency.  An operation is one round of the
  six subcommands (cli-defaults), one round of the four large sweeps
  (sweep-large) or one analysed configuration (cycle-scan);
* ``work_per_s``: work completed per second of operation time: subcommand
  calls, (state x delay) points, or configurations;
* ``peak_rss_mb``: peak resident memory of the workload process, or of its
  children for cli-defaults.

The three timings are scaled to a reference machine speed measured during
the run by ``speed.py``, because the speed of a shared machine drifts between
runs; the raw wall-clock values are printed in the report lines.

``--trace 1`` alternates untraced operations with operations that run with
spans around every traced public function (see ``tracer.py``), and reports
per-function ``calls``/``self_s``/``errors``, the two waste ratios, each
layer's share of traced wall time, the subcommand wall times, the import
profile and the tracing overhead.

Every operation's output is checked against closed forms (``reference.py``);
an operation that raises, exits nonzero or fails the check counts as failed.
The last line of stdout is the JSON result; the lines before it are a
readable report that also names the per-workload metrics.  The exit code is 1
when any operation failed, 2 when the package sources are missing and 3 when
the reference check's self-test lets a planted error through.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_REPEATS = 5

#: ``python -X importtime`` runs for the import profile
IMPORT_REPEATS = 3

CLI_COMMANDS = ("spectrum", "surface", "cooling", "otto-distance", "otto-ratio", "verify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("cli-defaults", "sweep-large", "cycle-scan")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", help="also write the full report as JSON")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; ``(None, None)`` below eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


class Phase:
    """Timings and checks of a run of consecutive operations."""

    def __init__(self):
        self.durations = []
        self.windows = []
        self.work = 0
        self.failed = 0
        self.problems = []
        self.walls = {}
        self.children = []
        self.rss_kb = 0


def run_operation(workload, op, phase: Phase, traced=False, tracer=None) -> None:
    """Run, time and check one operation, and book it into ``phase``."""
    if tracer is not None:
        tracer.install()
        tracer.begin_operation()
    started = perf_counter()
    try:
        try:
            outcome = workload.run(op, traced)
        finally:
            duration = perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        problems = workload.check(op, outcome)
    except Exception as exc:  # one failed operation is counted, not fatal
        outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
    phase.durations.append(duration)
    phase.windows.append((started, started + duration))
    phase.work += workload.work(op)
    if outcome is not None:
        for call in outcome.calls:
            phase.walls.setdefault(call.command, []).append(call.wall_s)
            if call.summary is not None:
                phase.children.append(call.summary)
        phase.rss_kb = max(phase.rss_kb, workload.rss_kb(outcome))
    if problems:
        phase.failed += 1
        flat = [" ".join(problem.split()) for problem in problems]
        phase.problems += flat[: max(0, 5 - len(phase.problems))]


def keep_going(started: float, seconds: float, last: float) -> bool:
    """Start another operation only if, at the length of the last one, it
    would end less than half an operation past the deadline; runs of a few
    long operations then do not flip between n and n + 1 of them."""
    return perf_counter() + 0.5 * last < started + seconds


def measure(workload, seconds=None, count=None) -> Phase:
    """Run operations untraced for about ``seconds``, or exactly ``count`` of them."""
    phase = Phase()
    started = perf_counter()
    index = 0
    while index == 0 or (
        index < count if count is not None else keep_going(started, seconds, phase.durations[-1])
    ):
        run_operation(workload, workload.prepare(index), phase)
        index += 1
    return phase


def measure_paired(workload, seconds: float, tracer) -> tuple:
    """Alternate untraced and traced operations for about ``seconds``.

    Alternating keeps drift in machine speed out of the overhead estimate.
    The two passes draw distinct operation inputs (even and odd indices), so
    a cache inside the program cannot hit on the traced pass alone.  With
    ``tracer`` None the traced pass runs in traced child processes.
    """
    untraced, traced = Phase(), Phase()
    started = perf_counter()
    index = 0
    while index == 0 or keep_going(
        started, seconds, untraced.durations[-1] + traced.durations[-1]
    ):
        run_operation(workload, workload.prepare(2 * index), untraced)
        run_operation(
            workload, workload.prepare(2 * index + 1), traced, traced=True, tracer=tracer
        )
        index += 1
    return untraced, traced


def setup_seconds(args, workdir: str, pause) -> list:
    """Wall time of fresh interpreters that import the package and build
    inputs, as ``(seconds, start, end)``."""
    times = []
    for k in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup{k}")
        os.mkdir(probe_dir)
        command = [
            sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        ]
        with pause():
            started = perf_counter()
            done = subprocess.run(command, cwd=probe_dir, capture_output=True, text=True)
            ended = perf_counter()
            times.append((ended - started, started, ended))
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return times


def import_profile() -> dict:
    """Median ``-X importtime`` cumulative seconds of the package and of scipy.linalg."""
    package, scipy_linalg = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mpembasim.cli"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        total = linalg = 0
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative_us, name = int(parts[1]), parts[2]
            depth = len(name) - len(name.lstrip()) - 1
            if depth == 0 and name.strip().startswith("mpembasim"):
                total += cumulative_us
            if name.strip() in ("scipy", "scipy.linalg"):
                linalg += cumulative_us
        package.append(total / 1e6)
        scipy_linalg.append(linalg / 1e6)
    return {
        "import_s": statistics.median(package),
        "scipy_linalg_s": statistics.median(scipy_linalg),
    }


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        found = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: found.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        from threadpoolctl import threadpool_info

        pools = threadpool_info()
    except ImportError:
        pools = "threadpoolctl not installed"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_pools": pools,
    }


def layer_report(workload, untraced: Phase, traced: Phase, tracer) -> tuple:
    """Per-layer metrics of a traced run, and the extra detail for the report."""
    import tracer as tracing

    if tracer is not None:
        functions, counters, import_s = tracer.summary(), tracer.counters(), 0.0
    else:
        # cli-defaults: every traced child wrote its own summary
        functions = {
            name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "errors": 0} for name in tracing.NAMES
        }
        counters, import_s = {}, 0.0
        for child in traced.children:
            import_s += child["import_s"]
            for name, stats in child["functions"].items():
                for key, value in stats.items():
                    functions[name][key] += value
            for key, value in child["counters"].items():
                counters[key] = counters.get(key, 0) + value
    metrics = {}
    for name in tracing.NAMES:
        stats = functions[name]
        metrics[f"{name}.calls"] = (stats["calls"], "count")
        metrics[f"{name}.self_s"] = (stats["self_s"], "s")
        metrics[f"{name}.errors"] = (stats["errors"], "count")
    metrics["config_io.write_table.rows"] = (counters.get("rows_written", 0), "count")

    for command in CLI_COMMANDS:
        walls = untraced.walls.get(command)
        metrics[f"cli.{command}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    profile = import_profile()
    metrics["cli.import_s"] = (profile["import_s"], "s")
    metrics["cli.import.scipy_linalg_s"] = (profile["scipy_linalg_s"], "s")

    def ratio(part: int, whole: int) -> tuple:
        return (part / whole if whole else 0.0, "ratio")

    metrics["channels.build_heat_exchange.repeat_ratio"] = ratio(
        counters.get("exchange_repeats", 0), counters.get("exchange_calls", 0)
    )
    metrics["mpemba.mpemba_unitary.probe_ratio"] = ratio(
        counters.get("probe_decompositions", 0), functions["mpemba.mpemba_unitary"]["calls"]
    )

    total = sum(traced.durations)
    shares = {name.split(".", 1)[0]: 0.0 for name in tracing.NAMES}
    for name in tracing.NAMES:
        shares[name.split(".", 1)[0]] += functions[name]["self_s"] / total
    shares["import"] = import_s / total
    shares["other"] = 1.0 - sum(shares.values())
    for layer, share in shares.items():
        metrics[f"share.{layer}"] = (share, "fraction")

    ops = len(traced.durations)
    untraced_op = sum(untraced.durations) / ops
    traced_op = total / ops
    metrics["trace.untraced_op_s"] = (untraced_op, "s")
    metrics["trace.traced_op_s"] = (traced_op, "s")
    metrics["trace.overhead_s"] = (traced_op - untraced_op, "s")
    metrics["trace.overhead_frac"] = ((traced_op - untraced_op) / untraced_op, "fraction")
    metrics["trace.spans"] = (counters.get("spans", 0), "count")
    detail = {
        "functions": functions,
        "counters": counters,
        "operations_traced": ops,
        "shares": shares,
    }
    return metrics, detail


def separation(workload: str, shares: dict) -> str:
    """Whether the traced shares separate the layers as the workload claims."""
    claimed = {
        "cycle-scan": ("numerics", "liouville"),
        "sweep-large": ("channels", "operators", "thermo"),
        "cli-defaults": ("import",),
    }[workload]
    part, claim = sum(shares[layer] for layer in claimed), " + ".join(claimed)
    verdict = "separates as claimed" if part > 0.5 else "does NOT separate as claimed"
    return f"{claim} carry {100 * part:.1f}% of traced wall time: {verdict}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mpembasim", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC  # for every child interpreter
    sys.path.insert(0, SRC)

    # modules that import numpy come after the thread settings above
    import reference
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, os.getcwd()).setup()
        return 0

    missed = reference.selftest()
    if missed:
        print("error: the reference check lets wrong outputs through:", *missed,
              sep="\n  ", file=sys.stderr)
        return 3

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def start_workload(workload) -> None:
    """Build the inputs, confirm the package comes from ``src``, and warm up."""
    workload.setup()
    import mpembasim

    if os.path.dirname(os.path.dirname(os.path.abspath(mpembasim.__file__))) != SRC:
        raise RuntimeError(f"imported mpembasim from {mpembasim.__file__}, not from {SRC}")
    workload.warm_up()


def run(args, workloads, workdir: str) -> int:
    import speed

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
    }
    if args.trace:
        import tracer as tracing

        start_workload(workload)
        spans = None if args.workload == "cli-defaults" else tracing.Tracer()
        untraced, traced = measure_paired(workload, args.seconds, spans)
        phases = (untraced, traced)
        metrics, detail = layer_report(workload, untraced, traced, spans)
        detail["separation"] = separation(args.workload, detail["shares"])
        report["layers"] = detail
    else:
        with speed.SpeedSampler() as sampler:
            setups = setup_seconds(args, workdir, sampler.paused)
            workload.pause = sampler.paused
            start_workload(workload)
            main_phase = measure(workload, seconds=args.seconds)
        phases = (main_phase,)
        setup_s = [sampler.scaled(t0, t1) for _, t0, t1 in setups]
        scaled = [sampler.scaled(t0, t1) for t0, t1 in main_phase.windows]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
            "work_per_s": (main_phase.work / sum(scaled), "1/s"),
            "peak_rss_mb": (main_phase.rss_kb / 1024.0, "MB"),
        }
        slowdown = sum(main_phase.durations) / sum(scaled)
        report["speed"] = {
            "setup_slowdown": statistics.median(s for s, _, _ in setups) / metrics["setup_s"][0],
            "run_slowdown": slowdown,
            "samples": len(sampler.samples),
            "setup_runs_s": [s for s, _, _ in setups],
        }
        report["named"] = named_metrics(args.workload, workload, main_phase, scaled, metrics)
    report["inputs"] = {**workload.describe(), "work_unit": workload.work_unit}

    attempted = sum(len(phase.durations) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    problems = [problem for phase in phases for problem in phase.problems][:5]
    report["operations"] = {
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "problems": problems,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    report["result"] = result
    print_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
            handle.write("\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def named_metrics(name: str, workload, phase: Phase, scaled: list, metrics: dict) -> dict:
    """The workload's metrics under their per-workload names.

    Times are at reference machine speed, like the result line; ``raw`` is
    the wall-clock value as measured.
    """
    n = len(scaled)

    def timing(values, scale: float, unit: str, note: str, pick) -> dict:
        value, raw = pick(values), pick(phase.durations)
        if value is None:
            return {"value": None, "unit": unit, "note": note}
        return {"value": value * scale, "raw": raw * scale, "unit": unit, "note": note}

    def tail_value(values):
        return tail(values)[0]

    percentile = tail(scaled)[1]
    tail_note = (
        f"p{percentile:.2f} of {n} samples" if percentile is not None
        else f"not reported: {n} samples, at least 11 needed"
    )
    per_s = {
        "value": metrics["work_per_s"][0],
        "raw": phase.work / sum(phase.durations),
        "unit": "1/s",
    }
    named = {
        "setup_s": {"value": metrics["setup_s"][0], "unit": "s"},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"][0], "unit": "MB"},
        "failed_fraction": {
            "value": phase.failed / n,
            "unit": "fraction",
            "note": f"{phase.failed} of {n} operations",
        },
    }
    if name == "cli-defaults":
        named["cli_suite_s"] = timing(scaled, 1.0, "s", f"median of {n} rounds", statistics.median)
        named["cli_suite_tail_s"] = timing(scaled, 1.0, "s", tail_note, tail_value)
    elif name == "sweep-large":
        note = f"{workload.work(None)} points per round, {n} rounds"
        named["sweep_points_per_s"] = {**per_s, "note": note}
    else:
        named["scan_configs_per_s"] = {**per_s, "note": f"{n} configs"}
        named["scan_op_p50_ms"] = timing(scaled, 1000.0, "ms", f"median of {n}", statistics.median)
        named["scan_op_tail_ms"] = timing(scaled, 1000.0, "ms", tail_note, tail_value)
    return named


def print_report(report: dict) -> None:
    print(f"# workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    print("# machine " + json.dumps(report["machine"], default=str))
    print("# inputs " + json.dumps(report["inputs"], default=str))
    speed = report.get("speed")
    if speed:
        print(f"# machine slowdown against the reference kernel: setup "
              f"{speed['setup_slowdown']:.3f}, run {speed['run_slowdown']:.3f} "
              f"({speed['samples']} samples)")
    for name, entry in report.get("named", {}).items():
        raw = f"  raw {entry['raw']:.6g}" if "raw" in entry else ""
        note = f"  ({entry['note']})" if "note" in entry else ""
        print(f"# {name} = {entry['value']} {entry['unit']}{raw}{note}")
    layers = report.get("layers")
    if layers:
        print("# function  calls  self_s  incl_s  errors")
        for name, stats in layers["functions"].items():
            if stats["calls"]:
                print(f"#   {name}  {stats['calls']}  {stats['self_s']:.6f}  "
                      f"{stats['incl_s']:.6f}  {stats['errors']}")
        shares = layers["shares"].items()
        print("# shares " + "  ".join(f"{layer} {100 * share:.1f}%" for layer, share in shares))
        print(f"# separation: {layers['separation']}")
    operations = report["operations"]
    print(f"# operations attempted {operations['attempted']}, failed {operations['failed']} "
          f"(failed_fraction {operations['failed_fraction']:.4g})")
    for problem in operations["problems"]:
        print(f"#   problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
