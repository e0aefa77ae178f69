"""Compare benchmark reports metric by metric against the bounds of BENCHMARK.json.

Usage::

    python3 tools/bench_compare.py OLD.json NEW.json
    python3 tools/bench_compare.py BENCH_<n>.json

``OLD.json`` and ``NEW.json`` are reports written by ``python3
benchmarks/run.py --out REPORT.json``, or JSON lists of such reports.  A
``BENCH_<n>.json`` file at the repository root holds ``{"parent": [...],
"change": [...]}``, the reports of one change and of its parent commit.
Given alone, its parent side is compared with its change side; given as
``OLD`` or ``NEW``, it stands for its change side, so consecutive files read
as the performance trajectory.

Only untraced reports (``--trace 0``) carry the end-to-end metrics; traced
ones are skipped.  For every workload present on both sides and every
end-to-end metric of ``BENCHMARK.json``, one line gives the median of each
side over its reports, the number of reports and the relative change.  A
change worse than the metric's bound is flagged ``BEYOND BOUND``, and so is
a rise in the fraction of failed operations.  Each timing line (``setup_s``,
``op_p50_ms``, ``work_per_s``) also gives how many seed-matched pairs of
reports the change won (``won k/n``: the change's value is better than the
parent's at the same seed; a tie counts for neither side) and the parent's
first and third quartiles (``parent q1/q3``), so a claimed gain can be read
against the spread of the parent's runs.  The ``peak_rss_mb`` line also
gives each side's median number of operations per run (``ops``), since the
harness keeps a timing record per operation and a faster side that completes
more operations reads a little higher for that alone.  The ``setup_s`` line
also gives each side's median raw setup time (``raw``, the median over its
reports of each report's ``speed.setup_runs_s`` median), since ``setup_s`` is
scaled by a per-run machine-speed factor that swings widely.  The exit code
is 1 when anything is flagged and 0 otherwise.  Nothing is written.  ``-h``
and ``--help`` print this text; any other option prints it to stderr and
exits 2.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str, side: str = "change") -> dict:
    """Untraced reports of a file, grouped by workload."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and side in data:
        data = data[side]
    reports = data if isinstance(data, list) else [data]
    grouped = {}
    for report in reports:
        if report.get("trace", 0) == 0:
            grouped.setdefault(report["workload"], []).append(report)
    return grouped


def _median(reports: list, name: str) -> float:
    return statistics.median(report["result"]["metrics"][name]["value"] for report in reports)


def _median_attempted(reports: list) -> float:
    return statistics.median(report["result"]["attempted"] for report in reports)


def _median_raw_setup(reports: list) -> float:
    return statistics.median(
        statistics.median(report["speed"]["setup_runs_s"]) for report in reports
    )


def _wins(before: list, after: list, name: str, better: str) -> tuple:
    """How many pairs of reports with the same seed the change won, and the
    number of such pairs; a report without a seed is in no pair."""
    old, new = (
        {report.get("seed"): report["result"]["metrics"][name]["value"] for report in side}
        for side in (before, after)
    )
    sign = 1.0 if better == "lower" else -1.0
    seeds = (old.keys() & new.keys()) - {None}
    return sum(sign * (old[seed] - new[seed]) > 0.0 for seed in seeds), len(seeds)


def _quartiles(reports: list, name: str) -> tuple:
    """First and third quartiles of the metric over the reports, with linear
    interpolation between order statistics (numpy's default)."""
    values = [report["result"]["metrics"][name]["value"] for report in reports]
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _failed_fraction(reports: list) -> float:
    attempted = sum(report["result"]["attempted"] for report in reports)
    return sum(report["result"]["failed"] for report in reports) / attempted


def compare(old: dict, new: dict, end_to_end: list) -> tuple:
    """Report lines for every shared workload, and the number of flags among them."""
    lines, flags = [], 0
    for workload in sorted(set(old) & set(new)):
        before, after = old[workload], new[workload]
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            a, b = _median(before, name), _median(after, name)
            change = (b - a) / a
            worse = change if metric["better"] == "lower" else -change
            flag = worse > bound
            flags += flag
            if name == "peak_rss_mb":
                extra = f"  ops {_median_attempted(before):g} -> {_median_attempted(after):g}"
            else:
                won, pairs = _wins(before, after, name, metric["better"])
                q1, q3 = _quartiles(before, name)
                extra = f"  won {won}/{pairs}  parent q1/q3 {q1:.6g}/{q3:.6g}"
            if name == "setup_s":
                extra += (
                    f"  raw {_median_raw_setup(before):.3g} -> "
                    f"{_median_raw_setup(after):.3g} s"
                )
            lines.append(
                f"{workload:13s} {name:12s} {a:12.6g} -> {b:12.6g} {metric['unit']:4s} "
                f"(n={len(before)}/{len(after)}) {100.0 * change:+7.1f}%{extra}"
                + (f"  BEYOND BOUND ({100.0 * bound:.0f}%)" if flag else "")
            )
        a, b = _failed_fraction(before), _failed_fraction(after)
        flags += b > a
        lines.append(
            f"{workload:13s} {'failed':12s} {a:12.6g} -> {b:12.6g} fraction"
            + ("  BEYOND BOUND (0)" if b > a else "")
        )
    return lines, flags


def main(argv: list) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    if any(arg.startswith("-") for arg in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if len(argv) == 1:
        old, new = load(argv[0], "parent"), load(argv[0], "change")
    elif len(argv) == 2:
        old, new = load(argv[0]), load(argv[1])
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    lines, flags = compare(old, new, end_to_end)
    if not lines:
        print("no workload has untraced reports on both sides", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
