"""Self-test of the benchmark's reference check.

Run with ``python3 -m pytest benchmarks`` from the repository root.  The
check must pass the package's real outputs and count a perturbed state and
a wrong crossing as failures.
"""

import os
import sys

import reference
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MODEL = reference.Model(1.0, 2.0, 215.1, 4.77, 2.38, 4.65, (0.3, 0.7))


def test_selftest_catches_every_planted_error():
    assert reference.selftest() == []


def test_package_output_passes_and_perturbed_state_fails():
    from mpembasim.otto import CycleConfig, distance_curves

    grid = reference.tau_grid(MODEL, 64)
    plain, mb = distance_curves(CycleConfig(), grid)
    table = {"tau2_ms": grid, "dist_plain": plain.trace_dist, "dist_mb": mb.trace_dist}
    expected = reference.expected_distance(MODEL, 64)
    assert reference.check_table("otto-distance", table, expected) == []

    # the state at delay 20 pushed off the damping map by 1e-7 along z
    bent = reference.gad(MODEL, reference.cycle_start(MODEL), grid[20]) + [0.0, 0.0, 1e-7]
    table["dist_plain"] = table["dist_plain"].copy()
    table["dist_plain"][20] = reference.hot_distance(MODEL, bent)
    problems = reference.check_table("otto-distance", table, expected)
    assert len(problems) == 1 and "dist_plain" in problems[0]


def test_wrong_crossing_fails():
    step = MODEL.window / 63
    assert reference.check_crossing(MODEL, reference.crossing_time(MODEL), step) == []
    assert reference.check_crossing(MODEL, 0.87, step)  # the acceptance target, not the physics


def test_failed_check_counts_in_failed_fraction():
    class Planted:
        def prepare(self, index):
            return index

        def run(self, op, traced=False):
            if op == 2:
                raise ValueError("planted")
            return workloads.Outcome()

        def check(self, op, outcome):
            return ["planted mismatch"] if op == 1 else []

        def work(self, op):
            return 1

        def rss_kb(self, outcome):
            return 0

    phase = run.measure(Planted(), count=4)
    assert len(phase.durations) == 4
    assert phase.failed == 2
    assert phase.problems == ["planted mismatch", "ValueError: planted"]
