"""tools/bench_compare.py on synthetic benchmark reports."""

import importlib.util
import json
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_compare.py")
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

BASE = {"setup_s": 0.40, "op_p50_ms": 100.0, "work_per_s": 5000.0, "peak_rss_mb": 80.0}


def report(
    workload="sweep-large",
    failed=0,
    trace=0,
    attempted=10,
    setup_runs=(0.5,),
    seed=None,
    **changes,
):
    values = {**BASE, **changes}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "speed": {"setup_runs_s": list(setup_runs)},
        "result": {
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
        },
    }


def run(tmp_path, capsys, old, new):
    paths = []
    for name, data in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    code = bench_compare.main(paths)
    return code, capsys.readouterr().out


def test_changes_within_every_bound_pass(tmp_path, capsys):
    # 20% lower latency, 19% less throughput, 9% more memory: all inside bounds
    new = report(op_p50_ms=80.0, work_per_s=4050.0, peak_rss_mb=87.2)
    code, out = run(tmp_path, capsys, report(), new)
    assert code == 0
    assert "BEYOND" not in out
    assert "-20.0%" in out and "+9.0%" in out
    assert len(out.splitlines()) == 5


@pytest.mark.parametrize(
    "changes, metric",
    [
        ({"op_p50_ms": 121.0}, "op_p50_ms"),
        ({"work_per_s": 3900.0}, "work_per_s"),
        ({"peak_rss_mb": 88.5}, "peak_rss_mb"),
        ({"failed": 1}, "failed"),
    ],
)
def test_a_change_beyond_a_bound_is_flagged(tmp_path, capsys, changes, metric):
    code, out = run(tmp_path, capsys, [report(), report(trace=1)], report(**changes))
    assert code == 1
    flagged = [line for line in out.splitlines() if "BEYOND BOUND" in line]
    assert len(flagged) == 1 and flagged[0].split()[1] == metric


def test_a_bench_file_alone_compares_its_parent_and_change(tmp_path, capsys):
    path = tmp_path / "BENCH_1.json"
    sides = {"parent": [report(), report(op_p50_ms=110.0)], "change": [report(op_p50_ms=70.0)]}
    path.write_text(json.dumps(sides), encoding="utf-8")
    assert bench_compare.main([str(path)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if "op_p50_ms" in line)
    assert "(n=2/1)" in line and "-33.3%" in line


def test_the_memory_line_gives_each_sides_median_operation_count(tmp_path, capsys):
    # a side that completes more operations keeps more timing records, so
    # its memory is read beside its operation count
    old = [report(attempted=40), report(attempted=44), report(trace=1, attempted=7)]
    new = [report(attempted=52, peak_rss_mb=81.0), report(attempted=56, peak_rss_mb=81.0)]
    code, out = run(tmp_path, capsys, old, new)
    assert code == 0
    lines = out.splitlines()
    memory = [line for line in lines if "peak_rss_mb" in line]
    assert len(memory) == 1 and memory[0].endswith("+1.2%  ops 42 -> 54")
    assert all("ops" not in line for line in lines if "peak_rss_mb" not in line)


def test_a_flagged_memory_line_keeps_its_operation_count(tmp_path, capsys):
    code, out = run(tmp_path, capsys, report(), report(peak_rss_mb=90.0, attempted=13))
    assert code == 1
    line = next(line for line in out.splitlines() if "peak_rss_mb" in line)
    assert "ops 10 -> 13  BEYOND BOUND (10%)" in line


def test_the_setup_line_gives_each_sides_median_raw_setup_time(tmp_path, capsys):
    # setup_s is scaled by a per-run speed factor; the raw medians beside it
    # show whether the import itself moved
    old = [report(setup_runs=(0.30, 0.27, 0.90)), report(setup_runs=(0.28, 0.29, 0.26))]
    new = [
        report(setup_s=0.44, setup_runs=(0.24, 0.26, 0.25)),
        report(trace=1, setup_runs=(9.0,)),
    ]
    code, out = run(tmp_path, capsys, old, new)
    assert code == 0
    lines = out.splitlines()
    setup = [line for line in lines if "setup_s" in line]
    assert len(setup) == 1 and setup[0].endswith("  raw 0.29 -> 0.25 s")
    assert "+10.0%  won 0/0  parent q1/q3 0.4/0.4  raw" in setup[0]
    assert all("raw" not in line for line in lines if "setup_s" not in line)


def test_timing_lines_count_the_seed_matched_pairs_the_change_won(tmp_path, capsys):
    # seeds 1-4 pair up: two wins, one tie, one loss; seed 5 has no partner
    # and the traced report is skipped
    old = [report(seed=seed, op_p50_ms=100.0, work_per_s=50.0) for seed in (1, 2, 3, 4)]
    new = [
        report(seed=1, op_p50_ms=90.0, work_per_s=55.0),
        report(seed=2, op_p50_ms=95.0, work_per_s=40.0),
        report(seed=3, op_p50_ms=100.0, work_per_s=50.0),
        report(seed=4, op_p50_ms=105.0, work_per_s=60.0),
        report(seed=5, op_p50_ms=10.0, work_per_s=500.0),
        report(seed=1, trace=1, op_p50_ms=1.0),
    ]
    code, out = run(tmp_path, capsys, old, new)
    assert code == 0
    lines = {line.split()[1]: line for line in out.splitlines()}
    assert "  won 2/4  " in lines["op_p50_ms"]
    # higher is better for throughput: seeds 1 and 4 won, 2 lost, 3 tied
    assert "  won 2/4  " in lines["work_per_s"]
    assert "  won 0/4  " in lines["setup_s"]
    assert "won" not in lines["peak_rss_mb"] and "won" not in lines["failed"]


def test_timing_lines_give_the_parents_quartiles(tmp_path, capsys):
    values = (130.0, 100.0, 120.0, 110.0, 150.0)
    old = [report(seed=seed, op_p50_ms=value) for seed, value in enumerate(values)]
    new = [report(seed=seed, op_p50_ms=80.0) for seed in range(5)]
    code, out = run(tmp_path, capsys, old, new)
    assert code == 0
    line = next(line for line in out.splitlines() if "op_p50_ms" in line)
    # linear interpolation between order statistics, as numpy.percentile
    assert tuple(np.percentile(values, [25, 75])) == (110.0, 130.0)
    assert line.endswith("-33.3%  won 5/5  parent q1/q3 110/130")
    # one parent report gives its own value for both quartiles
    code, out = run(tmp_path, capsys, report(seed=1), report(seed=1, op_p50_ms=80.0))
    line = next(line for line in out.splitlines() if "op_p50_ms" in line)
    assert line.endswith("won 1/1  parent q1/q3 100/100")
