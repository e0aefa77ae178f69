"""End-to-end command runs through main(argv), in process, and as a fresh
process where the whole stderr stream is under test."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpembasim
from mpembasim import cli, otto, verify
from mpembasim.cli import main

WINDOW_MS = 2.3245002324500232

TABLE_COMMANDS = ("spectrum", "surface", "cooling", "otto-distance", "otto-ratio")

VERIFY_CHECKS = (
    "kraus-completeness",
    "damping-equivalence",
    "biorthonormality",
    "population-coherence-decoupling",
    "free-energy-identity",
    "spectral-propagation",
    "cycle-closure",
    "energy-balance",
    "power-ratio-floor",
    "sweep-kernel-agreement",
    "slow-mode-removal",
    "spectrum-agreement",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_spectrum_prints_rates_and_the_fixed_point(capsys):
    code, out, _ = run(capsys, "spectrum", "--tau", "1.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("exchange-generator spectrum at tau = 1 ms")
    assert len([line for line in lines if "lambda_" in line]) == 4
    assert "lambda_1 = +0.000000000" in out
    assert out.count("[coherence]") == 2
    assert out.count("[population]") == 2
    assert "-0.248161477" in out
    assert "-0.496322955" in out
    assert "fixed-point populations: 0.698164888, 0.301835112" in out


def test_spectrum_runs_none_of_the_liouville_route(capsys, monkeypatch):
    def no_numerics(*_):
        raise AssertionError("spectrum ran the Kraus/Liouville route")

    for module, names in (
        (verify, ("build_heat_exchange", "extract_generator", "decompose", "expm")),
        (mpembasim.channels, ("build_heat_exchange",)),
        (mpembasim.liouville, ("transfer_matrix", "extract_generator", "decompose")),
        (mpembasim.numerics, ("eig_general", "logm_principal", "expm")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, no_numerics)
    code, out, _ = run(capsys, "spectrum", "--tau", "1.0")
    assert code == 0
    assert "-0.248161477" in out


def test_spectrum_at_a_very_short_delay_keeps_the_fixed_point(capsys):
    # every rate is below 1e-9 here, inside the stationary tolerance of decompose
    code, out, _ = run(capsys, "spectrum", "--tau", "1e-9")
    assert code == 0
    assert "fixed-point populations: 0.698164888, 0.301835112" in out


def test_spectrum_writes_an_optional_table(capsys, tmp_path):
    path = str(tmp_path / "modes.csv")
    code, _, _ = run(capsys, "spectrum", "--tau", "0.7", "--out", path)
    assert code == 0
    rows = read_csv(path)
    assert len(rows) == 4
    assert rows[0]["kind"] == "population"
    assert abs(float(rows[0]["re_per_ms"])) <= 1e-12
    slow = sorted(float(row["re_per_ms"]) for row in rows)[0]
    assert slow == pytest.approx(2.0 * sorted(
        float(row["re_per_ms"]) for row in rows
    )[1], rel=1e-9)


def test_spectrum_at_the_full_swap_fails_numerically(capsys):
    code, _, err = run(capsys, "spectrum", "--tau", str(WINDOW_MS))
    assert code == 2
    assert "numerical error" in err


def test_spectrum_just_inside_the_window_fails_numerically(capsys):
    # c^2 = 2.467e-14 leaves no finite generator: a numerical failure, not bad input
    code, _, err = run(capsys, "spectrum", "--tau", "2.3245")
    assert code == 2
    assert "numerical error" in err and "2.467e-14" in err


def test_spectrum_past_the_window_is_an_input_error(capsys):
    code, _, err = run(capsys, "spectrum", "--tau", "3.0")
    assert code == 3
    assert "--tau 3.0 ms outside the exchange window (0, 2.324500] ms" in err


@pytest.mark.parametrize("tau", ["0", "-1", "2.4", "nan", "inf", "-inf"])
def test_spectrum_rejects_a_delay_outside_the_window_before_any_numerics(
    capsys, monkeypatch, tau
):
    def no_numerics(*_):
        raise AssertionError("numerics ran for a rejected delay")

    monkeypatch.setattr(cli, "exchange_spectrum", no_numerics)
    code, out, err = run(capsys, "spectrum", f"--tau={tau}")
    assert code == 3
    assert out == ""
    assert f"--tau {float(tau)!r} ms outside the exchange window (0, 2.324500] ms" in err


def test_surface_row_count_and_passive_minimum(capsys, tmp_path):
    path = str(tmp_path / "surface.csv")
    code, out, _ = run(
        capsys, "surface", "--out", path, "--theta-steps", "5", "--tau-steps", "4"
    )
    assert code == 0
    rows = read_csv(path)
    assert len(rows) == 20
    assert f"surface: 20 rows -> {path}" in out
    # the passive arrangement sits a quarter turn in
    assert "at theta = 1.570796 rad" in out
    first_tau = rows[0]["tau_ms"]
    initial = [row for row in rows if row["tau_ms"] == first_tau]
    assert len(initial) == 5
    excesses = [float(row["delta_f_neq_khz"]) for row in initial]
    assert min(excesses) == excesses[1]
    assert all(value >= -1e-12 for value in excesses)


def test_surface_json_output(capsys, tmp_path):
    path = str(tmp_path / "surface.json")
    code, _, _ = run(
        capsys, "surface", "--out", path, "--format", "json",
        "--theta-steps", "3", "--tau-steps", "3",
    )
    assert code == 0
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert len(payload) == 9
    assert set(payload[0]) == {"theta_rad", "tau_ms", "delta_f_neq_khz"}


def test_cooling_reports_a_persistent_crossing(capsys, tmp_path):
    path = str(tmp_path / "cooling.csv")
    code, out, _ = run(capsys, "cooling", "--out", path)
    assert code == 0
    assert "cooling: crossing detected, persistent, t_cross =" in out
    assert "cooling: plain curve enters the 0.01 kHz neighborhood at tau =" in out
    assert "cooling: mpemba curve enters the 0.01 kHz neighborhood at tau =" in out
    rows = read_csv(path)
    assert len(rows) == 64
    # transformed start pays a free-energy premium, then wins; the final
    # grid point is the full swap where both curves collapse to zero
    assert float(rows[0]["delta_f_mb_khz"]) > float(rows[0]["delta_f_plain_khz"])
    assert float(rows[-2]["delta_f_mb_khz"]) < float(rows[-2]["delta_f_plain_khz"])
    assert float(rows[-1]["delta_f_mb_khz"]) <= 1e-12


def test_cooling_with_balanced_weights_has_nothing_to_accelerate(capsys, tmp_path):
    path = str(tmp_path / "flat.csv")
    code, out, _ = run(
        capsys, "cooling", "--out", path, "--populations", "0.5,0.5",
        "--tau-steps", "16",
    )
    assert code == 0
    assert "cooling: no crossing on this grid" in out


def test_a_very_cold_environment_runs_with_a_clean_stderr(tmp_path):
    # exp(2 nu / T) in the hot partner's Gibbs weight overflows at 1e-3 kHz;
    # numpy would report that on stderr, which must stay empty here
    (tmp_path / "cold.cfg").write_text("t_hot_khz = 1e-3\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(mpembasim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mpembasim.cli", "cooling", "--config", "cold.cfg",
         "--out", "cooling.csv"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert "cooling: plain curve enters" in result.stdout


def test_otto_distance_summary(capsys, tmp_path):
    path = str(tmp_path / "distance.csv")
    code, out, _ = run(capsys, "otto-distance", "--out", path)
    assert code == 0
    crossing_line = next(
        line for line in out.splitlines() if line.startswith("otto-distance: crossing")
    )
    t_cross = float(crossing_line.split("tau2 = ")[1].split()[0])
    assert t_cross == pytest.approx(1.4131983, abs=5e-3)
    separation_line = next(
        line for line in out.splitlines() if "maximum separation" in line
    )
    assert "at tau2 =" in separation_line
    rows = read_csv(path)
    assert len(rows) == 64
    assert float(rows[0]["dist_mb"]) > float(rows[0]["dist_plain"])


def test_otto_ratio_table_never_dips_below_one(capsys, tmp_path):
    path = str(tmp_path / "ratio.csv")
    code, out, _ = run(capsys, "otto-ratio", "--out", path)
    assert code == 0
    assert "otto-ratio: peak ratio" in out
    assert "at delta =" in out
    rows = read_csv(path)
    assert len(rows) == 40
    ratios = np.array([float(row["ratio"]) for row in rows])
    assert np.all(ratios >= 1.0 - 1e-12)
    peak = float(out.split("peak ratio ")[1].split()[0])
    assert peak == pytest.approx(ratios.max(), abs=5e-7)


def test_verify_passes_on_the_default_setup(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == len(VERIFY_CHECKS)
    assert all(line.startswith("PASS ") for line in lines)
    for name in VERIFY_CHECKS:
        assert any(name in line for line in lines)


def test_verify_calls_each_reference_once_per_delay(capsys, monkeypatch):
    # the reference checks take their 100 states as one stack per delay; a
    # return to per-state loops makes hundreds of calls of each
    counts = {}
    for module_name, name in (
        ("channels", "apply_channel"),
        ("thermo", "f_neq"),
        ("thermo", "trace_distance"),
        ("operators", "validate_density_matrix"),
    ):
        original = getattr(getattr(mpembasim, module_name), name)
        counts[name] = 0

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "mpembasim" or key.startswith("mpembasim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    code, _, _ = run(capsys, "verify")
    assert code == 0
    assert counts["apply_channel"] <= 6
    assert counts["f_neq"] <= 6
    assert counts["trace_distance"] <= 4
    assert counts["validate_density_matrix"] <= 30


def test_verify_checks_fail_independently(capsys, tmp_path):
    # at this temperature the Gibbs reference of the KL divergence is rank
    # deficient; only the check that needs the divergence may fail
    cfg = tmp_path / "cold.cfg"
    cfg.write_text("t_hot_khz = 0.01\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    lines = [line for line in out.splitlines() if line]
    assert [line.split()[1] for line in lines] == list(VERIFY_CHECKS)
    failed = [line.split()[1] for line in lines if line.startswith("FAIL ")]
    assert failed == ["free-energy-identity"]
    assert "rank tolerance" in lines[VERIFY_CHECKS.index("free-energy-identity")]


def test_verify_passes_in_a_very_hot_environment(capsys, tmp_path):
    # free energies of size T ln 2 carry rounding of a few eps * T here
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("t_hot_khz = 1e6\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert [line.split()[1] for line in lines] == list(VERIFY_CHECKS)
    assert all(line.startswith("PASS ") for line in lines)


@pytest.mark.parametrize(
    "check, name, offset",
    [
        # 1e-9 nats of divergence is 1e-3 kHz at 1e6 kHz, ten times the bound
        ("free-energy-identity", "kl_divergence", 1e-9),
        # free energies are bounded per kHz of temperature: 1e-12 * 1e6
        ("sweep-kernel-agreement", "f_neq_bloch", 1e-5),
        # distances and states keep the absolute 1e-12 bound at any temperature
        ("sweep-kernel-agreement", "trace_distance_bloch", 1e-11),
    ],
)
def test_hot_verify_still_catches_defects(
    capsys, tmp_path, monkeypatch, check, name, offset
):
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: original(*args) + offset)
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("t_hot_khz = 1e6\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")]
    assert failed == [check]


def test_an_accelerated_branch_slower_than_the_plain_one_is_reported(
    capsys, tmp_path, monkeypatch
):
    # the model has no input that slows the accelerated branch; move its
    # threshold delay 1 ms past the plain one, so every ratio falls below 1
    original = otto.threshold_times

    def late(curves, delta):
        tau2_plain, _ = original(curves, delta)
        return tau2_plain, tau2_plain + 1.0

    monkeypatch.setattr(otto, "threshold_times", late)
    code, _, err = run(capsys, "otto-ratio", "--out", str(tmp_path / "ratio.csv"))
    assert code == 2
    assert "numerical error" in err and "below 1" in err
    code, out, _ = run(capsys, "verify")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1 and failed[0].startswith("FAIL power-ratio-floor")


def test_verify_catches_coherence_left_in_the_target(capsys, monkeypatch):
    # a pulse that leaves x = 1e-6 of coherence leaves weight on the slow pair
    original = verify.mpemba_bloch

    def leaky(bloch):
        out = original(bloch)
        out[..., 0] = 1e-6
        return out

    monkeypatch.setattr(verify, "mpemba_bloch", leaky)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1 and failed[0].startswith("FAIL slow-mode-removal")


def test_verify_catches_a_shifted_closed_form_rate(capsys, monkeypatch):
    original = verify.exchange_spectrum

    def shifted(*args):
        eigenvalues, populations = original(*args)
        eigenvalues[1] += 1e-8
        return eigenvalues, populations

    monkeypatch.setattr(verify, "exchange_spectrum", shifted)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1 and failed[0].startswith("FAIL spectrum-agreement")


@pytest.mark.parametrize(
    "check, name, bound, measured",
    [
        ("damping-equivalence", "damping_fit", 1e-10, lambda v: (0.5, 0.3, v)),
        ("population-coherence-decoupling", "block_coupling", 1e-9, lambda v: v),
    ],
    ids=("damping-equivalence", "population-coherence-decoupling"),
)
def test_a_diagnostic_fails_its_check_at_its_bound_and_passes_below(
    capsys, monkeypatch, check, name, bound, measured
):
    # both bounds are strict: the bound itself fails, the next float below passes
    for value, code_wanted, failed_wanted in (
        (bound, 1, [check]),
        (np.nextafter(bound, 0.0), 0, []),
    ):
        monkeypatch.setattr(verify, name, lambda *_, v=value: measured(v))
        code, out, _ = run(capsys, "verify")
        assert code == code_wanted
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")]
        assert failed == failed_wanted


@pytest.mark.parametrize(
    "command, calls",
    [("surface", 3), ("cooling", 5), ("otto-distance", 5), ("otto-ratio", 5)],
)
def test_each_swept_array_is_checked_once(capsys, monkeypatch, tmp_path, command, calls):
    # a sweep checks its start and the exchange's output; the free energy of
    # that output is not checked again, nor is the equilibrium it is measured from
    original = mpembasim.operators.validate_bloch_vectors
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "mpembasim" or key.startswith("mpembasim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    code, _, _ = run(capsys, command, "--out", str(tmp_path / "table.csv"))
    assert code == 0
    assert count[0] == calls


@pytest.mark.parametrize("line", ["j_hz = nan\n", "t_hot_khz = inf\n"])
def test_non_finite_config_values_are_config_errors(capsys, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line, encoding="utf-8")
    code, _, err = run(
        capsys, "cooling", "--config", str(cfg), "--out", str(tmp_path / "t.csv")
    )
    assert code == 3
    assert "must be finite" in err


def test_verify_reports_a_broken_config_as_a_failure(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nu1_khz = 0.5\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--config", str(bad))
    assert code == 1
    assert "FAIL construction" in out


@pytest.mark.parametrize("via_environment", [False, True])
def test_verify_reports_a_missing_config_as_a_failure(
    capsys, tmp_path, monkeypatch, via_environment
):
    missing = str(tmp_path / "missing.cfg")
    if via_environment:
        monkeypatch.setenv("MPEMBA_CONFIG", missing)
        code, out, err = run(capsys, "verify")
    else:
        code, out, err = run(capsys, "verify", "--config", missing)
    assert code == 1
    assert out.startswith("FAIL construction") and len(out.splitlines()) == 1
    assert err == ""


def test_unknown_config_key_is_a_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    for key in ("coupling_hz = 215.1", "use_mpemba = false"):
        bad.write_text(f"{key}\n", encoding="utf-8")
        code, _, err = run(capsys, "spectrum", "--config", str(bad))
        assert code == 3
        assert f"config error: line 1: unknown key {key.split()[0]!r}" in err


def test_oversized_grid_is_refused_before_any_numerics(capsys, tmp_path):
    # spectrum builds no delay grid, so a broken cap cannot exhaust memory here
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("tau_steps = 1000000000\n", encoding="utf-8")
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert err == "config error: tau_steps must be at most 4194304, got 1000000000\n"


def test_surface_refuses_an_angle_x_delay_grid_over_the_cap(capsys, tmp_path):
    path = tmp_path / "surface.csv"
    code, out, err = run(
        capsys, "surface", "--theta-steps", "2049", "--tau-steps", "2049", "--out", str(path)
    )
    assert (code, out) == (3, "")
    assert err == (
        "config error: theta_steps * tau_steps must be at most 4194304, "
        "got 2049 * 2049\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_commands_without_an_angle_grid_take_any_grid_size_under_the_cap(
    capsys, tmp_path
):
    # at the default 73 angles, 57,457 delays would be over the product cap
    path = tmp_path / "cooling.csv"
    code, _, _ = run(capsys, "cooling", "--tau-steps", "57457", "--out", str(path))
    assert code == 0
    assert len(read_csv(path)) == 57457
    path = tmp_path / "ratio.csv"
    code, _, _ = run(capsys, "otto-ratio", "--tau-steps", "64", "--out", str(path))
    plain = path.read_bytes()
    code_with, _, _ = run(
        capsys, "otto-ratio", "--theta-steps", "1000000", "--tau-steps", "64",
        "--out", str(path),
    )
    assert code == code_with == 0
    assert path.read_bytes() == plain
    cfg = tmp_path / "angles.cfg"
    cfg.write_text("theta_steps = 100000\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--populations", "0.4,0.6"],
        ["spectrum", "--tau-steps", "8"],
        ["spectrum", "--theta-steps", "8"],
        ["verify", "--theta-steps", "8"],
        # the required --out follows, so the flag is what argparse refuses
        ["otto-distance", "--populations", "0.4,0.6", "--out", "t.csv"],
        ["otto-ratio", "--populations", "0.4,0.6", "--out", "t.csv"],
    ],
)
def test_a_flag_the_subcommand_never_reads_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"unrecognized arguments: {' '.join(argv[1:3])}\n")


def test_the_otto_commands_still_take_the_angle_grid_flag(capsys, tmp_path):
    # the flag changes nothing there, but sweep-large's warm-up passes it
    for command in ("otto-distance", "otto-ratio"):
        path = tmp_path / f"{command}.csv"
        code, _, _ = run(capsys, command, "--out", str(path), "--tau-steps", "8")
        plain = path.read_bytes()
        code_with, _, _ = run(
            capsys, command, "--out", str(path), "--tau-steps", "8", "--theta-steps", "3"
        )
        assert code == code_with == 0
        assert path.read_bytes() == plain


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_missing_output_directory_is_an_io_error(capsys, tmp_path, command):
    # every table command writes its table before it prints its summary, so
    # a table that cannot be written leaves stdout empty
    requested = str(tmp_path / "absent" / "t.csv")
    code, out, err = run(capsys, command, "--out", requested)
    assert code == 3
    assert "io error" in err
    assert requested in err
    assert ".partial-" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_an_empty_output_path_is_an_io_error(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--out", "")
    assert (code, out) == (3, "")
    assert "io error" in err
    assert list(tmp_path.iterdir()) == []


def test_an_output_path_that_is_a_directory_is_an_io_error(capsys, tmp_path):
    requested = tmp_path / "taken"
    requested.mkdir()
    code, _, err = run(capsys, "cooling", "--out", str(requested), "--tau-steps", "8")
    assert code == 3
    assert "io error" in err
    assert str(requested) in err
    assert ".partial-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_environment_variable_supplies_the_config(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("tau_steps = 5\n", encoding="utf-8")
    monkeypatch.setenv("MPEMBA_CONFIG", str(cfg))
    path = str(tmp_path / "distance.csv")
    code, _, _ = run(capsys, "otto-distance", "--out", path)
    assert code == 0
    assert len(read_csv(path)) == 5


def test_config_flag_beats_the_environment(capsys, tmp_path, monkeypatch):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("tau_steps = 5\n", encoding="utf-8")
    flag_cfg = tmp_path / "flag.cfg"
    flag_cfg.write_text("tau_steps = 7\n", encoding="utf-8")
    monkeypatch.setenv("MPEMBA_CONFIG", str(env_cfg))
    path = str(tmp_path / "distance.csv")
    code, _, _ = run(
        capsys, "otto-distance", "--config", str(flag_cfg), "--out", path
    )
    assert code == 0
    assert len(read_csv(path)) == 7


def test_malformed_populations_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cooling", "--out", "x.csv", "--populations", "0.5"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def outcome(capsys, argv, path=None):
    """Exit code, stdout, stderr and the bytes written to ``path`` by one call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    written = None
    if path is not None and os.path.exists(path):
        with open(path, "rb") as handle:
            written = handle.read()
        os.remove(path)
    return code, captured.out, captured.err, written


def test_calls_in_one_process_share_the_parser_but_no_state(capsys, tmp_path):
    # the parser is built once per process; a call after another must give
    # what it gives as the first call of the process
    grid = ["--theta-steps", "3", "--tau-steps", "4"]
    surface = str(tmp_path / "surface.out")
    table = str(tmp_path / "spectrum.csv")
    pairs = [
        (["surface", "--out", surface, "--format", "json", *grid],
         ["surface", "--out", surface, *grid], surface),
        (["spectrum", "--out", table], ["cooling"], table),
    ]
    later_outcomes = []
    for earlier, later, path in pairs:
        cli._build_parser.cache_clear()
        first_earlier = outcome(capsys, earlier, path)
        cli._build_parser.cache_clear()
        first_later = outcome(capsys, later, path)
        cli._build_parser.cache_clear()
        assert outcome(capsys, earlier, path) == first_earlier
        later_outcomes.append(outcome(capsys, later, path))
        assert later_outcomes[-1] == first_later
    assert cli._build_parser() is cli._build_parser()
    # surface without --format still writes csv after a json call
    code, _, _, written = later_outcomes[0]
    assert code == 0 and written.startswith(b"theta_rad,tau_ms,delta_f_neq_khz\n")
    # cooling without --out still fails after a spectrum call that set one
    code, out, err, _ = later_outcomes[1]
    assert code == 2 and out == ""
    assert "the following arguments are required: --out" in err


# ------------------------------------------------------- config-space property

#: in-range values for every config key (rendered as config-file text)
CONFIG_VALUES = {
    "nu0_khz": st.floats(0.1, 5.0),
    "nu1_khz": st.floats(0.1, 10.0),
    "j_hz": st.floats(10.0, 1000.0),
    "t_hot_khz": st.floats(0.01, 100.0),
    "t_cold_khz": st.floats(0.01, 100.0),
    "tau1_us": st.floats(1.0, 1000.0),
    "tau_bar_ms": st.floats(0.1, 20.0),
    "populations": st.floats(0.01, 0.99).map(lambda p: f"{p!r}, {1.0 - p!r}"),
    "theta_steps": st.integers(-1, 6),
    "tau_steps": st.integers(-1, 12),
    "epsilon_equilibrium_khz": st.floats(1e-4, 1.0),
    "output_precision": st.integers(0, 17),
}

#: out-of-range and non-finite values, one of which may replace any float key
SPECIAL = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 1e-300, 1e300]
)
FLOAT_KEYS = [key for key in CONFIG_VALUES if key.endswith(("_khz", "_hz", "_us", "_ms"))]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(
        ["spectrum", "surface", "cooling", "otto-distance", "otto-ratio", "verify"]
    ),
    values=st.fixed_dictionaries({}, optional=CONFIG_VALUES),
    poison=st.none() | st.tuples(st.sampled_from(FLOAT_KEYS), SPECIAL),
    tau=st.floats(0.0, 5.0) | SPECIAL,
)
def test_every_config_ends_in_a_documented_exit_code(command, values, poison, tau):
    """Any config file gives exit 0/1/2/3 with no traceback, in every subcommand."""
    if poison is not None:
        values = {**values, poison[0]: poison[1]}
    with tempfile.TemporaryDirectory() as workdir:
        cfg = os.path.join(workdir, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.writelines(f"{key} = {value!s}\n" for key, value in values.items())
        argv = [command, "--config", cfg]
        if command == "spectrum":
            argv.append(f"--tau={tau!r}")
        elif command != "verify":
            argv += ["--out", os.path.join(workdir, "table.csv")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
