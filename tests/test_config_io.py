"""Config parsing, round-trip persistence, and table serialization."""

import csv
import json
import os

import numpy as np
import pytest

from mpembasim.config_io import (
    ExperimentConfig,
    load_config,
    save_config,
    write_table,
)
from mpembasim.exceptions import ParseError, UnknownKeyError, ValidationError


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.nu0_khz == 1.0
    assert cfg.nu1_khz == 2.0
    assert cfg.j_hz == 215.1
    assert cfg.t_hot_khz == 4.77
    assert cfg.t_cold_khz == 2.38
    assert cfg.tau1_us == 100.0
    assert cfg.tau_bar_ms == 4.65
    assert cfg.populations == (0.3, 0.7)
    assert cfg.theta_steps == 73
    assert cfg.tau_steps == 64
    assert cfg.epsilon_equilibrium_khz == 0.01
    assert cfg.use_mpemba is True
    assert cfg.output_precision == 12


def test_empty_file_loads_the_defaults(tmp_path):
    assert load_config(write(tmp_path, "")) == ExperimentConfig()


def test_comments_sections_and_spacing_are_tolerated(tmp_path):
    text = """
    # exchange setup
    [experiment]
      nu1_khz =  2.5   # trailing note
    tau_steps=16
    """
    cfg = load_config(write(tmp_path, text))
    assert cfg.nu1_khz == 2.5
    assert cfg.tau_steps == 16
    assert cfg.nu0_khz == 1.0


def test_populations_parse_as_a_pair(tmp_path):
    cfg = load_config(write(tmp_path, "populations = 0.4, 0.6\n"))
    assert cfg.populations == (0.4, 0.6)


def test_boolean_values(tmp_path):
    assert load_config(write(tmp_path, "use_mpemba = false\n")).use_mpemba is False
    assert load_config(write(tmp_path, "use_mpemba = TRUE\n")).use_mpemba is True


def test_unknown_key_is_rejected_with_its_line(tmp_path):
    with pytest.raises(UnknownKeyError, match="line 2"):
        load_config(write(tmp_path, "nu1_khz = 2.0\ncoupling = 3\n"))


def test_duplicate_key_is_rejected(tmp_path):
    with pytest.raises(ParseError, match="duplicate"):
        load_config(write(tmp_path, "nu1_khz = 2.0\nnu1_khz = 3.0\n"))


def test_malformed_lines_are_rejected():
    cases = {
        "just words\n": "expected 'key = value'",
        "nu1_khz = fast\n": "not a number",
        "tau_steps = 3.5\n": "not an integer",
        "use_mpemba = yes\n": "not true/false",
        "populations = 0.5\n": "two comma-separated",
        "[experiment\n": "unterminated section",
    }
    import tempfile

    for text, message in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            with pytest.raises(ParseError, match=message):
                load_config(path)


def test_validation_messages_name_the_offending_key(tmp_path):
    with pytest.raises(ValidationError, match="nu1_khz"):
        load_config(write(tmp_path, "nu1_khz = 0.5\n"))
    with pytest.raises(ValidationError, match="populations"):
        load_config(write(tmp_path, "populations = 0.5, 0.6\n"))
    with pytest.raises(ValidationError, match="theta_steps"):
        load_config(write(tmp_path, "theta_steps = 1\n"))
    with pytest.raises(ValidationError, match="epsilon"):
        load_config(write(tmp_path, "epsilon_equilibrium_khz = 0\n"))
    with pytest.raises(ValidationError, match="j_hz must be finite"):
        load_config(write(tmp_path, "j_hz = nan\n"))
    with pytest.raises(ValidationError, match="t_hot_khz must be finite"):
        load_config(write(tmp_path, "t_hot_khz = inf\n"))


def test_validation_rejects_out_of_range_weights():
    with pytest.raises(ValidationError):
        ExperimentConfig(populations=(0.0, 1.0))
    with pytest.raises(ValidationError):
        ExperimentConfig(populations=(0.3, 0.7, 0.0))


def test_save_load_round_trip(tmp_path):
    cfg = ExperimentConfig(
        nu1_khz=2.125, j_hz=190.7, populations=(0.25, 0.75), tau_steps=48,
        use_mpemba=False, epsilon_equilibrium_khz=1.0 / 3.0,
    )
    path = str(tmp_path / "round.cfg")
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_save_is_deterministic(tmp_path):
    cfg = ExperimentConfig()
    a, b = str(tmp_path / "a.cfg"), str(tmp_path / "b.cfg")
    save_config(cfg, a)
    save_config(cfg, b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_save_leaves_no_partial_files(tmp_path):
    save_config(ExperimentConfig(), str(tmp_path / "clean.cfg"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.cfg"]


def test_cycle_config_view_converts_units():
    cycle = ExperimentConfig(tau1_us=250.0, use_mpemba=False).cycle_config()
    assert cycle.tau1 == pytest.approx(0.25)
    assert cycle.nu0 == 1.0 and cycle.nu1 == 2.0
    assert not cycle.use_mpemba


# --------------------------------------------------------------------- tables

ROWS = [
    {"tau_ms": 0.0, "value": 1.0 / 3.0},
    {"tau_ms": 1.5, "value": np.float64(0.25)},
]


def test_csv_table_round_trips_through_the_stdlib_reader(tmp_path):
    path = str(tmp_path / "table.csv")
    write_table(ROWS, ["tau_ms", "value"], path, fmt="csv")
    with open(path, newline="", encoding="utf-8") as handle:
        parsed = list(csv.DictReader(handle))
    assert [row["tau_ms"] for row in parsed] == ["0", "1.5"]
    assert float(parsed[0]["value"]) == pytest.approx(1.0 / 3.0, abs=1e-11)


def test_csv_uses_lf_newlines_and_a_header(tmp_path):
    path = str(tmp_path / "table.csv")
    write_table(ROWS, ["tau_ms", "value"], path)
    with open(path, "rb") as handle:
        raw = handle.read()
    assert b"\r" not in raw
    assert raw.split(b"\n")[0] == b"tau_ms,value"


def test_json_table_is_an_array_of_objects(tmp_path):
    path = str(tmp_path / "table.json")
    write_table(ROWS, ["tau_ms", "value"], path, fmt="json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert isinstance(payload, list) and len(payload) == 2
    assert set(payload[0]) == {"tau_ms", "value"}
    assert payload[1]["value"] == pytest.approx(0.25)


def test_empty_tables_still_write_a_csv_header(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_table([], ["a", "b"], path)
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "a,b\n"


def test_table_precision_is_significant_digits(tmp_path):
    path = str(tmp_path / "prec.csv")
    write_table([{"x": 0.123456789}], ["x"], path, precision=3)
    with open(path, encoding="utf-8") as handle:
        assert handle.read().splitlines()[1] == "0.123"


def test_table_rejects_schema_mismatches(tmp_path):
    with pytest.raises(ValueError, match="schema"):
        write_table([{"a": 1.0}], ["a", "b"], str(tmp_path / "x.csv"))


def test_table_rejects_unknown_formats(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_table(ROWS, ["tau_ms", "value"], str(tmp_path / "x.xml"), fmt="xml")


def test_table_write_into_a_missing_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        write_table(ROWS, ["tau_ms", "value"], str(tmp_path / "no" / "dir.csv"))
