"""Config parsing, the cycle view of a config, and table serialization."""

import codecs
import csv
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpembasim import config_io
from mpembasim.config_io import (
    BLOCK_ROWS,
    MAX_GRID_POINTS,
    ExperimentConfig,
    GridRows,
    load_config,
    write_table,
)
from mpembasim.exceptions import ParseError, UnknownKeyError, ValidationError
from mpembasim.otto import CycleConfig


def assert_same_document(actual, expected):
    """``actual == expected`` for two texts or two byte strings; a failure
    names only the first line that differs, its index and both its texts,
    since pytest's own diff of two long documents takes minutes."""
    if actual == expected:
        return
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    index = next(
        (k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )
    got, want = (lines[index] if index < len(lines) else "<end>" for lines in (got, want))
    pytest.fail(f"documents differ first at line {index}: {got!r} != {want!r}")


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


def test_unknown_key_is_rejected_with_its_line(tmp_path):
    with pytest.raises(UnknownKeyError, match="line 2"):
        load_config(write(tmp_path, "nu1_khz = 2.0\ncoupling = 3\n"))
    # the retired pulse switch is refused, not silently ignored
    with pytest.raises(UnknownKeyError, match="line 1: unknown key 'use_mpemba'"):
        load_config(write(tmp_path, "use_mpemba = false\n"))


def test_duplicate_key_is_rejected(tmp_path):
    with pytest.raises(ParseError, match="duplicate"):
        load_config(write(tmp_path, "nu1_khz = 2.0\nnu1_khz = 3.0\n"))


def test_malformed_lines_are_rejected():
    cases = {
        "just words\n": "expected 'key = value'",
        "nu1_khz = fast\n": "not a number",
        "tau_steps = 3.5\n": "not an integer",
        "populations = 0.5\n": "two comma-separated",
        "[experiment\n": "unterminated section",
    }
    for text, message in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            with pytest.raises(ParseError, match=message):
                load_config(path)


def test_a_file_that_is_not_utf8_is_a_parse_error_at_its_byte(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"tau_steps = 5\nj_hz = 2\xff0\n")
    with pytest.raises(ParseError, match=r"^byte 22: not UTF-8 text"):
        load_config(str(path))


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    # Windows Notepad saves UTF-8 text with the mark EF BB BF in front
    text = "nu0_khz = 0.8\ntau_steps = 5\n"
    expected = load_config(write(tmp_path, text))
    assert expected != ExperimentConfig()
    path = tmp_path / "bom.cfg"
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert load_config(str(path)) == expected
    # a bad byte after the mark is named by its offset in the file
    path.write_bytes(codecs.BOM_UTF8 + b"tau_steps = 5\nj_hz = 2\xff0\n")
    with pytest.raises(ParseError, match=r"^byte 25: not UTF-8 text"):
        load_config(str(path))
    # only a leading mark is dropped; one inside the text is part of a key
    path.write_bytes(b"tau_steps = 5\n" + codecs.BOM_UTF8 + b"nu0_khz = 0.8\n")
    with pytest.raises(UnknownKeyError, match=r"^line 2: unknown key '\\ufeffnu0_khz'$"):
        load_config(str(path))


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
    with pytest.raises(ValidationError, match="tau_steps must be at most"):
        load_config(write(tmp_path, "tau_steps = 1000000000\n"))
    with pytest.raises(ValidationError, match="^output_precision must be at most 17, got 18$"):
        load_config(write(tmp_path, "output_precision = 18\n"))
    with pytest.raises(ValidationError, match="output_precision must be at most 17"):
        load_config(write(tmp_path, "output_precision = 3000000000\n"))


def test_grid_sizes_are_capped():
    # validation only: no grid of this size is ever built; the config caps
    # each size alone, since only surface builds the angle x delay product
    ExperimentConfig(theta_steps=MAX_GRID_POINTS, tau_steps=MAX_GRID_POINTS)
    for key in ("theta_steps", "tau_steps"):
        message = f"^{key} must be at most {MAX_GRID_POINTS}, got {MAX_GRID_POINTS + 1}$"
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(**{key: MAX_GRID_POINTS + 1})


def test_validation_rejects_out_of_range_weights():
    with pytest.raises(ValidationError):
        ExperimentConfig(populations=(0.0, 1.0))
    with pytest.raises(ValidationError):
        ExperimentConfig(populations=(0.3, 0.7, 0.0))


def test_cycle_config_view_converts_units():
    cycle = ExperimentConfig(tau1_us=250.0).cycle
    assert cycle.tau1 == pytest.approx(0.25)
    assert cycle.nu0 == 1.0 and cycle.nu1 == 2.0


def test_the_config_record_follows_a_replace():
    config = dataclasses.replace(
        ExperimentConfig(), j_hz=430.2, t_hot_khz=6.1, t_cold_khz=1.7, tau1_us=50.0
    )
    fresh = CycleConfig(j_hz=430.2, t_hot=6.1, t_cold=1.7, tau1=0.05)
    assert config.cycle == fresh
    for name in ("window", "hot", "z_cold", "ramp"):
        assert getattr(config.cycle, name) == getattr(fresh, name)
    assert dataclasses.replace(ExperimentConfig(), j_hz=430.2).cycle.window == 500.0 / 430.2
    assert np.array_equal(config.delays, np.linspace(0.0, 500.0 / 430.2, 64))


def test_the_config_keeps_its_twelve_keys():
    # the record and the derived grids are not config keys
    assert len(dataclasses.fields(ExperimentConfig)) == len(config_io._PARSERS) == 12
    assert "cycle" not in config_io._PARSERS


# --------------------------------------------------------------------- tables

ROWS = [
    (0.0, 1.0 / 3.0),
    (1.5, np.float64(0.25)),
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
        assert_same_document(handle.read(), "a,b\n")


def test_table_precision_is_significant_digits(tmp_path):
    path = str(tmp_path / "prec.csv")
    # a float32 array's cells are numpy floats that are not Python floats
    for rows in ([(0.123456789,)], np.array([[0.123456789]], dtype=np.float32)):
        write_table(rows, ["x"], path, precision=3)
        with open(path, encoding="utf-8") as handle:
            assert handle.read().splitlines()[1] == "0.123"


def test_table_rejects_schema_mismatches(tmp_path):
    with pytest.raises(ValueError, match="schema"):
        write_table([(1.0,)], ["a", "b"], str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="schema"):
        write_table(np.zeros((2, 3)), ["a", "b"], str(tmp_path / "x.csv"))


def test_table_rejects_unknown_formats(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_table(ROWS, ["tau_ms", "value"], str(tmp_path / "x.xml"), fmt="xml")


def test_table_write_into_a_missing_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        write_table(ROWS, ["tau_ms", "value"], str(tmp_path / "no" / "dir.csv"))


def test_a_temporary_name_clash_is_an_oserror_naming_the_table(tmp_path, monkeypatch):
    # the temporary name is drawn once; a leftover file of that name is
    # neither written into nor retried around
    monkeypatch.setattr(config_io.os, "urandom", bytes)
    leftover = tmp_path / f".partial-{'00' * 6}"
    leftover.write_text("left over", encoding="utf-8")
    path = str(tmp_path / "t.csv")
    with pytest.raises(OSError) as excinfo:
        write_table(ROWS, ["tau_ms", "value"], path)
    assert excinfo.value.filename == path
    assert leftover.read_text(encoding="utf-8") == "left over"
    assert not os.path.exists(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_array_and_row_tuples_write_the_same_bytes(tmp_path, fmt):
    table = np.array([[0.0, 1.0 / 3.0, -2.5e-7], [1.5, float("nan"), 1e300]])
    rows = [tuple(row) for row in table.tolist()]
    array_path, rows_path = tmp_path / f"array.{fmt}", tmp_path / f"rows.{fmt}"
    write_table(table, ["a", "b", "c"], str(array_path), fmt=fmt)
    write_table(rows, ["a", "b", "c"], str(rows_path), fmt=fmt)
    assert_same_document(array_path.read_bytes(), rows_path.read_bytes())


def test_mixed_columns_take_their_types_from_the_first_row(tmp_path):
    # the shape of a spectrum row: int index, two floats, a string kind
    row = (1, -0.5, 0.0, "population")
    schema = ["index", "re_per_ms", "im_per_ms", "kind"]
    path = tmp_path / "spectrum.csv"
    write_table([row], schema, str(path))
    assert path.read_text(encoding="utf-8").splitlines()[1] == "1,-0.5,0,population"
    path = tmp_path / "spectrum.json"
    write_table([row], schema, str(path), fmt="json")
    text = path.read_text(encoding="utf-8")
    assert '"index": 1,' in text and '"kind": "population"' in text
    assert json.loads(text) == [dict(zip(schema, row))]


def test_json_spells_bools_and_none_as_json_does(tmp_path):
    # numpy bools and ints come from row tuples as well; ints keep their text
    rows = [(True, 1.5, None, np.int64(3), 7), (np.False_, 2.5, "x", np.int32(-4), 8)]
    schema = ["flag", "x", "note", "count", "index"]
    path = tmp_path / "t.json"
    write_table(rows, schema, str(path), fmt="json")
    plain = [
        {"flag": True, "x": 1.5, "note": None, "count": 3, "index": 7},
        {"flag": False, "x": 2.5, "note": "x", "count": -4, "index": 8},
    ]
    assert json.loads(path.read_bytes()) == plain
    assert_same_document(path.read_bytes(), (json.dumps(plain, indent=2) + "\n").encode())
    # csv writes each such cell by its str, as before
    path = tmp_path / "t.csv"
    write_table(rows, schema, str(path))
    assert_same_document(
        path.read_bytes(), b"flag,x,note,count,index\nTrue,1.5,None,3,7\nFalse,2.5,x,-4,8\n"
    )


def test_non_ascii_cells_and_names_are_written_as_utf8(tmp_path):
    words = ["café", "Δf_neq", "100%", "%s", "a,b", 'say "hi"', "\U0001d6d1"]
    rows = [(k, 0.1 * k + 1e-3, words[k % len(words)]) for k in range(2 * len(words))]
    schema = ["n°", "τ_ms %", "label, \"é\""]
    # csv quotes the cells and names that hold a comma or a quote
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(schema)
    writer.writerows((k, format(x, ".12g"), word) for k, x, word in rows)
    csv_text = buffer.getvalue()
    json_text = json.dumps(
        [dict(zip(schema, (k, float(format(x, ".12g")), word))) for k, x, word in rows],
        indent=2,
    ) + "\n"
    for fmt, expected in {"csv": csv_text, "json": json_text}.items():
        path = tmp_path / f"t.{fmt}"
        write_table(rows, schema, str(path), fmt=fmt)
        assert_same_document(path.read_bytes(), expected.encode("utf-8"))


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
def test_csv_cells_and_names_holding_a_delimiter_read_back_exactly(tmp_path, char):
    words = [f"a{char}b", char, f'"{char}"', f"{char}{char}x", "plain"]
    rows = [(k, 0.5 * k + 0.1, word) for k, word in enumerate(words)]
    schema = ["n", f"x{char}ms", f"{char}label"]
    path = tmp_path / "t.csv"
    write_table(rows, schema, str(path))
    with open(path, encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    assert table == [schema, *([str(k), format(x, ".12g"), word] for k, x, word in rows)]


def test_a_cell_utf8_cannot_encode_leaves_no_file(tmp_path):
    # a lone surrogate has no UTF-8 bytes; the write fails whole, with no
    # table and no temporary file left
    rows = [(float(k), "ok") for k in range(BLOCK_ROWS + 1)] + [(0.5, "\ud800")]
    with pytest.raises(UnicodeEncodeError):
        write_table(rows, ["x", "label"], str(tmp_path / "t.csv"))
    assert list(tmp_path.iterdir()) == []


FLOAT_CELLS = st.floats(allow_subnormal=True) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2250738585072e-308]
)


def reference_tables(rows, schema, precision):
    """CSV and JSON text built cell by cell with format and json.dumps."""
    def rounded(value):
        return float(format(value, f".{precision}g"))

    csv_text = ",".join(schema) + "\n" + "".join(
        ",".join(format(v, f".{precision}g") for v in row) + "\n" for row in rows
    )
    json_text = json.dumps(
        [dict(zip(schema, map(rounded, row))) for row in rows], indent=2
    ) + "\n"
    return {"csv": csv_text, "json": json_text}


def assert_tables_match_reference(rows, schema, precision):
    table = np.array(rows, dtype=float).reshape(len(rows), len(schema))
    with tempfile.TemporaryDirectory() as workdir:
        for fmt, expected in reference_tables(rows, schema, precision).items():
            path = os.path.join(workdir, f"table.{fmt}")
            write_table(table, schema, path, fmt=fmt, precision=precision)
            with open(path, encoding="utf-8") as handle:
                assert_same_document(handle.read(), expected)


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 4),
    cells=st.lists(FLOAT_CELLS, max_size=24),
    precision=st.integers(1, 17),
)
def test_float_tables_match_format_and_json_dumps(width, cells, precision):
    """Every float renders as format(v, '.pg'), and JSON as json.dumps would."""
    rows = [tuple(cells[i:i + width]) for i in range(0, len(cells) - width + 1, width)]
    assert_tables_match_reference(rows, [f"c{k}" for k in range(width)], precision)


EDGE_VALUES = [
    1e12, 123456789012345.0, 1e15, 1e16, 3.0, 0.0, -0.0,
    2.2250738585072014e-308, 5e-324, 1e-310, 1.7976931348623157e308,
    float("nan"), float("inf"), -float("inf"),
]


@pytest.mark.parametrize("precision", [12, 15, 16])
@pytest.mark.parametrize("value", EDGE_VALUES)
def test_edge_floats_match_format_and_json_dumps(value, precision):
    # column a repeats the value (rendered once), column b holds it among
    # distinct cells; negated, it also lands in its own column
    rows = [(value, value, -value), (value, 1.0, 2.0), (value, 0.5, 0.25)]
    assert_tables_match_reference(rows, ["a", "b", "c"], precision)


def test_tables_longer_than_two_write_blocks_match_format_and_json_dumps():
    # a column of seven repeated values beside distinct cells
    n = 2 * BLOCK_ROWS + 3
    values = np.random.default_rng(7).normal(size=n)
    rows = [(0.1 * (k % 7), v) for k, v in enumerate(values.tolist())]
    assert_tables_match_reference(rows, ["axis", "value"], 12)


def spelling_edges(precision):
    """Floats at and beside each edge of ``config_io._spelled_alike``, and
    their negatives."""
    limit = float(10**precision)

    def around(value):
        return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]

    edges = [
        *around(limit), *around(1e-300),
        # round to an integer or to 10**p at p = 12
        0.99999999999995, 999999999999.5,
        # round to 1 or to 10**p at this precision
        1.0 - 0.4 * 10.0 ** -precision, limit - 0.4,
        2.5, 0.1, 0.0, float("nan"), float("inf"),
        # subnormals, whose repr may have fewer digits than their %g text
        5e-324, 1.5e-323, 1e-310,
    ]
    return edges + [-v for v in edges]


@pytest.mark.parametrize("precision", [1, 6, 11, 12, 15, 16, 17])
def test_floats_at_the_edges_of_the_spelling_test_match_json_dumps(precision):
    # the edge column is distinct, so its cells go through the %g slot, next
    # to a column whose cells almost all pass the test
    edges = spelling_edges(precision)
    others = (np.arange(len(edges)) + np.pi).tolist()
    assert_tables_match_reference(list(zip(edges, others)), ["edge", "other"], precision)


def test_the_spelling_test_passes_only_inside_its_edges():
    def alike(values, precision):
        return config_io._spelled_alike(np.array(values, dtype=float), precision).tolist()

    below_limit = np.nextafter(1e12, 0.0)
    assert alike([1e-300, 0.5, -123.25, 99999999.25, 1.5e-5], 12) == [True] * 5
    assert alike(
        [np.nextafter(1e-300, 0.0), 0.0, -0.0, 5e-324, 3.0, 0.99999999999995,
         999999999999.5, 1e11 + 0.5, below_limit, 1e12, 2e12 + 0.5,
         float("nan"), -float("inf")],
        12,
    ) == [False] * 13
    assert alike([0.5, 0.123], 15) == [True, True]
    assert alike([0.5, 0.123], 16) == [False, False]
    assert alike([0.5, 0.25], 1) == [False, False]


@pytest.mark.parametrize("row", [0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_a_row_spelled_otherwise_keeps_its_place_in_the_blocks(row):
    # every other row passes the spelling test; this one holds an integer
    n = BLOCK_ROWS + 2
    values = np.random.default_rng(row).uniform(1.0, 2.0, size=(n, 2))
    values[row, 1] = 3.0
    assert_tables_match_reference([tuple(r) for r in values.tolist()], ["a", "b"], 12)


def per_row_table(rows, schema, fmt, precision):
    """The table's bytes with one bytes ``%`` per row, on the slots and
    cells of ``config_io._columns``: every float cell under a ``%g`` slot.

    A JSON row whose ``%g`` cells all pass ``_spelled_alike`` fills the
    template with those slots; any other row fills an all-``%s`` template,
    with each of those cells spelled by ``json.dumps`` of its rounded value.
    """
    as_json = fmt == "json"
    slots, cells = config_io._columns(list(zip(*rows)), precision, as_json)
    rendered = zip(*(render(data) for render, data in cells))
    if not as_json:
        template = b",".join(slots) + b"\n"
        header = ",".join(schema).encode() + b"\n"
        return header + b"".join(map(template.__mod__, rendered))
    members = [json.dumps(name).replace("%", "%%").encode() for name in schema]

    def layout(slots):
        lines = (b"    " + key + b": " + slot for key, slot in zip(members, slots))
        return b"  {\n" + b",\n".join(lines) + b"\n  }"

    checked = [k for k, slot in enumerate(slots) if slot != b"%s"]

    def fill(row):
        floats = np.array([row[k] for k in checked], dtype=float)
        if config_io._spelled_alike(floats, precision).all():
            return layout(slots) % row
        spelled = list(row)
        for k in checked:
            spelled[k] = json.dumps(float(format(row[k], f".{precision}g"))).encode()
        return layout([b"%s"] * len(slots)) % tuple(spelled)

    return b"[\n" + b",\n".join(map(fill, rendered)) + b"\n]\n" if rows else b"[]\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n_rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
)
def test_block_filled_tables_match_one_row_at_a_time(tmp_path, fmt, n_rows):
    # a repeated float axis, distinct floats, ints and strings holding the
    # characters %, comma and quote; one schema name holds a % as well
    values = np.random.default_rng(n_rows).normal(size=n_rows).tolist()
    words = ["100%", "%s", "%(x)d", "a,b", 'say "hi"', "plain"]
    rows = [
        (0.25 * (k % 5), v, k - 7, words[k % len(words)])
        for k, v in enumerate(values)
    ]
    schema = ["axis", "load_%", "index", "%s label"]
    path = tmp_path / f"table.{fmt}"
    write_table(rows, schema, str(path), fmt=fmt, precision=12)
    data = path.read_bytes()
    assert_same_document(data, per_row_table(rows, schema, fmt, 12))
    if fmt == "json":
        payload = json.loads(data)
        assert len(payload) == n_rows
        labels = "\n".join(row["%s label"] for row in payload)
        assert_same_document(labels, "\n".join(row[3] for row in rows))


def test_signed_zeros_keep_their_own_text(tmp_path):
    rows = [(0.0, 1.0), (-0.0, 1.0), (0.0, float("nan")), (-0.0, float("nan"))]
    path = tmp_path / "zeros.csv"
    write_table(rows, ["z", "w"], str(path))
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [
        "0,1", "-0,1", "0,nan", "-0,nan"
    ]
    path = tmp_path / "zeros.json"
    write_table(rows, ["z", "w"], str(path), fmt="json")
    text = path.read_text(encoding="utf-8")
    assert [line.strip() for line in text.splitlines() if '"z"' in line] == [
        '"z": 0.0,', '"z": -0.0,', '"z": 0.0,', '"z": -0.0,'
    ]
    assert text.count("NaN") == 2


def grid_axis(n, rng):
    """``n`` distinct-looking values holding ``-0.0`` and, from three values
    on, ``0.0`` and NaN as well, spread over the axis."""
    axis = rng.uniform(-1.0, 1.0, size=n)
    where = np.unique(np.linspace(0, n - 1, 3).astype(int))
    axis[where] = [-0.0, 0.0, float("nan")][: where.size]
    return axis


@pytest.mark.parametrize("precision", [12, 16])
@pytest.mark.parametrize("n_outer", [1, 3])
@pytest.mark.parametrize("n_inner", [1, 7, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_grid_tables_match_their_rows_written_out(n_inner, n_outer, precision):
    # the grid's axes are rendered once per value and its rows filled from
    # each inner value's tail; the reference spells every cell of every row.
    # Integers, zeros and non-finite values put JSON rows spelled otherwise
    # inside the blocks, which hold several outer rows when the inner axis is
    # short; at precision 16 every JSON row is spelled otherwise
    rng = np.random.default_rng(n_inner * n_outer + precision)
    outer, inner = grid_axis(n_outer, rng), grid_axis(n_inner, rng)
    values = rng.uniform(1.0, 2.0, size=(n_outer * n_inner, 2))
    specials = [0.0, 3.0, float("inf"), float("nan")][: values.size]
    values.flat[rng.choice(values.size, len(specials), replace=False)] = specials
    points = [(o, i) for o in outer.tolist() for i in inner.tolist()]
    rows = [(*point, *cells) for point, cells in zip(points, values.tolist())]
    schema = ["theta_%", "tau_ms", "%s value", "other"]
    with tempfile.TemporaryDirectory() as workdir:
        for fmt, expected in reference_tables(rows, schema, precision).items():
            path = os.path.join(workdir, f"grid.{fmt}")
            write_table(GridRows(outer, inner, values), schema, path, fmt, precision)
            with open(path, encoding="utf-8") as handle:
                assert_same_document(handle.read(), expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n_outer, n_inner, n_blocks", [(3, BLOCK_ROWS + 1, 6), (2000, 5, 3), (1, 0, 0)]
)
def test_grid_tables_are_written_in_blocks_of_at_most_block_rows(
    monkeypatch, fmt, n_outer, n_inner, n_blocks
):
    # a block holds whole outer rows, or a slice of one longer than a block
    written = []
    monkeypatch.setattr(config_io, "_atomic_write", lambda path, pieces: written.extend(pieces))
    grid = GridRows(
        np.arange(n_outer, dtype=float), np.arange(n_inner, dtype=float),
        np.full((n_outer * n_inner, 1), 0.5),
    )
    write_table(grid, ["a", "b", "c"], "unused", fmt)
    blocks = written[1:-1] if fmt == "json" else written[1:]
    rows = [block.count(b"{") if fmt == "json" else block.count(b"\n") for block in blocks]
    assert sum(rows) == len(grid) and all(0 < n <= BLOCK_ROWS for n in rows)
    assert len(blocks) == n_blocks


def test_grid_rows_must_fill_the_grid(tmp_path):
    grid = GridRows(np.zeros(2), np.zeros(3), np.zeros((5, 1)))
    with pytest.raises(ValueError, match="schema"):
        write_table(grid, ["a", "b", "c"], str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="schema"):
        write_table(GridRows(np.zeros(2), np.zeros(3), np.zeros((6, 2))),
                    ["a", "b", "c"], str(tmp_path / "x.csv"))


POOL_CELLS = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), 3.0, 1e12, 0.1, -2.5e-7, 5e-324, 1e300]
)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n_rows=st.integers(1, 24),
    pooled=st.lists(st.booleans(), min_size=1, max_size=4),
    precision=st.integers(1, 17),
)
def test_tables_with_repeated_cells_match_format_and_json_dumps(
    data, n_rows, pooled, precision
):
    """Columns drawn from a small pool repeat their cells; the others rarely do."""
    columns = [
        data.draw(st.lists(POOL_CELLS if small else FLOAT_CELLS, min_size=n_rows,
                           max_size=n_rows))
        for small in pooled
    ]
    rows = list(zip(*columns))
    assert_tables_match_reference(rows, [f"c{k}" for k in range(len(columns))], precision)


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_their_mode_from_the_umask(tmp_path, mask, mode):
    previous = os.umask(mask)
    try:
        write_table(ROWS, ["tau_ms", "value"], str(tmp_path / "table.csv"))
    finally:
        os.umask(previous)
    assert (tmp_path / "table.csv").stat().st_mode & 0o777 == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
