"""Experiment configuration files and tabular result output.

The config format is flat ``key = value`` text.  Bracketed section headers
are allowed for organization and otherwise ignored, ``#`` starts a comment,
and every key is optional; missing keys fall back to the built-in defaults.
Unknown keys are a hard error so typos cannot silently revert a parameter.
A config holds its physics record, :class:`~mpembasim.otto.CycleConfig`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .exceptions import ParseError, ValidationError
from .otto import CycleConfig

#: largest grid a config may ask for, 5x the 200 x 4096 surface; the config
#: caps each grid size, and surface the angle x delay product it builds
MAX_GRID_POINTS = 2**22

#: each int key's inclusive ``(low, high)`` domain; 17 significant digits
#: spell every float64 so that it reads back exactly, and ``%`` refuses
#: precisions past 2**31 - 1
INT_RANGES = {
    "theta_steps": (2, MAX_GRID_POINTS),
    "tau_steps": (2, MAX_GRID_POINTS),
    "output_precision": (1, 17),
}

#: table rows rendered and written per block, so no table is held as one text
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter set for the command-line pipelines.

    Frequencies and temperatures in kHz (``j_hz`` in Hz), ``tau1_us`` in
    microseconds, ``tau_bar_ms`` in ms; ``populations`` are the weights of
    the two x eigenstates in the base state.  Construction keeps the physics
    record, ``cycle``, a :class:`~mpembasim.otto.CycleConfig` in its units
    (``tau1`` in ms); it is not a config key, and the physics defaults are
    its own.  The config refuses, as ``{key} must ..., got {value!r}``, the
    first key in field order outside its domain, ``(0, inf)`` or its row of
    :data:`INT_RANGES`; then ``nu1_khz <= nu0_khz``, a ``tau1_us`` that
    underflows to 0 ms and ``populations`` not two weights in ``(0, 1)``
    that sum to 1.  The record's float-range refusals pass through as they
    read.
    """

    nu0_khz: float = CycleConfig.nu0
    nu1_khz: float = CycleConfig.nu1
    j_hz: float = CycleConfig.j_hz
    t_hot_khz: float = CycleConfig.t_hot
    t_cold_khz: float = CycleConfig.t_cold
    tau1_us: float = CycleConfig.tau1 * 1000.0
    tau_bar_ms: float = CycleConfig.tau_bar
    populations: tuple = (0.3, 0.7)
    theta_steps: int = 73
    tau_steps: int = 64
    epsilon_equilibrium_khz: float = 0.01
    output_precision: int = 12

    def __post_init__(self):
        object.__setattr__(self, "populations", tuple(self.populations))
        # a NaN fails every comparison, so it fails these too
        for key, parse in _PARSERS.items():
            value = getattr(self, key)
            if parse is _parse_float and not 0.0 < value < math.inf:
                raise ValidationError(f"{key} must be positive and finite, got {value!r}")
            if parse is _parse_int:
                low, high = INT_RANGES[key]
                if not low <= value <= high:
                    raise ValidationError(f"{key} must be from {low} to {high}, got {value!r}")
        if not self.nu0_khz < self.nu1_khz:
            raise ValidationError(
                f"nu1_khz must exceed nu0_khz ({self.nu0_khz!r}), got {self.nu1_khz!r}"
            )
        if self.tau1_us / 1000.0 == 0.0:
            raise ValidationError(f"tau1_us {self.tau1_us!r} underflows to 0 ms")
        try:
            cycle = CycleConfig(
                nu0=self.nu0_khz, nu1=self.nu1_khz, j_hz=self.j_hz, t_hot=self.t_hot_khz,
                t_cold=self.t_cold_khz, tau1=self.tau1_us / 1000.0, tau_bar=self.tau_bar_ms,
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        object.__setattr__(self, "cycle", cycle)
        weights = self.populations
        inside = len(weights) == 2 and all(0.0 < p < 1.0 for p in weights)
        if not inside or abs(sum(weights) - 1.0) > 1e-12:
            raise ValidationError(
                f"populations must be two weights inside (0, 1) that sum to 1, got {weights!r}"
            )

    @property
    def delays(self) -> np.ndarray:
        """The ``tau_steps`` delays from 0 to the swap window, in ms."""
        return np.linspace(0.0, self.cycle.window, self.tau_steps)

    @property
    def base_bloch(self) -> np.ndarray:
        """Bloch vector ``(p0 - p1, 0, 0)`` of the base state, whose
        ``populations`` weight the two x eigenstates."""
        p0, p1 = self.populations
        return np.array([p0 - p1, 0.0, 0.0])


def _parse_float(key: str, text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{where}: value {text!r} for {key} is not a number") from None


def _parse_int(key: str, text: str, where: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ParseError(f"{where}: value {text!r} for {key} is not an integer") from None


def _parse_pair(key: str, text: str, where: str) -> tuple:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != 2:
        raise ParseError(f"{where}: {key} needs two comma-separated values, got {text!r}")
    return tuple(_parse_float(key, piece, where) for piece in parts)


#: each config key's parser, chosen by the type of its default; it takes the
#: key, the text and where the text came from, ``line N`` or a flag's name
_PARSERS = {
    field.name: {float: _parse_float, int: _parse_int, tuple: _parse_pair}[
        type(field.default)
    ]
    for field in fields(ExperimentConfig)
}


def load_config(path: str | None, flags=()) -> ExperimentConfig:
    """Parse a config file, let the override ``flags`` replace its values and
    validate the result once; missing keys take the defaults.

    ``path`` None reads no file.  ``flags`` holds ``(flag, key, text)``
    triples, such as ``("--tau-steps", "tau_steps", "64")``: each text goes
    through its key's parser, as the file's values do, and a malformed one
    is a :class:`ParseError` that names the flag where a file's names its
    line.  So a file value the config refuses is no error when a flag
    replaces it.
    """
    values = _read_values(path) if path is not None else {}
    for flag, key, text in flags:
        values[key] = _PARSERS[key](key, text, flag)
    return ExperimentConfig(**values)


def _read_values(path: str) -> dict:
    """The parsed values of the config file at ``path``, by key."""
    with open(path, "rb") as handle:
        data = handle.read()
    # "utf-8-sig" drops a leading byte-order mark, as Windows editors write
    # one; a decoding error then counts its bytes from after the mark, which
    # exc.object starts at
    try:
        raw_lines = data.decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        offset = exc.start + len(data) - len(exc.object)
        raise ParseError(f"byte {offset}: not UTF-8 text ({exc.reason})") from None

    values = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        column = raw.index(line[0]) + 1
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(
                    f"line {lineno}, column {column}: unterminated section header"
                )
            continue
        if "=" not in line:
            raise ParseError(
                f"line {lineno}, column {column}: expected 'key = value'"
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _PARSERS[key](key, value, f"line {lineno}")
    return values


def _atomic_write(path: str, pieces) -> None:
    """Write the bytes of ``pieces`` one after another to ``path``, atomically.

    The file is opened in binary mode, so the pieces reach it as they are:
    no encoding and no newline translation.  An ``OSError`` names ``path``,
    not the temporary file it was written to.  On any error, such as one
    raised while ``pieces`` is drawn, the temporary file is removed and
    ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    # os.open with mode 0o666 lets the umask set the file's permissions, as
    # open() would; tempfile.mkstemp always creates its files 0600
    # one try: O_EXCL makes a clash with a leftover file an OSError, not a write
    tmp_path = os.path.join(directory, f".partial-{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


class GridRows:
    """The rows of a grid product, outer-major: each ``inner`` axis value
    under each ``outer`` one in turn, then that grid point's row of
    ``values``, a ``(outer.size * inner.size, n_cols)`` array.  Its length
    is its number of rows."""

    def __init__(self, outer: np.ndarray, inner: np.ndarray, values: np.ndarray):
        self.outer, self.inner, self.values = outer, inner, values

    def __len__(self) -> int:
        return len(self.values)


def write_table(
    rows, schema: list, path: str, fmt: str = "csv", precision: int = 12
) -> None:
    """Serialize a table as CSV or a JSON array of objects.

    ``rows`` holds the cells in ``schema`` order, as a 2-D ``(n_rows,
    n_cols)`` array or a sequence of row tuples, or is a :class:`GridRows`,
    whose two axes are the first two columns.  Each column is rendered by
    the type of its cell in the first row: floats with ``precision``
    significant digits (``%.{precision}g``), other cells by their ``str``.
    JSON floats are spelled as ``json.dumps`` spells the rounded value, and
    JSON strings, bools and ``None`` as it spells them.  A CSV cell or schema
    name that holds a comma, a double quote, CR or LF is quoted as RFC 4180
    asks, other CSV text is written as it is.  '.' decimal
    separator, LF line endings and UTF-8; the table is built as bytes, its
    cells rendered and written in blocks of at most :data:`BLOCK_ROWS` rows,
    the write is atomic (temp file plus rename in the target directory) and
    the file's mode follows the umask.

    A JSON row goes through the ``%.{precision}g`` slots that CSV uses
    unless one of its floats is spelled otherwise by ``json.dumps`` or may
    be (see :func:`_spelled_alike`); such a row is filled with the exact
    spellings (see :func:`_float_texts`) instead.  A grid's axis values are
    rendered once each, as those exact spellings in JSON; the output is the
    same as for the grid's rows written out in full.
    """
    schema = list(schema)
    grid = isinstance(rows, GridRows)
    axes = [np.asarray(axis, dtype=float) for axis in (rows.outer, rows.inner)] if grid else []
    values = rows.values if grid else rows
    width = len(schema) - len(axes)
    if isinstance(values, np.ndarray):
        aligned = values.ndim == 2 and values.shape[1] == width
        columns = list(values.T) if len(values) else []
    else:
        aligned = all(len(row) == width for row in values)
        columns = list(zip(*values))
    if grid:
        aligned = aligned and len(values) == axes[0].size * axes[1].size
    if not aligned:
        raise ValueError(f"rows do not have one cell per schema column {schema}")

    fmt = fmt.lower()
    if fmt == "csv":
        as_json, separator = False, b""

        def layout(slots):
            return b",".join(slots) + b"\n"

    elif fmt == "json":
        import json  # loaded only for JSON tables

        # the layout json.dumps(payload, indent=2) writes, filled per row;
        # json.dumps spells the names in ASCII
        as_json, separator = True, b",\n"
        members = [json.dumps(name).replace("%", "%%").encode() for name in schema]

        def layout(slots):
            lines = (b"    %s: %s" % (key, slot) for key, slot in zip(members, slots))
            return b"  {\n" + b",\n".join(lines) + b"\n  }"

    else:
        raise ValueError(f"unknown table format {fmt!r}")
    slots, cells = _columns(columns, precision, as_json)
    axis_texts = [_float_texts(axis, precision, as_json) for axis in axes]
    blocks = _filled(
        [layout([_AXIS_CELL] * len(axes) + s) for s in (slots, [b"%s"] * len(slots))],
        separator, axis_texts, axes[1].size if grid else len(values), cells,
        [k for k, slot in enumerate(slots) if as_json and slot != b"%s"], precision,
    )
    if not as_json:
        pieces = chain([",".join(map(_csv_field, schema)).encode() + b"\n"], blocks)
    elif len(rows):
        pieces = chain([b"[\n"], blocks, [b"\n]\n"])
    else:
        pieces = [b"[]\n"]
    _atomic_write(path, pieces)


#: where an axis cell's text goes in a row template; json.dumps escapes it
#: in the JSON member names, and a CSV row template holds only slots
_AXIS_CELL = b"\0"


def _filled(
    layouts: list,
    separator: bytes,
    axis_texts: list,
    n_inner: int,
    cells: list,
    checked: list,
    precision: int,
):
    """The table's rows joined by ``separator``, as bytes blocks of at most
    :data:`BLOCK_ROWS` rows; each block after the first starts with
    ``separator``.  Only one block's cells exist at a time.

    ``layouts`` are the row template and its fallback (every value slot
    ``%s``), with an :data:`_AXIS_CELL` for each of the ``axis_texts``:
    none in a plain table of ``n_inner`` rows, the outer and the inner axis
    texts in a grid.  A row is its lead, the template up to and with its
    outer text (empty in a plain table), then the tail of its inner index,
    the rest with its inner text; so each axis text is placed once, and the
    rows of one outer value are the tails joined with its lead.  A block
    holds whole outer rows, or a slice of one longer than a block, and is
    filled by one bytes ``%`` on the value columns' cells (see
    :func:`_columns`) interleaved into one row-major list.  A row in which a float of a
    ``checked`` column fails :func:`_spelled_alike` at ``precision`` takes
    the fallback's tail, with those floats as their JSON spellings.
    """
    (*edges, tail), (*_, fallback) = (text.split(_AXIS_CELL) for text in layouts)
    leads, tails = [b""], None
    if axis_texts:
        (lead, between), (outer, inner) = edges, axis_texts
        leads = [lead + text for text in outer]
        tails = [between + text + tail for text in inner]

    span = max(1, min(n_inner, BLOCK_ROWS))
    per_block = BLOCK_ROWS // span
    width = len(cells)
    for first_outer in range(0, len(leads), per_block):
        block_leads = leads[first_outer:first_outer + per_block]
        for start in range(0, n_inner, span):
            size = min(span, n_inner - start)
            first = first_outer * n_inner + start
            part = slice(first, first + len(block_leads) * size)
            inner_tails = [tail] * size if tails is None else tails[start:start + size]
            block_tails = inner_tails * len(block_leads)
            flat = [None] * (part.stop - first) * width
            for k, (render, data) in enumerate(cells):
                flat[k::width] = render(data[part])
            if checked:
                values = [cells[k][1][part] for k in checked]
                alike = np.logical_and.reduce([_spelled_alike(v, precision) for v in values])
                rows = np.flatnonzero(~alike)
                if rows.size:
                    spelled = [fallback] * size if tails is None else [
                        between + text + fallback for text in inner[start:start + size]
                    ]
                    for row in rows.tolist():
                        block_tails[row] = spelled[row % size]
                for k, column in zip(checked, values):
                    texts = _float_texts(column[rows], precision, as_json=True)
                    for cell, text in zip((rows * width + k).tolist(), texts):
                        flat[cell] = text
            template = (separator if first else b"") + separator.join(
                lead + (separator + lead).join(block_tails[o * size:(o + 1) * size])
                for o, lead in enumerate(block_leads)
            )
            yield template % tuple(flat)


def _columns(columns: list, precision: int, as_json: bool) -> tuple:
    """Each column's bytes ``%``-template slot and ``(render, data)`` pair,
    in column order; the cells of the rows in a slice are
    ``render(data[slice])``.

    Float cells, Python or numpy of any width, stay numbers under the
    ``%.{precision}g`` slot, in CSV and in JSON alike.  Other cells go under
    a ``%s`` slot as UTF-8 bytes of their ``str``, quoted in CSV as RFC 4180
    asks (:func:`_csv_field`), except in JSON strings, bools and ``None``,
    which are spelled as ``json.dumps`` spells them (``true``, ``false``,
    ``null``); ints, Python or numpy, keep their ``str`` there too.
    """
    slots, cells = [], []
    for column in columns:
        slot, render = b"%s", _json_texts if as_json else _csv_texts
        if isinstance(column[0], (float, np.floating)):
            column = np.asarray(column, dtype=float)
            slot, render = b"%%.%dg" % precision, np.ndarray.tolist
        elif isinstance(column, np.ndarray):
            column = column.tolist()
        slots.append(slot)
        cells.append((render, column))
    return slots, cells


def _spelled_alike(values: np.ndarray, precision: int) -> np.ndarray:
    """Which floats are surely spelled by ``json.dumps`` of their rounded
    value as ``%.{precision}g`` spells them.

    A float passes when ``precision <= 15``, ``|v| >= 1e-300`` and ``|v -
    rint(v)| > 10**(1 - precision) * |v|``.  The last bound also keeps
    ``|v|`` below ``10**(precision - 1) / 2`` and fails NaN and the
    infinities.  Rounding to ``precision`` digits moves ``v`` by at most
    half that bound, so no passing float's text is an integer (which JSON
    writes with ``.0``) or reaches ``10**precision`` (an ``e+`` exponent,
    which JSON writes out); and its rounded value is a normal double, whose
    repr, the shortest decimal that reads back as it, is the text itself:
    no two decimals of at most 15 significant digits read back as the same
    normal double.  Zeros and subnormals fail too.  The test is
    conservative: a float that fails may still be spelled alike.
    """
    if precision > 15:
        return np.zeros(values.shape, dtype=bool)
    magnitude = np.abs(values)
    with np.errstate(invalid="ignore"):  # inf - rint(inf)
        fraction = np.abs(values - np.rint(values))
    return (magnitude >= 1e-300) & (fraction > 10.0 ** (1 - precision) * magnitude)


def _csv_field(text: str) -> str:
    """``text`` as an RFC 4180 field: in double quotes, with each inner quote
    doubled, when it holds a comma, a double quote, CR or LF."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_texts(cells) -> list:
    """The UTF-8 bytes of each cell's ``str`` as a csv field (:func:`_csv_field`)."""
    return [_csv_field(str(cell)).encode() for cell in cells]


def _json_texts(cells) -> list:
    """Each cell as JSON bytes: strings, bools and ``None`` as ``json.dumps``
    spells them (numpy bools as Python ones), any other cell by its ``str``."""
    import json

    return [
        json.dumps(bool(cell) if isinstance(cell, np.bool_) else cell).encode()
        if cell is None or isinstance(cell, (str, bool, np.bool_))
        else str(cell).encode()
        for cell in cells
    ]


#: json.dumps spellings of the non-finite floats
_JSON_NON_FINITE = {b"nan": b"NaN", b"inf": b"Infinity", b"-inf": b"-Infinity"}


def _float_texts(values: np.ndarray, precision: int, as_json: bool) -> list:
    """Floats as ``%.{precision}g`` bytes, or as ``json.dumps`` spells the rounded value.

    The JSON spelling is ``repr(float(text))`` (bytes ``%a``), with the
    non-finite reprs renamed after it, since at ``precision >= 16`` a finite
    value can round to infinity.
    """
    texts = list(map((b"%%.%dg" % precision).__mod__, values.tolist()))
    if not as_json:
        return texts
    return [_JSON_NON_FINITE.get(text, text) for text in map(b"%a".__mod__, map(float, texts))]
