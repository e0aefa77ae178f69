"""Experiment configuration files and tabular result output.

The config format is flat ``key = value`` text.  Bracketed section headers
are allowed for organization and otherwise ignored, ``#`` starts a comment,
and every key is optional; missing keys fall back to the built-in defaults.
Unknown keys are a hard error so typos cannot silently revert a parameter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .exceptions import ParseError, UnknownKeyError, ValidationError
from .otto import CycleConfig

#: largest grid a config may ask for, 5x the 200 x 4096 surface; the config
#: caps each grid size, and surface the angle x delay product it builds
MAX_GRID_POINTS = 2**22

#: table rows rendered and written per block, so no table is held as one text
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter set for the command-line pipelines.

    Frequencies and temperatures in kHz (``j_hz`` in Hz), ``tau1_us`` in
    microseconds, ``tau_bar_ms`` in ms; ``populations`` are the weights of
    the two x eigenstates in the base state.
    """

    nu0_khz: float = 1.0
    nu1_khz: float = 2.0
    j_hz: float = 215.1
    t_hot_khz: float = 4.77
    t_cold_khz: float = 2.38
    tau1_us: float = 100.0
    tau_bar_ms: float = 4.65
    populations: tuple = (0.3, 0.7)
    theta_steps: int = 73
    tau_steps: int = 64
    epsilon_equilibrium_khz: float = 0.01
    output_precision: int = 12

    def __post_init__(self):
        object.__setattr__(self, "populations", tuple(self.populations))
        for key, parse in _PARSERS.items():
            if parse is _parse_float and not np.isfinite(getattr(self, key)):
                raise ValidationError(f"{key} must be finite, got {getattr(self, key)!r}")
        if not 0.0 < self.nu0_khz < self.nu1_khz:
            raise ValidationError(
                f"nu1_khz must exceed nu0_khz > 0, got {self.nu0_khz}, {self.nu1_khz}"
            )
        if self.t_hot_khz <= 0.0 or self.t_cold_khz <= 0.0:
            raise ValidationError("t_hot_khz and t_cold_khz must be positive")
        if min(self.j_hz, self.tau1_us, self.tau_bar_ms) <= 0.0:
            raise ValidationError("j_hz, tau1_us and tau_bar_ms must be positive")
        if len(self.populations) != 2 or not all(
            0.0 < p < 1.0 for p in self.populations
        ):
            raise ValidationError("populations must be two weights inside (0, 1)")
        if abs(sum(self.populations) - 1.0) > 1e-12:
            raise ValidationError(
                f"populations sum to {sum(self.populations)!r}, expected 1"
            )
        if self.theta_steps < 2 or self.tau_steps < 2:
            raise ValidationError("theta_steps and tau_steps must be at least 2")
        for key in ("theta_steps", "tau_steps"):
            if getattr(self, key) > MAX_GRID_POINTS:
                raise ValidationError(
                    f"{key} must be at most {MAX_GRID_POINTS}, got {getattr(self, key)}"
                )
        if self.epsilon_equilibrium_khz <= 0.0:
            raise ValidationError("epsilon_equilibrium_khz must be positive")
        if self.output_precision < 1:
            raise ValidationError("output_precision must be at least 1")

    def cycle_config(self) -> CycleConfig:
        """The refrigerator-cycle view of this configuration."""
        return CycleConfig(
            nu0=self.nu0_khz,
            nu1=self.nu1_khz,
            j_hz=self.j_hz,
            t_hot=self.t_hot_khz,
            t_cold=self.t_cold_khz,
            tau1=self.tau1_us / 1000.0,
            tau_bar=self.tau_bar_ms,
        )


def _parse_float(key: str, text: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"line {lineno}: value {text!r} for {key} is not a number"
        ) from None


def _parse_int(key: str, text: str, lineno: int) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ParseError(
            f"line {lineno}: value {text!r} for {key} is not an integer"
        ) from None


def _parse_pair(key: str, text: str, lineno: int) -> tuple:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != 2:
        raise ParseError(
            f"line {lineno}: {key} needs two comma-separated values, got {text!r}"
        )
    return tuple(_parse_float(key, piece, lineno) for piece in parts)


#: each config key's parser, chosen by the type of its default
_PARSERS = {
    field.name: {float: _parse_float, int: _parse_int, tuple: _parse_pair}[
        type(field.default)
    ]
    for field in fields(ExperimentConfig)
}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; missing keys take the defaults."""
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.read().splitlines()

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
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _PARSERS[key](key, value, lineno)
    return ExperimentConfig(**values)


def _atomic_write(path: str, pieces) -> None:
    """Write the strings of ``pieces`` one after another to ``path``, atomically.

    An ``OSError`` names ``path``, not the temporary file it was written to.
    """
    directory = os.path.dirname(os.path.abspath(path))
    # os.open with mode 0o666 lets the umask set the file's permissions, as
    # open() would; tempfile.mkstemp always creates its files 0600
    for _ in range(100):
        tmp_path = os.path.join(directory, f".partial-{os.urandom(6).hex()}")
        try:
            fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    else:
        raise FileExistsError(f"no free temporary file name in {directory}")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_table(
    rows, schema: list, path: str, fmt: str = "csv", precision: int = 12
) -> None:
    """Serialize a table as CSV or a JSON array of objects.

    ``rows`` holds the cells in ``schema`` order, as a 2-D ``(n_rows,
    n_cols)`` array or a sequence of row tuples.  Each column is rendered by
    the type of its cell in the first row: floats with ``precision``
    significant digits (``%.{precision}g``), ints and strings as they are.
    JSON floats are spelled as ``json.dumps`` spells the rounded value.
    '.' decimal separator and LF line endings; the cells are rendered and
    written in blocks of :data:`BLOCK_ROWS` rows, the write is atomic (temp
    file plus rename in the target directory) and the file's mode follows
    the umask.

    A JSON row goes through the ``%.{precision}g`` slots that CSV uses
    unless one of its floats is spelled otherwise by ``json.dumps`` or may
    be (see :func:`_spelled_alike`); such a row is filled with the exact
    spellings (see :func:`_float_texts`) instead.  A float column at most
    half of whose cells are distinct, such as a grid axis repeated or tiled
    over the rows of a surface, is rendered once per distinct value, told
    apart by bit pattern so that ``0.0`` and ``-0.0`` keep their own text.
    The output is the same either way.
    """
    schema = list(schema)
    if isinstance(rows, np.ndarray):
        aligned = rows.ndim == 2 and rows.shape[1] == len(schema)
        columns = list(rows.T) if len(rows) else []
    else:
        aligned = all(len(row) == len(schema) for row in rows)
        columns = list(zip(*rows))
    if not aligned:
        raise ValueError(f"rows do not have one cell per schema column {schema}")

    fmt = fmt.lower()
    if fmt == "csv":
        slots, cells = _columns(columns, precision, as_json=False)
        blocks = _filled(",".join(slots) + "\n", "", cells)
        pieces = chain([",".join(schema) + "\n"], blocks)
    elif fmt == "json":
        import json  # loaded only for JSON tables

        # the layout json.dumps(payload, indent=2) writes, filled per row
        members = [json.dumps(name).replace("%", "%%") for name in schema]

        def layout(slots):
            lines = (f"    {key}: {slot}" for key, slot in zip(members, slots))
            return "  {\n" + ",\n".join(lines) + "\n  }"

        slots, cells = _columns(columns, precision, as_json=True)
        blocks = _filled(
            layout(slots), ",\n", cells,
            fallback=layout(["%s"] * len(slots)),
            checked=[k for k, slot in enumerate(slots) if slot != "%s"],
            precision=precision,
        )
        first = next(blocks, None)
        pieces = ["[]\n"] if first is None else chain(["[\n", first], blocks, ["\n]\n"])
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    _atomic_write(path, pieces)


def _filled(
    template: str,
    separator: str,
    cells: list,
    fallback: str = "",
    checked: list = (),
    precision: int = 0,
):
    """The rows of ``cells`` (see :func:`_columns`) filled into ``template``
    and joined by ``separator``, as text blocks of at most
    :data:`BLOCK_ROWS` rows; each block after the first starts with
    ``separator``.  Only one block's cells exist at a time.

    A block is filled by one ``%`` on the rows' templates joined, with the
    columns' cells interleaved into one row-major list.  A row in which a
    float of a ``checked`` column fails :func:`_spelled_alike` at
    ``precision`` is filled into ``fallback``, whose slots are all ``%s``,
    with those floats as their JSON spellings.
    """
    n_rows = len(cells[0][1]) if cells else 0
    width = len(cells)
    for start in range(0, n_rows, BLOCK_ROWS):
        part = slice(start, start + BLOCK_ROWS)
        size = min(BLOCK_ROWS, n_rows - start)
        flat = [None] * (size * width)
        for k, (render, data) in enumerate(cells):
            flat[k::width] = render(data[part])
        templates = [template] * size
        if checked:
            values = [cells[k][1][part] for k in checked]
            alike = np.logical_and.reduce([_spelled_alike(v, precision) for v in values])
            rows = np.flatnonzero(~alike)
            for row in rows.tolist():
                templates[row] = fallback
            for k, column in zip(checked, values):
                texts = _float_texts(column[rows], precision, as_json=True)
                for cell, text in zip((rows * width + k).tolist(), texts):
                    flat[cell] = text
        text = separator.join(templates) % tuple(flat)
        yield (separator if start else "") + text


def _columns(columns: list, precision: int, as_json: bool) -> tuple:
    """Each column's ``%``-template slot and ``(render, data)`` pair, in
    column order; the cells of the rows in a slice are ``render(data[slice])``.

    Strings are JSON-quoted for ``as_json`` and ints are left as they are.
    Float cells stay numbers under the ``%.{precision}g`` slot, in CSV and
    in JSON alike, except in a column at most half of whose cells are
    distinct, where they become text under a ``%s`` slot.  That choice is
    made on the whole column: one sort of its bit patterns counts the
    distinct values, and only such a column looks its cells up among them
    and renders each distinct value once.
    """
    slots, cells = [], []
    for column in columns:
        slot, render = "%s", list
        if isinstance(column[0], float):
            column = np.asarray(column, dtype=float)
            bits = column.view(np.int64)
            ordered = np.sort(bits)
            first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
            if 2 * np.count_nonzero(first) <= column.size:
                distinct = ordered[first]
                texts = np.array(
                    _float_texts(distinct.view(float), precision, as_json), dtype=object
                )
                column = np.searchsorted(distinct, bits)
                render = lambda part, texts=texts: texts[part].tolist()
            else:
                slot, render = f"%.{precision}g", np.ndarray.tolist
        elif as_json and isinstance(column[0], str):
            import json

            render = lambda part: list(map(json.dumps, part))
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


#: json.dumps spellings of the non-finite floats
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: np.ndarray, precision: int, as_json: bool) -> list:
    """Floats as ``%.{precision}g`` text, or as ``json.dumps`` spells the rounded value.

    The JSON spelling is ``repr(float(text))``, with the non-finite reprs
    renamed after it, since at ``precision >= 16`` a finite value can round
    to infinity.
    """
    texts = list(map(f"%.{precision}g".__mod__, values.tolist()))
    if not as_json:
        return texts
    return [_JSON_NON_FINITE.get(text, text) for text in map(repr, map(float, texts))]
