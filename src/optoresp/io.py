"""File schemas: trace/power-series CSV, Monte Carlo curve CSV, result envelopes.

All numeric columns carry unit-labeled headers; comment lines start with
``#``.  The JSON result envelope has a fixed key order and a schema tag that
changes whenever column semantics change.  Every CSV is read through
``_parse_table``, the one header check, which names a malformed or
non-finite cell by ``path:lineno``.

A table's body, the lines after its header, is parsed in one
``np.loadtxt`` call fed the list of body lines, which reads each cell to the
same bits as ``float()`` and takes each list item as one line, whichever of
``\\n``, ``\\r\\n`` or ``\\r`` ends it.  A body that call refuses or reads as
non-finite, or that holds a comment, goes to the row loop ``_rows``: the one
path that names the bad line, and that also reads the cells ``float()``
takes and ``loadtxt`` does not, such as ``1_0``.

The writer formats every float with ``repr``, which a read gives back bit
for bit.  Each column is mapped through ``repr`` and the rows are joined by
``map(",".join, zip(...))``, so the per-cell loop runs in C, and each block
of ``_BLOCK_ROWS`` rows is one write: the cell strings of a whole table are
never held at once.  On a 2-core host a 4001-row trace took about 6 ms to
write this way, against 8 ms for a Python generator of joined rows, and
``repr`` alone took about 5 of those 6 ms; the body of that trace reads in
about 3 ms.
"""

import itertools
import json
import math

import numpy as np

from .checks import check_range
from .fitkit.models import ComplexTrace

SCHEMA_TAG = "optoresp/result/v3"

TRACE_HEADER = "freq_hz,re,im"
POWER_HEADER = "p_opt_w,inv_q,dfrac_freq"
MC_CURVES_HEADER = "p_opt_w,trial,dinv_q,dfrac_freq"
MC_AGGREGATE_HEADER = "p_opt_w,mean_dinv_q,std_dinv_q,mean_dfrac,std_dfrac"


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _data_lines(numbered):
    """The (lineno, stripped line) pairs that are neither blank nor a
    comment."""
    for lineno, line in numbered:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _rows(path, lines, width):
    """The data lines as a table of finite floats, `width` cells a row; a
    bad row is named by its line in the file."""
    rows = []
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} "
                             f"columns, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric cell in "
                             f"'{line}'") from exc
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}:{lineno}: non-finite cell in '{line}'")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


# a body holding any of these goes to _rows: '#' starts a comment line, and
# loadtxt takes the ASCII separators 0x1c-0x1f around a number for blanks,
# which float() refuses
_NOT_FAST = "#\x1c\x1d\x1e\x1f"


def _body(path, lines, header_lineno, width):
    """The lines after the header as a table of `width` finite floats a
    row.  One loadtxt call parses the body; a body it refuses or reads as
    non-finite goes to _rows, which names the bad line, or reads a cell
    that float() takes and loadtxt does not, such as 1_0."""
    after = lines[header_lineno:]
    body = "".join(after)
    if body.strip() and not any(c in body for c in _NOT_FAST):
        try:
            table = np.loadtxt(after, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape[1] == width and np.isfinite(table).all():
                return table
    return _rows(path, _data_lines(enumerate(after, start=header_lineno + 1)),
                 width)


def _parse_table(path, expected_header):
    """The table of a CSV whose header, its first line neither blank nor a
    comment, is expected_header.  Lines are split as text mode splits
    them."""
    expected = expected_header.split(",")
    with open(path, newline="") as fh:
        lines = fh.readlines()
    lineno, line = next(_data_lines(enumerate(lines, start=1)), (None, None))
    if line is None:
        raise ParseError(f"{path}: missing header '{expected_header}'")
    if [c.strip() for c in line.split(",")] != expected:
        raise ParseError(f"{path}:{lineno}: expected header "
                         f"'{expected_header}', got '{line}'")
    return _body(path, lines, lineno, len(expected))


# rows per write of write_table: bounds the cell strings held at once
_BLOCK_ROWS = 1024


def write_table(path, header, columns, comments=()):
    """Unit-labeled CSV: '# ' comment lines, the header, then one row per
    index of the equal-length columns.  Floats are written as repr, so a
    read gives back the same bits; integers as integers.  The header names
    one field per column.  A column holding nan or inf is refused by file
    and column name before anything is written: no table holds a
    non-finite number."""
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("column length mismatch")
    names = header.split(",")
    if len(names) != len(columns):
        raise ValueError(f"header '{header}' does not name "
                         f"{len(columns)} columns")
    for name, column in zip(names, columns):
        check_range(f"{path}: column '{name}'", column, "finite")
    columns = [c.tolist() for c in columns]
    rows = map(",".join, zip(*(map(repr, c) for c in columns)))
    with open(path, "w") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(header + "\n")
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")


def write_trace(path, trace: ComplexTrace, comments=()):
    write_table(path, TRACE_HEADER, [trace.frequencies, trace.values.real,
                                     trace.values.imag], comments)


def read_trace(path) -> ComplexTrace:
    table = _parse_table(path, TRACE_HEADER)
    return ComplexTrace(frequencies=table[:, 0],
                        values=table[:, 1] + 1j * table[:, 2])


def result_envelope(command, config, result, duration_s):
    """Fixed-key-order envelope.  config is the echo of the run: the
    resolved value of every flag, in flag units, keyed by the flag's dest.
    It is itself a JSON --config file, so a run replays exactly: write
    ``json.load(open("mc.json"))["config"]`` to ``c.json`` with Python, then
    run ``optoresp mc --config c.json``."""
    return {
        "schema": SCHEMA_TAG,
        "command": command,
        "config": _jsonable(config),
        "result": _jsonable(result),
        "duration_s": round(float(duration_s), 6),
    }


def write_envelope(path, envelope):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(envelope, indent=2) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None   # strict-JSON-safe encoding of nan/inf
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj
