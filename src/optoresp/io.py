"""File schemas: trace/power-series CSV, Monte Carlo curve CSV, result envelopes.

All numeric columns carry unit-labeled headers; comment lines start with
``#``.  The JSON result envelope has a fixed key order and a schema tag that
changes whenever column semantics change.
"""

import json
import math
import time

import numpy as np

from .fitkit.models import ComplexTrace, PowerSeries
from .montecarlo import McResult

SCHEMA_TAG = "optoresp/result/v1"

TRACE_HEADER = "freq_hz,re,im"
POWER_HEADER = "p_opt_w,inv_q,dfrac_freq"
MC_CURVES_HEADER = "p_opt_w,trial,dinv_q,dfrac_freq"
MC_AGGREGATE_HEADER = "p_opt_w,mean_dinv_q,std_dinv_q,mean_dfrac,std_dfrac"


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _data_lines(path):
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped


def _parse_table(path, expected_header):
    expected = expected_header.split(",")
    rows = []
    header_seen = False
    for lineno, line in _data_lines(path):
        cells = [c.strip() for c in line.split(",")]
        if not header_seen:
            if cells != expected:
                raise ParseError(f"{path}:{lineno}: expected header "
                                 f"'{expected_header}', got '{line}'")
            header_seen = True
            continue
        if len(cells) != len(expected):
            raise ParseError(f"{path}:{lineno}: expected {len(expected)} "
                             f"columns, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric cell in "
                             f"'{line}'") from exc
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}:{lineno}: non-finite cell in '{line}'")
        rows.append(row)
    if not header_seen:
        raise ParseError(f"{path}: missing header '{expected_header}'")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def write_trace(path, trace: ComplexTrace, comments=()):
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(TRACE_HEADER + "\n")
        for f, z in zip(trace.frequencies, trace.values):
            fh.write(f"{float(f)!r},{float(z.real)!r},{float(z.imag)!r}\n")


def read_trace(path) -> ComplexTrace:
    table = _parse_table(path, TRACE_HEADER)
    return ComplexTrace(frequencies=table[:, 0],
                        values=table[:, 1] + 1j * table[:, 2])


def write_power_series(path, series: PowerSeries, comments=()):
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(POWER_HEADER + "\n")
        for p, q, d in zip(series.p_opt, series.inv_q, series.dfrac):
            fh.write(f"{float(p)!r},{float(q)!r},{float(d)!r}\n")


def read_power_series(path) -> PowerSeries:
    table = _parse_table(path, POWER_HEADER)
    return PowerSeries(p_opt=table[:, 0], inv_q=table[:, 1], dfrac=table[:, 2])


def write_mc_curves(path, result: McResult):
    """Per-trial curves, one row per (power, trial)."""
    with open(path, "w") as fh:
        fh.write(MC_CURVES_HEADER + "\n")
        for k in range(result.dinv_q.shape[0]):
            for i, p in enumerate(result.p_grid):
                fh.write(f"{float(p)!r},{k},{float(result.dinv_q[k, i])!r},"
                         f"{float(result.dfrac[k, i])!r}\n")


def write_mc_aggregate(path, result: McResult):
    with open(path, "w") as fh:
        fh.write(MC_AGGREGATE_HEADER + "\n")
        for i, p in enumerate(result.p_grid):
            fh.write(f"{float(p)!r},{float(result.mean_dinv_q[i])!r},"
                     f"{float(result.std_dinv_q[i])!r},{float(result.mean_dfrac[i])!r},"
                     f"{float(result.std_dfrac[i])!r}\n")


def write_table(path, header, columns, comments=()):
    """Generic unit-labeled CSV: header string plus equal-length columns."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("column length mismatch")
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(header + "\n")
        for i in range(n):
            fh.write(",".join(repr(float(c[i])) if np.issubdtype(c.dtype, np.floating)
                              else str(c[i]) for c in columns) + "\n")


def result_envelope(command, config, result, duration_s):
    """Fixed-key-order envelope; config echoes every resolved parameter so a
    run can be replayed exactly."""
    return {
        "schema": SCHEMA_TAG,
        "command": command,
        "config": _jsonable(config),
        "result": _jsonable(result),
        "duration_s": round(float(duration_s), 6),
    }


def write_envelope(path, envelope):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, indent=2)
        fh.write("\n")


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


class Timer:
    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        return False
