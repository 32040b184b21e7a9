import argparse
import contextlib
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import optoresp
from optoresp import (checks, cli, ensemble, io, montecarlo, superconductor,
                      tls)
from optoresp.cli import main
from optoresp.ensemble import slope_fractional_frequency, slope_inverse_q
from optoresp.fitkit import (ComplexTrace, SingularJacobianError,
                             fit_full_s21, synth_power_series, synth_trace)
from optoresp.fitkit.models import s21_model
from optoresp.meanfield import OdeConvergenceError
from optoresp.resonator import DriveCondition, LineCalibration, ResonatorMode
from optoresp.tls import QuadratureError


def test_trace_csv_roundtrip(tmp_path):
    mode = ResonatorMode(5e9, 2e4, 1e3)
    grid = np.linspace(4.99e9, 5.01e9, 64)
    trace = synth_trace(mode, LineCalibration(), grid, noise_std=1e-3, seed=1)
    path = tmp_path / "trace.csv"
    io.write_trace(path, trace, comments=["synthetic"])
    back = io.read_trace(path)
    assert np.array_equal(back.frequencies, trace.frequencies)
    assert np.array_equal(back.values, trace.values)  # repr round-trip exact


def test_power_csv_roundtrip(tmp_path):
    columns = [np.array([0.0, 1e-9, 2e-9]), np.array([1e-5, 2e-5, 3e-5]),
               np.array([0.0, -1e-6, 1e-6 / 3])]
    path = tmp_path / "power.csv"
    io.write_table(path, io.POWER_HEADER, columns, comments=["synthetic"])
    back = io._parse_table(path, io.POWER_HEADER)
    assert np.array_equal(back, np.column_stack(columns))  # repr: exact


def test_write_table_exact_bytes(tmp_path):
    path = tmp_path / "t.csv"
    io.write_table(path, "x_m,n,y", [np.array([0.1, 1e-300, -2.5]),
                                     np.arange(3), [1.0, 2.0, 1 / 3]],
                   comments=["first", "second"])
    assert path.read_bytes() == (b"# first\n# second\nx_m,n,y\n"
                                 b"0.1,0,1.0\n1e-300,1,2.0\n"
                                 b"-2.5,2,0.3333333333333333\n")
    with pytest.raises(ValueError, match="column length mismatch"):
        io.write_table(path, "a,b", [np.zeros(3), np.zeros(2)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_table_refuses_non_finite_column(tmp_path, bad):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError) as refused:
        io.write_table(path, "x_m,n,y", [np.array([0.1, 0.2]), np.arange(2),
                                         np.array([1.0, bad])])
    assert str(refused.value) == f"{path}: column 'y' must be finite"
    assert not path.exists()


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 4001])
def test_write_table_matches_row_formula(tmp_path, n):
    """The writer's bytes are those of one repr-joined line per row, across
    the edges of its row blocks and at the extremes of repr's forms."""
    edges = [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308,
             -1.7976931348623157e308]
    floats = np.resize(edges, n) * np.resize([1.0, 1.0, -1.0], n)
    cols = [np.arange(n), floats, np.linspace(-1.0, 1.0, n) / 3,
            np.arange(n) - n // 2]
    path = tmp_path / "t.csv"
    io.write_table(path, "i,x,y,k", cols, comments=["c"])
    rows = zip(*(np.asarray(c).tolist() for c in cols))
    formula = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert path.read_text() == "# c\ni,x,y,k\n" + formula


def test_write_table_refuses_header_of_other_width(tmp_path):
    path = tmp_path / "t.csv"
    for header, cols in (("a,b", [np.zeros(2)] * 3), ("a,b,c", [[1.0]])):
        with pytest.raises(ValueError, match=f"header '{header}'"):
            io.write_table(path, header, cols)
    assert not path.exists()


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq_hz,re,im\n1e9,0.5,0.1\n1.1e9,zap,0.2\n")
    with pytest.raises(io.ParseError, match="bad.csv:3"):
        io.read_trace(path)
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text("1e9,0.5,0.1\n")
    with pytest.raises(io.ParseError, match="expected header"):
        io.read_trace(nohdr)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_cell_names_line(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"# comment\nfreq_hz,re,im\n1e9,0.5,0.1\n"
                    f"1.1e9,0.4,{cell}\n1.2e9,0.3,0.2\n")
    with pytest.raises(io.ParseError, match="nonfinite.csv:4: non-finite"):
        io.read_trace(path)


def _trace_table(path):
    return io._parse_table(path, io.TRACE_HEADER)


def _cell_case(cell):
    """A trace whose third line holds `cell`, and what float() makes of
    it: the table, or the error that names the line."""
    text = f"freq_hz,re,im\n1e9,0.5,0.1\n1.1e9,{cell},0.2\n1.2e9,0.3,0.4\n"
    try:
        value = float(cell)
    except ValueError:
        return text, f":3: non-numeric cell in '1.1e9,{cell},0.2'"
    if not math.isfinite(value):
        return text, f":3: non-finite cell in '1.1e9,{cell},0.2'"
    return text, [[1e9, 0.5, 0.1], [1.1e9, value, 0.2], [1.2e9, 0.3, 0.4]]


_CELLS = ["1_0", "\u0661\u0662", " 1.5", "1.5 ", "+.5", "5.", "-0", "1E5",
          "0x1", "1e", "", "1 2", "1d5", "nan", "inf", "1\x1c"]
_SHAPES = {
    "crlf": (_trace_table, "freq_hz,re,im\r\n1,2,3\r\n4,5,6\r\n",
             [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "cr": (_trace_table, "# c\rfreq_hz,re,im\r1,2,3\r4,5,x\r",
           ":4: non-numeric cell in '4,5,x'"),
    "blank-between": (_trace_table, "freq_hz,re,im\n1,2,3\n\n \n4,5,6\n",
                      [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "comment-between": (_trace_table, "freq_hz,re,im\n1,2,3\n# mid\n4,5,6\n",
                        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "inline-comment": (_trace_table, "freq_hz,re,im\n1,2,3 # note\n",
                       ":2: non-numeric cell in '1,2,3 # note'"),
    "trailing-comma": (_trace_table, "freq_hz,re,im\n1,2,3,\n",
                       ":2: expected 3 columns, got 4"),
    "ragged": (_trace_table, "freq_hz,re,im\n1,2,3\n4,5\n",
               ":3: expected 3 columns, got 2"),
    "one-row": (_trace_table, "freq_hz,re,im\n1,2,3", [[1.0, 2.0, 3.0]]),
    "no-rows": (_trace_table, "freq_hz,re,im\n", ": no data rows"),
    "blank-rows": (_trace_table, "freq_hz,re,im\n\n \t\n", ": no data rows"),
    "cr-only": (_trace_table, "freq_hz,re,im\r1,2,3\r4,5,6\r",
                [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
}


@pytest.mark.parametrize("read, text, expected", [
    *((_trace_table, *_cell_case(c)) for c in _CELLS),
    *_SHAPES.values()], ids=[*(f"cell-{c!r}" for c in _CELLS), *_SHAPES])
def test_table_reader_matches_float(tmp_path, read, text, expected):
    """Every table reads as float() reads each cell, bit for bit, or fails
    with the line named; no cell loadtxt takes differently gets through."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(io.ParseError) as info:
            read(path)
        assert str(info.value) == f"{path}{expected}"
    else:
        table = read(path)
        assert table.shape == (len(expected), 3)
        assert table.tobytes() == np.array(expected, dtype=float).tobytes()


def test_written_tables_read_in_one_call(tmp_path, monkeypatch):
    """Files the writers make never fall back to the row-by-row reader."""
    def row_loop(*args):
        raise AssertionError("canonical file fell back to _rows")

    monkeypatch.setattr(io, "_rows", row_loop)
    mode = ResonatorMode(7.061e9, 4e4, 2e3)
    grid = np.linspace(7.0605e9, 7.0615e9, 4001)
    trace = synth_trace(mode, LineCalibration(), grid, noise_std=1e-3, seed=3)
    io.write_trace(tmp_path / "trace.csv", trace, comments=["synth", "seed 3"])
    back = io.read_trace(tmp_path / "trace.csv")
    assert back.frequencies.tobytes() == trace.frequencies.tobytes()
    assert back.values.tobytes() == trace.values.tobytes()
    columns = [np.array([0.0, 1e-9, 2e-9]), np.arange(3),
               np.array([-0.0, 1e-300, 1 / 3]), np.array([5e-324, -2.5, 1e300])]
    io.write_table(tmp_path / "curves.csv", io.MC_CURVES_HEADER, columns,
                   comments=["trials 3"])
    table = io._parse_table(tmp_path / "curves.csv", io.MC_CURVES_HEADER)
    assert table.tobytes() == np.column_stack(columns).astype(float).tobytes()


def test_complex_trace_rejects_non_finite():
    f = np.array([1e9, 1.1e9, 1.2e9])
    with pytest.raises(ValueError, match="finite"):
        ComplexTrace(f, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        ComplexTrace(f, np.array([1.0, 1j * np.inf, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        ComplexTrace(np.array([1e9, 1.1e9, np.inf]), np.ones(3))


def test_envelope_key_order():
    env = io.result_envelope("demo", {"a": 1}, {"b": 2}, 0.5)
    assert list(env.keys()) == ["schema", "command", "config", "result",
                                "duration_s"]
    assert env["schema"] == io.SCHEMA_TAG


def run_cli(*argv):
    return main(list(argv))


PHOTON_NUMBER = ["photon-number", "--fr-ghz", "2.418", "--q-int", "70134",
                 "--q-ext", "3226", "--power-dbm", "-77"]
# the run each generated bad-number case starts from, by command, or by flag
# where only one kind of run reads the flag
BASE_ARGV = {"photon-number": PHOTON_NUMBER, **{
    flag: ["synth", "--kind", "power"]
    for flag in ("--p-max-nw", "--gamma-per-nw", "--inv-q0", "--delta1-per-nw",
                 "--delta2", "--delta3-per-nw")}}


def test_cli_photon_number(tmp_path):
    code = run_cli("photon-number", "--fr-ghz", "2.418", "--q-int", "70134",
                   "--q-ext", "3226", "--power-dbm", "-77",
                   "--out-dir", str(tmp_path))
    assert code == 0
    env = json.loads((tmp_path / "photon_number.json").read_text())
    assert abs(env["result"]["n_cav"] - 4.83e6) / 4.83e6 < 0.02
    # both unit systems present, consistent
    assert_allclose(env["result"]["kappa_int_rad_per_s"],
                    env["result"]["kappa_int_hz"] * 2 * np.pi, rtol=1e-12)


def test_cli_slopes_defaults_and_sweep(tmp_path):
    code = run_cli("slopes", "--g-grid-mhz", "2,5,8", "--xi-grid", "20,50",
                   "--out-dir", str(tmp_path))
    assert code == 0
    env = json.loads((tmp_path / "slopes.json").read_text())
    assert abs(env["result"]["slope_inverse_q_per_w"] * 1e-9 - 1.35e-6) < 0.05e-6
    assert env["result"]["sweep_row_count"] == 6
    rows = (tmp_path / "slopes_sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "g_over_2pi_mhz,xi_m_per_w,slope_inv_q_per_w,slope_dfrac_per_w"
    assert len(rows) == 7
    # g-major rows, each equal to the closed forms called at that point
    # alone, with the echo's other flags
    points = itertools.product([2.0, 5.0, 8.0], [20.0, 50.0])
    for row, (g, xi) in zip(rows[1:], points):
        point = argparse.Namespace(**{**env["config"], "g_mhz": g, "xi": xi})
        p = cli._library(ensemble.EnsembleParams, point,
                         cli.COMMANDS["slopes"].args)
        assert [float(v) for v in row.split(",")] == [
            g, xi, slope_inverse_q(p), slope_fractional_frequency(p)]


def test_cli_slopes_ds_zero(tmp_path):
    code = run_cli("slopes", "--ds", "0", "--out-dir", str(tmp_path))
    assert code == 0
    env = json.loads((tmp_path / "slopes.json").read_text())
    assert env["result"]["slope_inverse_q_per_w"] == 0.0


def test_cli_mc_deterministic_replay(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run_cli("mc", "--trials", "1", "--seed", "7", "--p-points",
                       "5", "--fmax-ghz", "100", "--half-length-um", "60",
                       "--out-dir", str(out))
        assert code == 0
    assert (a / "mc_curves.csv").read_bytes() == (b / "mc_curves.csv").read_bytes()
    assert (a / "mc_aggregate.csv").read_bytes() == (b / "mc_aggregate.csv").read_bytes()


def test_cli_mc_workers_default_to_usable_cores(tmp_path):
    if hasattr(os, "sched_getaffinity"):
        assert cli.usable_cores() == len(os.sched_getaffinity(0))
    runs = {"default": [], "one": ["--workers", "1"]}
    for name, extra in runs.items():
        assert run_cli("mc", "--trials", "3", "--seed", "4", "--p-points",
                       "4", "--fmax-ghz", "100", "--half-length-um", "60",
                       *extra, "--out-dir", str(tmp_path / name)) == 0
    env = json.loads((tmp_path / "default" / "mc.json").read_text())
    assert env["config"]["workers"] == cli.usable_cores()
    for csv in ("mc_curves.csv", "mc_aggregate.csv"):
        assert ((tmp_path / "default" / csv).read_bytes()
                == (tmp_path / "one" / csv).read_bytes())


def test_cli_mc_widest_s_spread_runs_clean(tmp_path):
    # at the top of its domain s_std * z is far outside [-1, 0], and the
    # clip maps it to the limit of a very wide spread: no warning, and
    # finite curves
    top = checks.domain(montecarlo.McConfig, "s_std")[1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("mc", f"--s-std={top!r}", "--trials", "2", "--workers",
                       "1", "--out-dir", str(tmp_path)) == 0
    assert caught == []
    for csv in ("mc_curves.csv", "mc_aggregate.csv"):
        table = np.loadtxt(tmp_path / csv, delimiter=",", skiprows=1)
        assert table.size and np.all(np.isfinite(table))


def test_cli_mc_empty_bath(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="optoresp.montecarlo"):
        code = run_cli("mc", "--rho", "0", "--trials", "1", "--p-points", "4",
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert caplog.records
    agg = np.loadtxt(tmp_path / "mc_aggregate.csv", delimiter=",", skiprows=1)
    assert np.all(agg[:, 1:] == 0.0)


def test_cli_temp_model_kink_ordering(tmp_path):
    code = run_cli("temp-model", "--fr-ghz", "2.418,4.884,7.061,11.63",
                   "--pdelta", "1e-5", "--t-min-mk", "10", "--t-max-mk",
                   "1200", "--t-points", "240", "--out-dir", str(tmp_path))
    assert code == 0
    table = np.loadtxt(tmp_path / "temp_model.csv", delimiter=",", skiprows=1)
    kinks = {}
    for fr in (2.418, 4.884, 7.061, 11.63):
        rows = table[np.isclose(table[:, 1], fr)]
        dfrac = rows[:, 2]
        slopes = np.diff(dfrac)
        idx = np.where(np.diff(np.sign(slopes)) > 0)[0]
        assert idx.size == 1
        kinks[fr] = rows[idx[0], 0]
    vals = [kinks[f] for f in (2.418, 4.884, 7.061, 11.63)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # temperature column echoed exactly
    temps = np.linspace(10e-3, 1200e-3, 240)
    assert_allclose(np.unique(table[:, 0]), temps, rtol=1e-12)


def test_cli_temp_model_zero(tmp_path):
    code = run_cli("temp-model", "--fr-ghz", "7.0", "--pdelta", "0",
                   "--t-points", "7", "--out-dir", str(tmp_path))
    assert code == 0
    table = np.loadtxt(tmp_path / "temp_model.csv", delimiter=",", skiprows=1)
    assert np.all(table[:, 2:] == 0.0)


def test_cli_synth_fit_roundtrip(tmp_path):
    code = run_cli("synth", "--kind", "trace", "--noise", "1e-3",
                   "--points", "2001", "--f-start-ghz", "7.0385",
                   "--f-stop-ghz", "7.0835", "--seed", "11",
                   "--out-dir", str(tmp_path))
    assert code == 0
    code = run_cli("fit-spectrum", "--input", str(tmp_path / "synth_trace.csv"),
                   "--model", "both", "--out-dir", str(tmp_path))
    assert code == 0
    env = json.loads((tmp_path / "fit_spectrum.json").read_text())
    assert abs(env["result"]["full"]["q_int"] - 34477) / 34477 < 0.05
    assert env["result"]["q_int_discrepancy_rel"] < 0.20
    curve = tmp_path / "fit_spectrum_curve.csv"
    assert curve.read_text().splitlines()[0] == "freq_hz,model_re,model_im"
    # the model columns are the full fit's model at its fitted values
    trace = io.read_trace(tmp_path / "synth_trace.csv")
    model = s21_model(fit_full_s21(trace).fit.values, trace.frequencies)
    table = io._parse_table(curve, cli.FIT_CURVE_HEADER)
    assert table.tobytes() == np.column_stack(
        [trace.frequencies, model.real, model.imag]).tobytes()


def test_cli_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("synth", "--kind", "power", "--noise", "0.02", "--points",
                "25", "--delta2", "2e-5", "--delta3-per-nw", "0.05",
                "--seed", "5", "--out-dir", str(out))
    assert (a / "synth_power.csv").read_bytes() == (b / "synth_power.csv").read_bytes()


def test_cli_synth_power_shape(tmp_path):
    # blue-linear plus red-saturating: dip below zero, then recovery
    run_cli("synth", "--kind", "power", "--points", "40",
            "--gamma-per-nw", "1.35e-6", "--delta1-per-nw", "5.9e-7",
            "--delta2", "2e-5", "--delta3-per-nw", "0.05",
            "--p-max-nw", "300", "--out-dir", str(tmp_path))
    _, inv_q, d = io._parse_table(tmp_path / "synth_power.csv",
                                  io.POWER_HEADER).T
    assert d[1] < 0
    i_min = int(np.argmin(d))
    assert 0 < i_min < d.size - 1
    assert d[-1] > 0
    assert np.all(np.diff(inv_q) > 0)


def test_cli_fit_spectrum_parse_error(tmp_path):
    bad = tmp_path / "broken.csv"
    bad.write_text("freq_hz,re,im\n1e9,0.1,oops\n")
    code = run_cli("fit-spectrum", "--input", str(bad),
                   "--out-dir", str(tmp_path))
    assert code == 1


def test_cli_fit_spectrum_refuses_fewer_points_than_parameters(tmp_path,
                                                               capsys):
    # 3 points are 6 residuals, fewer than the full fit's 7 parameters
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("freq_hz,re,im\n7.0e9,0.9,0.01\n7.001e9,0.5,0.02\n"
                    "7.002e9,0.9,0.03\n")
    assert run_cli("fit-spectrum", "--input", str(tiny), "--model", "full",
                   "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "error: Method 'lm' doesn't work when the number of residuals is "
        "less than the number of variables.\n")
    assert list(tmp_path.iterdir()) == [tiny]


def test_failed_run_leaves_no_stale_envelope(tmp_path):
    run_cli("synth", "--kind", "trace", "--noise", "1e-3", "--points", "2001",
            "--out-dir", str(tmp_path))
    assert run_cli("fit-spectrum", "--input", str(tmp_path / "synth_trace.csv"),
                   "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "fit_spectrum.json").exists()
    bad = tmp_path / "nan.csv"
    bad.write_text("freq_hz,re,im\n1e9,0.5,0.1\n1.1e9,nan,0.2\n")
    assert run_cli("fit-spectrum", "--input", str(bad),
                   "--out-dir", str(tmp_path)) == 1
    assert not (tmp_path / "fit_spectrum.json").exists()


def _flat_noise_trace(path):
    """801 points of noise around 1 with no resonance in them."""
    f = np.linspace(7.0e9, 7.1e9, 801)
    rng = np.random.default_rng(0)
    z = 1.0 + 1e-3 * (rng.standard_normal(801) + 1j * rng.standard_normal(801))
    io.write_trace(path, ComplexTrace(f, z))
    return str(path)


def test_failed_run_leaves_no_stale_csv(tmp_path, capsys):
    flat = _flat_noise_trace(tmp_path / "flat.csv")
    assert run_cli("fit-spectrum", "--input", flat, "--model", "full",
                   "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "fit_spectrum_curve.csv").exists()
    assert run_cli("fit-spectrum", "--input", flat, "--model", "lorentzian",
                   "--out-dir", str(tmp_path)) == 1
    assert not (tmp_path / "fit_spectrum.json").exists()
    assert not (tmp_path / "fit_spectrum_curve.csv").exists()
    # a successful run also removes the declared outputs it does not write:
    # a Lorentzian fit draws no model curve
    assert run_cli("synth", "--noise", "1e-3", "--out-dir", str(tmp_path)) == 0
    trace = str(tmp_path / "synth_trace.csv")
    assert run_cli("fit-spectrum", "--input", trace, "--model", "full",
                   "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "fit_spectrum_curve.csv").exists()
    assert run_cli("fit-spectrum", "--input", trace, "--model", "lorentzian",
                   "--out-dir", str(tmp_path)) == 0
    assert not (tmp_path / "fit_spectrum_curve.csv").exists()
    env = json.loads((tmp_path / "fit_spectrum.json").read_text())
    assert list(env["result"]) == ["lorentzian"]
    # a flag value that does not parse fails like any other bad input: the
    # outputs of the command's earlier run are removed
    assert run_cli("slopes", "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "slopes_sweep.csv").exists()
    capsys.readouterr()
    assert run_cli("slopes", "--xi", "x", "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: --xi: invalid value 'x'\n"
    assert not (tmp_path / "slopes.json").exists()
    assert not (tmp_path / "slopes_sweep.csv").exists()


def test_fit_spectrum_both_reports_missing_dip_in_band(tmp_path, capsys):
    flat = _flat_noise_trace(tmp_path / "flat.csv")
    assert run_cli("fit-spectrum", "--input", flat, "--model", "both",
                   "--out-dir", str(tmp_path)) == 0
    result = json.loads((tmp_path / "fit_spectrum.json").read_text())["result"]
    assert result["lorentzian"] == {
        "error": "no dip resolved above the baseline scatter"}
    assert "no_resonance" in result["full"]["flags"]
    assert "q_int_discrepancy_rel" not in result
    assert "lorentzian: no dip resolved" in capsys.readouterr().out


def test_fit_spectrum_envelope_reports_fit_diagnostics(tmp_path):
    run_cli("synth", "--kind", "trace", "--noise", "1e-3", "--points", "2001",
            "--out-dir", str(tmp_path))
    assert run_cli("fit-spectrum", "--input", str(tmp_path / "synth_trace.csv"),
                   "--out-dir", str(tmp_path)) == 0
    result = json.loads((tmp_path / "fit_spectrum.json").read_text())["result"]
    names = {"lorentzian": {"baseline", "depth", "f_r", "width"},
             "full": {"f_r", "q_tot", "q_ext_re", "q_ext_im", "amplitude",
                      "delay", "phase_offset"}}
    for block, params in names.items():
        fit = result[block]
        assert fit["converged"]
        assert 1 <= fit["iterations"] <= fit["nfev"]
        assert "satisfied" in fit["message"]   # a MINPACK tolerance stop
        sigma = fit["uncertainties"]
        assert set(sigma) == params
        assert all(v > 0 for v in sigma.values())
    # the full fit's f_r sits within a few sigma of the synthesized mode
    full = result["full"]
    assert abs(full["f_r_hz"] - 7.061e9) < 10 * full["uncertainties"]["f_r"]


def test_module_entry_point_writes_no_warning(tmp_path):
    src = str(Path(optoresp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "optoresp.cli", "--help"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""


def _outputs(directory):
    """Each file's bytes, envelopes without their duration_s."""
    out = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            env = json.loads(path.read_text())
            del env["duration_s"]
            out[path.name] = env
        else:
            out[path.name] = path.read_bytes()
    return out


def test_parser_built_once_serves_every_run(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process: commands run one after
    # another on it write what runs on fresh parsers write, and --help
    # reads the same before and after
    monkeypatch.setenv("COLUMNS", "100")
    helps = [["--help"], ["slopes", "--help"], ["mc", "--help"]]
    runs = [["slopes", "--g-grid-mhz", "2,4", "--xi-grid", "20,50"],
            PHOTON_NUMBER, ["slopes", "--xi", "0"], ["slopes", "--s", "-0.5"],
            ["synth", "--kind", "power", "--points", "5"]]

    def help_texts():
        texts = []
        for argv in helps:
            with pytest.raises(SystemExit) as done:
                main(argv)
            assert done.value.code == 0
            texts.append(capsys.readouterr().out)
        return texts

    def run_all(out, fresh):
        codes = []
        for argv in runs:
            if fresh:
                cli.build_parser.cache_clear()
            codes.append(main(argv + ["--out-dir", str(out)]))
        streams = capsys.readouterr()
        return codes, streams.out.replace(str(out), "OUT"), streams.err

    cli.build_parser.cache_clear()
    before = help_texts()
    shared = run_all(tmp_path / "shared", fresh=False)
    assert help_texts() == before
    assert cli.build_parser() is cli.build_parser()
    assert run_all(tmp_path / "fresh", fresh=True) == shared
    assert shared[0] == [0, 0, 1, 0, 0]
    assert shared[2] == "error: --xi must lie in [0.001, 100000]\n"
    assert _outputs(tmp_path / "shared") == _outputs(tmp_path / "fresh")
    cli.build_parser.cache_clear()
    assert help_texts() == before


def test_cli_missing_file_nonzero(tmp_path):
    code = run_cli("fit-spectrum", "--input", str(tmp_path / "nope.csv"),
                   "--out-dir", str(tmp_path))
    assert code == 1


def test_cli_config_file_and_env_dir(tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# defaults\nfr-ghz = 2.418\nq-int = 70134\n"
                       "q-ext = 3226\npower-dbm = -77\n")
    monkeypatch.setenv("OPTORESP_OUTDIR", str(tmp_path / "envout"))
    code = run_cli("photon-number", "--config", str(cfgfile),
                   "--power-dbm", "-67")  # flag overrides file
    assert code == 0
    env = json.loads((tmp_path / "envout" / "photon_number.json").read_text())
    assert env["config"]["power_dbm"] == -67.0
    assert abs(env["result"]["n_cav"] - 4.83e7) / 4.83e7 < 0.02


def test_cli_json_config(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"fr-ghz": 4.884, "q-int": 76771,
                                   "q-ext": 499, "power-dbm": -72}))
    code = run_cli("photon-number", "--config", str(cfgfile),
                   "--out-dir", str(tmp_path))
    assert code == 0
    env = json.loads((tmp_path / "photon_number.json").read_text())
    assert abs(env["result"]["n_cav"] - 6.25e5) / 6.25e5 < 0.02


def test_cli_explicit_flag_at_default_beats_config(tmp_path):
    # --seed 0 equals the parser default, yet it must win over seed=5
    cfgfile = tmp_path / "c.txt"
    cfgfile.write_text("seed = 5\ntrials = 2\nhalf-length-um = 50\n"
                       "fmax-ghz = 50\np-points = 3\n")
    code = run_cli("mc", "--config", str(cfgfile), "--seed", "0",
                   "--out-dir", str(tmp_path))
    assert code == 0
    env = json.loads((tmp_path / "mc.json").read_text())
    assert env["config"]["seed"] == 0
    assert env["config"]["trials"] == 2  # the file still fills the rest
    # without the flag the file's value applies
    code = run_cli("mc", "--config", str(cfgfile), "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads((tmp_path / "mc.json").read_text())["config"]["seed"] == 5


@pytest.mark.parametrize("command, name, text, error", [
    ("photon-number", "c.json", '{"fr-ghz": 4.884,\n  "q-int": ,\n}',
     "c.json:2: Expecting value"),
    ("photon-number", "c.json", '{"fr-ghz": 4.884,\n  "qint": 76771}',
     "c.json:2: config key 'qint' is not a flag of this command"),
    ("photon-number", "c.txt", "# q\n\nqint = 76771\n",
     "c.txt:3: config key 'qint' is not a flag of this command"),
    ("mc", "c.json", '{\n  "trials": 2.5\n}',
     "c.json:2: config key 'trials': invalid value '2.5'"),
    ("mc", "c.txt", "seed = 1\ntrials = two\n",
     "c.txt:2: config key 'trials': invalid value 'two'"),
    ("slopes", "c.json", '{"xi-grid": "20,fifty"}',
     "c.json:1: config key 'xi-grid': invalid value '20,fifty'"),
    ("synth", "c.txt", "kind = sine\n",
     "c.txt:1: config key 'kind': invalid value 'sine'"),
    # a non-finite number, which the echo would hold as null
    ("slopes", "c.txt", "xi = 50\nrho = inf\n",
     "c.txt:2: config key 'rho' must be finite"),
    ("slopes", "c.json", '{"xi": 50,\n "rho": NaN}',
     "c.json:2: config key 'rho' must be finite"),
    ("temp-model", "c.txt", "fr-ghz = 7,-inf\n",
     "c.txt:1: config key 'fr-ghz' must be finite"),
])
def test_cli_config_errors_name_file_and_line(tmp_path, capsys, command,
                                              name, text, error):
    # JSON values go through the same text parsing as key=value ones, so
    # trials = 2.5 fails in both formats instead of running 2 trials
    cfgfile = tmp_path / name
    cfgfile.write_text(text)
    assert run_cli(command, "--config", str(cfgfile),
                   "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / error}\n"
    assert list(tmp_path.iterdir()) == [cfgfile]


# A case's test id is argv<slot>-<flag>, its slot in FLAG_CASES.  A deleted
# case leaves RETIRED in its slot, so the ids of the cases after it do not
# move, and new cases are appended.  The deleted --film-l-mm row held the
# three generated slots after --film-w-nm's.
RETIRED = None
_RETIRED_AFTER = {("temp-model", "--film-w-nm")}


def _non_finite_cases():
    """Every number flag of every command at nan and +-inf, in a run that
    reads it: io would write the value as null, so it is refused."""
    for name, cmd in cli.COMMANDS.items():
        for arg in cmd.args:
            if arg.type in (float, cli.float_list):
                for value in ("nan", "inf", "-inf"):
                    yield ([*BASE_ARGV.get(arg.flag,
                                           BASE_ARGV.get(name, [name])),
                            f"{arg.flag}={value}"], arg.flag)
            if (name, arg.flag) in _RETIRED_AFTER:
                yield from [RETIRED] * 3


FLAG_CASES = [
    (["synth", "--points", "0"], "--points"),
    (["temp-model", "--t-points", "0"], "--t-points"),
    (["temp-model", "--fr-ghz", ""], "--fr-ghz"),
    (["mc", "--trials", "0"], "--trials"),
    (["mc", "--p-points", "1"], "--p-points"),
    (["mc", "--p-max-nw", "0"], "--p-max-nw"),
    (["mc", "--workers", "0"], "--workers"),
    (["mc", "--window-ghz", "1"], "--window-ghz"),
    (["mc", "--window-ghz", "2,1"], "--window-ghz"),
    (["slopes", "--s", "0.5"], "--s"),
    # range errors the library raises, named through each command's flags
    (["mc", "--xi", "0"], "--xi"),
    (["mc", "--fr-ghz", "0"], "--fr-ghz"),
    (["mc", "--fmax-ghz", "0"], "--fmax-ghz"),
    (["mc", "--exclusion-mhz", "-1"], "--exclusion-mhz"),
    (["mc", "--half-length-um", "0"], "--half-length-um"),
    (["mc", "--l-edge-um", "0"], "--l-edge-um"),
    (["mc", "--area-nm2", "0"], "--area-nm2"),
    (["mc", "--g-mhz", "0"], "--g-mhz"),
    (["mc", "--gamma1-mhz", "0"], "--gamma1-mhz"),
    (["mc", "--rho", "-1"], "--rho"),
    (["mc", "--s-std", "-0.1"], "--s-std"),
    (["mc", "--s-std", "nan"], "--s-std"),
    (["slopes", "--thickness-nm", "0"], "--thickness-nm"),
    (["slopes", "--width-nm", "0"], "--width-nm"),
    (["slopes", "--xi", "0"], "--xi"),
    (["slopes", "--rho", "0"], "--rho"),
    (["slopes", "--fr-ghz", "0"], "--fr-ghz"),
    (["slopes", "--fmax-ghz", "0"], "--fmax-ghz"),
    (["slopes", "--gamma1-mhz", "0"], "--gamma1-mhz"),
    (["slopes", "--g-mhz", "-1"], "--g-mhz"),
    (["slopes", "--ds", "-1"], "--ds"),
    (["slopes", "--xi-grid", "20,-5"], "--xi-grid"),
    (["slopes", "--g-grid-mhz", "2,-1"], "--g-grid-mhz"),
    (PHOTON_NUMBER[:3] + ["--q-int", "0"] + PHOTON_NUMBER[5:], "--q-int"),
    (PHOTON_NUMBER[:5] + ["--q-ext", "0"] + PHOTON_NUMBER[7:], "--q-ext"),
    (["photon-number", "--fr-ghz", "-2"] + PHOTON_NUMBER[3:], "--fr-ghz"),
    (["synth", "--q-int", "0"], "--q-int"),
    (["synth", "--fr-ghz", "0"], "--fr-ghz"),
    # library messages that name more than one field, or a field that two
    # flags set
    (["slopes", "--fmax-ghz", "1"], "--fmax-ghz"),
    (["synth", "--phi", "2"], "--phi"),
    (["temp-model", "--lambda0-um", "-1"], "--lambda0-um"),
    # values that ran to nan or noise-free output, or failed inside numpy
    (["temp-model", "--fr-ghz", "0"], "--fr-ghz"),
    (["temp-model", "--fr-ghz", "-1"], "--fr-ghz"),
    (["temp-model", "--fr-ghz", "7,nan"], "--fr-ghz"),
    (["temp-model", "--t-grid-mk", "-5"], "--t-grid-mk"),
    (["synth", "--noise", "-1"], "--noise"),
    (["synth", "--noise", "nan"], "--noise"),
    (["synth", "--kind", "power", "--noise", "-1"], "--noise"),
    (["synth", "--kind", "power", "--noise", "nan"], "--noise"),
    (["mc", "--seed", "-1"], "--seed"),
    (["synth", "--seed", "-1", "--noise", "1e-3"], "--seed"),
    (PHOTON_NUMBER[:7] + ["--power-dbm", "nan"], "--power-dbm"),
    # non-finite model parameters that ran to nan output
    (PHOTON_NUMBER + ["--detuning-hz", "nan"], "--detuning-hz"),
    (["synth", "--kind", "power", "--gamma-per-nw", "nan"], "--gamma-per-nw"),
    (["synth", "--kind", "power", "--inv-q0", "inf"], "--inv-q0"),
    (["synth", "--kind", "power", "--delta1-per-nw", "nan"],
     "--delta1-per-nw"),
    (["synth", "--kind", "power", "--delta2", "inf"], "--delta2"),
    (["synth", "--kind", "power", "--delta3-per-nw", "nan"],
     "--delta3-per-nw"),
    (["temp-model", "--pdelta", "nan"], "--pdelta"),
    # synth's line, grid and power-grid errors, named by flag
    (["synth", "--amp", "nan"], "--amp"),
    (["synth", "--amp", "0"], "--amp"),
    (["synth", "--tau-ns", "nan"], "--tau-ns"),
    (["synth", "--alpha", "inf"], "--alpha"),
    (["synth", "--f-start-ghz", "7.1"], "--f-start-ghz"),
    (["synth", "--f-start-ghz", "nan"], "--f-start-ghz"),
    (["synth", "--f-stop-ghz", "inf"], "--f-stop-ghz"),
    (["synth", "--kind", "power", "--p-max-nw", "-5"], "--p-max-nw"),
    (["synth", "--kind", "power", "--p-max-nw", "nan"], "--p-max-nw"),
    # infinite values that ran into numpy warnings or LAPACK errors
    (["photon-number", "--fr-ghz", "inf"] + PHOTON_NUMBER[3:], "--fr-ghz"),
    (["synth", "--fr-ghz", "inf"], "--fr-ghz"),
    (["synth", "--amp", "inf"], "--amp"),
    (["mc", "--p-max-nw", "inf"], "--p-max-nw"),
    (["mc", "--ds", "nan"], "--ds"),
    # non-finite temp-model inputs that ran to nan rows, and a synth grid
    # whose neighbours round to one frequency
    (["temp-model", "--lambda0-um", "0.7", "--tc-k", "nan"], "--tc-k"),
    (["temp-model", "--lambda0-um", "0.7", "--film-d-nm", "nan"],
     "--film-d-nm"),
    (["temp-model", "--lambda0-um", "0.7", "--film-w-nm", "inf"],
     "--film-w-nm"),
    RETIRED,  # --film-l-mm nan: the flag is deleted
    (["temp-model", "--lambda0-um", "0.7", "--ltl", "nan"], "--ltl"),
    (["temp-model", "--lambda0-um", "0.7", "--ltl", "0"], "--ltl"),
    (["temp-model", "--lambda0-um", "nan"], "--lambda0-um"),
    (["synth", "--f-start-ghz", "7", "--f-stop-ghz", "7.0000000000001"],
     "--f-start-ghz"),
    # a zero penetration depth that dropped the quasiparticle term, and
    # superconductor flags left unchecked without --lambda0-um
    (["temp-model", "--lambda0-um", "0"], "--lambda0-um"),
    (["temp-model", "--lambda0-um", "-0.0"], "--lambda0-um"),
    (["temp-model", "--tc-k", "nan"], "--tc-k"),
    (["temp-model", "--film-d-nm", "nan"], "--film-d-nm"),
    (["temp-model", "--film-w-nm", "inf"], "--film-w-nm"),
    RETIRED,  # --film-l-mm 0: the flag is deleted
    # a linewidth whose square underflows, slopes that ran to inf, and
    # Monte Carlo windows that named no flag or failed inside rng.poisson
    (["photon-number", "--fr-ghz=1e-308", "--q-int", "1", "--q-ext", "1",
      "--power-dbm", "-77"], "--fr-ghz"),
    (["slopes", "--rho=inf"], "--rho"),
    (["slopes", "--xi-grid=inf"], "--xi-grid"),
    (["mc", "--fr-ghz=inf"], "--fr-ghz"),
    (["mc", "--fmax-ghz=1e30"], "--fmax-ghz"),
    # infinite Monte Carlo parameters that ran to nan or zero slopes or named
    # no flag, a bath too large to allocate, and windows named freq_window
    (["mc", "--xi=inf"], "--xi"),
    (["mc", "--l-edge-um=inf"], "--l-edge-um"),
    (["mc", "--area-nm2=inf"], "--area-nm2"),
    (["mc", "--g-mhz=inf"], "--g-mhz"),
    (["mc", "--gamma1-mhz=inf"], "--gamma1-mhz"),
    (["mc", "--trials", "1", "--workers", "1", "--p-points", "3",
      "--fmax-ghz=1e15"], "--fmax-ghz"),
    (["mc", "--fr-ghz", "1e5", "--fmax-ghz", "1e-10"], "--fmax-ghz"),
    (["mc", "--window-ghz=-1e30,1e30"], "--window-ghz"),
    # a mode frequency and a noise that overflow, and finite flags whose
    # product overflows a decay rate or the slopes
    (["temp-model", "--fr-ghz=1e308"], "--fr-ghz"),
    (["synth", "--kind", "trace", "--noise=inf"], "--noise"),
    (["synth", "--kind", "power", "--noise=inf"], "--noise"),
    (["photon-number", "--fr-ghz", "2.418", "--q-int=1e-308", "--q-ext",
      "3226", "--power-dbm", "-77"], "--q-int"),
    (["slopes", "--ds=1e308"], "--ds"),
    # infinite temperatures that wrote an inf row or named no flag
    (["temp-model", "--t-grid-mk=1,inf"], "--t-grid-mk"),
    (["temp-model", "--t-max-mk=inf"], "--t-max-mk"),
    (["temp-model", "--t-min-mk=inf"], "--t-min-mk"),
    *_non_finite_cases(),
    # a coupling whose square overflows a Python float, the same in a grid
    # (whose line led with --ds), and power grids whose norm underflows (an
    # SVD failure) or overflows (slopes of zero)
    (["slopes", "--g-mhz", "1e200"], "--g-mhz"),
    (["slopes", "--g-grid-mhz=1,1e200"], "--g-grid-mhz"),
    (["mc", "--p-max-nw=1e-308"], "--p-max-nw"),
    (["mc", "--trials", "1", "--p-max-nw=1e300"], "--p-max-nw"),
    # a mode frequency whose square overflows a Python float
    (["slopes", "--fr-ghz", "1e196", "--fmax-ghz", "1e197"], "--fr-ghz"),
    # a penetration depth whose kinetic-dominated inductance overflows
    (["temp-model", "--lambda0-um=1e308"], "--lambda0-um"),
    # a film whose cross-section underflows to zero
    (["temp-model", "--lambda0-um", "0.72", "--ltl", "1e-3",
      "--film-d-nm=1e-300", "--film-w-nm=1e-300"], "--film-d-nm"),
    # a power grid whose step underflows, so every power is 0
    (["synth", "--kind", "power", "--p-max-nw=1e-320"], "--p-max-nw"),
    # finite flags whose series or trace overflows
    (["synth", "--kind", "power", "--p-max-nw=1e9", "--gamma-per-nw=1e10"],
     "--gamma-per-nw"),
    (["synth", "--kind", "power", "--delta3-per-nw=-1e10"], "--delta3-per-nw"),
    (["synth", "--noise=1e308"], "--noise"),
    (["synth", "--fr-ghz=1e-308"], "--fr-ghz"),
    (["synth", "--tau-ns=1e308"], "--tau-ns"),
    # finite flags whose frequency grid or watts overflow
    (["synth", "--f-start-ghz=1e308"], "--f-start-ghz"),
    (["synth", "--f-start-ghz=-1e308"], "--f-start-ghz"),
    (PHOTON_NUMBER[:7] + ["--power-dbm=1e30"], "--power-dbm"),
    (PHOTON_NUMBER[:7] + ["--power-dbm=1e308"], "--power-dbm"),
    # finite flags that over- or underflowed inside a trial (a squared mode
    # frequency, the kernel arguments, the Debye weights) or h f/(2 pi k T),
    # and then wrote a nan row
    (["mc", "--trials", "2", "--workers", "1", "--fr-ghz=1e-308"], "--fr-ghz"),
    (["mc", "--trials", "2", "--workers", "1", "--l-edge-um=1e-308"],
     "--l-edge-um"),
    (["mc", "--trials", "2", "--workers", "1", "--xi=1e308"], "--xi"),
    (["mc", "--trials", "2", "--workers", "1", "--ds=1e308"], "--ds"),
    (["temp-model", "--fr-ghz=1e-308"], "--fr-ghz"),
    (["temp-model", "--t-min-mk=1e-308"], "--t-min-mk"),
    (["temp-model", "--t-max-mk=1e-308"], "--t-max-mk"),
    (["temp-model", "--t-grid-mk=1e-308"], "--t-grid-mk"),
    # pairs of finite flags that over- or underflowed: found by the
    # generated contract test below
    (PHOTON_NUMBER + ["--fr-ghz=1e-308", "--q-ext=1e-308"], "--fr-ghz"),
    (["temp-model", "--t-min-mk=1e30", "--lambda0-um=1e-308"], "--t-min-mk"),
    (["temp-model", "--t-min-mk=1e5", "--pdelta=1e308"], "--pdelta"),
    (["temp-model", "--lambda0-um=1e30", "--ltl=1e-308"], "--lambda0-um"),
    (["temp-model", "--lambda0-um=1e308", "--ltl=1e-308"], "--lambda0-um"),
    (["temp-model", "--fr-ghz=1e-308", "--t-min-mk=0.01"], "--fr-ghz"),
    (["mc", "--trials", "2", "--workers", "1", "--xi=1e5", "--p-max-nw=1e3",
      "--half-length-um=1e308"], "--fmax-ghz"),
    (["mc", "--trials", "2", "--workers", "1", "--xi=1e308",
      "--p-max-nw=1e9"], "--xi"),
    (["slopes", "--fr-ghz=1e-308", "--gamma1-mhz=1e-308"], "--fr-ghz"),
    # counts far past any run, which allocated until memory ran out (a
    # traceback) or would spawn a seed per trial or start a thread per
    # worker: each is refused before any allocation
    (["synth", "--points", "100000000000"], "--points"),
    (["mc", "--p-points", "100000000000"], "--p-points"),
    (["temp-model", "--t-points", "100000000000"], "--t-points"),
    (["mc", "--trials", "100000000000"], "--trials"),
    (["mc", "--workers", "100000000000"], "--workers"),
    # film flags outside their domains without --lambda0-um, which wrote
    # their rows although the same value with a film was refused
    (["temp-model", "--film-d-nm=1e300"], "--film-d-nm"),
    (["temp-model", "--film-w-nm=1e-5"], "--film-w-nm"),
    (["temp-model", "--tc-k=1e5"], "--tc-k"),
    (["temp-model", "--ltl=1e9"], "--ltl"),
]


@pytest.mark.parametrize("argv, flag", [
    pytest.param(*case, id=f"argv{slot}-{case[1]}")
    for slot, case in enumerate(FLAG_CASES) if case is not RETIRED])
def test_cli_empty_table_names_flag(tmp_path, capsys, argv, flag):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    # no word of the line is a library field the command maps to a flag
    assert not set(err.split()) & set(cli.COMMANDS[argv[0]].flags)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, csv", [
    (["mc", "--trials", "1", "--workers", "1"], "mc_aggregate.csv"),
    (["temp-model"], "temp_model.csv"),
])
def test_cli_non_finite_table_fails_the_run(tmp_path, capsys, monkeypatch,
                                            argv, csv):
    # a run whose table csv holds a nan: the writer refuses the column, and
    # the failed run removes its envelope and the tables written before it
    def run(a, rows, names):
        return {}, [functools.partial(
            io.write_table, header="x",
            columns=[[1.0, np.nan if name == csv else 2.0]]) for name in names]

    monkeypatch.setitem(cli.COMMANDS, argv[0],
                        dataclasses.replace(cli.COMMANDS[argv[0]], run=run))
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 1
    assert (capsys.readouterr().err
            == f"error: {tmp_path / csv}: column 'x' must be finite\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_overflow_fails_the_run(tmp_path, capsys, monkeypatch, workers):
    # commands run with numpy's overflow, invalid and divide-by-zero errors
    # raised, in the worker threads of mc too: a trial that overflows ends
    # the run with one error line and no outputs, for any worker count
    def overflowing(config, bath, store=None):
        return np.float64(1e308) * np.float64(10.0)

    monkeypatch.setattr(montecarlo, "response_curves", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("mc", "--trials", "2", "--workers", workers,
                       "--out-dir", str(tmp_path)) == 1
    assert (capsys.readouterr().err
            == "error: overflow encountered in scalar multiply\n")
    assert list(tmp_path.iterdir()) == []


# the library classes and functions whose fields each command's rows set
BUILT = {
    "photon-number": (ResonatorMode, DriveCondition),
    "slopes": (ensemble.EnsembleParams,),
    "mc": (montecarlo.McConfig,),
    "temp-model": (superconductor.FilmGeometry,
                   superconductor.SuperconductorParams,
                   tls.permittivity_bracket),
    "synth": (ResonatorMode.from_asymmetry_angle, LineCalibration,
              synth_trace, synth_power_series),
    "fit-spectrum": (),
}


def test_cli_defaults_are_the_library_reference_bath():
    # slopes and mc declare the reference bath a second time, in flag units:
    # each number default, taken to library units, is the library's default
    for name, ref in (("slopes", ensemble.EnsembleParams()),
                      ("mc", montecarlo.McConfig())):
        for arg in cli.COMMANDS[name].args:
            if arg.type not in (int, float) or arg.default is None:
                continue
            pinned = [f for f in arg.fields if hasattr(ref, f)]
            assert pinned or not arg.fields, arg.flag
            for field in pinned:
                assert_allclose(arg.si(arg.default), getattr(ref, field),
                                rtol=1e-15, atol=0, err_msg=arg.flag)
    mc = {arg.flag: arg for arg in cli.COMMANDS["mc"].args}
    grid = cli._power_grid(mc["--p-max-nw"].default, mc["--p-points"].default)
    assert_allclose(grid, montecarlo.McConfig().p_grid, rtol=1e-15, atol=0)


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_library_fields_map_to_flags_of_their_own_row(name):
    # every name a row declares is a field of what its command builds, or a
    # word of a library range message that groups fields: a renamed library
    # field fails here instead of dropping its flag from the error lines
    fields = {p for fn in BUILT[name] for p in inspect.signature(fn).parameters}
    for arg in cli.COMMANDS[name].args:
        assert set(arg.fields) <= fields, arg.flag


@pytest.mark.parametrize("exc", [
    OdeConvergenceError("decay fit residual too large"),
    QuadratureError("quadrature failed"),
    SingularJacobianError("Jacobian vanishes"),
    np.linalg.LinAlgError("Singular matrix"),
])
def test_cli_numerical_errors_exit_cleanly(tmp_path, monkeypatch, capsys, exc):
    def failing_slope(p):
        raise exc

    monkeypatch.setattr(ensemble, "slope_inverse_q", failing_slope)
    code = run_cli("slopes", "--out-dir", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"


def test_mc_csv_schemas(tmp_path):
    assert run_cli("mc", "--seed", "1", "--trials", "2", "--fmax-ghz", "50",
                   "--half-length-um", "50", "--p-max-nw", "50",
                   "--p-points", "4", "--out-dir", str(tmp_path)) == 0
    env = json.loads((tmp_path / "mc.json").read_text())
    res = montecarlo.run(cli._mc_config(argparse.Namespace(**env["config"]),
                                        cli.COMMANDS["mc"].args))
    dq, df = res.dinv_q.tolist(), res.dfrac.tolist()
    # one row per (trial, power), trial-major, the trial as an integer
    lines = (tmp_path / "mc_curves.csv").read_text().splitlines()
    assert lines == ["p_opt_w,trial,dinv_q,dfrac_freq"] + [
        f"{p!r},{k},{dq[k][i]!r},{df[k][i]!r}"
        for k in range(2) for i, p in enumerate(res.p_grid.tolist())]
    agg = (tmp_path / "mc_aggregate.csv").read_text().splitlines()
    assert agg[0] == "p_opt_w,mean_dinv_q,std_dinv_q,mean_dfrac,std_dfrac"
    assert np.array_equal(
        np.loadtxt(tmp_path / "mc_aggregate.csv", delimiter=",", skiprows=1),
        np.column_stack((res.p_grid, res.mean_dinv_q, res.std_dinv_q,
                         res.mean_dfrac, res.std_dfrac)))


def test_cli_synth_default_roundtrip(tmp_path):
    # the stock synth invocation must produce a file fit-spectrum accepts
    assert run_cli("synth", "--noise", "1e-3", "--out-dir", str(tmp_path)) == 0
    code = run_cli("fit-spectrum", "--input", str(tmp_path / "synth_trace.csv"),
                   "--out-dir", str(tmp_path))
    assert code == 0
    env = json.loads((tmp_path / "fit_spectrum.json").read_text())
    assert abs(env["result"]["full"]["q_int"] - 34477) / 34477 < 0.05
    assert abs(env["result"]["lorentzian"]["q_int"] - 34477) / 34477 < 0.10


@pytest.mark.parametrize("argv, missing", [
    (["fit-spectrum"], "--input"),
    (["fit-spectrum", "--model", "full"], "--input"),
    (PHOTON_NUMBER[:3], "--q-int, --q-ext, --power-dbm"),
])
def test_cli_missing_required_values(tmp_path, capsys, argv, missing):
    # a required value may come from the flag or the config file, so it is
    # checked after both are merged; the command's earlier outputs go
    stale = tmp_path / cli.COMMANDS[argv[0]].envelope
    stale.write_text("{}")
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        f"error: missing required values (flag or config): {missing}\n")
    assert list(tmp_path.iterdir()) == []


def _readme_commands():
    """argv of each command of the README's command-line session."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh")[1]
    lines = block.split("```")[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("optoresp ")]


def _config_value(text):
    """A flag's text as a JSON config value: a number where it reads as one."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def test_readme_commands_read_the_same_from_config_files(tmp_path,
                                                         monkeypatch):
    # each README command run with its flags, then with the same values
    # from only a JSON and only a key=value --config file, writes the same
    # CSVs and envelopes; mc runs 2 of its 100 trials to keep the suite fast
    monkeypatch.delenv("OPTORESP_OUTDIR", raising=False)
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "photon-number", "slopes", "slopes", "mc", "temp-model", "synth",
        "fit-spectrum"]
    runs = {how: tmp_path / how for how in ("flags", "json", "keyvalue")}
    for i, (command, *flags) in enumerate(commands):
        values = dict(zip(flags[::2], flags[1::2]))
        assert list(values) == flags[::2] and len(flags) % 2 == 0
        if command == "mc":
            values["--trials"] = "2"
        json_file = tmp_path / f"{i}.json"
        json_file.write_text(json.dumps(
            {k[2:]: _config_value(v) for k, v in values.items()}))
        kv_file = tmp_path / f"{i}.cfg"
        kv_file.write_text("".join(f"{k[2:]} = {v}\n"
                                   for k, v in values.items()))
        argvs = {"flags": [command, *itertools.chain(*values.items())],
                 "json": [command, "--config", str(json_file)],
                 "keyvalue": [command, "--config", str(kv_file)]}
        for how, directory in runs.items():
            directory.mkdir(exist_ok=True)
            monkeypatch.chdir(directory)
            assert main(argvs[how]) == 0, (how, argvs[how])
        outputs = [_outputs(directory) for directory in runs.values()]
        assert outputs[0] and outputs[1] == outputs[0] == outputs[2], command


def test_readme_envelopes_replay_through_config(tmp_path, monkeypatch):
    # each README command's config echo, written to a JSON file and given
    # back through --config alone, runs the same: the same CSV bytes, config
    # echo and result; mc runs 2 of its 100 trials to keep the suite fast
    monkeypatch.delenv("OPTORESP_OUTDIR", raising=False)
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)   # fit-spectrum reads synth's trace from here
    for i, (command, *flags) in enumerate(_readme_commands()):
        if command == "mc":
            flags += ["--trials", "2"]
        assert main([command, *flags]) == 0, command
        values = {k[2:]: v for k, v in zip(flags[::2], flags[1::2])}
        envelope = cli.COMMANDS[command].envelope.format_map(values)
        first = json.loads((run / envelope).read_text())
        echo = tmp_path / f"{i}.json"
        echo.write_text(json.dumps(first["config"]))
        replay = tmp_path / f"replay{i}"
        assert main([command, "--config", str(echo),
                     "--out-dir", str(replay)]) == 0, command
        again = json.loads((replay / envelope).read_text())
        assert again["config"] == first["config"], command
        assert again["result"] == first["result"], command
        csvs = [p for p in replay.iterdir() if p.suffix == ".csv"]
        assert len(csvs) == len(cli.COMMANDS[command].outputs), command
        for path in csvs:
            assert path.read_bytes() == (run / path.name).read_bytes(), path


# sha256 of every file the README session writes, each envelope without its
# duration_s, recorded at 0a43036.  The mc files depend on the BLAS's
# summation order, as test_montecarlo's PINNED_RUNS do.
README_DIGESTS = {
    "fit_spectrum.json":
        "1f69bdf5d1d6b558fed2fbdb9300095f6080790eeef73cf832f2eea9510990ef",
    "fit_spectrum_curve.csv":
        "1d3463bf8612cd85ba3898c40470c6b8e33958e0536539f48576d93ca311a84d",
    "mc.json":
        "9b6cd4a7287f09b0f9511ee3736c9a3116402de98fe590419451023f02bce562",
    "mc_aggregate.csv":
        "a3ba87d8e0b8fe8e20489f74cc83f17c9624335ddefd4835e2fee0a90bcffba1",
    "mc_curves.csv":
        "bee519bd38fef653fb369c9b58e7ca9ee549aa73e8e774c11591ce8a8961be54",
    "photon_number.json":
        "d9eb783f592d3ceb787cb7f81d8325985b48d6e830e69856f2f82b573fdf9f0d",
    "slopes.json":
        "8ff733c21159a341723ad3d7879351d4637ebd2cbee0c09758c06208f1a81e36",
    "slopes_sweep.csv":
        "c2dab3739109b4716ae8512b1e1c50fe4a219df7b562fd25d50dbf514c071ea0",
    "synth_trace.csv":
        "61336c7f7828178dc0f2b1e38f7e0a2f9e66174b6fd57a36247fa8164bf1eee7",
    "synth_trace.json":
        "66df7369ba85fc67ddc97ca9ffdcb9c33111f1b8dc080241337b9f34dbd74753",
    "temp_model.csv":
        "0cb85182bc131646504b4e617823fdab5a1f18030ebfdd3f73c06442a3e6c894",
    "temp_model.json":
        "60529cb0b4813f496299cccca04243d3c6669d6286f27766ce6cb460c9f7fa06",
}


def test_readme_outputs_pinned(tmp_path, monkeypatch):
    # the README session as written, mc at 2 of its 100 trials (as the
    # replay tests run it) on one worker, so that its echo does not depend
    # on the host's core count
    monkeypatch.delenv("OPTORESP_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)   # fit-spectrum reads synth's trace from here
    for command, *flags in _readme_commands():
        if command == "mc":
            flags += ["--trials", "2", "--workers", "1"]
        assert main([command, *flags]) == 0, command
    got = {}
    for path in sorted(tmp_path.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            envelope = json.loads(data)
            del envelope["duration_s"]
            data = json.dumps(envelope).encode()
        got[path.name] = hashlib.sha256(data).hexdigest()
    assert got == README_DIGESTS


# --- the CLI contract at the finite extremes --------------------------------

EDGE_VALUES = ("0", "-0.0", "-1", "1e-308", "1e30", "1e308")
# the run each generated case starts from, by command; fit-spectrum reads
# the trace at TRACE
TRACE = "<synthesized trace>"
CONTRACT_BASE = {"photon-number": PHOTON_NUMBER,
                 "mc": ["mc", "--trials", "4", "--workers", "1"],
                 "fit-spectrum": ["fit-spectrum", "--input", TRACE]}
EMPTY_BATH = re.compile(r"\d+ of \d+ trials drew an empty TLS bath "
                        r"\(expected count \S+\)")


@st.composite
def edge_runs(draw):
    """argv of one command with one to three of its number flags each at an
    edge value or left at its default, and any choice flag drawn."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    cmd = cli.COMMANDS[name]
    argv = list(CONTRACT_BASE.get(name, [name]))
    for arg in cmd.args:
        if arg.choices:
            argv.append(f"{arg.flag}={draw(st.sampled_from(arg.choices))}")
    numbers = [a.flag for a in cmd.args
               if a.type in (int, float, cli.float_list)]
    if numbers:
        for flag in draw(st.lists(st.sampled_from(numbers), min_size=1,
                                  max_size=3, unique=True)):
            value = draw(st.sampled_from((None, *EDGE_VALUES)))
            if value is not None:
                argv.append(f"{flag}={value}")
    return argv


@pytest.fixture(scope="module")
def synthesized_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    assert main(["synth", "--noise", "1e-3", "--out-dir", str(out)]) == 0
    return str(out / "synth_trace.csv")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=edge_runs())
def test_cli_contract_at_finite_extremes(synthesized_trace, argv):
    # every run either succeeds quietly or fails at the boundary: exit 1,
    # one error line naming a flag, and none of its declared outputs left
    argv = [synthesized_trace if a == TRACE else a for a in argv]
    err = StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, "--out-dir", out])
        left = sorted(os.listdir(out))
    lines = err.getvalue().splitlines()
    if code == 0:
        assert all(EMPTY_BATH.fullmatch(line) for line in lines), lines
    else:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: --"), lines
        assert left == []


# --- the CLI contract at the ends of the declared domains -------------------

def _declared_domains(name):
    """Library field -> closed domain, as declared for what command name
    builds: a parameter class's fields, or the DOMAINS of a function's
    module; permittivity_bracket's f_r takes ResonatorMode's."""
    found = {}
    for fn in (*BUILT[name], ResonatorMode):
        owner = getattr(fn, "__self__", fn)   # a classmethod's class
        if dataclasses.is_dataclass(owner):
            for f in dataclasses.fields(owner):
                found.setdefault(f.name, f.metadata["domain"])
        for key, value in getattr(sys.modules[fn.__module__], "DOMAINS",
                                  {}).items():
            found.setdefault(key, value)
    return found


def _flag_domain(name, arg):
    """arg's closed domain in flag units: its own, or the one the library
    declares for the first field it sets that declares one; None if none."""
    if arg.domain:
        return arg.domain
    declared = _declared_domains(name)
    for field in arg.fields:
        if field in declared:
            return tuple(sorted(map(arg.in_flag_units, declared[field])))
    return None


def _domain_ends(name, arg):
    """The flag values at the finite ends of arg's domain, each moved inward
    by a relative 1e-9 so that the round trip through the flag's unit
    factors stays inside.  A count takes its least value only: its top is
    a run of minutes."""
    domain = _flag_domain(name, arg)
    if domain is None or arg.type is str:
        return []
    lo, hi = domain
    if arg.type is int:
        return [str(int(lo))]
    return [repr(end + 1e-9 * abs(end) * (1.0 if other > end else -1.0))
            for end, other in ((lo, hi), (hi, lo)) if math.isfinite(end)]


def test_every_number_flag_has_a_declared_domain():
    for name, cmd in cli.COMMANDS.items():
        for arg in cmd.args:
            # synth's seed is any nonnegative integer of numpy's generator
            if (arg.type in (int, float, cli.float_list)
                    and (name, arg.flag) != ("synth", "--seed")):
                assert _flag_domain(name, arg) is not None, (name, arg.flag)


# the run each domain-end case starts from, by command: one mc trial
DOMAIN_BASE = {**CONTRACT_BASE, "mc": ["mc", "--trials", "1", "--workers", "1"]}
# a refusal that is about the float range, or a range the domains should
# have kept a value inside
FLOAT_RANGE = re.compile(r"overflow|underflow|encountered|division|finite"
                         r"|must lie in \[")


def _runs_clean_or_is_refused_in_range(argv):
    """In the domains no product overflows or underflows: the run succeeds
    quietly or is refused by a check that is not about the float range."""
    err = StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, "--out-dir", out])
        left = sorted(os.listdir(out))
    lines = err.getvalue().splitlines()
    if code == 0:
        assert all(EMPTY_BATH.fullmatch(line) for line in lines), lines
    else:
        assert code == 1 and left == []
        assert len(lines) == 1 and lines[0].startswith("error: --"), lines
        assert not FLOAT_RANGE.search(lines[0]), lines


@pytest.mark.parametrize("argv", [
    pytest.param([*DOMAIN_BASE.get(name, [name]), f"{arg.flag}={value}"],
                 id=f"{name}{arg.flag}={value}")
    for name, cmd in sorted(cli.COMMANDS.items()) for arg in cmd.args
    for value in _domain_ends(name, arg)])
def test_cli_runs_at_each_domain_end(argv):
    _runs_clean_or_is_refused_in_range(argv)


@st.composite
def domain_end_runs(draw):
    """argv of one command with two or three of its number flags each at an
    end of its declared domain, and any choice flag drawn."""
    name = draw(st.sampled_from(sorted(set(cli.COMMANDS) - {"fit-spectrum"})))
    argv = list(DOMAIN_BASE.get(name, [name]))
    for arg in cli.COMMANDS[name].args:
        if arg.choices:
            argv.append(f"{arg.flag}={draw(st.sampled_from(arg.choices))}")
    ends = {arg.flag: _domain_ends(name, arg)
            for arg in cli.COMMANDS[name].args if _domain_ends(name, arg)}
    for flag in draw(st.lists(st.sampled_from(sorted(ends)), min_size=2,
                              max_size=3, unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(ends[flag]))}")
    return argv


@settings(max_examples=80, derandomize=True, deadline=None)
@given(argv=domain_end_runs())
def test_cli_contract_at_domain_ends(argv):
    # products of two or three flags at their ends stay in the float range
    _runs_clean_or_is_refused_in_range(argv)
