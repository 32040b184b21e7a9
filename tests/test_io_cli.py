import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optoresp import cli, io
from optoresp.cli import main
from optoresp.fitkit import (ComplexTrace, PowerSeries, SingularJacobianError,
                             synth_trace)
from optoresp.meanfield import OdeConvergenceError
from optoresp.resonator import LineCalibration, ResonatorMode
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
    series = PowerSeries(p_opt=np.array([0.0, 1e-9, 2e-9]),
                         inv_q=np.array([1e-5, 2e-5, 3e-5]),
                         dfrac=np.array([0.0, -1e-6, 1e-6]))
    path = tmp_path / "power.csv"
    io.write_power_series(path, series)
    back = io.read_power_series(path)
    assert np.array_equal(back.p_opt, series.p_opt)
    assert np.array_equal(back.dfrac, series.dfrac)


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


def test_cli_mc_envelope_replays(tmp_path):
    from optoresp.cli import run_mc
    out = tmp_path / "o"
    run_cli("mc", "--trials", "2", "--seed", "3", "--p-points", "4",
            "--fmax-ghz", "100", "--half-length-um", "60",
            "--out-dir", str(out))
    env = json.loads((out / "mc.json").read_text())
    result, payload = run_mc(env["config"])
    assert payload["slope_inv_q_mean_per_w"] == env["result"]["slope_inv_q_mean_per_w"]
    assert payload["slope_dfrac_std_per_w"] == env["result"]["slope_dfrac_std_per_w"]


def test_cli_mc_empty_bath(tmp_path):
    with pytest.warns(UserWarning):
        code = run_cli("mc", "--rho", "0", "--trials", "1", "--p-points", "4",
                       "--out-dir", str(tmp_path))
    assert code == 0
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
    curve = (tmp_path / "fit_spectrum_curve.csv").read_text().splitlines()
    assert curve[0] == "freq_hz,data_re,data_im,model_re,model_im"


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
    series = io.read_power_series(tmp_path / "synth_power.csv")
    d = series.dfrac
    assert d[1] < 0
    i_min = int(np.argmin(d))
    assert 0 < i_min < d.size - 1
    assert d[-1] > 0
    assert np.all(np.diff(series.inv_q) > 0)


def test_cli_fit_spectrum_parse_error(tmp_path):
    bad = tmp_path / "broken.csv"
    bad.write_text("freq_hz,re,im\n1e9,0.1,oops\n")
    code = run_cli("fit-spectrum", "--input", str(bad),
                   "--out-dir", str(tmp_path))
    assert code == 1


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


@pytest.mark.parametrize("exc", [
    OdeConvergenceError("decay fit residual too large"),
    QuadratureError("quadrature failed"),
    SingularJacobianError("Jacobian vanishes"),
    np.linalg.LinAlgError("Singular matrix"),
])
def test_cli_numerical_errors_exit_cleanly(tmp_path, monkeypatch, capsys, exc):
    def failing_command(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_slopes", failing_command)
    code = run_cli("slopes", "--out-dir", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"


def test_mc_csv_schemas(tmp_path):
    from optoresp.montecarlo import McConfig, run
    cfg = McConfig(seed=1, trials=2, omega_max=2 * np.pi * 50e9,
                   half_length=50e-6, p_grid=np.linspace(0, 50e-9, 4))
    res = run(cfg)
    io.write_mc_curves(tmp_path / "curves.csv", res)
    io.write_mc_aggregate(tmp_path / "agg.csv", res)
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "p_opt_w,trial,dinv_q,dfrac_freq"
    assert len(lines) == 1 + 2 * 4
    agg = (tmp_path / "agg.csv").read_text().splitlines()
    assert agg[0] == "p_opt_w,mean_dinv_q,std_dinv_q,mean_dfrac,std_dfrac"


def test_cli_synth_default_roundtrip(tmp_path):
    # the stock synth invocation must produce a file fit-spectrum accepts
    assert run_cli("synth", "--noise", "1e-3", "--out-dir", str(tmp_path)) == 0
    code = run_cli("fit-spectrum", "--input", str(tmp_path / "synth_trace.csv"),
                   "--out-dir", str(tmp_path))
    assert code == 0
    env = json.loads((tmp_path / "fit_spectrum.json").read_text())
    assert abs(env["result"]["full"]["q_int"] - 34477) / 34477 < 0.05
    assert abs(env["result"]["lorentzian"]["q_int"] - 34477) / 34477 < 0.10
