"""Command-line surface.

Subcommands: photon-number, slopes, mc, temp-model, synth, fit-spectrum.
Every run writes a JSON result envelope whose config echo contains the fully
resolved parameters, so any run can be replayed exactly; numeric tables go
to unit-labeled CSV next to it.  Exit status is nonzero only for I/O, parse
or validation failures and for numerical failures (an unsettled ODE, a
failed quadrature, a singular Jacobian or linear system, an arithmetic
error such as a division by zero), each reported as one ``error:`` line;
statistical non-convergence is reported in-band.

A flat key=value or JSON config file can seed any subcommand via --config;
explicit flags override file values.  A malformed file, an unknown key, an
unparseable value or a non-finite number is reported as ``path:lineno``: the
envelope would write nan or inf as null, and that echo could not replay.
Flag values are read as text and parsed by the same conversion inside main's
error handling, so a bad flag value is named by its flag and fails like any
other bad input.
A range error the library raises on one of its fields is reported under
the flag that sets that field.
The OPTORESP_OUTDIR environment variable selects the default output
directory (and nothing else).

Each subcommand is one row of ``COMMANDS``: its flags, the builder of its
config echo, its ``run_*`` function, its envelope and declared CSVs, its
summary lines and the flags of the library fields it sets.  One driver runs
every row, on one parser built per process.  A failed run removes all of
the command's declared outputs; a successful run removes any declared output
it did not write, so no file from an earlier run passes for its result.
"""

import argparse
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import ensemble, io, montecarlo, superconductor
from .checks import check_range
from .constants import TWO_PI, dbm_to_watts
from .fitkit import SingularJacobianError
from .fitkit import models as fitmodels
from .fitkit import synth as fitsynth
from .meanfield import OdeConvergenceError
from .resonator import (DriveCondition, LineCalibration, ResonatorMode,
                        photon_number)
from .tls import QuadratureError, ThermalEnvironment, permittivity_bracket

TEMP_MODEL_HEADER = "temp_k,fr_ghz,dfrac_tls,dfrac_qp,dfrac_total"
SLOPES_SWEEP_HEADER = "g_over_2pi_mhz,xi_m_per_w,slope_inv_q_per_w,slope_dfrac_per_w"
FIT_CURVE_HEADER = "freq_hz,data_re,data_im,model_re,model_im"


def float_list(text):
    """The type of a comma-list flag: '2,4,6' is [2.0, 4.0, 6.0]."""
    return [float(v) for v in text.split(",") if v.strip()]


# Every run_* function takes the config echo and the file names of the
# command's declared CSVs, and returns the envelope's result payload plus one
# writer per declared CSV: a function of its path, or None when this run
# writes no such file.

# --- photon-number ----------------------------------------------------------

def _photon_number_config(a):
    return {"fr_hz": a.fr_ghz * 1e9, "q_int": a.q_int, "q_ext": a.q_ext,
            "power_dbm": a.power_dbm, "detuning_hz": a.detuning_hz}


def run_photon_number(cfg, names):
    mode = ResonatorMode(f_r=cfg["fr_hz"], q_int=cfg["q_int"],
                         q_ext=cfg["q_ext"])
    drive = DriveCondition(input_power=dbm_to_watts(cfg["power_dbm"]),
                           probe_frequency=cfg["fr_hz"] + cfg["detuning_hz"])
    n = photon_number(mode, drive)
    return {
        "n_cav": n,
        "kappa_int_rad_per_s": mode.kappa_int,
        "kappa_ext_rad_per_s": mode.kappa_ext,
        "kappa_tot_rad_per_s": mode.kappa_tot,
        "kappa_int_hz": mode.kappa_int / TWO_PI,
        "kappa_ext_hz": mode.kappa_ext / TWO_PI,
        "kappa_tot_hz": mode.kappa_tot / TWO_PI,
        "q_tot": mode.q_tot,
    }, []


def _photon_number_summary(r, paths):
    return [f"n_cav = {r['n_cav']:.4g}  "
            f"(kappa_int = {r['kappa_int_rad_per_s']:.4g} rad/s = "
            f"{r['kappa_int_hz']:.4g} Hz)",
            f"wrote {paths[0]}"]


# --- slopes -----------------------------------------------------------------

def _slopes_config(a):
    return {
        "fr_hz": a.fr_ghz * 1e9,
        "rho_tls": a.rho,
        "thickness_m": a.thickness_nm * 1e-9,
        "width_m": a.width_nm * 1e-9,
        "xi": a.xi,
        "fmax_hz": a.fmax_ghz * 1e9,
        "s_tilde": a.s,
        "ds_2pi_inv_mhz": a.ds,
        "gamma1_mhz": a.gamma1_mhz,
        "g_mhz": a.g_mhz,
        "g_grid_mhz": a.g_grid_mhz,
        "xi_grid": a.xi_grid,
    }


def _ensemble_from_cfg(cfg, g_mhz, xi):
    """EnsembleParams of the slopes config; g_mhz and xi may be arrays."""
    g_rad_s = TWO_PI * g_mhz * 1e6
    return ensemble.EnsembleParams(
        omega_r=TWO_PI * cfg["fr_hz"],
        rho_tls=cfg["rho_tls"],
        thickness=cfg["thickness_m"],
        width=cfg["width_m"],
        xi=xi,
        omega_max=TWO_PI * cfg["fmax_hz"],
        s_tilde=cfg["s_tilde"],
        ds_tilde=cfg["ds_2pi_inv_mhz"] / (TWO_PI * 1e6),
        gamma1_t=TWO_PI * cfg["gamma1_mhz"] * 1e6,
        g_perp_t=g_rad_s,
        g_par_t=g_rad_s,
    )


def run_slopes(cfg, names):
    single = _ensemble_from_cfg(cfg, cfg["g_mhz"], cfg["xi"])
    g_grid = cfg["g_grid_mhz"] or [cfg["g_mhz"]]
    xi_grid = cfg["xi_grid"] or [cfg["xi"]]
    # g-major rows: every xi for the first g, then the next g
    g_mhz, xi = (a.ravel() for a in np.meshgrid(g_grid, xi_grid, indexing="ij"))
    try:
        sweep = _ensemble_from_cfg(cfg, g_mhz, xi)
    except ValueError as exc:
        # the scalar flags passed in single, so a grid value is out of range
        raise ValueError(_flag_message(exc, {
            "xi": "--xi-grid", "g_perp_t": "--g-grid-mhz",
            "g_par_t": "--g-grid-mhz", "couplings": "--g-grid-mhz"})) from exc
    columns = [g_mhz, xi, ensemble.slope_inverse_q(sweep),
               ensemble.slope_fractional_frequency(sweep)]
    return {
        "slope_inverse_q_per_w": ensemble.slope_inverse_q(single),
        "slope_fractional_frequency_per_w":
            ensemble.slope_fractional_frequency(single),
        "sweep_csv": names[0],
        "sweep_row_count": g_mhz.size,
    }, [lambda path: io.write_table(path, SLOPES_SWEEP_HEADER, columns)]


def _slopes_summary(r, paths):
    return [f"d(1/Q)/dP   = {r['slope_inverse_q_per_w'] * 1e-9:.4g} /nW",
            f"d(df/f)/dP  = "
            f"{r['slope_fractional_frequency_per_w'] * 1e-9:.4g} /nW",
            f"wrote {paths[0]} and {paths[1]}"]


# --- mc ---------------------------------------------------------------------

def _mc_config(a):
    # the power grid is built from both flags, so McConfig's p_grid errors
    # could not name either
    if a.p_points < 2:
        raise ValueError("--p-points must be at least 2")
    check_range("--p-max-nw", a.p_max_nw)
    if a.window_ghz and (len(a.window_ghz) != 2
                         or not a.window_ghz[0] < a.window_ghz[1]):
        raise ValueError("--window-ghz takes two increasing values 'lo,hi'")
    return {
        "seed": a.seed, "trials": a.trials,
        "fr_hz": a.fr_ghz * 1e9, "fmax_hz": a.fmax_ghz * 1e9,
        "window_rad_s": ([TWO_PI * v * 1e9 for v in a.window_ghz]
                         if a.window_ghz else None),
        "exclusion_mhz": a.exclusion_mhz,
        "half_length_m": a.half_length_um * 1e-6,
        "l_edge_m": a.l_edge_um * 1e-6,
        "xi": a.xi, "rho_tls": a.rho,
        "area_m2": a.area_nm2 * 1e-18,
        "g_mhz": a.g_mhz, "gamma1_mhz": a.gamma1_mhz,
        "s_std": a.s_std, "ds_2pi_inv_mhz": a.ds,
        "p_max_w": a.p_max_nw * 1e-9, "p_points": a.p_points,
        "normalize_moments": not a.raw_moments,
        "workers": usable_cores() if a.workers is None else a.workers,
    }


def usable_cores():
    """The cores this process may run on: mc's default --workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def mc_config_from_dict(cfg) -> montecarlo.McConfig:
    window = cfg.get("window_rad_s")
    return montecarlo.McConfig(
        seed=cfg["seed"], trials=cfg["trials"],
        omega_r=TWO_PI * cfg["fr_hz"], omega_max=TWO_PI * cfg["fmax_hz"],
        freq_window=tuple(window) if window else None,
        exclusion=TWO_PI * cfg["exclusion_mhz"] * 1e6,
        half_length=cfg["half_length_m"], l_edge=cfg["l_edge_m"],
        xi=cfg["xi"], rho_tls=cfg["rho_tls"], area=cfg["area_m2"],
        g_mean=TWO_PI * cfg["g_mhz"] * 1e6,
        gamma1_mean=TWO_PI * cfg["gamma1_mhz"] * 1e6,
        s_std=cfg["s_std"], ds_value=cfg["ds_2pi_inv_mhz"] / (TWO_PI * 1e6),
        p_grid=np.linspace(0.0, cfg["p_max_w"], cfg["p_points"]),
        normalize_moments=cfg["normalize_moments"], workers=cfg["workers"],
    )


def run_mc(cfg, names):
    r = montecarlo.run(mc_config_from_dict(cfg))
    (mq, sq), (mf, sf) = r.slope_stats()
    trials, n_p = r.dinv_q.shape
    # one curve row per (trial, power), trial-major
    curves = [np.tile(r.p_grid, trials), np.repeat(np.arange(trials), n_p),
              r.dinv_q.ravel(), r.dfrac.ravel()]
    aggregate = [r.p_grid, r.mean_dinv_q, r.std_dinv_q, r.mean_dfrac,
                 r.std_dfrac]
    return {
        "trials": cfg["trials"], "seed": cfg["seed"],
        "slope_inv_q_mean_per_w": mq, "slope_inv_q_std_per_w": sq,
        "slope_dfrac_mean_per_w": mf, "slope_dfrac_std_per_w": sf,
        "curves_csv": names[0], "aggregate_csv": names[1],
    }, [lambda path: io.write_table(path, io.MC_CURVES_HEADER, curves),
        lambda path: io.write_table(path, io.MC_AGGREGATE_HEADER, aggregate)]


def _mc_summary(r, paths):
    return [f"d(1/Q)/dP  = {r['slope_inv_q_mean_per_w'] * 1e-9:.4g} "
            f"+- {r['slope_inv_q_std_per_w'] * 1e-9:.2g} /nW "
            f"({r['trials']} trials)",
            f"d(df/f)/dP = {r['slope_dfrac_mean_per_w'] * 1e-9:.4g} "
            f"+- {r['slope_dfrac_std_per_w'] * 1e-9:.2g} /nW",
            f"wrote {paths[0]}"]


# --- temp-model -------------------------------------------------------------

def _temp_model_config(a):
    fr_hz = [v * 1e9 for v in a.fr_ghz]
    if not fr_hz:
        raise ValueError("--fr-ghz lists no mode frequency")
    if a.t_grid_mk:
        check_range("--t-grid-mk", a.t_grid_mk)
        t_grid = [v * 1e-3 for v in a.t_grid_mk]
    elif a.t_points < 1:
        raise ValueError("--t-points must be at least 1")
    else:
        check_range("--t-min-mk", a.t_min_mk)
        check_range("--t-max-mk", a.t_max_mk)
        t_grid = list(np.linspace(a.t_min_mk, a.t_max_mk, a.t_points) * 1e-3)
    if a.lambda0_um is None:  # no film is built to check these flags
        for flag, value in (("--tc-k", a.tc_k), ("--film-d-nm", a.film_d_nm),
                            ("--film-w-nm", a.film_w_nm),
                            ("--film-l-mm", a.film_l_mm), ("--ltl", a.ltl)):
            if value is not None:
                check_range(flag, value)
    return {
        "fr_hz_list": fr_hz,
        "t_grid_k": t_grid,
        "pdelta": a.pdelta,
        "lambda0_m": (a.lambda0_um * 1e-6 if a.lambda0_um is not None
                      else None),
        "tc_k": a.tc_k,
        "film_d_m": a.film_d_nm * 1e-9,
        "film_w_m": a.film_w_nm * 1e-9,
        "film_l_m": a.film_l_mm * 1e-3,
        "ltl_h_per_m": a.ltl,
    }


def run_temp_model(cfg, names):
    temps = np.asarray(cfg["t_grid_k"], dtype=float)
    fr_hz = np.asarray(cfg["fr_hz_list"], dtype=float)
    qp_term = np.zeros(temps.size)
    if cfg.get("lambda0_m") is not None:
        geom = superconductor.FilmGeometry(cfg["film_d_m"], cfg["film_w_m"],
                                           cfg["film_l_m"])
        if cfg.get("ltl_h_per_m") is not None:
            sc = superconductor.SuperconductorParams(
                cfg["lambda0_m"], cfg["tc_k"], cfg["ltl_h_per_m"])
        else:
            sc = superconductor.SuperconductorParams.with_kinetic_total(
                cfg["lambda0_m"], cfg["tc_k"], geom, t_ref=temps[0])
        qp_term = superconductor.freq_shift_from_temperature(
            sc, geom, temps, temps[0])
    # one row per (mode, temperature), mode-major; the filling factor is
    # folded into the pdelta product
    tls_term = (cfg["pdelta"] / np.pi * permittivity_bracket(
        fr_hz[:, None], ThermalEnvironment(temps))).ravel()
    qp_term = np.tile(qp_term, fr_hz.size)
    columns = [np.tile(temps, fr_hz.size), np.repeat(fr_hz / 1e9, temps.size),
               tls_term, qp_term, tls_term + qp_term]
    return {"csv": names[0], "n_rows": tls_term.size}, [
        lambda path: io.write_table(path, TEMP_MODEL_HEADER, columns)]


# --- synth ------------------------------------------------------------------

def _synth_config(a):
    if a.points < 1:
        raise ValueError("--points must be at least 1")
    if a.seed < 0:
        raise ValueError("--seed must be nonnegative")
    if a.kind == "trace":
        # the grid is built from both flags, so its errors could name neither
        if not a.f_start_ghz < a.f_stop_ghz:
            raise ValueError("--f-start-ghz must be below --f-stop-ghz")
        # the grid run_synth builds: neighbours closer than a float's
        # spacing round to the same frequency
        grid = np.linspace(a.f_start_ghz * 1e9, a.f_stop_ghz * 1e9, a.points)
        if not np.all(np.diff(grid) > 0):
            raise ValueError("--f-start-ghz and --f-stop-ghz are too close "
                             "for --points: the grid repeats a frequency")
        return {"fr_hz": a.fr_ghz * 1e9, "q_int": a.q_int,
                "q_ext": a.q_ext, "phi": a.phi,
                "amplitude": a.amp, "tau_s": a.tau_ns * 1e-9,
                "alpha": a.alpha,
                "f_start_hz": a.f_start_ghz * 1e9,
                "f_stop_hz": a.f_stop_ghz * 1e9,
                "points": a.points, "noise": a.noise, "seed": a.seed}
    check_range("--p-max-nw", a.p_max_nw)
    return {"p_max_w": a.p_max_nw * 1e-9, "points": a.points,
            "gamma_per_w": a.gamma_per_nw * 1e9,
            "inv_q0": a.inv_q0,
            "delta1_per_w": a.delta1_per_nw * 1e9,
            "delta2": a.delta2,
            "delta3_per_w": a.delta3_per_nw * 1e9,
            "noise": a.noise, "seed": a.seed}


def run_synth(cfg, names):
    """A trace when cfg is a trace config (it has a mode frequency), else a
    power series; the CSV's one comment line echoes the generator config."""
    comments = [f"generator {json.dumps(cfg)}"]
    if "fr_hz" in cfg:
        mode = ResonatorMode.from_asymmetry_angle(cfg["fr_hz"], cfg["q_int"],
                                                  cfg["q_ext"], cfg["phi"])
        line = LineCalibration(cfg["amplitude"], cfg["tau_s"], cfg["alpha"])
        grid = np.linspace(cfg["f_start_hz"], cfg["f_stop_hz"], cfg["points"])
        trace = fitsynth.synth_trace(mode, line, grid, noise_std=cfg["noise"],
                                     seed=cfg["seed"])
        return {"file": names[0]}, [
            lambda path: io.write_trace(path, trace, comments)]
    s = fitsynth.synth_power_series(
        np.linspace(0.0, cfg["p_max_w"], cfg["points"]),
        gamma=cfg["gamma_per_w"], inv_q0=cfg["inv_q0"],
        delta1=cfg["delta1_per_w"], delta2=cfg["delta2"],
        delta3=cfg["delta3_per_w"], noise_rel=cfg["noise"], seed=cfg["seed"])
    columns = [s.p_opt, s.inv_q, s.dfrac]
    return {"file": names[0]}, [
        lambda path: io.write_table(path, io.POWER_HEADER, columns, comments)]


# --- fit-spectrum -----------------------------------------------------------

def _fit_report(fit):
    """The engine's account of a fit: flags, stop reason, effort and the
    1-sigma uncertainty of each parameter from its covariance."""
    return {"converged": fit.converged, "flags": fit.flags,
            "iterations": fit.iterations, "nfev": fit.nfev,
            "message": fit.message,
            "uncertainties": {n: fit.uncertainty(n) for n in fit.names}}


def run_fit_spectrum(cfg, names):
    """Payload of the chosen fits, and the full-model curve when the full fit
    ran.  Under "both", a trace with no resolved dip records the Lorentzian
    failure in the payload and still gets the full fit."""
    trace = io.read_trace(cfg["input"])
    which = cfg["model"]
    payload = {}
    writers = [None]
    if which in ("lorentzian", "both"):
        try:
            lor = fitmodels.fit_lorentzian_dip(trace)
        except fitmodels.NoDipError as exc:
            if which == "lorentzian":
                raise
            payload["lorentzian"] = {"error": str(exc)}
        else:
            payload["lorentzian"] = {
                "f_r_hz": lor.f_r, "width_hz": lor.width,
                "depth": lor.depth, "q_int": lor.q_int,
                "q_tot_equivalent": lor.q_tot_equivalent,
                **_fit_report(lor.fit),
            }
    if which in ("full", "both"):
        full = fitmodels.fit_full_s21(trace)
        payload["full"] = {
            "f_r_hz": full.f_r, "q_tot": full.q_tot, "q_int": full.q_int,
            "q_ext": full.q_ext,
            "q_ext_imag": full.q_ext_complex.imag,
            "amplitude": full.amplitude, "delay_s": full.delay,
            "phase_offset_rad": full.phase_offset,
            **_fit_report(full.fit),
        }
        model = fitmodels.s21_model(full.fit.values, trace.frequencies)
        columns = [trace.frequencies, trace.values.real, trace.values.imag,
                   model.real, model.imag]
        writers = [lambda path: io.write_table(path, FIT_CURVE_HEADER,
                                               columns)]
    qi_l = payload.get("lorentzian", {}).get("q_int", np.nan)
    if which == "both" and np.isfinite(qi_l):
        qi_f = payload["full"]["q_int"]
        payload["q_int_discrepancy_rel"] = abs(qi_l - qi_f) / qi_f
    return payload, writers


def _fit_spectrum_summary(payload, paths):
    lines = []
    for name, fit in payload.items():
        if name == "q_int_discrepancy_rel":
            lines.append(f"Q_int discrepancy (lorentzian vs full): {fit:.2%}")
        elif "error" in fit:
            lines.append(f"{name}: {fit['error']}")
        else:
            lines.append(f"{name}: f_r = {fit['f_r_hz']:.6g} Hz, "
                         f"Q_int = {fit['q_int']:.6g}")
    return lines + [f"wrote {paths[0]}"]


# --- command table ----------------------------------------------------------

@dataclass(frozen=True)
class Arg:
    """One flag.  type=bool declares a switch, which sets the text 'true';
    required=True is checked after the config file merge."""
    flag: str
    type: Callable = str
    default: object = None
    help: str = None
    choices: tuple = None
    required: bool = False

    @property
    def dest(self):
        return self.flag[2:].replace("-", "_")

    def convert(self, text):
        """The value of this flag written as text, on the command line or in
        a config file."""
        if self.type is bool:
            word = text.strip().lower()
            if word not in ("1", "true", "yes", "on", "0", "false", "no",
                            "off"):
                raise ValueError(f"not a switch value: {text!r}")
            return word in ("1", "true", "yes", "on")
        value = self.type(text)
        if self.choices and value not in self.choices:
            raise ValueError(f"not one of {self.choices}")
        return value


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    args: tuple           # Arg rows after the common --out-dir and --config
    config: Callable      # resolved flags -> config echo
    run: Callable         # (config, CSV names) -> (payload, writers)
    envelope: str         # file names may use {flag} fields, e.g. {kind}
    outputs: tuple        # declared CSVs, in the order of the writers
    summary: Callable     # (payload, [envelope, *CSV paths]) -> lines
    # library field (first word of its range error) -> the flag that sets it
    flags: dict = field(default_factory=dict)


def _flag_message(exc, flags):
    """exc's message, with each word that is a library field name replaced
    by the flag that sets it.  The value a library message quotes after
    ', got' is in library units, so it is dropped from a renamed message."""
    text = str(exc)
    named = " ".join(flags.get(word, word) for word in text.split(" "))
    return text if named == text else named.split(", got ")[0]


COMMON = (
    Arg("--out-dir", help="output directory (default: $OPTORESP_OUTDIR or .)"),
    Arg("--config",
        help="key=value or JSON file with defaults for this command"),
)

COMMANDS = {c.name: c for c in (
    Command(
        "photon-number", "intracavity photon number",
        (Arg("--fr-ghz", float, required=True),
         Arg("--q-int", float, required=True),
         Arg("--q-ext", float, required=True),
         Arg("--power-dbm", float, required=True),
         Arg("--detuning-hz", float, 0.0)),
        _photon_number_config, run_photon_number, "photon_number.json", (),
        _photon_number_summary,
        {"f_r": "--fr-ghz", "q_int": "--q-int", "q_ext": "--q-ext",
         "input_power": "--power-dbm", "probe_frequency": "--detuning-hz"}),
    Command(
        "slopes", "analytic optical-response slopes",
        (Arg("--fr-ghz", float, 7.0),
         Arg("--rho", float, 1e45, "TLS density of states [1/(J m^3)]"),
         Arg("--thickness-nm", float, 2.0),
         Arg("--width-nm", float, 500.0),
         Arg("--xi", float, 50.0, "m/W"),
         Arg("--fmax-ghz", float, 1000.0),
         Arg("--s", float, 0.0, "bath population imbalance S in [-1, 0]"),
         Arg("--ds", float, 1.0 / 400.0,
             "population slope dS*2pi in 1/MHz"),
         Arg("--gamma1-mhz", float, 16.0),
         Arg("--g-mhz", float, 5.0),
         Arg("--g-grid-mhz", float_list, (),
             "comma list; sweeps the coupling"),
         Arg("--xi-grid", float_list, (), "comma list; sweeps xi")),
        _slopes_config, run_slopes, "slopes.json", ("slopes_sweep.csv",),
        _slopes_summary,
        {"omega_r": "--fr-ghz", "rho_tls": "--rho",
         "thickness": "--thickness-nm", "width": "--width-nm", "xi": "--xi",
         "omega_max": "--fmax-ghz", "gamma1_t": "--gamma1-mhz",
         "g_perp_t": "--g-mhz", "g_par_t": "--g-mhz", "s_tilde": "--s",
         "ds_tilde": "--ds", "delta_max": "--fmax-ghz", "couplings": "--g-mhz",
         "delta_min": "--fr-ghz", "gamma2_t": "--gamma1-mhz"}),
    Command(
        "mc", "Monte Carlo ensemble simulation",
        (Arg("--seed", int, 0),
         Arg("--trials", int, 100),
         Arg("--fr-ghz", float, 7.0),
         Arg("--fmax-ghz", float, 1000.0),
         Arg("--window-ghz", float_list, (),
             "detuning window 'lo,hi' in GHz (default: (fr - fmax, fr), "
             "TLS frequencies in (0, fmax])"),
         Arg("--exclusion-mhz", float, 100.0),
         Arg("--half-length-um", float, 250.0),
         Arg("--l-edge-um", float, 10.0),
         Arg("--xi", float, 50.0),
         Arg("--rho", float, 1e45),
         Arg("--area-nm2", float, 1000.0),
         Arg("--g-mhz", float, 5.0),
         Arg("--gamma1-mhz", float, 16.0),
         Arg("--s-std", float, 0.35),
         Arg("--ds", float, 1.0 / 400.0,
             "population slope dS*2pi in 1/MHz"),
         Arg("--p-max-nw", float, 200.0),
         Arg("--p-points", int, 11),
         Arg("--raw-moments", bool, False,
             "skip the <g^2>/<Gamma_1> moment normalization"),
         Arg("--workers", int, None,
             "trial threads (default: the usable cores)")),
        _mc_config, run_mc, "mc.json", ("mc_curves.csv", "mc_aggregate.csv"),
        _mc_summary,
        {"trials": "--trials", "omega_r": "--fr-ghz",
         "omega_max": "--fmax-ghz", "exclusion": "--exclusion-mhz",
         "half_length": "--half-length-um", "l_edge": "--l-edge-um",
         "xi": "--xi", "area": "--area-nm2", "g_mean": "--g-mhz",
         "gamma1_mean": "--gamma1-mhz", "rho_tls": "--rho",
         "s_std": "--s-std", "workers": "--workers", "seed": "--seed",
         "ds_value": "--ds", "freq_window": "--window-ghz"}),
    Command(
        "temp-model", "temperature dependence of the frequency shift",
        (Arg("--fr-ghz", float_list, (7.0,), "comma list of mode frequencies"),
         Arg("--t-min-mk", float, 10.0),
         Arg("--t-max-mk", float, 1000.0),
         Arg("--t-points", int, 100),
         Arg("--t-grid-mk", float_list, (),
             "explicit comma list of temperatures [mK]"),
         Arg("--pdelta", float, 0.0,
             "filling factor * intrinsic TLS loss tangent"),
         Arg("--lambda0-um", float, None,
             "penetration depth at T=0 [um]; enables the quasiparticle term"),
         Arg("--tc-k", float, 14.0),
         Arg("--film-d-nm", float, 10.0),
         Arg("--film-w-nm", float, 150.0),
         Arg("--film-l-mm", float, 1.5),
         Arg("--ltl", float, None,
             "total inductance per length [H/m]; default kinetic-dominated")),
        _temp_model_config, run_temp_model, "temp_model.json",
        ("temp_model.csv",),
        lambda r, paths: [f"wrote {paths[1]} ({r['n_rows']} rows)"],
        {"f_r": "--fr-ghz", "lambda0": "--lambda0-um", "t_c": "--tc-k",
         "thickness": "--film-d-nm", "width": "--film-w-nm",
         "length": "--film-l-mm", "l_total_per_length": "--ltl"}),
    Command(
        "synth", "synthetic traces and power series",
        (Arg("--kind", str, "trace", choices=("trace", "power")),
         Arg("--seed", int, 0),
         Arg("--noise", float, 0.0),
         Arg("--points", int, 4001),
         # trace parameters; default span ~3 linewidths, dense enough for
         # the from-the-bottom Q_int reading
         Arg("--fr-ghz", float, 7.061),
         Arg("--q-int", float, 34477.0),
         Arg("--q-ext", float, 480.0),
         Arg("--phi", float, 0.0),
         Arg("--amp", float, 1.0),
         Arg("--tau-ns", float, 0.0),
         Arg("--alpha", float, 0.0),
         Arg("--f-start-ghz", float, 7.0386),
         Arg("--f-stop-ghz", float, 7.0834),
         # power-series parameters
         Arg("--p-max-nw", float, 200.0),
         Arg("--gamma-per-nw", float, 1.35e-6),
         Arg("--inv-q0", float, 2.9e-5),
         Arg("--delta1-per-nw", float, 5.9e-7),
         Arg("--delta2", float, 0.0),
         Arg("--delta3-per-nw", float, 0.0)),
        _synth_config, run_synth, "synth_{kind}.json", ("synth_{kind}.csv",),
        lambda r, paths: [f"wrote {paths[1]}"],
        {"f_r": "--fr-ghz", "q_int": "--q-int", "q_ext_mag": "--q-ext",
         "phi": "--phi", "noise_std": "--noise", "noise_rel": "--noise",
         "amplitude": "--amp", "delay": "--tau-ns", "phase_offset": "--alpha",
         "gamma": "--gamma-per-nw", "inv_q0": "--inv-q0",
         "delta1": "--delta1-per-nw", "delta2": "--delta2",
         "delta3": "--delta3-per-nw"}),
    Command(
        "fit-spectrum", "fit a measured/synthetic trace",
        (Arg("--input", required=True),
         Arg("--model", str, "both", choices=("lorentzian", "full", "both"))),
        lambda a: {"input": str(a.input), "model": a.model},
        run_fit_spectrum, "fit_spectrum.json", ("fit_spectrum_curve.csv",),
        _fit_spectrum_summary),
)}


# --- driver -----------------------------------------------------------------

@functools.cache
def build_parser():
    """The parser of every row.  Flags are read as text, converted by main
    like config values; unset flags stay off the namespace, so the
    driver can tell an explicit flag from a default."""
    p = argparse.ArgumentParser(
        prog="optoresp",
        description="Optical-response toolkit for superconducting nanowire "
                    "microwave resonators")
    sub = p.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS.values():
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for a in COMMON + cmd.args:
            kw = ({"action": "store_const", "const": "true"}
                  if a.type is bool else {})
            if a.choices:
                kw["metavar"] = "{" + ",".join(a.choices) + "}"
            sp.add_argument(a.flag, default=argparse.SUPPRESS,
                            help=a.help or ("required (flag or config)"
                                            if a.required else None), **kw)
    return p


_WS = re.compile(r"\s*")


def _json_entries(path, text):
    """(lineno, key, value) of each member of the JSON object in text."""
    decoder = json.JSONDecoder()
    try:
        data = decoder.decode(text)
    except json.JSONDecodeError as exc:
        raise io.ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    # text is a valid object: walk its members for their line numbers
    entries = []
    pos = _WS.match(text).end()                 # at '{'
    while data and text[pos] != "}":
        pos = _WS.match(text, pos + 1).end()    # the key, past '{' or ','
        key, end = json.decoder.scanstring(text, pos + 1)
        colon = _WS.match(text, end).end()
        value, end = decoder.raw_decode(text, _WS.match(text, colon + 1).end())
        entries.append((text.count("\n", 0, pos) + 1, key, value))
        pos = _WS.match(text, end).end()        # at ',' or the closing '}'
    return entries


def load_config_file(path):
    """(lineno, key, value) entries of a JSON object or of flat key=value
    lines (# comments allowed)."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return _json_entries(path, text)
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise io.ParseError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        entries.append((lineno, key.strip(), value.strip()))
    return entries


def _convert(cmd, entries):
    """Values by flag dest of (where, key, text) entries, each text parsed
    like the flag key names.  where names a bad entry: "path:lineno: config
    key 'key'" for a config file, None for a flag (named by itself)."""
    args = {a.dest: a for a in COMMON + cmd.args}
    values = {}
    for where, key, text in entries:
        arg = args.get(key.replace("-", "_"))
        if arg is None:
            raise ValueError(f"{where} is not a flag of this command")
        try:
            value = arg.convert(str(text))
        except ValueError as exc:
            raise ValueError(f"{where or arg.flag}: invalid value "
                             f"{str(text)!r}") from exc
        if arg.type in (float, float_list):
            check_range(where or arg.flag, value, "finite")
        values[arg.dest] = value
    return values


def _output_paths(cmd, args):
    """The command's result envelope, then the CSVs it declares, in
    --out-dir, $OPTORESP_OUTDIR or '.'."""
    d = Path(args.out_dir or os.environ.get("OPTORESP_OUTDIR", "."))
    return [d / name.format_map(vars(args))
            for name in (cmd.envelope, *cmd.outputs)]


def _execute(cmd, args):
    missing = [a.flag for a in cmd.args
               if a.required and getattr(args, a.dest) is None]
    if missing:
        raise ValueError("missing required values (flag or config): "
                         + ", ".join(missing))
    cfg = cmd.config(args)
    paths = _output_paths(cmd, args)
    start = time.perf_counter()
    payload, writers = cmd.run(cfg, [p.name for p in paths[1:]])
    duration_s = time.perf_counter() - start
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    # an envelope is named after its command tag: synth-trace writes
    # synth_trace.json
    tag = paths[0].stem.replace("_", "-")
    io.write_envelope(paths[0],
                      io.result_envelope(tag, cfg, payload, duration_s))
    for path, write in zip(paths[1:], writers):
        if write is None:
            path.unlink(missing_ok=True)
        else:
            write(path)
    for line in cmd.summary(payload, paths):
        print(line)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    explicit = vars(build_parser().parse_args(argv))
    cmd = COMMANDS[explicit.pop("command")]
    defaults = {a.dest: a.default for a in COMMON + cmd.args}
    # the flags as text name the outputs a failed conversion removes
    args = argparse.Namespace(**{**defaults, **explicit})
    try:
        explicit = _convert(cmd, [(None, k, v) for k, v in explicit.items()])
        lines = load_config_file(args.config) if args.config else []
        from_file = _convert(cmd, [(f"{args.config}:{n}: config key '{k}'",
                                    k, v) for n, k, v in lines])
        # defaults, then the config file, then the explicit flags
        args = argparse.Namespace(**{**defaults, **from_file, **explicit})
        return _execute(cmd, args)
    except (ValueError, OSError, ArithmeticError, OdeConvergenceError,
            QuadratureError, SingularJacobianError) as exc:
        print(f"error: {_flag_message(exc, cmd.flags)}", file=sys.stderr)
        # a failed run leaves none of its outputs, so no envelope or CSV
        # from an earlier run passes for its result
        for path in _output_paths(cmd, args):
            try:
                path.unlink(missing_ok=True)
            except OSError as err:
                print(f"error: could not remove {path}: {err}",
                      file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
