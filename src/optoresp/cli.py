"""Command-line surface.

Subcommands: photon-number, slopes, mc, temp-model, synth, fit-spectrum.
Every run writes a JSON result envelope (schema ``optoresp/result/v3``)
whose config echo holds the resolved value of every flag, in flag units,
keyed by the flag's dest (``--out-dir`` and ``--config`` aside; ``mc``
echoes the worker count it used).  The echo is itself a JSON ``--config``
file, so any run can be replayed exactly: write
``json.load(open("mc.json"))["config"]`` to ``c.json`` with Python, then run
``optoresp mc --config c.json``.  Numeric tables go to unit-labeled CSV next
to the envelope.  Exit status is nonzero only for I/O, parse or validation
failures and for numerical failures (a ``checks.NumericalError``: an
unsettled ODE, a failed quadrature or a singular Jacobian; a singular
linear system; any other ``ArithmeticError``, such as a division by zero),
each reported as one ``error:`` line; statistical non-convergence is
reported in-band.  A command runs under ``np.errstate`` with overflow,
invalid operations and division by zero raised, so a floating-point error
no check foresaw is one of these failures, in ``mc``'s worker threads too.

A flat key=value or JSON config file can seed any subcommand via --config;
explicit flags override file values.  A JSON ``null`` leaves its flag unset
and a JSON list fills a list flag.  A malformed file, an unknown key, an
unparseable value or a non-finite number is reported as ``path:lineno``: the
envelope would write nan or inf as null, and that echo could not replay.
Flag values are read as text and parsed by the same conversion inside main's
error handling, so a bad flag value is named by its flag and fails like any
other bad input.
The OPTORESP_OUTDIR environment variable selects the default output
directory (and nothing else).

Each flag is one ``Arg`` row: it declares the library fields its value sets
and the unit factors that take the value there, and one helper,
``_library``, builds a library call's keywords from the rows.  A range error
the library raises on a field is reported under the flag of the row that
declares it, a domain's bounds in the flag's units.  A flag that sets no
library field declares its own domain.  Each subcommand is one row of
``COMMANDS``: its flags, its ``run_*`` function, its envelope and declared
CSVs, its summary lines and the checks only the CLI can make.  One driver
runs every row, on one parser built per process.  A failed run removes all
of the command's declared outputs; a successful run removes any declared
output it did not write, so no file from an earlier run passes for its
result.
"""

import argparse
import functools
import inspect
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import ensemble, io, montecarlo, superconductor
from .checks import DomainError, check_finite, check_range, domain
from .constants import TWO_PI, dbm_to_watts
from .fitkit import models as fitmodels
from .fitkit import synth as fitsynth
from .resonator import (DriveCondition, LineCalibration, ResonatorMode,
                        photon_number)
from .tls import ThermalEnvironment, permittivity_bracket

TEMP_MODEL_HEADER = "temp_k,fr_ghz,dfrac_tls,dfrac_qp,dfrac_total"
SLOPES_SWEEP_HEADER = "g_over_2pi_mhz,xi_m_per_w,slope_inv_q_per_w,slope_dfrac_per_w"
FIT_CURVE_HEADER = "freq_hz,model_re,model_im"


def float_list(text):
    """The type of a comma-list flag: '2,4,6' is [2.0, 4.0, 6.0]."""
    return [float(v) for v in text.split(",") if v.strip()]


# --- flag rows --------------------------------------------------------------

@dataclass(frozen=True)
class Arg:
    """One flag.  required=True is checked after the config file merge.

    field names the library field or fields the value sets, and any other
    word a library range message uses for this flag.  to_si holds the unit
    factors that take the value to the field's units, multiplied in one at a
    time in order; per is a divisor applied after them.  A flag that sets no
    library field declares its closed domain (lo, hi) in flag units, checked
    where the value is read; a library field's domain is the library's.
    """
    flag: str
    type: Callable = str
    default: object = None
    help: str = None
    choices: tuple = None
    required: bool = False
    field: str | tuple = ()
    to_si: tuple = ()
    per: float = None
    domain: tuple = None

    @property
    def dest(self):
        return self.flag[2:].replace("-", "_")

    @property
    def fields(self):
        return (self.field,) if isinstance(self.field, str) else self.field

    def convert(self, text):
        """The value of this flag written as text, on the command line or in
        a config file."""
        value = self.type(text)
        if self.choices and value not in self.choices:
            raise ValueError(f"not one of {self.choices}")
        return value

    def si(self, value):
        """value in the units of the library field; an empty list is None.
        A product that overflows is inf, which the library refuses."""
        if self.type is float_list:
            if len(value) == 0:
                return None
            value = np.asarray(value, dtype=float)
        with np.errstate(over="ignore"):
            for factor in self.to_si:
                value = value * factor
        return value if self.per is None else value / self.per

    def in_flag_units(self, value):
        """A value in the units of the library field, in the flag's."""
        return value * (self.per or 1.0) / math.prod(self.to_si)


def _flags(rows):
    """Library field or message word -> the first row that declares it."""
    flags = {}
    for arg in rows:
        for name in arg.fields:
            flags.setdefault(name, arg)
    return flags


def _flag_message(exc, flags):
    """exc's message, with each word that is a library field name replaced
    by the flag of its row in flags.  A value a library message quotes is in
    library units: a renamed DomainError quotes its bounds in the flag's
    units, and any other renamed message drops the value after ', got'."""
    text = str(exc)
    named = " ".join(flags[word].flag if word in flags else word
                     for word in text.split(" "))
    if named == text:
        return text
    if isinstance(exc, DomainError) and exc.name in flags:
        arg = flags[exc.name]
        return str(DomainError(arg.flag, tuple(map(arg.in_flag_units,
                                                   exc.domain))))
    return named.split(", got ")[0]


@functools.cache
def _parameters(fn):
    """The names of fn's parameters, read from its signature once."""
    return frozenset(inspect.signature(fn).parameters)


def _library(fn, a, rows, **hand):
    """fn called with the hand-written keywords and with each parameter of
    fn that a row declares, set from the row's value of a in library units
    (the first row that declares it wins).  A range error fn raises names
    the flags of rows."""
    flags = _flags(rows)
    params = _parameters(fn)
    kwargs = {name: arg.si(getattr(a, arg.dest))
              for name, arg in flags.items() if name in params}
    try:
        return fn(**kwargs, **hand)
    except ValueError as exc:
        raise ValueError(_flag_message(exc, flags)) from exc


def _echo(a):
    """The config echo: the resolved value of every flag, by dest."""
    return {k: v for k, v in vars(a).items() if k not in ("out_dir", "config")}


# Every run_* function takes the resolved flags, the command's Arg rows and
# the file names of its declared CSVs, and returns the envelope's result
# payload plus one writer per declared CSV: a function of its path, or None
# when this run writes no such file.

# --- photon-number ----------------------------------------------------------

def run_photon_number(a, rows, names):
    mode = _library(ResonatorMode, a, rows)
    drive = DriveCondition(input_power=dbm_to_watts(a.power_dbm),
                           probe_frequency=mode.f_r + a.detuning_hz)
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

def run_slopes(a, rows, names):
    single = _library(ensemble.EnsembleParams, a, rows)
    # g-major rows: every xi for the first g, then the next g
    g_mhz, xi = (v.ravel() for v in np.meshgrid(
        a.g_grid_mhz or [a.g_mhz], a.xi_grid or [a.xi], indexing="ij"))
    # the grid rows, put first, set the sweep's couplings and xi and name
    # its range errors
    grid = argparse.Namespace(**{**vars(a), "g_grid_mhz": g_mhz,
                                 "xi_grid": xi})
    sweep = _library(ensemble.EnsembleParams, grid,
                     [r for r in rows if r.type is float_list] + list(rows))
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

def _power_grid(p_max_nw, points):
    """The power grid of mc and of synth --kind power [W]."""
    return np.linspace(0.0, p_max_nw * 1e-9, points)


def _mc_check(a):
    if a.window_ghz and (len(a.window_ghz) != 2
                         or not a.window_ghz[0] < a.window_ghz[1]):
        raise ValueError("--window-ghz takes two increasing values 'lo,hi'")
    if a.workers is None:   # the echo holds the count the run uses
        a.workers = usable_cores()


def usable_cores():
    """The cores this process may run on: mc's default --workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _mc_config(a, rows):
    return _library(montecarlo.McConfig, a, rows,
                    p_grid=_power_grid(a.p_max_nw, a.p_points))


def run_mc(a, rows, names):
    r = montecarlo.run(_mc_config(a, rows))
    (mq, sq), (mf, sf) = r.slope_stats()
    trials, n_p = r.dinv_q.shape
    # one curve row per (trial, power), trial-major
    curves = [np.tile(r.p_grid, trials), np.repeat(np.arange(trials), n_p),
              r.dinv_q.ravel(), r.dfrac.ravel()]
    aggregate = [r.p_grid, r.mean_dinv_q, r.std_dinv_q, r.mean_dfrac,
                 r.std_dfrac]
    return {
        "trials": a.trials, "seed": a.seed,
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

def _temp_model_check(a):
    if not a.fr_ghz:
        raise ValueError("--fr-ghz lists no mode frequency")
    # the film's flags meet the library's domains whether or not
    # --lambda0-um builds a film, so each value is valid or not on its own
    flags = COMMANDS["temp-model"].flags
    for cls in (superconductor.FilmGeometry,
                superconductor.SuperconductorParams):
        for f in fields(cls):
            arg = flags[f.name]
            value = getattr(a, arg.dest)
            if value is not None:
                check_range(f.name, arg.si(value), domain(cls, f.name))
    if a.lambda0_um is None:
        return
    # the quasiparticle term takes every temperature of the grid below T_c
    temperatures = ([("--t-grid-mk", max(a.t_grid_mk))] if a.t_grid_mk else
                    [("--t-min-mk", a.t_min_mk), ("--t-max-mk", a.t_max_mk)])
    for flag, t_mk in temperatures:
        if not t_mk * 1e-3 < a.tc_k:
            raise ValueError(f"{flag} must lie below --tc-k")


def run_temp_model(a, rows, names):
    temps = np.asarray(a.t_grid_mk or np.linspace(a.t_min_mk, a.t_max_mk,
                                                  a.t_points),
                       dtype=float) * 1e-3
    fr_hz = rows[0].si(a.fr_ghz)
    qp_term = np.zeros(temps.size)
    if a.lambda0_um is not None:
        geom = _library(superconductor.FilmGeometry, a, rows)
        sc = _library(superconductor.SuperconductorParams, a, rows)
        qp_term = superconductor.freq_shift_from_temperature(
            sc, geom, temps, temps[0])
    # one row per (mode, temperature), mode-major; the filling factor is
    # folded into the pdelta product
    tls_term = (a.pdelta / np.pi * permittivity_bracket(
        fr_hz[:, None], ThermalEnvironment(temps))).ravel()
    qp_term = np.tile(qp_term, fr_hz.size)
    columns = [np.tile(temps, fr_hz.size), np.repeat(fr_hz / 1e9, temps.size),
               tls_term, qp_term, tls_term + qp_term]
    return {"csv": names[0], "n_rows": tls_term.size}, [
        lambda path: io.write_table(path, TEMP_MODEL_HEADER, columns)]


# --- synth ------------------------------------------------------------------

def _frequency_grid(a):
    return np.linspace(a.f_start_ghz * 1e9, a.f_stop_ghz * 1e9, a.points)


def _synth_check(a):
    if a.kind == "power":
        return
    # the grid is built from both flags, so its errors could name neither
    if not a.f_start_ghz < a.f_stop_ghz:
        raise ValueError("--f-start-ghz must be below --f-stop-ghz")
    # neighbours closer than a float's spacing round to the same frequency
    if not np.all(np.diff(_frequency_grid(a)) > 0):
        raise ValueError("--f-start-ghz and --f-stop-ghz are too close "
                         "for --points: the grid repeats a frequency")


def run_synth(a, rows, names):
    """A trace or a power series, by --kind; the CSV's one comment line
    holds the config echo."""
    comments = [f"generator {json.dumps(_echo(a))}"]
    if a.kind == "trace":
        trace = _library(
            fitsynth.synth_trace, a, rows,
            mode=_library(ResonatorMode.from_asymmetry_angle, a, rows),
            line=_library(LineCalibration, a, rows), grid=_frequency_grid(a))
        return {"file": names[0]}, [
            lambda path: io.write_trace(path, trace, comments)]
    s = _library(fitsynth.synth_power_series, a, rows,
                 p_grid=_power_grid(a.p_max_nw, a.points))
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


def run_fit_spectrum(a, rows, names):
    """Payload of the chosen fits, and the full-model curve when the full fit
    ran.  Under "both", a trace with no resolved dip records the Lorentzian
    failure in the payload and still gets the full fit."""
    trace = io.read_trace(a.input)
    payload = {}
    writers = [None]
    if a.model in ("lorentzian", "both"):
        try:
            lor = fitmodels.fit_lorentzian_dip(trace)
        except fitmodels.NoDipError as exc:
            if a.model == "lorentzian":
                raise
            payload["lorentzian"] = {"error": str(exc)}
        else:
            payload["lorentzian"] = {
                "f_r_hz": lor.f_r, "width_hz": lor.width,
                "depth": lor.depth, "q_int": lor.q_int,
                "q_tot_equivalent": lor.q_tot_equivalent,
                **_fit_report(lor.fit),
            }
    if a.model in ("full", "both"):
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
        columns = [trace.frequencies, model.real, model.imag]
        writers = [lambda path: io.write_table(path, FIT_CURVE_HEADER,
                                               columns)]
    qi_l = payload.get("lorentzian", {}).get("q_int", np.nan)
    if a.model == "both" and np.isfinite(qi_l):
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
class Command:
    name: str
    help: str
    args: tuple           # Arg rows after the common --out-dir and --config
    run: Callable         # (flags, rows, CSV names) -> (payload, writers)
    envelope: str         # file names may use {flag} fields, e.g. {kind}
    outputs: tuple        # declared CSVs, in the order of the writers
    summary: Callable     # (payload, [envelope, *CSV paths]) -> lines
    # the checks only the CLI can make, on the resolved flags; mc's also
    # resolves its worker count
    check: Callable = lambda a: None

    @property
    def flags(self):
        """Library field or message word -> the row of the flag that sets
        it."""
        return _flags(self.args)


COMMON = (
    Arg("--out-dir", help="output directory (default: $OPTORESP_OUTDIR or .)"),
    Arg("--config",
        help="key=value or JSON file with defaults for this command"),
)

GHZ_RAD = (1e9, TWO_PI)     # GHz -> rad/s, as TWO_PI * (v * 1e9)
MHZ_RAD = (TWO_PI, 1e6)     # MHz -> rad/s, as (TWO_PI * v) * 1e6
DS_PER = TWO_PI * 1e6       # dS*2pi in 1/MHz -> dS in s
P_MAX_NW = (1e-6, 1e9)      # 1 fW to 1 W of laser power
T_MK = (1e-2, 1e6)          # 10 uK to 1000 K, inside ThermalEnvironment's

COMMANDS = {c.name: c for c in (
    Command(
        "photon-number", "intracavity photon number",
        (Arg("--fr-ghz", float, required=True, field="f_r", to_si=(1e9,)),
         Arg("--q-int", float, required=True, field="q_int"),
         Arg("--q-ext", float, required=True, field="q_ext"),
         # 1e-23 W (15 photons a second at 1 GHz) to 1 kW
         Arg("--power-dbm", float, required=True, domain=(-200.0, 60.0)),
         # within 1 THz of the mode
         Arg("--detuning-hz", float, 0.0, domain=(-1e12, 1e12))),
        run_photon_number, "photon_number.json", (), _photon_number_summary),
    Command(
        "slopes", "analytic optical-response slopes",
        (Arg("--fr-ghz", float, 7.0, field=("omega_r", "delta_min"),
             to_si=GHZ_RAD),
         Arg("--rho", float, 1e45, "TLS density of states [1/(J m^3)]",
             field="rho_tls"),
         Arg("--thickness-nm", float, 2.0, field="thickness", to_si=(1e-9,)),
         Arg("--width-nm", float, 500.0, field="width", to_si=(1e-9,)),
         Arg("--xi", float, 50.0, "m/W", field="xi"),
         Arg("--fmax-ghz", float, 1000.0, field=("omega_max", "delta_max"),
             to_si=GHZ_RAD),
         Arg("--s", float, 0.0, "bath population imbalance S in [-1, 0]",
             field="s_tilde"),
         Arg("--ds", float, 1.0 / 400.0, "population slope dS*2pi in 1/MHz",
             field="ds_tilde", per=DS_PER),
         Arg("--gamma1-mhz", float, 16.0, field=("gamma1_t", "gamma2_t"),
             to_si=MHZ_RAD),
         Arg("--g-mhz", float, 5.0, field=("g_perp_t", "g_par_t"),
             to_si=MHZ_RAD),
         Arg("--g-grid-mhz", float_list, (), "comma list; sweeps the coupling",
             field=("g_perp_t", "g_par_t"), to_si=MHZ_RAD),
         Arg("--xi-grid", float_list, (), "comma list; sweeps xi",
             field="xi")),
        run_slopes, "slopes.json", ("slopes_sweep.csv",), _slopes_summary),
    Command(
        "mc", "Monte Carlo ensemble simulation",
        (Arg("--seed", int, 0, field="seed"),
         Arg("--trials", int, 100, field="trials"),
         Arg("--fr-ghz", float, 7.0, field="omega_r", to_si=GHZ_RAD),
         Arg("--fmax-ghz", float, 1000.0, field="omega_max", to_si=GHZ_RAD),
         Arg("--window-ghz", float_list, (),
             "detuning window 'lo,hi' in GHz (default: (fr - fmax, fr), "
             "TLS frequencies in (0, fmax])",
             field="freq_window", to_si=(TWO_PI, 1e9)),
         Arg("--exclusion-mhz", float, 100.0, field="exclusion",
             to_si=MHZ_RAD),
         Arg("--half-length-um", float, 250.0, field="half_length",
             to_si=(1e-6,)),
         Arg("--l-edge-um", float, 10.0, field="l_edge", to_si=(1e-6,)),
         Arg("--xi", float, 50.0, field="xi"),
         Arg("--rho", float, 1e45, field="rho_tls"),
         Arg("--area-nm2", float, 1000.0, field="area", to_si=(1e-18,)),
         Arg("--g-mhz", float, 5.0, field="g_mean", to_si=MHZ_RAD),
         Arg("--gamma1-mhz", float, 16.0, field="gamma1_mean", to_si=MHZ_RAD),
         Arg("--s-std", float, 0.35, field="s_std"),
         Arg("--ds", float, 1.0 / 400.0, "population slope dS*2pi in 1/MHz",
             field="ds_value", per=DS_PER),
         Arg("--p-max-nw", float, 200.0, domain=P_MAX_NW),
         Arg("--p-points", int, 11, domain=(2, 1000)),  # tens in a sweep
         Arg("--workers", int, None,
             "trial threads (default: the usable cores)", field="workers")),
        run_mc, "mc.json", ("mc_curves.csv", "mc_aggregate.csv"), _mc_summary,
        _mc_check),
    Command(
        "temp-model", "temperature dependence of the frequency shift",
        (Arg("--fr-ghz", float_list, (7.0,), "comma list of mode frequencies",
             field="f_r", to_si=(1e9,)),
         Arg("--t-min-mk", float, 10.0, domain=T_MK),
         Arg("--t-max-mk", float, 1000.0, domain=T_MK),
         Arg("--t-points", int, 100, domain=(1, 1e6)),  # 1e6 table rows
         Arg("--t-grid-mk", float_list, (),
             "explicit comma list of temperatures [mK]", domain=T_MK),
         Arg("--pdelta", float, 0.0,   # each factor is at most 1
             "filling factor * intrinsic TLS loss tangent", domain=(0.0, 1.0)),
         Arg("--lambda0-um", float, None,
             "penetration depth at T=0 [um]; enables the quasiparticle term",
             field="lambda0", to_si=(1e-6,)),
         Arg("--tc-k", float, 14.0, field="t_c"),
         Arg("--film-d-nm", float, 10.0, field="thickness", to_si=(1e-9,)),
         Arg("--film-w-nm", float, 150.0, field="width", to_si=(1e-9,)),
         Arg("--ltl", float, None,
             "total inductance per length [H/m]; default kinetic-dominated",
             field="l_total_per_length")),
        run_temp_model, "temp_model.json", ("temp_model.csv",),
        lambda r, paths: [f"wrote {paths[1]} ({r['n_rows']} rows)"],
        _temp_model_check),
    Command(
        "synth", "synthetic traces and power series",
        (Arg("--kind", str, "trace", choices=("trace", "power")),
         Arg("--seed", int, 0, field="seed"),
         Arg("--noise", float, 0.0, field=("noise_std", "noise_rel")),
         Arg("--points", int, 4001, domain=(1, 1e6)),  # a VNA's: up to 1e5
         # trace parameters; default span ~3 linewidths, dense enough for
         # the from-the-bottom Q_int reading
         Arg("--fr-ghz", float, 7.061, field="f_r", to_si=(1e9,)),
         Arg("--q-int", float, 34477.0, field="q_int"),
         Arg("--q-ext", float, 480.0, field="q_ext_mag"),
         Arg("--phi", float, 0.0, field="phi"),
         Arg("--amp", float, 1.0, field="amplitude"),
         Arg("--tau-ns", float, 0.0, field="delay", to_si=(1e-9,)),
         Arg("--alpha", float, 0.0, field="phase_offset"),
         Arg("--f-start-ghz", float, 7.0386, domain=(0.0, 1e6)),  # to 1 PHz
         Arg("--f-stop-ghz", float, 7.0834, domain=(0.0, 1e6)),
         # power-series parameters
         Arg("--p-max-nw", float, 200.0, domain=P_MAX_NW),
         Arg("--gamma-per-nw", float, 1.35e-6, field="gamma", to_si=(1e9,)),
         Arg("--inv-q0", float, 2.9e-5, field="inv_q0"),
         Arg("--delta1-per-nw", float, 5.9e-7, field="delta1", to_si=(1e9,)),
         Arg("--delta2", float, 0.0, field="delta2"),
         Arg("--delta3-per-nw", float, 0.0, field="delta3", to_si=(1e9,))),
        run_synth, "synth_{kind}.json", ("synth_{kind}.csv",),
        lambda r, paths: [f"wrote {paths[1]}"], _synth_check),
    Command(
        "fit-spectrum", "fit a measured/synthetic trace",
        (Arg("--input", required=True),
         Arg("--model", str, "both", choices=("lorentzian", "full", "both"))),
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
            kw = ({"metavar": "{" + ",".join(a.choices) + "}"} if a.choices
                  else {})
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
    like the flag key names; a JSON null leaves the flag unset and a JSON
    list fills a list flag.  where names a bad entry: "path:lineno: config
    key 'key'" for a config file, None for a flag (named by itself)."""
    args = {a.dest: a for a in COMMON + cmd.args}
    values = {}
    for where, key, text in entries:
        arg = args.get(key.replace("-", "_"))
        if arg is None:
            raise ValueError(f"{where} is not a flag of this command")
        if text is None:
            continue
        if isinstance(text, list) and arg.type is float_list:
            text = ",".join(map(str, text))
        try:
            value = arg.convert(str(text))
        except ValueError as exc:
            raise ValueError(f"{where or arg.flag}: invalid value "
                             f"{str(text)!r}") from exc
        if arg.domain:
            check_range(where or arg.flag, value, arg.domain)
        elif arg.type in (float, float_list):  # the library's domain
            check_finite(where or arg.flag, value)
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
    cmd.check(args)
    paths = _output_paths(cmd, args)
    start = time.perf_counter()
    # an overflow, invalid operation or division by zero no code of the run
    # expects raises FloatingPointError, an ArithmeticError: one error line
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        payload, writers = cmd.run(args, cmd.args, [p.name for p in paths[1:]])
    duration_s = time.perf_counter() - start
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    # an envelope is named after its command tag: synth-trace writes
    # synth_trace.json
    tag = paths[0].stem.replace("_", "-")
    io.write_envelope(paths[0],
                      io.result_envelope(tag, _echo(args), payload,
                                         duration_s))
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
    except (ValueError, OSError, ArithmeticError) as exc:
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
