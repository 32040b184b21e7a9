"""Command-line surface.

Subcommands: photon-number, slopes, mc, temp-model, synth, fit-spectrum.
Every run writes a JSON result envelope whose config echo contains the fully
resolved parameters, so any run can be replayed exactly; numeric tables go
to unit-labeled CSV next to it.  Exit status is nonzero only for I/O, parse
or validation failures and for numerical failures (an unsettled ODE, a
failed quadrature, a singular Jacobian or linear system), each reported as
one ``error:`` line; statistical non-convergence is reported in-band.

A flat key=value or JSON config file can seed any subcommand via --config;
explicit flags override file values.  The OPTORESP_OUTDIR environment
variable selects the default output directory (and nothing else).
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import ensemble, io, montecarlo, superconductor
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


def _out_dir(args):
    d = Path(args.out_dir or os.environ.get("OPTORESP_OUTDIR", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def load_config_file(path):
    """JSON object, or flat key=value lines (# comments allowed)."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise io.ParseError(f"{path}: JSON config must be an object")
        return data
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise io.ParseError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _apply_config_file(parser, args, argv):
    """File values fill in every argument not given explicitly in argv."""
    if not getattr(args, "config", None):
        return args
    cfg = load_config_file(args.config)
    actions = {a.dest: a for a in parser._actions}
    # argparse fills in a default only where the namespace lacks the
    # attribute, so a probe preset to a sentinel keeps it for unset flags
    unset = object()
    probe = argparse.Namespace(**{dest: unset for dest in actions})
    parser.parse_known_args(argv, probe)
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise SystemExit(f"config key '{key}' is not a flag of this command")
        if getattr(probe, dest) is not unset:
            continue
        action = actions[dest]
        if isinstance(action, argparse._StoreTrueAction):
            value = str(value).strip().lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            value = action.type(value)
        setattr(args, dest, value)
    return args


# --- photon-number ----------------------------------------------------------

def run_photon_number(cfg):
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
    }


def cmd_photon_number(args):
    missing = [n for n in ("fr_ghz", "q_int", "q_ext", "power_dbm")
               if getattr(args, n) is None]
    if missing:
        raise ValueError("missing required values (flag or config): "
                         + ", ".join(n.replace('_', '-') for n in missing))
    cfg = {"fr_hz": args.fr_ghz * 1e9, "q_int": args.q_int,
           "q_ext": args.q_ext, "power_dbm": args.power_dbm,
           "detuning_hz": args.detuning_hz}
    with io.Timer() as t:
        result = run_photon_number(cfg)
    env = io.result_envelope("photon-number", cfg, result, t.elapsed)
    path = _out_dir(args) / "photon_number.json"
    io.write_envelope(path, env)
    print(f"n_cav = {result['n_cav']:.4g}  "
          f"(kappa_int = {result['kappa_int_rad_per_s']:.4g} rad/s = "
          f"{result['kappa_int_hz']:.4g} Hz)")
    print(f"wrote {path}")
    return 0


# --- slopes -----------------------------------------------------------------

def _ensemble_from_cfg(cfg, g_rad_s=None, xi=None):
    return ensemble.EnsembleParams(
        omega_r=TWO_PI * cfg["fr_hz"],
        rho_tls=cfg["rho_tls"],
        thickness=cfg["thickness_m"],
        width=cfg["width_m"],
        xi=cfg["xi"] if xi is None else xi,
        omega_max=TWO_PI * cfg["fmax_hz"],
        s_tilde=cfg["s_tilde"],
        ds_tilde=cfg["ds_2pi_inv_mhz"] / (TWO_PI * 1e6),
        gamma1_t=TWO_PI * cfg["gamma1_mhz"] * 1e6,
        g_perp_t=cfg["g_rad_s"] if g_rad_s is None else g_rad_s,
        g_par_t=cfg["g_rad_s"] if g_rad_s is None else g_rad_s,
    )


def run_slopes(cfg):
    g_grid = cfg["g_grid_mhz"] or [cfg["g_mhz"]]
    xi_grid = cfg["xi_grid"] or [cfg["xi"]]
    rows = []
    for g_mhz in g_grid:
        for xi in xi_grid:
            p = _ensemble_from_cfg(cfg, g_rad_s=TWO_PI * g_mhz * 1e6, xi=xi)
            rows.append((g_mhz, xi, ensemble.slope_inverse_q(p),
                         ensemble.slope_fractional_frequency(p)))
    single = _ensemble_from_cfg(dict(cfg, g_rad_s=TWO_PI * cfg["g_mhz"] * 1e6))
    return {
        "slope_inverse_q_per_w": ensemble.slope_inverse_q(single),
        "slope_fractional_frequency_per_w":
            ensemble.slope_fractional_frequency(single),
        "sweep_rows": rows,
    }


def cmd_slopes(args):
    cfg = {
        "fr_hz": args.fr_ghz * 1e9,
        "rho_tls": args.rho,
        "thickness_m": args.thickness_nm * 1e-9,
        "width_m": args.width_nm * 1e-9,
        "xi": args.xi,
        "fmax_hz": args.fmax_ghz * 1e9,
        "s_tilde": args.s,
        "ds_2pi_inv_mhz": args.ds,
        "gamma1_mhz": args.gamma1_mhz,
        "g_mhz": args.g_mhz,
        "g_grid_mhz": _float_list(args.g_grid_mhz),
        "xi_grid": _float_list(args.xi_grid),
    }
    with io.Timer() as t:
        result = run_slopes(cfg)
    out = _out_dir(args)
    env = io.result_envelope("slopes", cfg, {
        "slope_inverse_q_per_w": result["slope_inverse_q_per_w"],
        "slope_fractional_frequency_per_w":
            result["slope_fractional_frequency_per_w"],
        "sweep_csv": "slopes_sweep.csv",
        "sweep_row_count": len(result["sweep_rows"]),
    }, t.elapsed)
    io.write_envelope(out / "slopes.json", env)
    rows = np.array(result["sweep_rows"])
    io.write_table(out / "slopes_sweep.csv", SLOPES_SWEEP_HEADER,
                   [rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]])
    per_nw = 1e-9
    print(f"d(1/Q)/dP   = {result['slope_inverse_q_per_w'] * per_nw:.4g} /nW")
    print(f"d(df/f)/dP  = "
          f"{result['slope_fractional_frequency_per_w'] * per_nw:.4g} /nW")
    print(f"wrote {out / 'slopes.json'} and {out / 'slopes_sweep.csv'}")
    return 0


# --- mc ---------------------------------------------------------------------

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


def run_mc(cfg):
    result = montecarlo.run(mc_config_from_dict(cfg))
    (mq, sq), (mf, sf) = result.slope_stats()
    return result, {
        "trials": cfg["trials"], "seed": cfg["seed"],
        "slope_inv_q_mean_per_w": mq, "slope_inv_q_std_per_w": sq,
        "slope_dfrac_mean_per_w": mf, "slope_dfrac_std_per_w": sf,
        "curves_csv": "mc_curves.csv", "aggregate_csv": "mc_aggregate.csv",
    }


def cmd_mc(args):
    cfg = {
        "seed": args.seed, "trials": args.trials,
        "fr_hz": args.fr_ghz * 1e9, "fmax_hz": args.fmax_ghz * 1e9,
        "window_rad_s": ([TWO_PI * v * 1e9 for v in _float_list(args.window_ghz)]
                         if args.window_ghz else None),
        "exclusion_mhz": args.exclusion_mhz,
        "half_length_m": args.half_length_um * 1e-6,
        "l_edge_m": args.l_edge_um * 1e-6,
        "xi": args.xi, "rho_tls": args.rho,
        "area_m2": args.area_nm2 * 1e-18,
        "g_mhz": args.g_mhz, "gamma1_mhz": args.gamma1_mhz,
        "s_std": args.s_std, "ds_2pi_inv_mhz": args.ds,
        "p_max_w": args.p_max_nw * 1e-9, "p_points": args.p_points,
        "normalize_moments": not args.raw_moments, "workers": args.workers,
    }
    with io.Timer() as t:
        result, payload = run_mc(cfg)
    out = _out_dir(args)
    io.write_mc_curves(out / "mc_curves.csv", result)
    io.write_mc_aggregate(out / "mc_aggregate.csv", result)
    env = io.result_envelope("mc", cfg, payload, t.elapsed)
    io.write_envelope(out / "mc.json", env)
    print(f"d(1/Q)/dP  = {payload['slope_inv_q_mean_per_w'] * 1e-9:.4g} "
          f"+- {payload['slope_inv_q_std_per_w'] * 1e-9:.2g} /nW "
          f"({cfg['trials']} trials)")
    print(f"d(df/f)/dP = {payload['slope_dfrac_mean_per_w'] * 1e-9:.4g} "
          f"+- {payload['slope_dfrac_std_per_w'] * 1e-9:.2g} /nW")
    print(f"wrote {out / 'mc.json'}")
    return 0


# --- temp-model -------------------------------------------------------------

def run_temp_model(cfg):
    temps = np.asarray(cfg["t_grid_k"], dtype=float)
    rows = {"temp_k": [], "fr_ghz": [], "dfrac_tls": [], "dfrac_qp": [],
            "dfrac_total": []}
    sc = geom = None
    if cfg.get("lambda0_m"):
        geom = superconductor.FilmGeometry(cfg["film_d_m"], cfg["film_w_m"],
                                           cfg["film_l_m"])
        if cfg.get("ltl_h_per_m"):
            sc = superconductor.SuperconductorParams(
                cfg["lambda0_m"], cfg["tc_k"], cfg["ltl_h_per_m"])
        else:
            sc = superconductor.SuperconductorParams.with_kinetic_total(
                cfg["lambda0_m"], cfg["tc_k"], geom, t_ref=temps[0])
    # participation is folded into the pdelta product
    for fr_hz in cfg["fr_hz_list"]:
        for t_k in temps:
            tls_term = (cfg["pdelta"] / np.pi
                        * permittivity_bracket(fr_hz, ThermalEnvironment(t_k)))
            qp_term = 0.0
            if sc is not None:
                qp_term = float(superconductor.freq_shift_from_temperature(
                    sc, geom, t_k, temps[0]))
            rows["temp_k"].append(t_k)
            rows["fr_ghz"].append(fr_hz / 1e9)
            rows["dfrac_tls"].append(tls_term)
            rows["dfrac_qp"].append(qp_term)
            rows["dfrac_total"].append(tls_term + qp_term)
    return rows


def cmd_temp_model(args):
    if args.t_grid_mk:
        t_grid = [v * 1e-3 for v in _float_list(args.t_grid_mk)]
    else:
        t_grid = list(np.linspace(args.t_min_mk, args.t_max_mk,
                                  args.t_points) * 1e-3)
    if min(t_grid) <= 0:
        raise SystemExit("temperature grid must be positive")
    cfg = {
        "fr_hz_list": [v * 1e9 for v in _float_list(args.fr_ghz)],
        "t_grid_k": t_grid,
        "pdelta": args.pdelta,
        "lambda0_m": args.lambda0_um * 1e-6 if args.lambda0_um else None,
        "tc_k": args.tc_k,
        "film_d_m": args.film_d_nm * 1e-9,
        "film_w_m": args.film_w_nm * 1e-9,
        "film_l_m": args.film_l_mm * 1e-3,
        "ltl_h_per_m": args.ltl,
    }
    with io.Timer() as t:
        rows = run_temp_model(cfg)
    out = _out_dir(args)
    io.write_table(out / "temp_model.csv", TEMP_MODEL_HEADER,
                   [np.array(rows[k]) for k in
                    ("temp_k", "fr_ghz", "dfrac_tls", "dfrac_qp",
                     "dfrac_total")])
    env = io.result_envelope("temp-model", cfg,
                             {"csv": "temp_model.csv",
                              "n_rows": len(rows["temp_k"])}, t.elapsed)
    io.write_envelope(out / "temp_model.json", env)
    print(f"wrote {out / 'temp_model.csv'} ({len(rows['temp_k'])} rows)")
    return 0


# --- synth ------------------------------------------------------------------

def run_synth_trace(cfg):
    mode = ResonatorMode.from_asymmetry_angle(cfg["fr_hz"], cfg["q_int"],
                                              cfg["q_ext"], cfg["phi"])
    line = LineCalibration(cfg["amplitude"], cfg["tau_s"], cfg["alpha"])
    grid = np.linspace(cfg["f_start_hz"], cfg["f_stop_hz"], cfg["points"])
    return fitsynth.synth_trace(mode, line, grid, noise_std=cfg["noise"],
                                seed=cfg["seed"])


def run_synth_power(cfg):
    p = np.linspace(0.0, cfg["p_max_w"], cfg["points"])
    return fitsynth.synth_power_series(
        p, gamma=cfg["gamma_per_w"], inv_q0=cfg["inv_q0"],
        delta1=cfg["delta1_per_w"], delta2=cfg["delta2"],
        delta3=cfg["delta3_per_w"], noise_rel=cfg["noise"], seed=cfg["seed"])


def cmd_synth(args):
    out = _out_dir(args)
    if args.kind == "trace":
        cfg = {"fr_hz": args.fr_ghz * 1e9, "q_int": args.q_int,
               "q_ext": args.q_ext, "phi": args.phi,
               "amplitude": args.amp, "tau_s": args.tau_ns * 1e-9,
               "alpha": args.alpha,
               "f_start_hz": args.f_start_ghz * 1e9,
               "f_stop_hz": args.f_stop_ghz * 1e9,
               "points": args.points, "noise": args.noise, "seed": args.seed}
        with io.Timer() as t:
            trace = run_synth_trace(cfg)
        path = out / "synth_trace.csv"
        io.write_trace(path, trace,
                       comments=[f"generator {json.dumps(cfg)}"])
    else:
        cfg = {"p_max_w": args.p_max_nw * 1e-9, "points": args.points,
               "gamma_per_w": args.gamma_per_nw * 1e9,
               "inv_q0": args.inv_q0,
               "delta1_per_w": args.delta1_per_nw * 1e9,
               "delta2": args.delta2,
               "delta3_per_w": args.delta3_per_nw * 1e9,
               "noise": args.noise, "seed": args.seed}
        with io.Timer() as t:
            series = run_synth_power(cfg)
        path = out / "synth_power.csv"
        io.write_power_series(path, series,
                              comments=[f"generator {json.dumps(cfg)}"])
    env = io.result_envelope(f"synth-{args.kind}", cfg,
                             {"file": path.name}, t.elapsed)
    io.write_envelope(out / f"synth_{args.kind}.json", env)
    print(f"wrote {path}")
    return 0


# --- fit-spectrum -----------------------------------------------------------

def run_fit_spectrum(trace, which):
    payload = {}
    model_curve = None
    if which in ("lorentzian", "both"):
        lor = fitmodels.fit_lorentzian_dip(trace)
        payload["lorentzian"] = {
            "f_r_hz": lor.f_r, "width_hz": lor.width,
            "depth": lor.depth, "q_int": lor.q_int,
            "q_tot_equivalent": lor.q_tot_equivalent,
            "converged": lor.fit.converged, "flags": lor.fit.flags,
        }
    if which in ("full", "both"):
        full = fitmodels.fit_full_s21(trace)
        payload["full"] = {
            "f_r_hz": full.f_r, "q_tot": full.q_tot, "q_int": full.q_int,
            "q_ext": full.q_ext,
            "q_ext_imag": full.q_ext_complex.imag,
            "amplitude": full.amplitude, "delay_s": full.delay,
            "phase_offset_rad": full.phase_offset,
            "converged": full.fit.converged, "flags": full.fit.flags,
        }
        model_curve = fitmodels._s21_model(full.fit.values, trace.frequencies)
    if which == "both" and "lorentzian" in payload:
        qi_l, qi_f = payload["lorentzian"]["q_int"], payload["full"]["q_int"]
        if np.isfinite(qi_l):
            payload["q_int_discrepancy_rel"] = abs(qi_l - qi_f) / qi_f
    return payload, model_curve


def cmd_fit_spectrum(args):
    trace = io.read_trace(args.input)
    cfg = {"input": str(args.input), "model": args.model}
    with io.Timer() as t:
        payload, model_curve = run_fit_spectrum(trace, args.model)
    out = _out_dir(args)
    env = io.result_envelope("fit-spectrum", cfg, payload, t.elapsed)
    io.write_envelope(out / "fit_spectrum.json", env)
    if model_curve is not None:
        io.write_table(out / "fit_spectrum_curve.csv", FIT_CURVE_HEADER,
                       [trace.frequencies, trace.values.real,
                        trace.values.imag, model_curve.real,
                        model_curve.imag])
    for name in ("lorentzian", "full"):
        if name in payload:
            print(f"{name}: f_r = {payload[name]['f_r_hz']:.6g} Hz, "
                  f"Q_int = {payload[name]['q_int']:.6g}")
    if "q_int_discrepancy_rel" in payload:
        print(f"Q_int discrepancy (lorentzian vs full): "
              f"{payload['q_int_discrepancy_rel']:.2%}")
    print(f"wrote {out / 'fit_spectrum.json'}")
    return 0


# --- parser -----------------------------------------------------------------

def _float_list(text):
    if not text:
        return []
    return [float(v) for v in str(text).split(",") if v.strip()]


def _add_common(sp):
    sp.add_argument("--out-dir", default=None,
                    help="output directory (default: $OPTORESP_OUTDIR or .)")
    sp.add_argument("--config", default=None,
                    help="key=value or JSON file with defaults for this command")


def build_parser():
    p = argparse.ArgumentParser(
        prog="optoresp",
        description="Optical-response toolkit for superconducting nanowire "
                    "microwave resonators")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("photon-number", help="intracavity photon number")
    _add_common(sp)
    # required values may come from --config, so enforcement happens after
    # the file merge rather than in argparse
    sp.add_argument("--fr-ghz", type=float, default=None)
    sp.add_argument("--q-int", type=float, default=None)
    sp.add_argument("--q-ext", type=float, default=None)
    sp.add_argument("--power-dbm", type=float, default=None)
    sp.add_argument("--detuning-hz", type=float, default=0.0)
    sp.set_defaults(func=cmd_photon_number)

    sp = sub.add_parser("slopes", help="analytic optical-response slopes")
    _add_common(sp)
    sp.add_argument("--fr-ghz", type=float, default=7.0)
    sp.add_argument("--rho", type=float, default=1e45,
                    help="TLS density of states [1/(J m^3)]")
    sp.add_argument("--thickness-nm", type=float, default=2.0)
    sp.add_argument("--width-nm", type=float, default=500.0)
    sp.add_argument("--xi", type=float, default=50.0, help="m/W")
    sp.add_argument("--fmax-ghz", type=float, default=1000.0)
    sp.add_argument("--s", type=float, default=0.0,
                    help="bath population imbalance S in [-1, 0]")
    sp.add_argument("--ds", type=float, default=1.0 / 400.0,
                    help="population slope dS*2pi in 1/MHz")
    sp.add_argument("--gamma1-mhz", type=float, default=16.0)
    sp.add_argument("--g-mhz", type=float, default=5.0)
    sp.add_argument("--g-grid-mhz", default="",
                    help="comma list; sweeps the coupling")
    sp.add_argument("--xi-grid", default="", help="comma list; sweeps xi")
    sp.set_defaults(func=cmd_slopes)

    sp = sub.add_parser("mc", help="Monte Carlo ensemble simulation")
    _add_common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--fr-ghz", type=float, default=7.0)
    sp.add_argument("--fmax-ghz", type=float, default=1000.0)
    sp.add_argument("--window-ghz", default="",
                    help="detuning window 'lo,hi' in GHz (default: "
                         "(fr - fmax, fr), TLS frequencies in (0, fmax])")
    sp.add_argument("--exclusion-mhz", type=float, default=100.0)
    sp.add_argument("--half-length-um", type=float, default=250.0)
    sp.add_argument("--l-edge-um", type=float, default=10.0)
    sp.add_argument("--xi", type=float, default=50.0)
    sp.add_argument("--rho", type=float, default=1e45)
    sp.add_argument("--area-nm2", type=float, default=1000.0)
    sp.add_argument("--g-mhz", type=float, default=5.0)
    sp.add_argument("--gamma1-mhz", type=float, default=16.0)
    sp.add_argument("--s-std", type=float, default=0.35)
    sp.add_argument("--ds", type=float, default=1.0 / 400.0,
                    help="population slope dS*2pi in 1/MHz")
    sp.add_argument("--p-max-nw", type=float, default=200.0)
    sp.add_argument("--p-points", type=int, default=11)
    sp.add_argument("--raw-moments", action="store_true",
                    help="skip the <g^2>/<Gamma_1> moment normalization")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("temp-model",
                        help="temperature dependence of the frequency shift")
    _add_common(sp)
    sp.add_argument("--fr-ghz", default="7.0",
                    help="comma list of mode frequencies")
    sp.add_argument("--t-min-mk", type=float, default=10.0)
    sp.add_argument("--t-max-mk", type=float, default=1000.0)
    sp.add_argument("--t-points", type=int, default=100)
    sp.add_argument("--t-grid-mk", default="",
                    help="explicit comma list of temperatures [mK]")
    sp.add_argument("--pdelta", type=float, default=0.0,
                    help="participation * intrinsic TLS loss tangent")
    sp.add_argument("--lambda0-um", type=float, default=None,
                    help="penetration depth at T=0 [um]; enables the "
                         "quasiparticle term")
    sp.add_argument("--tc-k", type=float, default=14.0)
    sp.add_argument("--film-d-nm", type=float, default=10.0)
    sp.add_argument("--film-w-nm", type=float, default=150.0)
    sp.add_argument("--film-l-mm", type=float, default=1.5)
    sp.add_argument("--ltl", type=float, default=None,
                    help="total inductance per length [H/m]; default "
                         "kinetic-dominated")
    sp.set_defaults(func=cmd_temp_model)

    sp = sub.add_parser("synth", help="synthetic traces and power series")
    _add_common(sp)
    sp.add_argument("--kind", choices=("trace", "power"), default="trace")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--points", type=int, default=4001)
    # trace parameters; default span ~3 linewidths, dense enough for the
    # from-the-bottom Q_int reading
    sp.add_argument("--fr-ghz", type=float, default=7.061)
    sp.add_argument("--q-int", type=float, default=34477.0)
    sp.add_argument("--q-ext", type=float, default=480.0)
    sp.add_argument("--phi", type=float, default=0.0)
    sp.add_argument("--amp", type=float, default=1.0)
    sp.add_argument("--tau-ns", type=float, default=0.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--f-start-ghz", type=float, default=7.0386)
    sp.add_argument("--f-stop-ghz", type=float, default=7.0834)
    # power-series parameters
    sp.add_argument("--p-max-nw", type=float, default=200.0)
    sp.add_argument("--gamma-per-nw", type=float, default=1.35e-6)
    sp.add_argument("--inv-q0", type=float, default=2.9e-5)
    sp.add_argument("--delta1-per-nw", type=float, default=5.9e-7)
    sp.add_argument("--delta2", type=float, default=0.0)
    sp.add_argument("--delta3-per-nw", type=float, default=0.0)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("fit-spectrum", help="fit a measured/synthetic trace")
    _add_common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--model", choices=("lorentzian", "full", "both"),
                    default="both")
    sp.set_defaults(func=cmd_fit_spectrum)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    subparser = sub.choices[args.command]
    try:
        args = _apply_config_file(subparser, args,
                                  argv[argv.index(args.command) + 1:])
        return args.func(args)
    except (io.ParseError, fitmodels.NoDipError, ValueError, OSError,
            OdeConvergenceError, QuadratureError, SingularJacobianError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
