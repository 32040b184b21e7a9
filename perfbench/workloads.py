"""The four benchmark workloads.

Each workload builds a pool of POOL inputs from the workload seed in its
constructor, performs one op per `op(k)` call on input k mod POOL and
judges the op's output in `check(k, out)`, outside the timed region.  A run
judges every input of the pool, so its verdict depends on the seed alone.  A check is *exact* when a
correct program passes it on every input (closed forms, README values,
bitwise equality), or a *rate* check when a correct program misses it on a
small share of random inputs (criterion 8's fit bounds, which allow 5 misses
per 100 fits).  `finish()` runs the run-level checks after timing.

Spans for the per-layer metrics come from `patches()`: wrappers installed on
the module attributes through which the package calls each layer, in traced
runs only.  The workloads call the package through the same attributes.
"""

import contextlib
import dataclasses
import functools
import io as _stdio
import json
import re
import shutil
from dataclasses import dataclass

import numpy as np

from optoresp import cli, ensemble, io, meanfield, montecarlo, superconductor
from optoresp import tls
from optoresp.constants import TWO_PI
from optoresp.fitkit import engine as fitengine
from optoresp.fitkit import models
from optoresp.fitkit import synth as fitsynth
from optoresp.resonator import LineCalibration, ResonatorMode

MHZ = TWO_PI * 1e6
WARM_UP = -1          # op index of the untimed warm-up op


@dataclass
class Check:
    name: str
    ok: bool
    exact: bool = True
    detail: str = ""


def derive_seed(*keys):
    """64-bit seed for the package, derived from the workload seed."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0])


def attempt(fn, errors):
    """fn() or the exception, for comparisons whose failure is a miss."""
    try:
        return fn()
    except errors as exc:
        return exc


def rel_err(got, want):
    return abs(got - want) / abs(want)


def _count_fit(tracer, label, out):
    fit = getattr(out, "fit", out)
    tracer.count(f"{label}.calls")
    tracer.count(f"{label}.iterations", fit.iterations)


def _counting_engine(tracer, lm):
    """The engine entry point with every residual evaluation counted
    against the fit span that is open when the engine starts."""
    @functools.wraps(lm)
    def counted(residual, *args, **kwargs):
        key = f"{tracer.current()}.residual_evals"

        def res(x):
            tracer.count(key)
            return residual(x)
        return lm(res, *args, **kwargs)
    return counted


FITKIT_PATCHES = [
    (models, "fit_full_s21", "fitkit.full_s21", "fitkit", _count_fit),
    (models, "fit_lorentzian_dip", "fitkit.lorentzian", "fitkit", _count_fit),
    (models, "fit_power_inverse_q", "fitkit.power", "fitkit", _count_fit),
    (models, "fit_power_frequency", "fitkit.power", "fitkit", _count_fit),
    (models, "fit_tls_saturation", "fitkit.saturation", "fitkit", _count_fit),
    (models, "levenberg_marquardt", _counting_engine),
]


def _per_call(tracer, name, what):
    calls = tracer.counts.get(f"{name}.calls", 0)
    return tracer.counts.get(f"{name}.{what}", 0) / calls if calls else 0.0


def _pass_frac(passes, name):
    passed, total = passes.get(name, (0, 0))
    return passed / total if total else 0.0


class Workload:
    name = ""
    POOL = 1            # distinct inputs; op k runs input k mod POOL

    def __init__(self, seed, tracer, scratch):
        self.seed = seed
        self.tr = tracer
        self.scratch = scratch

    def input_key(self, k):
        """Which distinct input op k runs on; a run judges each once."""
        return k % self.POOL

    def prepare(self, k):
        """Untimed preparation before op k."""

    def op(self, k):
        raise NotImplementedError

    def check(self, k, out):
        raise NotImplementedError

    def finish(self):
        """Run-level checks, after timing and with tracing removed."""
        return []

    def patches(self):
        return []

    def layer_metrics(self, tracer, passes):
        return {}

    def notes(self):
        """One-line facts for the human-readable summary."""
        return []

    def close(self):
        pass


# --- mc_reference -----------------------------------------------------------

class McReference(Workload):
    """Blocks of Monte Carlo trials on the reference bath.

    Op k is `montecarlo.run` over BLOCK trials, on block k mod POOL, whose
    seed is derived from (workload seed, block).  The POOL blocks' trials
    are the pool of the run-level slope checks; the run judges every block,
    so blocks the timed loop did not reach are run after timing.
    """

    name = "mc_reference"
    BLOCK = 2
    POOL = 40
    Z_GATE = 4.0

    def __init__(self, seed, tracer, scratch):
        super().__init__(seed, tracer, scratch)
        self.base = montecarlo.McConfig(trials=self.BLOCK, workers=1)
        self.analytic = ensemble.slope_inverse_q(ensemble.EnsembleParams())
        self.pool = {}
        self.z = self.ratio = None

    def config(self, k, workers=1):
        block = self.POOL if k == WARM_UP else k % self.POOL
        return dataclasses.replace(self.base, seed=derive_seed(self.seed, 0, block),
                                   workers=workers)

    def op(self, k):
        with self.tr.span("montecarlo.run", "montecarlo"):
            return montecarlo.run(self.config(k))

    def check(self, k, res):
        shape = (self.BLOCK, self.base.p_grid.size)
        ok = (res.dinv_q.shape == shape and res.dfrac.shape == shape
              and bool(np.all(np.isfinite(res.dinv_q)))
              and bool(np.all(np.isfinite(res.dfrac)))
              and bool(np.all(res.slopes_inv_q > 0)))
        if k != WARM_UP:
            self.pool[k % self.POOL] = res
        return [Check("montecarlo.block_finite", ok)]

    def finish(self):
        blocks = [self.pool[k] for k in range(self.POOL)]
        sq = np.concatenate([r.slopes_inv_q for r in blocks])
        sf = np.concatenate([r.slopes_dfrac for r in blocks])
        # criterion 3's statistics, over the pool's trials
        self.z = (sq.mean() - self.analytic) / (sq.std(ddof=1) / np.sqrt(sq.size))
        self.ratio = (sf.std(ddof=1) / abs(sf.mean())) / (sq.std(ddof=1) / sq.mean())
        par = montecarlo.run(self.config(0, workers=2))
        bitwise = all(np.array_equal(getattr(par, a), getattr(blocks[0], a))
                      for a in ("dinv_q", "dfrac", "slopes_inv_q", "slopes_dfrac"))
        return [Check("montecarlo.pooled_slope_z", abs(self.z) < self.Z_GATE,
                      detail=f"z = {self.z:+.2f}"),
                Check("montecarlo.scatter_ratio", self.ratio >= 3.0,
                      detail=f"ratio = {self.ratio:.1f}"),
                Check("montecarlo.workers_bitwise", bitwise)]

    def patches(self):
        p = self.base.p_grid
        reach = self.base.xi * p[-1] / 2.0 + 14.0 * self.base.l_edge

        def on_draw(tracer, label, bath):
            kept = int(np.count_nonzero(np.abs(bath.x) <= reach))
            tracer.count("montecarlo.trials")
            tracer.count("montecarlo.tls_drawn", len(bath))
            tracer.count("montecarlo.tls_kept", kept)
            tracer.count("montecarlo.kernel_evals", kept * p.size)
            tracer.count("montecarlo.empty_trials", len(bath) == 0)

        return [(montecarlo, "generate_ensemble", "montecarlo.draw",
                 "montecarlo", on_draw),
                (montecarlo, "response_curves", "montecarlo.response",
                 "montecarlo", None)]

    def layer_metrics(self, tracer, passes):
        c = tracer.counts
        trials = c.get("montecarlo.trials", 0)
        drawn = c.get("montecarlo.tls_drawn", 0)
        return {
            "montecarlo.draw_ms": tracer.mean_ms("montecarlo.draw"),
            "montecarlo.response_ms": tracer.mean_ms("montecarlo.response"),
            "montecarlo.tls_drawn": drawn / trials if trials else 0.0,
            "montecarlo.kept_frac":
                c.get("montecarlo.tls_kept", 0) / drawn if drawn else 0.0,
            "montecarlo.kernel_evals":
                c.get("montecarlo.kernel_evals", 0) / trials if trials else 0.0,
            "montecarlo.empty_trials": c.get("montecarlo.empty_trials", 0),
        }

    def notes(self):
        if self.z is None:
            return []
        return [f"pooled 1/Q slope over {self.POOL * self.BLOCK} trials: "
                f"z = {self.z:+.2f} (criterion 3 asks |z| < 2 at seed 0; "
                f"per-run gate |z| < {self.Z_GATE:g}), "
                f"scatter ratio {self.ratio:.1f} (>= 3)"]


# --- fit_roundtrip ----------------------------------------------------------

class FitRoundtrip(Workload):
    """Criterion 8's fit set on inputs synthesized in setup.

    POOL input sets come from seeds derived from the workload seed; op k
    fits set k mod POOL, so a run fits each set several times.
    """

    name = "fit_roundtrip"
    POOL = 100
    FIT_ERRORS = (models.NoDipError, fitengine.SingularJacobianError)

    def __init__(self, seed, tracer, scratch):
        super().__init__(seed, tracer, scratch)
        self.mode = ResonatorMode.from_asymmetry_angle(7.061e9, 34477, 480, 0.3)
        self.line = LineCalibration(0.9, 30e-9, 1.1)
        lw = 7.061e9 / self.mode.q_tot
        self.grid = np.linspace(7.061e9 - 5 * lw, 7.061e9 + 5 * lw, 801)
        self.dip_mode = ResonatorMode(7.061e9, 35000, 480)
        dip_lw = 7.061e9 / self.dip_mode.q_tot
        self.dip_grid = np.linspace(7.061e9 - 1.2 * dip_lw,
                                    7.061e9 + 1.2 * dip_lw, 6001)
        self.p_grid = np.linspace(0, 300e-9, 25)
        self.true = dict(gamma=1.35e-6 / 1e-9, inv_q0=2.9e-5,
                         delta1=5.9e-7 / 1e-9, delta2=2e-5, delta3=0.05 / 1e-9)
        self.n_grid = np.logspace(2, 5, 81)
        self.inputs = [self._synth(derive_seed(seed, 1, i))
                       for i in range(self.POOL)]
        self.warm = self._synth(derive_seed(seed, 1, self.POOL))

    def _synth(self, s):
        return (fitsynth.synth_trace(self.mode, self.line, self.grid,
                                     noise_std=1e-3, seed=s),
                fitsynth.synth_trace(self.dip_mode, LineCalibration(),
                                     self.dip_grid, noise_std=1e-3, seed=s),
                fitsynth.synth_power_series(self.p_grid, noise_rel=0.05,
                                            seed=s, **self.true),
                fitsynth.synth_tls_saturation(self.n_grid, f_delta=2e-5,
                                              n_c=3e3, beta=1.0, floor=1e-5,
                                              noise_rel=0.03, seed=s))

    def op(self, k):
        trace, dip, series, (n, y, sig) = (
            self.warm if k == WARM_UP else self.inputs[k % self.POOL])
        err = self.FIT_ERRORS
        return {
            "full": attempt(lambda: models.fit_full_s21(trace), err),
            "lorentzian": attempt(lambda: models.fit_lorentzian_dip(dip), err),
            "inverse_q": attempt(
                lambda: models.fit_power_inverse_q(series, model="linear"), err),
            "frequency": attempt(lambda: models.fit_power_frequency(series), err),
            "saturation": attempt(
                lambda: models.fit_tls_saturation(n, y, sigma=sig), err),
        }

    def check(self, k, out):
        t, m = self.true, self.mode
        full, lor = out["full"], out["lorentzian"]
        fq, ff, sat = out["inverse_q"], out["frequency"], out["saturation"]
        ok = {
            "fitkit.full_s21": not isinstance(full, Exception) and (
                full.fit.converged
                and rel_err(full.q_int, 34477) < 0.02
                and rel_err(full.q_ext, m.q_ext_reported) < 0.02
                and rel_err(full.q_tot, m.q_tot) < 0.02
                and rel_err(full.amplitude, 0.9) < 0.05
                and rel_err(full.delay, 30e-9) < 0.05),
            "fitkit.lorentzian": not isinstance(lor, Exception)
                and rel_err(lor.q_int, 35000) < 0.05,
            "fitkit.power_inverse_q": not isinstance(fq, Exception)
                and rel_err(fq["gamma"], t["gamma"]) < 0.10,
            "fitkit.power_frequency": not isinstance(ff, Exception)
                and rel_err(ff["delta1"], t["delta1"]) < 0.10
                and rel_err(ff["delta2"], t["delta2"]) < 0.10,
            "fitkit.saturation": not isinstance(sat, Exception)
                and rel_err(sat["n_c"], 3e3) < 0.15,
        }
        return [Check(name, bool(v), exact=False) for name, v in ok.items()]

    def patches(self):
        return FITKIT_PATCHES

    def layer_metrics(self, tracer, passes):
        return {
            "fitkit.full_s21.ms": tracer.mean_ms("fitkit.full_s21"),
            "fitkit.full_s21.iterations":
                _per_call(tracer, "fitkit.full_s21", "iterations"),
            "fitkit.full_s21.residual_evals":
                _per_call(tracer, "fitkit.full_s21", "residual_evals"),
            "fitkit.full_s21.pass_frac": _pass_frac(passes, "fitkit.full_s21"),
            "fitkit.lorentzian.ms": tracer.mean_ms("fitkit.lorentzian"),
            "fitkit.lorentzian.iterations":
                _per_call(tracer, "fitkit.lorentzian", "iterations"),
            "fitkit.lorentzian.pass_frac":
                _pass_frac(passes, "fitkit.lorentzian"),
            "fitkit.power.ms": tracer.mean_ms("fitkit.power"),
            "fitkit.saturation.ms": tracer.mean_ms("fitkit.saturation"),
        }


# --- oracle_check -----------------------------------------------------------

class OracleCheck(Workload):
    """Rounds of criterion 5, 4 and 6 comparisons.

    Op k runs round i = k mod POOL: one transverse and one longitudinal
    mean-field draw from criterion 5's distributions, spectral-diffusion
    case i + a of criterion 4's 3x3 grid and Kramers-Kronig temperature pair
    i + b of criterion 6, with a and b drawn from the workload seed.  The
    POOL draws are a Latin hypercube: each of criterion 5's uniform
    variates falls once in each of POOL equal strata.  The warm-up round
    sits at the middle of every range.
    """

    name = "oracle_check"
    POOL = 8
    SD_GRID = [(n, s) for n in (0.0, 1.0, 100.0) for s in (0.01, 1.0, 100.0)]
    KK_PAIRS = [(0.030, 0.100), (0.100, 0.300), (0.030, 0.300)]

    def __init__(self, seed, tracer, scratch):
        super().__init__(seed, tracer, scratch)
        rng = np.random.default_rng(derive_seed(seed, 2))
        strata = np.column_stack([rng.permutation(self.POOL)
                                  for _ in range(10)])
        u = (strata + rng.random(strata.shape)) / self.POOL
        self.draws = [self._draw(row) for row in u] + [self._draw([0.5] * 10)]
        self.sd_offset, self.kk_offset = (int(v) for v in rng.integers(0, 9, 2))
        self.sd_tls = tls.TlsUnit(detuning=0.0, g_perp=5 * MHZ, g_par=5 * MHZ,
                                  gamma1=16 * MHZ, gamma2=16 * MHZ, s=-1.0)
        self.rho_v = 1e45 * 5e-23
        self.host = tls.TlsHostMaterial(intrinsic_loss=3e-5)

    @staticmethod
    def _draw(u):
        """(transverse, longitudinal, omega_r) from ten unit variates, on
        criterion 5's uniform ranges."""
        def uniform(i, lo, hi):
            return lo + (hi - lo) * u[i]

        g2 = uniform(0, 8, 32) * MHZ
        g1 = uniform(1, 0.5, 2.0) * g2
        trans = tls.TlsUnit(detuning=uniform(2, -3, 3) * g2,
                            g_perp=uniform(3, g2 / 20, g2 / 9), g_par=0.0,
                            gamma1=g1, gamma2=g2, s=uniform(4, -1.0, -0.2))
        g1 = uniform(5, 8, 25) * MHZ
        omega_r = uniform(6, 0.5, 3.0) * g1
        longi = tls.TlsUnit(detuning=0.0, g_perp=0.0,
                            g_par=uniform(7, 0.2, 0.8) * MHZ, gamma1=g1,
                            gamma2=g1, s=uniform(8, -0.5, 0.0),
                            ds=uniform(9, 0.5, 2.0) * 10 / (TWO_PI * 400e6))
        return trans, longi, omega_r

    def _cases(self, k):
        i = self.POOL if k == WARM_UP else k % self.POOL
        trans, longi, omega_r = self.draws[i]
        n_ratio, sigma_rel = self.SD_GRID[(i + self.sd_offset) % 9]
        t1, t2 = self.KK_PAIRS[(i + self.kk_offset) % 3]
        return trans, longi, omega_r, n_ratio, sigma_rel, t1, t2

    def op(self, k):
        trans, longi, omega_r, n_ratio, sigma_rel, t1, t2 = self._cases(k)
        ode_err = meanfield.OdeConvergenceError
        drive = tls.SaturationDrive(
            n_cav=n_ratio * self.sd_tls.saturation_photon_number)
        f, cutoff = 5e9, 2e12
        return {
            "transverse": attempt(lambda: meanfield.steady_state_by_integration(
                trans, TWO_PI * 7e9, kappa_tot=trans.gamma2 / 150,
                mode="transverse"), ode_err),
            "longitudinal": attempt(lambda: meanfield.steady_state_by_integration(
                longi, omega_r, kappa_tot=0.005 * omega_r,
                mode="longitudinal"), ode_err),
            "spectral_diffusion": tls.spectral_diffusion_loss(
                self.sd_tls, drive, sigma_rel * self.sd_tls.gamma2, self.rho_v),
            "kramers_kronig": (
                tls.kramers_kronig_real_part(f, tls.ThermalEnvironment(t2),
                                             self.host, f_cutoff=cutoff)
                - tls.kramers_kronig_real_part(f, tls.ThermalEnvironment(t1),
                                               self.host, f_cutoff=cutoff)),
        }

    def check(self, k, out):
        trans, longi, omega_r, n_ratio, _, t1, t2 = self._cases(k)
        checks = []
        for mode, unit, closed in (
                ("transverse", trans, tls.transverse_complex_shift(trans)),
                ("longitudinal", longi,
                 tls.longitudinal_complex_shift(longi, omega_r))):
            res = out[mode]
            ok = not isinstance(res, Exception)
            if ok:
                loss, shift = closed
                err = (abs(complex(res.extra_loss - loss, res.shift - shift))
                       / abs(complex(loss, shift)))
                ok = err < 0.02
            checks.append(Check(f"meanfield.{mode}", ok, exact=False,
                                detail="" if ok else repr(res)[:120]))
        drive = tls.SaturationDrive(
            n_cav=n_ratio * self.sd_tls.saturation_photon_number)
        closed = tls.spectral_diffusion_loss_closed_form(self.sd_tls, drive,
                                                         self.rho_v)
        checks.append(Check("tls.spectral_diffusion",
                            rel_err(out["spectral_diffusion"], closed) < 1e-3))
        f = 5e9
        closed = -(self.host.delta_tls / np.pi) * (
            tls.permittivity_bracket(f, tls.ThermalEnvironment(t2))
            - tls.permittivity_bracket(f, tls.ThermalEnvironment(t1)))
        checks.append(Check("tls.kramers_kronig",
                            rel_err(out["kramers_kronig"], closed) < 1e-3))
        return checks

    def patches(self):
        def on_solve(tracer, label, res):
            tracer.count(f"{label}.calls")
            tracer.count(f"{label}.samples", len(res.t))

        return [
            (meanfield, "steady_state_by_integration",
             lambda args, kwargs: f"meanfield.{kwargs['mode']}",
             "meanfield", on_solve),
            (tls, "spectral_diffusion_loss", "tls.spectral_diffusion", "tls",
             None),
            (tls, "kramers_kronig_real_part", "tls.kramers_kronig", "tls",
             None),
        ]

    def layer_metrics(self, tracer, passes):
        return {
            "meanfield.longitudinal.ms":
                tracer.mean_ms("meanfield.longitudinal"),
            "meanfield.longitudinal.samples":
                _per_call(tracer, "meanfield.longitudinal", "samples"),
            "meanfield.transverse.ms": tracer.mean_ms("meanfield.transverse"),
            "tls.spectral_diffusion.ms":
                tracer.mean_ms("tls.spectral_diffusion"),
            "tls.kramers_kronig.ms": tracer.mean_ms("tls.kramers_kronig"),
        }


# --- cli_readme -------------------------------------------------------------

class CliReadme(Workload):
    """The README command-line session, in-process through `cli.main`.

    Op k runs photon-number, slopes (single, then the g/xi grid),
    temp-model, synth --kind trace and fit-spectrum --model both into a
    scratch directory, with synth's seed k mod POOL of a pool derived from
    the workload seed.  `mc` is left out: mc_reference runs
    its library path.
    """

    name = "cli_readme"
    POOL = 40
    SCHEMA = re.compile(r"^optoresp/result/v\d+$")
    # the README session's printed values, at the digits it prints
    README = {"n_cav": "4.834e+06", "slope_inv_q_per_nw": "1.352e-06",
              "slope_dfrac_per_nw": "5.856e-07"}

    def __init__(self, seed, tracer, scratch):
        super().__init__(seed, tracer, scratch)
        self.out = scratch / "session"
        self.synth_seeds = [derive_seed(seed, 3, i)
                            for i in range(self.POOL + 1)]
        self.bytes_written = []

    def session(self, k):
        i = self.POOL if k == WARM_UP else k % self.POOL
        out = ["--out-dir", str(self.out)]
        return [
            ("photon_number", ["photon-number", "--fr-ghz", "2.418",
                               "--q-int", "70134", "--q-ext", "3226",
                               "--power-dbm", "-77"]),
            ("slopes", ["slopes", "--g-mhz", "5", "--xi", "50"]),
            ("slopes_sweep", ["slopes", "--g-grid-mhz", "2,4,6,8",
                              "--xi-grid", "20,50,100,250"]),
            ("temp_model", ["temp-model", "--fr-ghz", "2.418,4.884,7.061,11.63",
                            "--pdelta", "1e-5", "--lambda0-um", "0.72",
                            "--tc-k", "14"]),
            ("synth", ["synth", "--kind", "trace", "--noise", "1e-3",
                       "--seed", str(self.synth_seeds[i])]),
            ("fit_spectrum", ["fit-spectrum", "--input",
                              str(self.out / "synth_trace.csv"),
                              "--model", "both"]),
        ], out

    def prepare(self, k):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def op(self, k):
        commands, out = self.session(k)
        codes = {}
        with contextlib.redirect_stdout(_stdio.StringIO()):
            for name, argv in commands:
                with self.tr.span(f"cli.{name}", "cli"):
                    codes[name] = cli.main(argv + out)
        return codes

    def _envelope(self, name):
        return json.loads((self.out / f"{name}.json").read_text())

    def check(self, k, codes):
        self.bytes_written.append(
            sum(p.stat().st_size for p in self.out.iterdir()))
        checks = [Check("cli.exit_codes", all(c == 0 for c in codes.values()),
                        detail=str(codes))]
        names = ("photon_number", "slopes", "temp_model", "synth_trace",
                 "fit_spectrum")
        try:
            env = {n: self._envelope(n) for n in names}
        except (OSError, ValueError) as exc:
            return checks + [Check("cli.envelopes", False, detail=repr(exc))]
        checks.append(Check("cli.schema", all(
            self.SCHEMA.match(str(e.get("schema"))) for e in env.values())))
        slopes = env["slopes"]["result"]
        got = {"n_cav": env["photon_number"]["result"]["n_cav"],
               "slope_inv_q_per_nw": slopes["slope_inverse_q_per_w"] * 1e-9,
               "slope_dfrac_per_nw":
                   slopes["slope_fractional_frequency_per_w"] * 1e-9}
        checks.append(Check("cli.readme_values", all(
            f"{got[key]:.4g}" == want for key, want in self.README.items()),
            detail=str(got)))
        checks.append(Check("cli.table_rows",
                            slopes["sweep_row_count"] == 16
                            and env["temp_model"]["result"]["n_rows"] == 400))
        fit = env["fit_spectrum"]["result"]
        full = fit.get("full", {})
        checks.append(Check("cli.fit_spectrum", exact=False, ok=bool(
            full.get("converged")
            and rel_err(full.get("q_int") or 0.0, 34477) < 0.02
            and (fit.get("q_int_discrepancy_rel") or 1.0) < 0.20),
            detail=str(fit)[:200]))
        return checks

    def patches(self):
        return FITKIT_PATCHES + [
            (cli, "photon_number", "resonator.photon_number", "resonator",
             None),
            (ensemble, "slope_inverse_q", "ensemble.slope", "ensemble", None),
            (ensemble, "slope_fractional_frequency", "ensemble.slope",
             "ensemble", None),
            (cli, "permittivity_bracket", "tls.permittivity_bracket", "tls",
             None),
            (tls, "digamma", "digamma.digamma", "digamma", None),
            (superconductor, "freq_shift_from_temperature",
             "superconductor.freq_shift", "superconductor", None),
            (fitsynth, "synth_trace", "fitkit.synth_trace", "fitkit", None),
            (io, "write_envelope", "io.write_envelope", "io", None),
            (io, "write_table", "io.write_table", "io", None),
            (io, "write_trace", "io.write_trace", "io", None),
            (io, "read_trace", "io.read_trace", "io", None),
        ]

    def layer_metrics(self, tracer, passes):
        out = {f"cli.{name}.ms": tracer.mean_ms(f"cli.{name}")
               for name in ("photon_number", "slopes", "slopes_sweep",
                            "temp_model", "synth", "fit_spectrum")}
        out["io.bytes_written"] = (float(np.mean(self.bytes_written))
                                   if self.bytes_written else 0.0)
        return out

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (McReference, FitRoundtrip, OracleCheck,
                                 CliReadme)}
