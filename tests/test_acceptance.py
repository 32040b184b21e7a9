"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Stated runtime budgets are asserted.  The published experimental maps
(2-D response images, raw per-mode power sweeps, averaged local-potential
trends) need the physical device and are covered only through the
model-generated curve-shape checks below and in the CLI tests.
"""

import time

import numpy as np
from scipy.integrate import quad

from optoresp.constants import HBAR, TWO_PI, dbm_to_watts
from optoresp.ensemble import (EnsembleParams, parameter_sweep,
                               slope_fractional_frequency, slope_inverse_q)
from optoresp.fitkit import (fit_full_s21, fit_lorentzian_dip,
                             fit_power_frequency, fit_power_inverse_q,
                             fit_tls_saturation, synth_power_series,
                             synth_tls_saturation, synth_trace)
from optoresp.meanfield import steady_state_by_integration
from optoresp.montecarlo import McConfig, run
from optoresp.resonator import (DriveCondition, LineCalibration,
                                ResonatorMode, photon_number)
from optoresp.tls import (SaturationDrive, ThermalEnvironment,
                          TlsHostMaterial, TlsUnit, digamma,
                          kramers_kronig_real_part,
                          longitudinal_complex_shift, permittivity_bracket,
                          spectral_diffusion_loss,
                          spectral_diffusion_loss_closed_form,
                          transverse_complex_shift)

MHZ = TWO_PI * 1e6


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS — {detail}")


def test_criterion_1_photon_number_regression():
    published = [
        (2.418e9, 70134, 3226, -77, 4.83e6),
        (4.884e9, 76771, 499, -72, 6.25e5),
        (7.061e9, 34477, 480, -72, 2.84e5),
        (11.63e9, 37364, 2743, -72, 5.33e5),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for f_r, q_int, q_ext, p_dbm, n_pub in published:
        mode = ResonatorMode(f_r, q_int, q_ext)
        n = photon_number(mode, DriveCondition(dbm_to_watts(p_dbm), f_r))
        worst = max(worst, abs(n - n_pub) / n_pub)
        assert abs(n - n_pub) / n_pub < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "photon-number regression",
            f"4 modes within 2% (worst {worst:.2%}), {elapsed:.3f} s")


def test_criterion_2_slope_reproduction():
    t0 = time.perf_counter()
    p = EnsembleParams()  # reference bath, g/2pi = 5 MHz, xi = 50 m/W
    sq = slope_inverse_q(p)
    sf = slope_fractional_frequency(p)
    assert abs(sq * 1e-9 - 1.35e-6) / 1.35e-6 < 0.05
    assert abs(sf * 1e-9 - 5.9e-7) / 5.9e-7 < 0.05
    # within a factor 2 of the reported order-of-magnitude targets
    assert 0.5 < (sq * 1e-9) / 1e-6 < 2.0
    assert 0.5 < (sf * 1e-9) / 0.5e-6 < 2.0

    # independent quadrature oracle over the bath integrals
    c = HBAR * p.rho_tls * p.area * p.xi / p.omega_r
    flat, _ = quad(lambda w: 1.0, 0.0, p.omega_max)
    sq_oracle = (2.0 * c * p.g_par_t**2 * p.ds_tilde * p.gamma1_t * p.omega_r
                 / (p.gamma1_t**2 + p.omega_r**2) * flat)
    log_int, _ = quad(lambda d: d / (p.gamma2_t**2 + d**2), p.delta_min,
                      p.delta_max, limit=400)
    sf_oracle = c * ((1.0 + p.s_tilde) * p.g_perp_t**2 * log_int
                     - p.g_par_t**2 * p.gamma1_t**2
                     / (p.gamma1_t**2 + p.omega_r**2) * p.omega_max
                     * p.ds_tilde)
    assert abs(sq_oracle - sq) / sq < 0.005
    assert abs(sf_oracle - sf) / sf < 0.005
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "analytic slopes",
            f"d(1/Q)/dP = {sq * 1e-9:.3e}/nW, d(df/f)/dP = {sf * 1e-9:.3e}/nW,"
            f" oracle agreement < 0.5%, {elapsed:.3f} s")


def test_criterion_3_monte_carlo_analytic_equivalence():
    t0 = time.perf_counter()
    cfg = McConfig(seed=0, trials=100)
    result = run(cfg)
    (mq, sq), (mf, sf) = result.slope_stats()
    analytic = slope_inverse_q(EnsembleParams())
    se = sq / np.sqrt(cfg.trials)
    z = (mq - analytic) / se
    assert abs(z) < 2.0
    ratio = (sf / abs(mf)) / (sq / mq)
    assert ratio >= 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, "Monte Carlo vs analytic",
            f"mean slope {mq:.4g}/W vs analytic {analytic:.4g}/W "
            f"({z:+.2f} SE); df/f-to-1/Q trial-std ratio {ratio:.1f}x; "
            f"{elapsed:.1f} s")


def test_criterion_4_spectral_diffusion_identity():
    t0 = time.perf_counter()
    rho_v = 1e45 * 5e-23
    t = TlsUnit(detuning=0.0, g_perp=5 * MHZ, g_par=5 * MHZ, gamma1=16 * MHZ,
                gamma2=16 * MHZ, s=-1.0)
    n_s = t.saturation_photon_number
    worst = 0.0
    for n_ratio in (0.0, 1.0, 100.0):
        drive = SaturationDrive(n_cav=n_ratio * n_s)
        closed = spectral_diffusion_loss_closed_form(t, drive, rho_v)
        for sigma_rel in (0.01, 1.0, 100.0):
            num = spectral_diffusion_loss(t, drive, sigma_rel * t.gamma2,
                                          rho_v)
            rel = abs(num - closed) / abs(closed)
            worst = max(worst, rel)
            assert rel < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, "spectral-diffusion identity",
            f"9 (sigma, drive) combinations within 1e-3 "
            f"(worst {worst:.1e}), {elapsed:.1f} s")


def test_criterion_5_ode_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(20):
        if k % 2 == 0:
            g2 = rng.uniform(8, 32) * MHZ
            g1 = rng.uniform(0.5, 2.0) * g2
            tls = TlsUnit(detuning=rng.uniform(-3, 3) * g2,
                          g_perp=rng.uniform(g2 / 20, g2 / 9), g_par=0.0,
                          gamma1=g1, gamma2=g2, s=rng.uniform(-1.0, -0.2))
            res = steady_state_by_integration(tls, TWO_PI * 7e9,
                                              kappa_tot=g2 / 150,
                                              mode="transverse")
            loss, shift = transverse_complex_shift(tls)
        else:
            g1 = rng.uniform(8, 25) * MHZ
            omega_r = rng.uniform(0.5, 3.0) * g1
            tls = TlsUnit(detuning=0.0, g_perp=0.0,
                          g_par=rng.uniform(0.2, 0.8) * MHZ, gamma1=g1,
                          gamma2=g1, s=rng.uniform(-0.5, 0.0),
                          ds=rng.uniform(0.5, 2.0) * 10 / (TWO_PI * 400e6))
            res = steady_state_by_integration(tls, omega_r,
                                              kappa_tot=0.005 * omega_r,
                                              mode="longitudinal")
            loss, shift = longitudinal_complex_shift(tls, omega_r)
        scale = abs(complex(loss, shift))
        err = abs(complex(res.extra_loss - loss, res.shift - shift)) / scale
        worst = max(worst, err)
        assert err < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, "mean-field ODE oracle",
            f"20 random weak-coupling draws within 2% "
            f"(worst {worst:.2%}), {elapsed:.1f} s")


def test_criterion_6_digamma_and_kramers_kronig():
    t0 = time.perf_counter()
    assert abs(digamma(0.5).real - (-1.9635100260214235)) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(0.2, 10))
        rec = digamma(z + 1) - (digamma(z) + 1.0 / z)
        assert abs(rec) <= 1e-10 * max(1.0, abs(digamma(z + 1)))
        refl = digamma(1 - z) - digamma(z) - np.pi / np.tan(np.pi * z)
        assert abs(refl) <= 1e-10 * max(1.0, abs(digamma(1 - z)))

    host = TlsHostMaterial(intrinsic_loss=3e-5)
    f, cutoff = 5e9, 2e12
    worst = 0.0
    for t1, t2 in [(0.030, 0.100), (0.100, 0.300), (0.030, 0.300)]:
        kk = (kramers_kronig_real_part(f, ThermalEnvironment(t2), host,
                                       f_cutoff=cutoff)
              - kramers_kronig_real_part(f, ThermalEnvironment(t1), host,
                                         f_cutoff=cutoff))
        closed = -(host.delta_tls / np.pi) * (
            permittivity_bracket(f, ThermalEnvironment(t2))
            - permittivity_bracket(f, ThermalEnvironment(t1)))
        rel = abs(kk - closed) / abs(closed)
        worst = max(worst, rel)
        assert rel < 1e-3
    elapsed = time.perf_counter() - t0
    _report(6, "digamma + Kramers-Kronig",
            f"identities to 1e-10, Re psi(1/2) to 1e-12, KK differences "
            f"within 1e-3 (worst {worst:.1e}), {elapsed:.1f} s")


def test_criterion_7_parameter_dependence_scalings():
    t0 = time.perf_counter()
    p = EnsembleParams()
    grid_r = TWO_PI * np.linspace(1e9, 20e9, 30)
    out_r = parameter_sweep(p, "omega_r", grid_r)
    exp_r = np.polyfit(np.log(grid_r), np.log(out_r["slope_inverse_q"]), 1)[0]
    assert abs(exp_r + 1.0) < 0.05

    grid_m = TWO_PI * np.logspace(np.log10(100e9), np.log10(3000e9), 25)
    out_m = parameter_sweep(p, "omega_max", grid_m)
    exp_m = np.polyfit(np.log(grid_m), np.log(out_m["slope_inverse_q"]), 1)[0]
    assert abs(exp_m - 1.0) < 0.01
    corr = np.corrcoef(np.log(grid_m),
                       out_m["slope_fractional_frequency"])[0, 1]
    assert corr >= 0.999
    elapsed = time.perf_counter() - t0
    _report(7, "parameter-dependence scalings",
            f"loss-slope exponents: omega_r {exp_r:+.3f}, omega_max "
            f"{exp_m:+.4f}; ln(omega_max) correlation {corr:.5f}; "
            f"{elapsed:.1f} s")


def test_criterion_8_fit_round_trips():
    t0 = time.perf_counter()
    reps = 100

    # full asymmetric S21: Q's within 2%, line parameters within 5%
    mode = ResonatorMode.from_asymmetry_angle(7.061e9, 34477, 480, 0.3)
    line = LineCalibration(0.9, 30e-9, 1.1)
    lw = 7.061e9 / mode.q_tot
    grid = np.linspace(7.061e9 - 5 * lw, 7.061e9 + 5 * lw, 801)
    hits_full = 0
    for seed in range(reps):
        tr = synth_trace(mode, line, grid, noise_std=1e-3, seed=seed)
        r = fit_full_s21(tr)
        hits_full += (r.fit.converged
                      and abs(r.q_int - 34477) / 34477 < 0.02
                      and abs(r.q_ext - mode.q_ext_reported)
                      / mode.q_ext_reported < 0.02
                      and abs(r.q_tot - mode.q_tot) / mode.q_tot < 0.02
                      and abs(r.amplitude - 0.9) / 0.9 < 0.05
                      and abs(r.delay - 30e-9) / 30e-9 < 0.05)
    assert hits_full >= 95

    # Lorentzian dip on the strongly overcoupled mode: Q_int within 5%
    dip_mode = ResonatorMode(7.061e9, 35000, 480)
    dip_lw = 7.061e9 / dip_mode.q_tot
    dip_grid = np.linspace(7.061e9 - 1.2 * dip_lw, 7.061e9 + 1.2 * dip_lw,
                           6001)
    hits_lor = 0
    for seed in range(reps):
        tr = synth_trace(dip_mode, LineCalibration(), dip_grid,
                         noise_std=1e-3, seed=seed)
        r = fit_lorentzian_dip(tr)
        hits_lor += abs(r.q_int - 35000) / 35000 < 0.05
    assert hits_lor >= 95

    # optical power series: gamma within 10%, (delta1, delta2) within 10%
    p_grid = np.linspace(0, 300e-9, 25)
    true = dict(gamma=1.35e-6 / 1e-9, inv_q0=2.9e-5, delta1=5.9e-7 / 1e-9,
                delta2=2e-5, delta3=0.05 / 1e-9)
    hits_q = hits_f = 0
    for seed in range(reps):
        series = synth_power_series(p_grid, gamma=true["gamma"],
                                    inv_q0=true["inv_q0"],
                                    delta1=true["delta1"],
                                    delta2=true["delta2"],
                                    delta3=true["delta3"], noise_rel=0.05,
                                    seed=seed)
        fq = fit_power_inverse_q(series, model="linear")
        hits_q += abs(fq["gamma"] - true["gamma"]) / true["gamma"] < 0.10
        ff = fit_power_frequency(series)
        hits_f += (abs(ff["delta1"] - true["delta1"]) / true["delta1"] < 0.10
                   and abs(ff["delta2"] - true["delta2"]) / true["delta2"]
                   < 0.10)
    assert hits_q >= 95
    assert hits_f >= 95

    # TLS microwave saturation: n_c within 15%
    n_grid = np.logspace(2, 5, 81)
    hits_sat = 0
    for seed in range(reps):
        n, y, sig = synth_tls_saturation(n_grid, f_delta=2e-5, n_c=3e3,
                                         beta=1.0, floor=1e-5,
                                         noise_rel=0.03, seed=seed)
        fit = fit_tls_saturation(n, y, sigma=sig)
        hits_sat += abs(fit["n_c"] - 3e3) / 3e3 < 0.15
    assert hits_sat >= 95

    # Lorentzian-vs-full Q_int discrepancy on strongly asymmetric traces
    disc_grid = np.linspace(7.061e9 - 1.5 * lw, 7.061e9 + 1.5 * lw, 4001)
    worst_disc = 0.0
    for phi in (0.2, 0.35, 0.5):
        m = ResonatorMode.from_asymmetry_angle(7.061e9, 34477, 480, phi)
        tr = synth_trace(m, LineCalibration(), disc_grid, noise_std=5e-4,
                         seed=3)
        q_l = fit_lorentzian_dip(tr).q_int
        q_f = fit_full_s21(tr).q_int
        worst_disc = max(worst_disc, abs(q_l - q_f) / q_f)
    assert worst_disc < 0.20

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "fit round-trips",
            f"pass rates /100: full-S21 {hits_full}, Lorentzian {hits_lor}, "
            f"1/Q-linear {hits_q}, df/f {hits_f}, TLS-saturation {hits_sat};"
            f" max asymmetry discrepancy {worst_disc:.1%}; {elapsed:.1f} s")
