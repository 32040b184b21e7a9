import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from optoresp import tls
from optoresp.constants import HBAR, K_B, PLANCK, TWO_PI
from optoresp.tls import (SaturationDrive, ThermalEnvironment, TlsHostMaterial,
                          TlsUnit, dispersive_pull, kramers_kronig_real_part,
                          longitudinal_complex_shift, permittivity_bracket,
                          spectral_diffusion_loss,
                          spectral_diffusion_loss_closed_form,
                          transverse_complex_shift)

MHZ = TWO_PI * 1e6


def _tight_quad(fun, lo, hi, **opts):
    """quad's value at epsabs 0 and epsrel 1e-13: the tight references of
    the quadrature oracles below."""
    return quad(fun, lo, hi, epsabs=0.0, epsrel=1e-13, limit=300, **opts)[0]


def _tls(detuning=0.0, g_perp=5 * MHZ, g_par=5 * MHZ, gamma1=16 * MHZ,
         gamma2=16 * MHZ, s=-1.0, ds=0.0, x=0.0):
    return TlsUnit(detuning=detuning, g_perp=g_perp, g_par=g_par,
                   gamma1=gamma1, gamma2=gamma2, s=s, ds=ds, x=x)


def test_tls_unit_invariants():
    with pytest.raises(ValueError):
        _tls(s=0.5)
    with pytest.raises(ValueError):
        _tls(s=-1.5)
    with pytest.raises(ValueError):
        _tls(gamma2=1 * MHZ, gamma1=16 * MHZ)  # gamma2 < gamma1/2
    with pytest.raises(ValueError):
        _tls(ds=-1e-9)


def test_tls_unit_accepts_zero_rates_off_resonance():
    # the Monte Carlo's clamped draw: Gamma_1 = Gamma_2 = 0 away from Delta = 0
    t = _tls(detuning=3 * MHZ, gamma1=0.0, gamma2=0.0)
    assert t.saturation_photon_number == 0.0
    # a decoupled TLS cannot be saturated
    assert _tls(g_perp=0.0).saturation_photon_number == np.inf
    assert np.isfinite(transverse_complex_shift(t)).all()
    with pytest.raises(ValueError, match="detuning"):
        _tls(detuning=0.0, gamma1=0.0, gamma2=0.0)
    with pytest.raises(ValueError, match="gamma1"):
        _tls(gamma1=-1.0)


# A seeded bath with the rows the Monte Carlo draws at its clamps: g = 0,
# Gamma_1 = Gamma_2 = 0 off resonance, both, and S at -1 and 0
def _grid_bath():
    rng = np.random.default_rng(2024)
    n = 96
    g = rng.uniform(0.0, 10.0, n) * MHZ
    gamma1 = rng.uniform(0.0, 40.0, n) * MHZ
    gamma2 = gamma1 * rng.uniform(0.5, 3.0, n)
    detuning = rng.uniform(-200.0, 200.0, n) * MHZ
    s = rng.uniform(-1.0, 0.0, n)
    g[::6] = 0.0
    gamma1[1::4] = gamma2[1::4] = 0.0
    detuning[2::8] = 0.0                 # on resonance, with gamma2 > 0
    s[5::16], s[9::16] = -1.0, 0.0
    return TlsUnit(detuning=detuning, g_perp=g, g_par=g[::-1].copy(),
                   gamma1=gamma1, gamma2=gamma2, s=s,
                   ds=rng.uniform(0.0, 1e-9, n), x=rng.uniform(-1e-4, 1e-4, n))


def _scalar_rows(bath):
    """One TlsUnit of Python floats per TLS of bath."""
    names = [f.name for f in dataclasses.fields(TlsUnit)]
    return [TlsUnit(**{k: float(getattr(bath, k)[i]) for k in names})
            for i in range(len(bath))]


def _bitwise(array_result, scalar_results):
    got = np.asarray(array_result, dtype=float)
    want = np.array(scalar_results, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_closed_forms_on_a_bath_equal_scalar_calls_bitwise():
    bath = _grid_bath()
    assert (bath.gamma1 == 0.0).any() and (bath.g_perp == 0.0).any()
    rows = _scalar_rows(bath)
    w_r = TWO_PI * 7e9
    assert _bitwise(np.stack(transverse_complex_shift(bath), axis=1),
                    [transverse_complex_shift(t) for t in rows])
    assert _bitwise(np.stack(longitudinal_complex_shift(bath, w_r), axis=1),
                    [longitudinal_complex_shift(t, w_r) for t in rows])
    assert _bitwise(dispersive_pull(bath, 1.0 + bath.s),
                    [dispersive_pull(t, 1.0 + t.s) for t in rows])
    assert _bitwise(bath.saturation_photon_number,
                    [t.saturation_photon_number for t in rows])
    # the saturated form divides by n_s: a coupled TLS with Gamma_1 = 0 has
    # none, so it takes the rows without one and refuses the rest
    drive = SaturationDrive(n_cav=30.0)
    ok = (bath.g_perp == 0.0) | (bath.gamma1 > 0.0)
    assert ok.sum() < len(bath) and (~ok & (bath.g_perp == 0.0)).sum() == 0
    good = bath.select(ok)
    good_rows = [t for t, keep in zip(rows, ok) if keep]
    assert _bitwise(spectral_diffusion_loss_closed_form(good, drive, RHO_V),
                    [spectral_diffusion_loss_closed_form(t, drive, RHO_V)
                     for t in good_rows])
    bad = rows[int(np.flatnonzero(~ok)[0])]
    for tls_ in (bath, bad):
        with pytest.raises(ValueError, match="^gamma1 must be positive"):
            spectral_diffusion_loss_closed_form(tls_, drive, RHO_V)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TlsUnit)])
def test_tls_unit_rejects_nan_in_any_column(name):
    bath = _grid_bath()
    column = getattr(bath, name).copy()
    column[7] = np.nan
    with pytest.raises(ValueError):
        dataclasses.replace(bath, **{name: column})
    with pytest.raises(ValueError):
        dataclasses.replace(bath.select(7), **{name: np.nan})


def test_tls_unit_rejects_one_bad_element():
    bath = _grid_bath()
    for name, value in (("gamma1", -1.0), ("gamma2", 0.0), ("s", 0.5),
                        ("ds", -1e-12), ("g_par", -1.0)):
        column = getattr(bath, name).copy()
        column[-1] = value  # row 95: gamma1 > 0, detuning != 0
        with pytest.raises(ValueError):
            dataclasses.replace(bath, **{name: column})
    # Gamma_1 = Gamma_2 = 0 on resonance: that row's Lorentzian is 0/0
    on_res = bath.detuning == 0.0
    with pytest.raises(ValueError, match="detuning"):
        dataclasses.replace(bath, gamma1=np.where(on_res, 0.0, bath.gamma1),
                            gamma2=np.where(on_res, 0.0, bath.gamma2))


def _shared_bath(g, gamma1):
    """_grid_bath's rows with g_perp = g_par and gamma2 = gamma1 each one
    array, as the Monte Carlo draws them."""
    return dataclasses.replace(_grid_bath(), g_perp=g, g_par=g,
                               gamma1=gamma1, gamma2=gamma1)


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_shared_coupling_column_is_checked(bad):
    bath = _grid_bath()
    g = bath.g_perp.copy()
    g[-1] = bad
    with pytest.raises(ValueError,
                       match=r"^g_perp must lie in \[0, 6.28319e\+13\]$"):
        _shared_bath(g, bath.gamma1)
    gamma1 = bath.gamma1.copy()
    gamma1[-1] = bad
    with pytest.raises(ValueError,
                       match=r"^gamma1 must lie in \[0, 6.28319e\+13\]$"):
        _shared_bath(bath.g_perp, gamma1)


def test_gamma2_below_half_gamma1_refused_unless_shared():
    bath = _grid_bath()
    shared = _shared_bath(bath.g_perp, bath.gamma1)
    assert shared.gamma2 is shared.gamma1
    # an equal but distinct array is compared, and one row below half fails
    dataclasses.replace(bath, gamma2=bath.gamma1.copy())
    gamma2 = bath.gamma1.copy()
    gamma2[-1] = 0.49 * bath.gamma1[-1]
    with pytest.raises(ValueError, match="^gamma2 must be >= gamma1/2$"):
        dataclasses.replace(bath, gamma2=gamma2)


def test_closed_forms_write_into_out():
    # a caller's rows take the same bits as fresh ones, and the returned
    # values are views of them
    bath = _grid_bath()
    w_r = TWO_PI * 7e9
    rows = np.full((5, len(bath)), np.nan)
    loss, shift = longitudinal_complex_shift(bath, w_r, out=rows[:3])
    pull = dispersive_pull(bath, 1.0 + bath.s, out=rows[3:])
    assert _bitwise(np.stack((loss, shift, pull)),
                    np.stack((*longitudinal_complex_shift(bath, w_r),
                              dispersive_pull(bath, 1.0 + bath.s))))
    for got, row in ((loss, 0), (shift, 1), (pull, 3)):
        assert np.shares_memory(got, rows[row])


# --- transverse -------------------------------------------------------------

def test_transverse_on_resonance():
    loss, shift = transverse_complex_shift(_tls())
    assert_allclose(loss / TWO_PI, 2 * 25 / 16 * 1e6, rtol=1e-12)  # 3.125 MHz
    assert shift == 0.0


def test_transverse_saturated_tls_silent():
    assert transverse_complex_shift(_tls(s=0.0)) == (0.0, -0.0)


def test_transverse_detuned_shift():
    loss, shift = transverse_complex_shift(_tls(detuning=16 * MHZ))
    assert_allclose(shift / TWO_PI, 25 / 32 * 1e6, rtol=1e-12)  # 0.78125 MHz
    assert shift > 0  # lower-frequency TLS pushes the resonator up


def test_transverse_sign_structure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = _tls(detuning=rng.uniform(-50, 50) * MHZ,
                 s=rng.uniform(-1.0, -0.01))
        loss, shift = transverse_complex_shift(t)
        assert loss > 0
        if t.detuning != 0:
            assert np.sign(shift) == np.sign(-t.detuning * t.s)


# --- longitudinal -----------------------------------------------------------

def test_longitudinal_frozen_population():
    assert longitudinal_complex_shift(_tls(ds=0.0), TWO_PI * 7e9) == (0.0, -0.0)


def test_longitudinal_matched_rates():
    ds = 1e-9
    t = _tls(ds=ds)
    loss, shift = longitudinal_complex_shift(t, omega_r=t.gamma1)
    assert_allclose(loss, t.g_par**2 * ds, rtol=1e-12)
    assert_allclose(shift, -t.g_par**2 * ds / 2, rtol=1e-12)


def test_longitudinal_reference_values():
    t = _tls(ds=1.0 / (TWO_PI * 400e6))
    loss, shift = longitudinal_complex_shift(t, omega_r=TWO_PI * 7e9)
    assert_allclose(loss, 1795.1864231181614, rtol=1e-10)
    assert_allclose(shift, -2.0516416264207558, rtol=1e-10)
    assert loss >= 0 and shift <= 0


# --- permittivity -----------------------------------------------------------

def test_permittivity_shift_small_argument_limit():
    # bracket -> psi(1/2) - ln(x) as x -> 0; check the digamma piece alone
    env_hot = ThermalEnvironment(50.0)   # x ~ 2e-3 at 5 GHz
    x = PLANCK * 5e9 / (TWO_PI * K_B * env_hot.temperature)
    bracket = permittivity_bracket(5e9, env_hot)
    assert abs((bracket + np.log(x)) - (-1.9635100260214235)) < 1e-4


def test_permittivity_shift_slope_sign_change():
    # negative-going below ~h f/k_B, positive-going above
    f_r = 2.418e9
    temps = np.linspace(0.010, 1.0, 300)
    vals = np.array([permittivity_bracket(f_r, ThermalEnvironment(t))
                     for t in temps])
    slopes = np.diff(vals)
    t_cross = PLANCK * f_r / K_B   # 116 mK
    assert np.all(slopes[temps[:-1] < 0.3 * t_cross] < 0)
    assert np.all(slopes[temps[:-1] > 3.0 * t_cross] > 0)
    sign_changes = np.sum(np.diff(np.sign(slopes)) != 0)
    assert sign_changes == 1


def test_permittivity_broadcasts_bitwise_like_scalar_calls():
    f_r = np.array([2.418e9, 4.884e9, 7.061e9, 11.63e9])
    temps = np.linspace(0.010, 1.0, 100)
    bracket = permittivity_bracket(f_r[:, None], ThermalEnvironment(temps))
    assert bracket.shape == (4, 100)
    for i, f in enumerate(f_r):
        for j, t in enumerate(temps):
            assert bracket[i, j] == permittivity_bracket(
                float(f), ThermalEnvironment(float(t)))
    with pytest.raises(ValueError):
        ThermalEnvironment(np.array([0.1, 0.0]))
    with pytest.raises(ValueError, match=r"^temperature must lie in "
                                         r"\[1e-06, 10000\]$"):
        ThermalEnvironment(np.array([0.1, np.inf]))


# --- Kramers-Kronig oracle ----------------------------------------------------


@pytest.mark.parametrize("f_r", [0.0, -1e9, np.nan, np.array([5e9, 0.0]),
                                 np.inf])
def test_permittivity_bracket_refuses_nonpositive_frequency(f_r):
    with pytest.raises(ValueError,
                       match=r"^f_r must lie in \[1000, 1e\+15\]$"):
        permittivity_bracket(f_r, ThermalEnvironment(np.array([0.01, 0.1])))


@pytest.mark.parametrize("loss", [-1e-5, np.nan, np.inf])
def test_host_refuses_negative_or_non_finite_loss(loss):
    with pytest.raises(ValueError,
                       match=r"^intrinsic_loss must lie in \[0, 1\]$"):
        TlsHostMaterial(intrinsic_loss=loss)


@pytest.mark.parametrize("f,f_cutoff,message", [
    (np.nan, 2e12, "f must lie in [1000, 1e+15]"),
    (np.inf, 2e12, "f must lie in [1000, 1e+15]"),
    (0.0, 2e12, "f must lie in [1000, 1e+15]"),
    (5e9, np.nan, "f_cutoff must lie in [2000, 1e+18]"),
    (5e9, np.inf, "f_cutoff must lie in [2000, 1e+18]"),
    (5e9, 1e10, "f_cutoff must lie well above the probe frequency"),
])
def test_kk_refuses_bad_frequency_or_cutoff(f, f_cutoff, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        kramers_kronig_real_part(f, ThermalEnvironment(0.1),
                                 TlsHostMaterial(intrinsic_loss=3e-5),
                                 f_cutoff=f_cutoff)


def test_kk_zero_loss_and_equal_temperature():
    host0 = TlsHostMaterial(intrinsic_loss=0.0)
    env = ThermalEnvironment(0.1)
    assert kramers_kronig_real_part(5e9, env, host0, f_cutoff=2e12) == 0.0
    host = TlsHostMaterial(intrinsic_loss=3e-5)
    a = kramers_kronig_real_part(5e9, env, host, f_cutoff=2e12)
    b = kramers_kronig_real_part(5e9, env, host, f_cutoff=2e12)
    assert a == b


@pytest.mark.parametrize("t1,t2", [(0.030, 0.100), (0.100, 0.300),
                                   (0.030, 0.300)])
def test_kk_matches_digamma_closed_form(t1, t2):
    host = TlsHostMaterial(intrinsic_loss=3e-5)
    f = 5e9
    cutoff = 2e12
    kk_diff = (kramers_kronig_real_part(f, ThermalEnvironment(t2), host,
                                        f_cutoff=cutoff)
               - kramers_kronig_real_part(f, ThermalEnvironment(t1), host,
                                          f_cutoff=cutoff))
    closed = -(host.delta_tls / np.pi) * (
        permittivity_bracket(f, ThermalEnvironment(t2))
        - permittivity_bracket(f, ThermalEnvironment(t1)))
    assert abs(kk_diff - closed) <= 1e-9 * abs(closed)


def test_kk_probe_grid_is_quiet_and_matches_digamma():
    # f from far below to far above the thermal knee 2kT/h, each value at
    # the default cut-off, with any scipy IntegrationWarning an error; then
    # each adjacent temperature pair at a shared cut-off against the closed
    # form, within the oracle's own 1e-6 error gate on the larger value.
    # The first and last of f and of T lie 1e-9 inside their domain's ends
    host = TlsHostMaterial(intrinsic_loss=3e-5)
    temperatures = [1e-6 * (1 + 1e-9), 1e-3, 1e-2, 0.1, 1.0, 10.0,
                    1e4 * (1 - 1e-9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in [1e3 * (1 + 1e-9), 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
                  1e15 * (1 - 1e-9)]:
            for t in temperatures:
                assert np.isfinite(kramers_kronig_real_part(
                    f, ThermalEnvironment(t), host))
            for t1, t2 in zip(temperatures[:-1], temperatures[1:]):
                cutoff = 400.0 * max(f, 2.0 * K_B * t2 / PLANCK)
                kk1, kk2 = (kramers_kronig_real_part(
                    f, ThermalEnvironment(t), host, f_cutoff=cutoff)
                    for t in (t1, t2))
                closed = -(host.delta_tls / np.pi) * (
                    permittivity_bracket(f, ThermalEnvironment(t2))
                    - permittivity_bracket(f, ThermalEnvironment(t1)))
                assert (abs(kk2 - kk1 - closed)
                        <= 1e-6 * max(abs(kk1), abs(kk2))), (f, t1, t2)


def _kk_tight_reference(f, t, host):
    """The Kramers-Kronig value at the default cut-off, tight: the Cauchy
    rule on [0, 2 f] and 400 log-spaced plain pieces on [2 f, cut-off]."""
    a = PLANCK / (2.0 * K_B * t)
    cutoff = 400.0 * max(f, 1.0 / a)
    near = _tight_quad(lambda x: x * np.tanh(a * x) / (x + f), 0.0, 2.0 * f,
                       weight="cauchy", wvar=f)
    edges = np.geomspace(2.0 * f, cutoff, 401)
    far = sum(_tight_quad(lambda x: x * np.tanh(a * x) / (x * x - f * f),
                          lo, hi) for lo, hi in zip(edges, edges[1:]))
    return host.delta_tls * (near + far) / np.pi


def test_kk_far_piece_on_many_decades():
    # at 1 MHz and 10 K the default cut-off lies five decades above 2 f,
    # with the tanh's structure near 2 f and its knee at 4e11 Hz; against
    # the Cauchy rule on [0, 2 f] and 400 log-spaced pieces above it, each
    # at epsrel 1e-13
    f, t = 1e6, 10.0
    host = TlsHostMaterial(intrinsic_loss=3e-5)
    want = _kk_tight_reference(f, t, host)
    got = kramers_kronig_real_part(f, ThermalEnvironment(t), host)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_kk_near_piece_below_the_thermal_knee():
    # at 100 GHz and 1 mK the knee 2kT/h sits in the first 0.02 % of
    # [0, 2 f], a bend far below the pole that the oracle's breakpoints at
    # the knee and its decades must resolve
    f, t = 1e11, 1e-3
    host = TlsHostMaterial(intrinsic_loss=3e-5)
    want = _kk_tight_reference(f, t, host)
    got = kramers_kronig_real_part(f, ThermalEnvironment(t), host)
    assert abs(got - want) <= 1e-12 * abs(want)


# --- spectral diffusion -------------------------------------------------------

RHO_V = 1e45 * 5e-23  # J^-1


def test_spectral_diffusion_unsaturated_limit():
    t = _tls(s=-0.7)
    drive = SaturationDrive(n_cav=0.0)
    closed = spectral_diffusion_loss_closed_form(t, drive, RHO_V)
    assert_allclose(closed, -TWO_PI * HBAR * RHO_V * t.g_perp**2 * t.s,
                    rtol=1e-14)
    for sigma in (0.05 * t.gamma2, 3.0 * t.gamma2):
        num = spectral_diffusion_loss(t, drive, sigma, RHO_V)
        assert abs(num - closed) <= 1e-3 * abs(closed)


def test_spectral_diffusion_saturated_zero_population():
    t = _tls(s=0.0)
    assert spectral_diffusion_loss(t, SaturationDrive(n_cav=10.0),
                                   t.gamma2, RHO_V) == 0.0


def test_spectral_diffusion_oracle_takes_one_relaxing_tls():
    # a bath and a coupled TLS with Gamma_1 = 0 are refused by name, before
    # any quadrature
    drive = SaturationDrive(n_cav=1.0)
    with pytest.raises(ValueError, match="^detuning must be a scalar"):
        spectral_diffusion_loss(_grid_bath(), drive, 16 * MHZ, RHO_V)
    frozen = _tls(detuning=3 * MHZ, gamma1=0.0, gamma2=0.0)
    with pytest.raises(ValueError,
                       match=r"^gamma1 must lie in \[6.28319, 6.28319e\+13\]$"):
        spectral_diffusion_loss(frozen, drive, 16 * MHZ, RHO_V)


# (n/n_s, sigma/Gamma_2): a strong drive, then the corners of the range the
# oracle takes (it refuses sigma above SD_SIGMA_MAX = 1e3 Gamma_2), where
# no warning may escape
STRONG_DRIVE = [(100.0, 10.0), (0.0, 1e-6), (0.0, 1e3), (1e8, 1e-6),
                (1e8, 1e3)]
CRITERION_4_GRID = [(n_rel, sigma_rel) for n_rel in (0.0, 1.0, 100.0)
                    for sigma_rel in (0.01, 1.0, 100.0)]


def _sd_case(n_rel, sigma_rel):
    """The TLS, drive and sigma_sd of one (n/n_s, sigma/Gamma_2) case."""
    t = _tls(s=-1.0)
    return (t, SaturationDrive(n_cav=n_rel * t.saturation_photon_number),
            sigma_rel * t.gamma2)


@pytest.mark.parametrize("n_rel, sigma_rel", STRONG_DRIVE)
def test_spectral_diffusion_strong_drive(n_rel, sigma_rel):
    t, drive, sigma = _sd_case(n_rel, sigma_rel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        num = spectral_diffusion_loss(t, drive, sigma, RHO_V)
    closed = spectral_diffusion_loss_closed_form(t, drive, RHO_V)
    assert abs(num - closed) <= 1e-3 * abs(closed)


@pytest.mark.parametrize("n_rel", [0.0, 1e8])
def test_spectral_diffusion_takes_vanishing_diffusion(n_rel):
    # at sigma_sd = 1e-305 Gamma_2 and below, Delta/sigma_sd and the inner
    # knots overflow to inf; the loss is the sigma -> 0 limit all the same
    t, drive, _ = _sd_case(n_rel, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [spectral_diffusion_loss(t, drive, sigma_rel * t.gamma2, RHO_V)
               for sigma_rel in (1e-12, 1e-305, 1e-315)]
    assert_allclose(got[1:], got[0], rtol=1e-14)


def _sd_tight_reference(t, drive, sigma_sd):
    """spectral_diffusion_loss's outer integral, with its [0, w, b_core]
    pieces and the inner integral tight; the inner integral is QUADPACK on
    the integrand and knots the oracle used before its Gauss-Legendre rule."""
    n_ratio = float(drive.n_cav / t.saturation_photon_number)
    s = float(sigma_sd / t.gamma2)
    w = math.sqrt(1.0 + n_ratio)
    b_core = 10.0 * max(s, w)
    b_far = max(4000.0 * w, 60.0 * s, 4.0 * b_core)

    def smeared(d):
        def f(u):
            m = d + s * u
            core = 1.0 / (1.0 + m * m)
            return (2.0 * core / (1.0 + n_ratio * core)
                    * math.exp(-0.5 * u * u) / math.sqrt(TWO_PI))
        feats = sorted((x - d) / s for x in (-30 * w, -w, 0.0, w, 30 * w))
        knots = [-12.0] + [u for u in feats if -12.0 < u < 12.0] + [12.0]
        return sum(_tight_quad(f, a, b)
                   for a, b in zip(knots, knots[1:]) if b > a)

    half = _tight_quad(smeared, 0.0, w) + _tight_quad(smeared, w, b_core)
    tail = quad(lambda x: smeared(1.0 / x) / x**2, 1.0 / b_far, 1.0 / b_core,
                limit=80)[0]
    return -HBAR * RHO_V * t.g_perp**2 * t.s * (2.0 * (half + tail))


@pytest.mark.parametrize("n_rel, sigma_rel", CRITERION_4_GRID + STRONG_DRIVE)
def test_spectral_diffusion_against_tight_reference(n_rel, sigma_rel):
    t, drive, sigma = _sd_case(n_rel, sigma_rel)
    want = _sd_tight_reference(t, drive, sigma)
    got = spectral_diffusion_loss(t, drive, sigma, RHO_V)
    assert abs(got - want) <= 1e-11 * abs(want)


def test_spectral_diffusion_inner_rule_failure_names_the_node(monkeypatch):
    # below the 16-node sum's own precision the two inner sums disagree;
    # the first outer node QUADPACK samples is the middle of [0, w]
    monkeypatch.setattr(tls, "SD_INNER_RTOL", 1e-15)
    t, drive, sigma = _sd_case(0.0, 1e3)
    with pytest.raises(tls.QuadratureError,
                       match=r"^quadrature failed on the spectral-diffusion "
                             r"inner integral at Delta = 0\.5 Gamma_2: "):
        spectral_diffusion_loss(t, drive, sigma, RHO_V)


def test_qk21_table_is_exact_on_monomials():
    # the 21-point Kronrod rule integrates x^k exactly on [-1, 1] up to
    # degree 31, and its embedded 10-point Gauss rule up to degree 19
    x, weights = tls._qk21_rule()
    for k in range(32):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        kronrod, gauss = x**k @ weights
        assert abs(kronrod - want) <= 1e-15, k
        if k < 20:
            assert abs(gauss - want) <= 1e-15, k
    # degree 32 is past the Kronrod rule, and 20 past the Gauss rule
    assert abs(x**32 @ weights[:, 0] - 2.0 / 33) > 1e-13
    assert abs(x**20 @ weights[:, 1] - 2.0 / 21) > 1e-7
    # the Gauss nodes are Gauss-Legendre's
    xg, wg = np.polynomial.legendre.leggauss(10)
    gauss = weights[:, 1] > 0
    order = np.argsort(x[gauss])
    assert_allclose(x[gauss][order], xg, rtol=0, atol=1e-15)
    assert_allclose(weights[gauss, 1][order], wg, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_rel, sigma_rel", CRITERION_4_GRID + STRONG_DRIVE)
def test_spectral_diffusion_outer_sum_matches_quad(n_rel, sigma_rel):
    # the batched qk21 sum and QUADPACK (scipy's quad at its defaults and
    # the oracle's limits) on the same outer integrand and pieces
    outer, pieces = tls._sd_outer(n_rel, sigma_rel)
    got = tls._adaptive_qk21(outer, pieces, tls.SD_OUTER_LIMITS)
    for i, ((a, b), limit) in enumerate(zip(pieces, tls.SD_OUTER_LIMITS)):
        val, err = quad(lambda x: outer(np.array([[x]]), np.array([i]))[0, 0],
                        a, b, limit=limit)
        assert abs(got[i][0] - val) <= 1e-13 * abs(val), (a, b)
        # the error estimate scales a difference of two near-equal sums
        assert_allclose(got[i][1], err, rtol=1e-3)


def test_spectral_diffusion_outer_failure_names_the_piece(monkeypatch):
    # one qk21 sum per piece: on [w, b_core] at sigma = 100 Gamma_2 its
    # error estimate is above 1e-5 of the value
    monkeypatch.setattr(tls, "SD_OUTER_LIMITS", (1, 1, 1))
    t, drive, sigma = _sd_case(0.0, 100.0)
    with pytest.raises(tls.QuadratureError,
                       match=r"^quadrature failed on segment \[1, 1000\]: "):
        spectral_diffusion_loss(t, drive, sigma, RHO_V)


def test_flat_band_saturation_independent_of_sigma():
    # integrated loss / unsaturated = 1/sqrt(1 + n/n_s) for any sigma
    t = _tls(s=-0.5)
    n_s = t.saturation_photon_number
    drive = SaturationDrive(n_cav=4.0 * n_s)
    unsat = spectral_diffusion_loss_closed_form(t, SaturationDrive(0.0), RHO_V)
    for sigma_rel in (0.01, 1.0, 100.0):
        num = spectral_diffusion_loss(t, drive, sigma_rel * t.gamma2, RHO_V)
        assert abs(num / unsat - 1.0 / np.sqrt(5.0)) < 1e-3 / np.sqrt(5.0)


# recorded with the inner window at +-50 Gaussians; the oracle integrates
# the even outer integrand over Delta >= 0 and doubles it
PINNED_50_SIGMA = [32693.14143393381, 32693.141433608504, 32694.875170438136,
                   23117.5420062255, 23117.54200611046, 23117.751496220426,
                   3253.089159155931, 3253.0891591556097, 3253.089155951481]


def _criterion_4_grid():
    return [spectral_diffusion_loss(*_sd_case(n_rel, sigma_rel), RHO_V)
            for n_rel, sigma_rel in CRITERION_4_GRID]


def test_spectral_diffusion_pinned_on_criterion_4_grid(monkeypatch):
    # the outer integral (nodes, knots, cut-off) does not depend on the
    # inner window: at +-50 Gaussians it reproduces the recorded values
    monkeypatch.setattr(tls, "SD_N_SIGMA", 50.0)
    assert_allclose(_criterion_4_grid(), PINNED_50_SIGMA, rtol=1e-13)


def test_spectral_diffusion_pinned_at_shipped_window():
    # the dropped tail is below 1e-23 of each inner integral, and the fixed
    # inner rule resolves both windows to rounding, so the values at +-50
    # Gaussians pin the shipped window too
    assert tls.SD_N_SIGMA == 12.0
    assert_allclose(_criterion_4_grid(), PINNED_50_SIGMA, rtol=1e-13)


def test_spectral_diffusion_needs_no_scipy():
    # a process in which scipy cannot be imported computes the pinned grid
    script = """
import json, sys
sys.modules["scipy"] = None
from optoresp.constants import TWO_PI
from optoresp.tls import SaturationDrive, TlsUnit, spectral_diffusion_loss
MHZ = TWO_PI * 1e6
t = TlsUnit(detuning=0.0, g_perp=5 * MHZ, g_par=5 * MHZ, gamma1=16 * MHZ,
            gamma2=16 * MHZ, s=-1.0)
print(json.dumps([spectral_diffusion_loss(
    t, SaturationDrive(n_cav=n * t.saturation_photon_number),
    sigma * t.gamma2, %r) for n, sigma in %r]))
""" % (RHO_V, CRITERION_4_GRID)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(tls.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert_allclose(got, PINNED_50_SIGMA, rtol=1e-13)


@pytest.mark.parametrize("field,value,message", [
    ("sigma_sd", np.inf, "sigma_sd must lie in [4.94066e-324, 6.28319e+16]"),
    ("sigma_sd", np.nan, "sigma_sd must lie in [4.94066e-324, 6.28319e+16]"),
    ("sigma_sd", 0.0, "sigma_sd must lie in [4.94066e-324, 6.28319e+16]"),
    # 1e3 Gamma_2 is the widest diffusion the oracle's tests cover
    ("sigma_sd", 1e4 * 16 * MHZ, "sigma_sd must be at most 1000 gamma2"),
    ("sigma_sd", 1e300 * 16 * MHZ,
     "sigma_sd must lie in [4.94066e-324, 6.28319e+16]"),
    # the domain of n_cav bounds the outer cut-off
    ("n_cav", 1e305, "n_cav must lie in [0, 1e+15]"),
    ("n_cav", np.nan, "n_cav must lie in [0, 1e+15]"),
    ("rho_v", np.nan, "rho_v must lie in [0, 1e+55]"),
    ("rho_v", np.inf, "rho_v must lie in [0, 1e+55]"),
])
def test_spectral_diffusion_refuses_bad_input(field, value, message):
    kwargs = {"sigma_sd": 16 * MHZ, "n_cav": 1.0, "rho_v": RHO_V, field: value}
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        spectral_diffusion_loss(_tls(s=-1.0),
                                SaturationDrive(n_cav=kwargs["n_cav"]),
                                kwargs["sigma_sd"], kwargs["rho_v"])


def test_quadrature_oracle_against_scipy_direct():
    # independent single-integral route: Fubini collapses the Gaussian
    t = _tls(s=-1.0)
    n_ratio = 2.0
    drive = SaturationDrive(n_cav=n_ratio * t.saturation_photon_number)
    g2 = t.gamma2

    def lor_sat(mu):
        core = 1.0 / (1.0 + (mu / g2) ** 2)
        return 2.0 * core / (1.0 + n_ratio * core) / g2

    direct = sum(quad(lor_sat, a, b, limit=300)[0]
                 for a, b in [(-1e5 * g2, -g2), (-g2, g2), (g2, 1e5 * g2)])
    closed = spectral_diffusion_loss_closed_form(t, drive, RHO_V)
    assert_allclose(-HBAR * RHO_V * t.g_perp**2 * t.s * direct, closed,
                    rtol=1e-4)
