import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from optoresp.constants import TWO_PI
from optoresp.meanfield import OdeConvergenceError, steady_state_by_integration
from optoresp.tls import (TlsUnit, longitudinal_complex_shift,
                          transverse_complex_shift)

MHZ = TWO_PI * 1e6
G2 = 16 * MHZ


def _tls(**kw):
    base = dict(detuning=0.0, g_perp=0.5 * MHZ, g_par=0.5 * MHZ,
                gamma1=16 * MHZ, gamma2=16 * MHZ, s=-1.0, ds=0.0, x=0.0)
    base.update(kw)
    return TlsUnit(**base)


def test_decoupled_tls_leaves_cavity_alone():
    t = _tls(g_perp=0.0, g_par=0.0, s=-0.8)
    res = steady_state_by_integration(t, omega_r=TWO_PI * 7e9,
                                      kappa_tot=G2 / 100, mode="transverse",
                                      sz0=-0.2)
    assert abs(res.extra_loss) < 1e-6 * G2
    assert abs(res.shift) < 1e-6 * G2
    # population relaxes to S at rate Gamma_1
    mask = res.sigma_z - t.s > 1e-6
    rate = -np.polyfit(res.t[mask], np.log(res.sigma_z[mask] - t.s), 1)[0]
    assert_allclose(rate, t.gamma1, rtol=1e-3)


def test_transverse_resonant_example():
    # extra loss within 1% of 2 g^2/Gamma_2 at Delta = 0, S = -1
    t = _tls()
    res = steady_state_by_integration(t, omega_r=TWO_PI * 7e9,
                                      kappa_tot=G2 / 150, mode="transverse")
    assert abs(res.extra_loss - 2 * t.g_perp**2 / G2) < 0.01 * 2 * t.g_perp**2 / G2
    assert abs(res.shift) < 0.01 * res.extra_loss


def test_transverse_detuned_matches_closed_form():
    t = _tls(detuning=1.7 * G2, s=-0.6, g_perp=G2 / 12)
    res = steady_state_by_integration(t, omega_r=TWO_PI * 7e9,
                                      kappa_tot=G2 / 200, mode="transverse")
    loss, shift = transverse_complex_shift(t)
    assert abs(res.extra_loss - loss) < 0.02 * loss
    assert abs(res.shift - shift) < 0.02 * abs(shift)


def test_longitudinal_matches_closed_form():
    # omega_r comparable to Gamma_1 keeps the lab-frame integration cheap
    omega_r = 16 * MHZ
    t = _tls(g_par=0.5 * MHZ, s=0.0, ds=10.0 / (TWO_PI * 400e6))
    res = steady_state_by_integration(t, omega_r=omega_r,
                                      kappa_tot=0.005 * omega_r,
                                      mode="longitudinal")
    loss, shift = longitudinal_complex_shift(t, omega_r)
    assert abs(res.extra_loss - loss) < 0.02 * loss
    assert abs(res.shift - shift) < 0.02 * abs(shift)


def test_longitudinal_trajectory_matches_dop853():
    # the exact propagation reproduces a step-limited DOP853 solve of the
    # same lab-frame equations, sample for sample
    omega_r, seed = 16 * MHZ, 1e-4
    kappa = 0.005 * omega_r
    t = _tls(g_par=0.5 * MHZ, s=0.0, ds=10.0 / (TWO_PI * 400e6))
    res = steady_state_by_integration(t, omega_r=omega_r, kappa_tot=kappa,
                                      mode="longitudinal",
                                      seed_amplitude=seed)
    g, g1 = t.g_par, t.gamma1

    def rhs(_t, y):
        c = y[0] + 1j * y[1]
        dc = -(1j * omega_r + 0.5 * kappa) * c - 1j * g * y[2]
        dsz = -g1 * (y[2] - (t.s - t.ds * g * 2.0 * y[0]))
        return [dc.real, dc.imag, dsz]

    # S = 0 puts the fixed point at the origin, so no displacement to remove
    ref = solve_ivp(rhs, (0.0, res.t[-1]), [seed, 0.0, 0.0], t_eval=res.t,
                    method="DOP853", rtol=1e-10, atol=1e-16,
                    max_step=0.05 * TWO_PI / omega_r)
    c_ref = (ref.y[0] + 1j * ref.y[1]) * np.exp(1j * omega_r * ref.t)
    assert res.t.size == ref.t.size
    assert np.max(np.abs(res.cavity_field - c_ref)) < 1e-6 * np.max(np.abs(c_ref))
    assert (np.max(np.abs(res.sigma_z - ref.y[2]))
            < 1e-6 * np.max(np.abs(ref.y[2])))


def test_longitudinal_matches_cavity_branch_eigenvalue():
    # linear response: the cavity-branch eigenvalue lambda of the 3x3
    # longitudinal matrix gives extra loss -2 Re lambda - kappa and shift
    # -(Im lambda + omega_r), independently of the time-domain fit
    rng = np.random.default_rng(55)
    worst, checked = 0.0, 0
    for _ in range(40):
        g1 = rng.uniform(8, 25) * MHZ
        omega_r = rng.uniform(0.5, 3.0) * g1
        kappa = 0.005 * omega_r
        t = _tls(g_perp=0.0, g_par=rng.uniform(0.2, 0.8) * MHZ, gamma1=g1,
                 gamma2=g1, s=rng.uniform(-0.5, 0.0),
                 ds=rng.uniform(0.5, 2.0) * 10 / (TWO_PI * 400e6))
        try:
            res = steady_state_by_integration(t, omega_r, kappa_tot=kappa,
                                              mode="longitudinal")
        except OdeConvergenceError:
            continue
        mat = np.array([[-0.5 * kappa, omega_r, 0.0],
                        [-omega_r, -0.5 * kappa, -t.g_par],
                        [-2.0 * g1 * t.ds * t.g_par, 0.0, -g1]])
        lam = np.linalg.eigvals(mat)
        lam = lam[np.argmin(lam.imag)]
        loss, shift = -2.0 * lam.real - kappa, -(lam.imag + omega_r)
        err = (abs(complex(res.extra_loss - loss, res.shift - shift))
               / abs(complex(loss, shift)))
        worst = max(worst, err)
        checked += 1
    assert checked >= 30
    assert worst < 1e-6


def test_longitudinal_static_population_offset_is_removed():
    # a nonzero S only displaces the fixed point; the extracted rates match
    omega_r = 20 * MHZ
    t = _tls(g_par=0.4 * MHZ, s=-0.5, ds=5.0 / (TWO_PI * 400e6), gamma1=10 * MHZ,
             gamma2=10 * MHZ)
    res = steady_state_by_integration(t, omega_r=omega_r,
                                      kappa_tot=0.005 * omega_r,
                                      mode="longitudinal")
    loss, shift = longitudinal_complex_shift(t, omega_r)
    assert abs(res.extra_loss - loss) < 0.02 * loss
    assert abs(res.shift - shift) < 0.02 * abs(shift)


def test_invalid_mode_and_kappa():
    t = _tls()
    with pytest.raises(ValueError):
        steady_state_by_integration(t, TWO_PI * 7e9, G2 / 100, "sideways")
    with pytest.raises(ValueError):
        steady_state_by_integration(t, TWO_PI * 7e9, 0.0, "transverse")


def test_unsettled_decay_raises():
    # a horizon too short to outlive the TLS transient leaves a bent trace
    t = _tls(g_perp=G2 / 4, gamma1=G2 / 50, gamma2=G2 / 2, detuning=0.2 * G2)
    with pytest.raises(OdeConvergenceError):
        steady_state_by_integration(t, TWO_PI * 7e9, kappa_tot=G2 * 2.0,
                                    mode="transverse", horizon=1.0,
                                    residual_tol=1e-9)
