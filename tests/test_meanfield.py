import gc
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose
from scipy.integrate import ode

from optoresp import meanfield
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


@pytest.mark.parametrize("mode", ["transverse", "longitudinal"])
def test_oracle_takes_one_relaxing_tls(mode):
    # a bath and a TLS that does not relax (gamma1 = 0) are refused by name
    bath = _tls(detuning=np.array([0.0, G2]), s=np.array([-1.0, -0.5]))
    with pytest.raises(ValueError, match="^detuning must be a scalar"):
        steady_state_by_integration(bath, TWO_PI * 7e9, G2 / 100, mode)
    with pytest.raises(ValueError, match=r"^gamma1 must lie in \[6.28319, 6.28319e\+13\]$"):
        steady_state_by_integration(_tls(gamma1=0.0), TWO_PI * 7e9, G2 / 100,
                                    mode)


def test_decoupled_tls_leaves_cavity_alone():
    t = _tls(g_perp=0.0, g_par=0.0, s=-0.8)
    res = steady_state_by_integration(t, omega_r=TWO_PI * 7e9,
                                      kappa_tot=G2 / 100, mode="transverse")
    assert abs(res.extra_loss) < 1e-6 * G2
    assert abs(res.shift) < 1e-6 * G2
    # population relaxes to S at rate Gamma_1, from a start off S that only
    # the integrator takes
    times, cavity, sigma_z = meanfield._integrate_transverse(
        t, G2 / 100, meanfield.HORIZON / (G2 / 100), -0.2)
    mask = sigma_z - t.s > 1e-6
    rate = -np.polyfit(times[mask], np.log(sigma_z[mask] - t.s), 1)[0]
    assert_allclose(rate, t.gamma1, rtol=1e-3)
    # with no coupling e^(kappa t/2) c stays at the seed, so the frame's
    # factor alone makes the bare decay
    assert_allclose(cavity, meanfield.SEED_AMPLITUDE
                    * np.exp(-0.5 * (G2 / 100) * times), rtol=1e-14, atol=0)


def test_transverse_resonant_example():
    # extra loss within 1% of 2 g^2/Gamma_2 at Delta = 0, S = -1
    t = _tls()
    res = steady_state_by_integration(t, omega_r=TWO_PI * 7e9,
                                      kappa_tot=G2 / 150, mode="transverse")
    assert abs(res.extra_loss - 2 * t.g_perp**2 / G2) < 0.01 * 2 * t.g_perp**2 / G2
    assert abs(res.shift) < 0.01 * res.extra_loss


def test_transverse_bitwise_for_numpy_and_python_float_fields():
    fields = dict(detuning=1.3 * G2, g_perp=G2 / 11, g_par=0.0,
                  gamma1=0.7 * G2, gamma2=G2, s=-0.45)
    runs = [steady_state_by_integration(
                TlsUnit(**{k: conv(v) for k, v in fields.items()}),
                omega_r=TWO_PI * 7e9, kappa_tot=G2 / 150, mode="transverse")
            for conv in (np.float64, float)]
    for name in ("t", "cavity_field", "sigma_z", "extra_loss", "shift"):
        a, b = (np.asarray(getattr(r, name)) for r in runs)
        assert a.tobytes() == b.tobytes(), name


def _transverse_dop853(rtol, atol):
    # meanfield._integrate_transverse's contract on Fortran DOP853, stepped
    # to each sample, with the right-hand side written out in complex form
    def integrate(t, kappa, t_end, sz_init):
        g, g1, g2, delta, s0 = t.g_perp, t.gamma1, t.gamma2, t.detuning, t.s

        def rhs(_t, y):
            s, c, sz = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4]
            ds = (1j * delta - g2) * s + 1j * g * sz * c
            dc = -0.5 * kappa * c - 1j * g * s
            dsz = -4.0 * g * (s * c.conjugate()).imag - g1 * (sz - s0)
            return [ds.real, ds.imag, dc.real, dc.imag, dsz]

        times = np.linspace(0.0, t_end, meanfield.N_SAMPLES)
        solver = ode(rhs).set_integrator("dop853", rtol=rtol, atol=atol)
        solver.set_initial_value([0.0, 0.0, meanfield.SEED_AMPLITUDE, 0.0,
                                  sz_init])
        y = [solver.y]
        for tk in times[1:]:
            y.append(solver.integrate(tk))
            assert solver.successful()
        y = np.array(y)
        return times, y[:, 2] + 1j * y[:, 3], y[:, 4]

    return integrate


# (Gamma_2 / 2pi MHz, then Gamma_1, Delta, g_perp in Gamma_2, S) from
# criterion 5's ranges: two strong-loss draws, whose |c| ends near 1e-16
# and 6e-18, two more near the strongest coupling, two weak-loss ones
TIGHT_REFERENCE_DRAWS = [(19.39, 0.525, 0.159, 0.1019, -0.94),
                         (24.41, 1.695, 0.059, 0.1089, -0.93),
                         (23.17, 0.780, 0.903, 0.1061, -0.87),
                         (10.42, 0.925, 0.766, 0.0794, -0.90),
                         (29.31, 1.640, 1.477, 0.0579, -0.20),
                         (25.43, 1.587, -2.899, 0.1099, -0.56)]


def _reference_tls(draw):
    g2_mhz, g1, delta, g, s = draw
    g2 = g2_mhz * MHZ
    return _tls(detuning=delta * g2, g_perp=g * g2, g_par=0.0, gamma1=g1 * g2,
                gamma2=g2, s=s)


@pytest.mark.parametrize("draw", TIGHT_REFERENCE_DRAWS)
def test_transverse_matches_tight_dop853_reference(draw, monkeypatch):
    t = _reference_tls(draw)

    def solve():
        return steady_state_by_integration(t, TWO_PI * 7e9,
                                           kappa_tot=t.gamma2 / 150,
                                           mode="transverse")

    res = solve()
    monkeypatch.setattr(meanfield, "_integrate_transverse", _transverse_dop853(
        rtol=1e-13, atol=1e-22 * meanfield.SEED_AMPLITUDE))
    ref = solve()
    assert res.t.tobytes() == ref.t.tobytes()
    err = (abs(complex(res.extra_loss - ref.extra_loss, res.shift - ref.shift))
           / abs(complex(ref.extra_loss, ref.shift)))
    assert err < 1e-10
    # LSODA on (s, c) rather than on the frame of the bare decay strayed from
    # this reference by 2.4e-10 in (loss, shift) and 1.5e-8 of |c| on the
    # second draw
    c_ref = ref.cavity_field
    assert np.max(np.abs(res.cavity_field - c_ref) / np.abs(c_ref)) < 5e-9


@pytest.mark.parametrize("draw", TIGHT_REFERENCE_DRAWS[:3])
def test_transverse_back_action_matches_tight_dop853_reference(draw,
                                                               monkeypatch):
    # at the real seed sigma_z moves by about 1e-8, too little for the fit to
    # see a wrong factor on its row; a seed of 0.3 moves it by 2-6e-3
    monkeypatch.setattr(meanfield, "SEED_AMPLITUDE", 0.3)
    t = _reference_tls(draw)
    kappa = t.gamma2 / 150
    _, c, sigma_z = meanfield._integrate_transverse(t, kappa, 3 / kappa, t.s)
    _, c_ref, sigma_z_ref = _transverse_dop853(1e-13, 1e-22 * 0.3)(
        t, kappa, 3 / kappa, t.s)
    assert np.max(np.abs(sigma_z - sigma_z_ref)) < 1e-9
    assert np.max(np.abs(c - c_ref) / np.abs(c_ref)) < 1e-8


@pytest.mark.parametrize("draw", TIGHT_REFERENCE_DRAWS)
def test_transverse_does_not_depend_on_frame(draw, monkeypatch):
    # (s~, c~) = e^(-mu t) (s, c) is exact for any mu, so the frame shapes
    # LSODA's steps only: the bare decay's frame and a mu off the slowest
    # mode give the same trajectory and fit
    t = _reference_tls(draw)
    kappa = t.gamma2 / 150

    def solve():
        return steady_state_by_integration(t, TWO_PI * 7e9, kappa_tot=kappa,
                                           mode="transverse")

    res, mu = solve(), meanfield._frame(t, kappa)
    for frame in (complex(-0.5 * kappa), mu * (1.05 - 0.05j)):
        monkeypatch.setattr(meanfield, "_frame", lambda tls, kappa: frame)
        other = solve()
        err = (abs(complex(res.extra_loss - other.extra_loss,
                           res.shift - other.shift))
               / abs(complex(other.extra_loss, other.shift)))
        assert err < 1e-10
        c_other = other.cavity_field
        assert (np.max(np.abs(res.cavity_field - c_other) / np.abs(c_other))
                < 5e-9)


def test_transverse_tight_reference_call_count(monkeypatch):
    # in the frame of the slowest linear mode LSODA steps by the TLS
    # transient and the nonlinearity: 10952 right-hand-side calls over these
    # draws, against 34035 in the frame of the bare cavity decay
    odeint, calls = scipy.integrate.odeint, [0]

    def counting(rhs, *args, **kwargs):
        def counted(*xs):
            calls[0] += 1
            return rhs(*xs)
        return odeint(counted, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "odeint", counting)
    for draw in TIGHT_REFERENCE_DRAWS:
        t = _reference_tls(draw)
        steady_state_by_integration(t, TWO_PI * 7e9, kappa_tot=t.gamma2 / 150,
                                    mode="transverse")
    assert 0 < calls[0] <= 16000


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
    omega_r, seed = 16 * MHZ, meanfield.SEED_AMPLITUDE
    kappa = 0.005 * omega_r
    t = _tls(g_par=0.5 * MHZ, s=0.0, ds=10.0 / (TWO_PI * 400e6))
    res = steady_state_by_integration(t, omega_r=omega_r, kappa_tot=kappa,
                                      mode="longitudinal")
    g, g1 = t.g_par, t.gamma1

    def rhs(_t, y):
        c = y[0] + 1j * y[1]
        dc = -(1j * omega_r + 0.5 * kappa) * c - 1j * g * y[2]
        dsz = -g1 * (y[2] - (t.s - t.ds * g * 2.0 * y[0]))
        return [dc.real, dc.imag, dsz]

    # S = 0 puts the fixed point at the origin, so no displacement to remove
    solver = ode(rhs).set_integrator("dop853", rtol=1e-10, atol=1e-16,
                                     max_step=0.05 * TWO_PI / omega_r)
    solver.set_initial_value([seed, 0.0, 0.0])
    ref = np.array([solver.y] + [solver.integrate(tk) for tk in res.t[1:]])
    assert solver.successful()
    c_ref = (ref[:, 0] + 1j * ref[:, 1]) * np.exp(1j * omega_r * res.t)
    assert np.max(np.abs(res.cavity_field - c_ref)) < 1e-6 * np.max(np.abs(c_ref))
    assert (np.max(np.abs(res.sigma_z - ref[:, 2]))
            < 1e-6 * np.max(np.abs(ref[:, 2])))


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


def test_transverse_matches_cavity_branch_eigenvalue():
    # linear response at the relaxed population: the cavity-branch
    # eigenvalue lambda of the (s, c) matrix gives extra loss
    # -2 Re lambda - kappa and shift -Im lambda, independently of the
    # closed form and of the time-domain fit
    rng = np.random.default_rng(56)
    worst = 0.0
    for _ in range(40):
        g2 = rng.uniform(8, 32) * MHZ
        t = _tls(detuning=rng.uniform(-3, 3) * g2,
                 g_perp=rng.uniform(g2 / 20, g2 / 9), g_par=0.0,
                 gamma1=rng.uniform(0.5, 2.0) * g2, gamma2=g2,
                 s=rng.uniform(-1.0, -0.2))
        kappa = g2 / 150
        res = steady_state_by_integration(t, TWO_PI * 7e9, kappa_tot=kappa,
                                          mode="transverse")
        mat = np.array([[1j * t.detuning - g2, 1j * t.g_perp * t.s],
                        [-1j * t.g_perp, -0.5 * kappa]])
        lam = np.linalg.eigvals(mat)
        lam = lam[np.argmax(lam.real)]      # kappa/2 << Gamma_2: slowest
        loss, shift = -2.0 * lam.real - kappa, -lam.imag
        err = (abs(complex(res.extra_loss - loss, res.shift - shift))
               / abs(complex(loss, shift)))
        worst = max(worst, err)
    assert worst < 1e-7


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


def test_unsettled_decay_raises(monkeypatch):
    # a horizon too short to outlive the TLS transient leaves a bent trace
    monkeypatch.setattr(meanfield, "HORIZON", 1.0)
    monkeypatch.setattr(meanfield, "RESIDUAL_TOL", 1e-9)
    t = _tls(g_perp=G2 / 4, gamma1=G2 / 50, gamma2=G2 / 2, detuning=0.2 * G2)
    with pytest.raises(OdeConvergenceError) as raised:
        steady_state_by_integration(t, TWO_PI * 7e9, kappa_tot=G2 * 2.0,
                                    mode="transverse")
    _assert_holds_no_trajectory(raised.value)


def test_unsettled_longitudinal_decay_raises(monkeypatch):
    # a strongly coupled population relaxing at Gamma_1 = 5 kappa: over
    # HORIZON its transient has settled (fit residual 7.9e-7), over one
    # 1/kappa it bends the trace (1.6e-4)
    monkeypatch.setattr(meanfield, "RESIDUAL_TOL", 1e-5)
    omega_r = 16 * MHZ
    t = _tls(g_perp=0.0, g_par=4 * MHZ, gamma1=G2 / 10, gamma2=G2 / 10,
             s=-0.5, ds=10.0 / (TWO_PI * 400e6))
    res = steady_state_by_integration(t, omega_r, kappa_tot=0.02 * omega_r,
                                      mode="longitudinal")
    assert res.fit_residual < 1e-6
    monkeypatch.setattr(meanfield, "HORIZON", 1.0)
    with pytest.raises(OdeConvergenceError) as raised:
        steady_state_by_integration(t, omega_r, kappa_tot=0.02 * omega_r,
                                    mode="longitudinal")
    _assert_holds_no_trajectory(raised.value)


def test_longitudinal_fits_the_counter_rotating_ripple():
    # a draw of criterion 5's ranges whose demodulated field ripples at
    # 2 omega, from the counter-rotating part of the lab-frame field: fitted
    # on t and 1 alone, its log amplitude leaves a residual of 2.0e-3, above
    # RESIDUAL_TOL
    g1 = 8.8 * MHZ
    omega_r, kappa = 0.53 * g1, 0.005 * 0.53 * g1
    t = _tls(g_perp=0.0, g_par=0.73 * MHZ, gamma1=g1, gamma2=g1, s=-0.26,
             ds=1.6 * 10 / (TWO_PI * 400e6))
    res = steady_state_by_integration(t, omega_r, kappa_tot=kappa,
                                      mode="longitudinal")
    assert res.fit_residual < 1e-5
    mat = np.array([[-0.5 * kappa, omega_r, 0.0],
                    [-omega_r, -0.5 * kappa, -t.g_par],
                    [-2.0 * g1 * t.ds * t.g_par, 0.0, -g1]])
    lam = np.linalg.eigvals(mat)
    lam = lam[np.argmin(lam.imag)]
    loss, shift = -2.0 * lam.real - kappa, -(lam.imag + omega_r)
    assert (abs(complex(res.extra_loss - loss, res.shift - shift))
            < 1e-8 * abs(complex(loss, shift)))


def _assert_holds_no_trajectory(err):
    # the frames of a kept error hold the fit's coefficients, not the
    # trajectory
    tb = err.__traceback__
    while tb is not None:
        assert all(np.size(v) <= 2 for v in tb.tb_frame.f_locals.values()
                   if isinstance(v, np.ndarray))
        tb = tb.tb_next


def test_cavity_field_near_atol_raises(monkeypatch):
    # a decoupled TLS that dephases slower than the cavity decays (kappa/2 =
    # 10 Gamma_2) is the slowest mode, so LSODA's c~ = e^(-mu t) c falls as
    # e^(-(kappa/2 - Gamma_2) t), to 1.8e-7: past 1e6 ATOL at ATOL = 1e-12.
    # A fit through those samples read an extra loss of -1.4e-6 Gamma_2
    monkeypatch.setattr(meanfield, "ATOL", 1e-12)
    t = _tls(g_perp=0.0)
    message = (r"^cavity field e\^\(-mu t\) \|c\| fell below 1e\+06 ATOL "
               r"at t = [1-9]\S* s of \S+ s$")
    with pytest.raises(OdeConvergenceError, match=message) as raised:
        steady_state_by_integration(t, TWO_PI * 7e9, kappa_tot=20 * G2,
                                    mode="transverse")
    _assert_holds_no_trajectory(raised.value)


def test_transverse_solve_leaves_no_memory_behind(monkeypatch):
    # each solve's integrator, work arrays and rhs closure are freed with
    # it; a leak of about 2 kB per solve would read 60 kB here
    monkeypatch.setattr(meanfield, "N_SAMPLES", 40)
    t = _tls(detuning=0.3 * G2, g_perp=G2 / 12, s=-0.6)

    def solve():
        meanfield._integrate_transverse(t, G2 / 150, 2 / G2, t.s)

    solve()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(30):
            solve()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 4096


def test_integrator_failure_names_return_code_and_time():
    # a TLS detuned by 1e4 Gamma_2 forces steps far below the sample
    # spacing, so LSODA's step budget runs out before the first sample
    t = _tls(detuning=1e4 * G2, g_perp=G2 / 12, s=-0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no scipy warning escapes
        with pytest.raises(OdeConvergenceError,
                           match=r"^LSODA stopped at t = [1-9]\S* s of \S+ s: "
                                 r"Excess work done on this call\.$"):
            steady_state_by_integration(t, TWO_PI * 7e9, kappa_tot=G2 / 150,
                                        mode="transverse")
