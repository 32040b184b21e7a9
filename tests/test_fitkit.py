import collections
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from optoresp.fitkit import (ComplexTrace, Identity, Log, NoDipError,
                             PowerSeries, SingularJacobianError, fit_full_s21,
                             fit_lorentzian_dip, fit_power_frequency,
                             fit_power_inverse_q, fit_tls_saturation,
                             levenberg_marquardt,
                             synth_power_series, synth_tls_saturation,
                             synth_trace)
from optoresp.fitkit import models
from optoresp.fitkit.engine import _remember_last
from optoresp.resonator import LineCalibration, ResonatorMode, notch

# --- engine ------------------------------------------------------------------


def test_linear_model_exact_recovery():
    x = np.linspace(0, 10, 30)
    y = 3.7 * x

    def resid(p):
        return p[0] * x - y

    fit = levenberg_marquardt(resid, [1.0], jac=lambda p: x[None, :])
    assert fit.converged
    assert abs(fit.values[0] - 3.7) < 1e-12
    # one step to the optimum, one Jacobian there to confirm it
    assert fit.iterations <= 2


def test_zero_residual_start_returns_immediately():
    def resid(p):
        return np.zeros(5)

    fit = levenberg_marquardt(resid, [2.0, 3.0],
                              jac=lambda p: np.zeros((2, 5)))
    assert fit.converged and fit.iterations == 0 and fit.nfev == 1
    assert_allclose(fit.values, [2.0, 3.0])
    assert fit.message == "zero residual"
    # a zero Jacobian at a zero residual has no covariance
    assert fit.flags == ["zero_jacobian"] and fit.covariance is None
    assert np.isnan(fit.uncertainty("p0"))


def test_rosenbrock_valley():
    # residuals (1-x, 10(y-x^2)) with optimum at (1, 1)
    def resid(p):
        return np.array([1.0 - p[0], 10.0 * (p[1] - p[0] ** 2)])

    def jac(p):
        return np.array([[-1.0, -20.0 * p[0]], [0.0, 10.0]])

    fit = levenberg_marquardt(resid, [-1.2, 1.0], jac=jac)
    assert fit.converged
    assert np.max(np.abs(fit.values - 1.0)) < 1e-8


def test_final_cost_not_above_initial():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 40)
    y = 2.0 * np.exp(-3.0 * x) + 0.01 * rng.standard_normal(40)

    def resid(p):
        return p[0] * np.exp(-p[1] * x) - y

    def jac(p):
        e = np.exp(-p[1] * x)
        return np.stack([e, -p[0] * x * e])

    start = [0.5, 0.5]
    fit = levenberg_marquardt(resid, start, jac=jac, transforms=[Log(), Log()])
    assert fit.converged
    assert fit.cost <= 0.5 * float(resid(start) @ resid(start))
    assert abs(fit.values[1] - 3.0) < 0.1


def test_non_finite_residual_is_never_converged():
    # sqrt(p) turns NaN for p < 0, which the first Gauss-Newton step from
    # p = 4 reaches; a fit may stop there only unconverged
    x = np.linspace(0.1, 1.0, 20)
    for target in (0.5, 0.0):
        calls = []

        def resid(p, target=target, calls=calls):
            calls.append(float(p[0]))
            with np.errstate(invalid="ignore"):
                return np.sqrt(p[0]) * x - target * x

        def jac(p):
            with np.errstate(invalid="ignore", divide="ignore"):
                return (0.5 / np.sqrt(p[0]) * x)[None, :]

        fit = levenberg_marquardt(resid, [4.0], jac=jac,
                                  transforms=[Identity()])
        # the start point is evaluated once: leastsq's check of it and
        # lmder's first call read the engine's memo
        assert calls.count(4.0) == 1 and fit.nfev == len(calls)
        assert not fit.converged or (np.all(np.isfinite(fit.values))
                                     and np.isfinite(fit.cost))
        if target:
            assert fit.converged
            assert abs(fit.values[0] - 0.25) < 1e-8


def test_fewer_residuals_than_parameters_refused():
    # MINPACK takes no fit with fewer residuals than parameters
    with pytest.raises(ValueError, match=re.escape(
            "Method 'lm' doesn't work when the number of residuals is less "
            "than the number of variables.")):
        levenberg_marquardt(lambda p: np.array([p[0] + p[1] - 1.0]),
                            [0.0, 0.0], jac=lambda p: np.ones((1, 2)))


@pytest.mark.parametrize("residual, x0, jac", [
    (lambda p: p[0] * np.ones(5) - 1.0, [2.0], np.ones((5, 1))),
    (lambda p: np.zeros(5), [2.0, 3.0], np.zeros((5, 2))),
    (lambda p: p[0] + p[1] * np.arange(5.0), [1.0, 1.0], np.ones((5, 2))),
], ids=["one-parameter", "zero-residual", "two-parameter"])
def test_residual_major_jacobian_refused(residual, x0, jac):
    # the engine takes one row per parameter; an (m, n) Jacobian is refused,
    # also where n = 1 gives it the same memory and at a zero-residual start
    # that leastsq never sees
    with pytest.raises(ValueError, match=re.escape(
            f"jac must return an (n, m) = ({len(x0)}, 5) array, one row per "
            f"parameter, not (5, {len(x0)})")):
        levenberg_marquardt(residual, x0, jac=lambda p: jac.copy())


# --- covariance outcomes -----------------------------------------------------

_LINE_X = np.linspace(1.0, 2.0, 20)
_LINE_Y = 3.0 * _LINE_X + 0.01 * np.sin(7.0 * _LINE_X)


@pytest.mark.parametrize("eps, flags", [
    (0.0, ["rank_deficient"]), (1e-10, []), (1e-14, ["rank_deficient"]),
], ids=["identical", "eps=1e-10", "eps=1e-14"])
def test_jacobian_rank_check(eps, flags):
    # the Jacobian rows x and x + eps x^2 have singular values in the ratio
    # of about 0.14 eps: above the 1e-12 rank threshold at 1e-10, below it
    # at 1e-14; a rank-deficient fit keeps a pseudoinverse covariance
    x = _LINE_X
    row = x + eps * x ** 2

    def resid(p):
        return p[0] * x + p[1] * row - _LINE_Y

    fit = levenberg_marquardt(resid, [1.0, 1.0],
                              jac=lambda p: np.stack([x, row]))
    assert fit.converged and fit.flags == flags
    assert np.all(np.isfinite(fit.covariance))


def test_zero_jacobian_at_nonzero_residual_raises():
    with pytest.raises(SingularJacobianError, match="identically zero"):
        levenberg_marquardt(lambda p: _LINE_Y + 0.0 * p[0], [2.0],
                            jac=lambda p: np.zeros((1, 20)))


def test_infinite_jacobian_at_solution_flagged():
    # sqrt(p) x vanishes at p = 0, where its derivative is infinite
    def jac(p):
        with np.errstate(divide="ignore"):
            return (0.5 / np.sqrt(p[0]) * _LINE_X)[None, :]

    fit = levenberg_marquardt(lambda p: np.sqrt(p[0]) * _LINE_X, [0.0],
                              jac=jac)
    assert fit.flags == ["jacobian_nonfinite"] and fit.covariance is None


# --- last-point memo ---------------------------------------------------------


def _counting_memo():
    calls = []

    def f(uv):
        calls.append(uv.tolist())
        return uv * 2.0
    return _remember_last(f), calls


def test_memo_point_holding_nan_is_evaluated_every_time():
    g, calls = _counting_memo()
    for _ in range(3):
        g(np.array([1.0, np.nan]))
    assert len(calls) == 3


def test_memo_serves_negative_zero_from_zero():
    g, calls = _counting_memo()
    first = g(np.array([0.0]))
    assert g(np.array([-0.0])) is first and len(calls) == 1


def test_memo_returns_the_remembered_object():
    g, calls = _counting_memo()
    u = np.array([1.5, -2.0])
    first = g(u)
    assert g(u.copy()) is first and len(calls) == 1
    # the point is kept as a copy: a point written in place is a new one
    u[0] = 3.0
    assert g(u) is not first and calls == [[1.5, -2.0], [3.0, -2.0]]


# values, sha256 of the covariance bytes (first 32 hex digits), nfev,
# iterations, message, converged and flags of each fit on the seed-3 inputs
# of _pinned_fits, recorded before the engine moved from least_squares to
# leastsq; the four stop messages are all MINPACK's successful ones
PINNED_FITS = {
    "full_s21": (
        [7060997869.311512, 495.18999920507554, 458.5970927489752,
         -141.94229633225012, 0.9000192587060879, 2.9999799297518664e-08,
         13.675280101004791],
        "4bea770120309a779a672679412b4ca8",
        5, 4, "`xtol` termination condition is satisfied.", True, []),
    "lorentzian_dip": (
        [1.0000803677910841, 0.9999097708942917, 7061000181.516365,
         14912759.655554183],
        "acc72bcd4febe334120c76cdad1649c3",
        5, 4, "Both `ftol` and `xtol` termination conditions are satisfied.",
        True, []),
    "power_inverse_q": (
        [1343.1247085828345, 2.9219913883750338e-05],
        "b8db0f7af6d242af2498db25bf6e204e",
        2, 2, "`gtol` termination condition is satisfied.", True, []),
    "power_frequency": (
        [597.6193094418508, 2.1063993914007098e-05, 46405484.16938072],
        "6267fe55fd1bfa6295066675132ca921",
        7, 6, "`ftol` termination condition is satisfied.", True, []),
    "tls_saturation": (
        [1.903648193079082e-05, 3026.851545657774, 1.099175600286182,
         1.070112106388511e-05],
        "b07d216d2c5251f9a1cb14c8ebd0abb8",
        5, 4, "`ftol` termination condition is satisfied.", True, []),
}


def _pinned_fits(seed):
    """The benchmark's five fits, each as a thunk returning its FitResult,
    on inputs synthesized from seed."""
    mode = ResonatorMode.from_asymmetry_angle(7.061e9, 34477, 480, 0.3)
    lw = 7.061e9 / mode.q_tot
    trace = synth_trace(mode, LineCalibration(0.9, 30e-9, 1.1),
                        np.linspace(7.061e9 - 5 * lw, 7.061e9 + 5 * lw, 801),
                        noise_std=1e-3, seed=seed)
    dip_mode = ResonatorMode(7.061e9, 35000, 480)
    dip_lw = 7.061e9 / dip_mode.q_tot
    dip = synth_trace(dip_mode, LineCalibration(),
                      np.linspace(7.061e9 - 1.2 * dip_lw,
                                  7.061e9 + 1.2 * dip_lw, 6001),
                      noise_std=1e-3, seed=seed)
    series = synth_power_series(np.linspace(0, 300e-9, 25), gamma=1.35e3,
                                inv_q0=2.9e-5, delta1=5.9e2, delta2=2e-5,
                                delta3=5e7, noise_rel=0.05, seed=seed)
    n, y, sig = synth_tls_saturation(np.logspace(2, 5, 81), 2e-5, 3e3, 1.0,
                                     1e-5, noise_rel=0.03, seed=seed)
    return {
        "full_s21": lambda: fit_full_s21(trace).fit,
        "lorentzian_dip": lambda: fit_lorentzian_dip(dip).fit,
        "power_inverse_q": lambda: fit_power_inverse_q(series, model="linear"),
        "power_frequency": lambda: fit_power_frequency(series),
        "tls_saturation": lambda: fit_tls_saturation(n, y, sigma=sig),
    }


def test_fits_pinned_bit_for_bit(monkeypatch):
    calls = collections.Counter()
    engine = models.levenberg_marquardt

    def counted(residual, x0, jac, **kwargs):
        def res(x):
            calls["residual"] += 1
            return residual(x)

        def jac_counted(x):
            calls["jac"] += 1
            return jac(x)
        return engine(res, x0, jac=jac_counted, **kwargs)

    monkeypatch.setattr(models, "levenberg_marquardt", counted)
    for name, fit_thunk in _pinned_fits(3).items():
        calls.clear()
        fit = fit_thunk()
        values, cov_digest, nfev, iterations, message, converged, flags = (
            PINNED_FITS[name])
        assert fit.values.tolist() == values, name
        assert hashlib.sha256(
            fit.covariance.tobytes()).hexdigest()[:32] == cov_digest, name
        assert (fit.nfev, fit.iterations, fit.message, fit.converged,
                fit.flags) == (nfev, iterations, message, converged, flags)
        # nfev counts every residual run; the Jacobian runs once per MINPACK
        # iteration, plus at most once at the end for the covariance
        assert calls["residual"] == fit.nfev, name
        assert calls["jac"] <= fit.iterations + 1, name


def test_transform_bounds_respected():
    # fit forced toward zero through a log transform stays positive
    x = np.linspace(0, 1, 20)
    y = 0.5 * x  # no offset

    def resid(p):
        return p[0] * x + p[1] - y

    fit = levenberg_marquardt(resid, [1.0, 0.3],
                              jac=lambda p: np.stack([x, np.ones_like(x)]),
                              transforms=[Identity(), Log()])
    assert fit.values[1] > 0.0
    assert abs(fit.values[0] - 0.5) < 1e-3


def _centered_fd(fun, x, n_out):
    fd = np.empty((n_out, x.size))
    for j in range(x.size):
        h = 1e-6 * max(abs(x[j]), 1e-3)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd[:, j] = (fun(xp) - fun(xm)) / (2 * h)
    return fd


def test_model_jacobians_match_finite_differences():
    rng = np.random.default_rng(8)
    f = np.linspace(-1.0, 1.0, 60)
    for _ in range(20):
        x = np.array([rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0),
                      rng.uniform(-0.3, 0.3), rng.uniform(0.2, 1.5)])
        jac = models._lorentzian_jac(x, f)
        fd = _centered_fd(lambda xx: models._lorentzian(xx, f), x, f.size)
        assert jac.shape == (4, f.size)
        assert_allclose(jac, fd.T, rtol=1e-6, atol=1e-8)


def test_power_and_saturation_jacobians_match_finite_differences():
    # the library's power-series and saturation Jacobians against centered
    # differences of the library's models, at random in-bounds points
    rng = np.random.default_rng(9)
    p = np.linspace(0.0, 1.0, 30)
    n = np.logspace(0, 3, 30)
    for _ in range(20):
        x4 = np.array([rng.uniform(0.5, 2), rng.uniform(0.2, 1),
                       rng.uniform(1, 6), rng.uniform(-0.5, 0.5)])
        x3 = x4[:3]
        xs = np.array([rng.uniform(0.5, 2), rng.uniform(5, 200),
                       rng.uniform(0.4, 2.0), rng.uniform(0, 1)])
        for model, jac, x, grid in (
                (models._inverse_q_sat, models._inverse_q_sat_jac, x4, p),
                (models._dfrac, models._dfrac_jac, x3, p),
                (models._tls_saturation, models._tls_saturation_jac, xs, n)):
            fd = _centered_fd(lambda xx: model(xx, grid), x, grid.size)
            assert jac(x, grid).shape == (x.size, grid.size)
            assert_allclose(jac(x, grid), fd.T, rtol=1e-6, atol=1e-9)


# --- full S21 ----------------------------------------------------------------

MODE = ResonatorMode.from_asymmetry_angle(7.061e9, 34477, 480, 0.3)
LINE = LineCalibration(0.9, 30e-9, 1.1)
LW = 7.061e9 / MODE.q_tot
GRID = np.linspace(7.061e9 - 5 * LW, 7.061e9 + 5 * LW, 801)


def _engine_pair(monkeypatch, model, jac, y, weight):
    """The residual and Jacobian that models._fit hands the engine."""
    pair = []
    monkeypatch.setattr(models, "levenberg_marquardt",
                        lambda residual, x0, **kw: pair.extend(
                            (residual, kw["jac"])))
    models._fit(model, jac, y, weight, [1.0], None)
    return pair


def test_s21_jacobian_matches_central_differences(monkeypatch):
    # the weighted, stacked pair the engine sees; each column's step is
    # 1e-5 of the scale the model varies on: the linewidth for f_r, a
    # radian of line phase at f_r for the delay
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = np.array([7.061e9 + rng.uniform(-1, 1) * LW,
                      rng.uniform(200, 800), rng.uniform(300, 700),
                      rng.choice([-1, 1]) * rng.uniform(20, 300),
                      rng.uniform(0.5, 1.5), 30e-9, rng.uniform(-np.pi, np.pi)])
        weight = 1.0 / rng.uniform(5e-4, 2e-3, GRID.size)
        residual, jacobian = _engine_pair(
            monkeypatch, lambda xx: models.s21_model(xx, GRID),
            lambda xx: models._s21_jacobian(xx, GRID),
            np.zeros(GRID.size, complex), weight)
        jac = jacobian(x)
        assert jac.shape == (7, 2 * GRID.size)
        steps = 1e-5 * np.array([LW, x[1], x[2], abs(x[3]), x[4],
                                 1.0 / (2 * np.pi * x[0]), 1.0])
        for j, h in enumerate(steps):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (residual(xp) - residual(xm)) / (xp[j] - xm[j])
            assert_allclose(jac[j], fd, rtol=0,
                            atol=1e-6 * np.max(np.abs(jac[j])))


@settings(max_examples=200, deadline=None)
@given(f_r=st.floats(1e9, 12e9), q_int=st.floats(1e2, 1e6),
       q_ext=st.floats(1e1, 1e5), offset=st.floats(-5.0, 5.0))
def test_s21_model_reduces_to_ideal_notch(f_r, q_int, q_ext, offset):
    # no asymmetry and an ideal line: the full model is the ideal notch
    mode = ResonatorMode(f_r, q_int, q_ext)
    f = f_r + (offset + np.linspace(-3.0, 3.0, 41)) * f_r / mode.q_tot
    x = [f_r, mode.q_tot, q_ext, 0.0, 1.0, 0.0, 0.0]
    assert_allclose(models.s21_model(x, f),
                    notch(f, mode.f_r, mode.q_tot, mode.q_ext), rtol=1e-12,
                    atol=1e-12)


def test_full_s21_round_trip():
    hits = 0
    for seed in range(10):
        tr = synth_trace(MODE, LINE, GRID, noise_std=1e-3, seed=seed)
        r = fit_full_s21(tr)
        assert r.fit.converged
        ok = (abs(r.q_int - 34477) / 34477 < 0.02
              and abs(r.q_ext - MODE.q_ext_reported) / MODE.q_ext_reported < 0.02
              and abs(r.q_tot - MODE.q_tot) / MODE.q_tot < 0.02
              and abs(r.amplitude - 0.9) / 0.9 < 0.05
              and abs(r.delay - 30e-9) / 30e-9 < 0.05)
        hits += ok
    assert hits >= 9


def test_full_s21_reduces_to_ideal_fit():
    mode = ResonatorMode(7.061e9, 34477, 480)
    tr = synth_trace(mode, LineCalibration(), GRID, noise_std=0.0)
    r = fit_full_s21(tr)
    assert abs(r.q_int - 34477) / 34477 < 1e-6
    assert abs(r.q_ext - 480) / 480 < 1e-6
    assert abs(r.f_r - 7.061e9) / 7.061e9 < 1e-12


def test_full_s21_auto_guess_on_published_like_modes():
    for f_r, q_int, q_ext in [(2.418e9, 70134, 3226), (4.884e9, 76771, 499),
                              (7.061e9, 34477, 480), (11.63e9, 37364, 2743)]:
        mode = ResonatorMode(f_r, q_int, q_ext)
        lw = f_r / mode.q_tot
        grid = np.linspace(f_r - 5 * lw, f_r + 5 * lw, 801)
        tr = synth_trace(mode, LineCalibration(1.05, 5e-9, 0.4), grid,
                         noise_std=5e-4, seed=1)
        r = fit_full_s21(tr)
        assert r.fit.converged
        assert abs(r.q_int - q_int) / q_int < 0.05


def test_full_s21_global_phase_rotation_invariance():
    tr = synth_trace(MODE, LINE, GRID, noise_std=5e-4, seed=4)
    r0 = fit_full_s21(tr)
    psi = 0.8
    rotated = ComplexTrace(tr.frequencies, tr.values * np.exp(1j * psi),
                           tr.noise_std)
    r1 = fit_full_s21(rotated)
    assert abs(r1.q_int - r0.q_int) / r0.q_int < 1e-8
    assert abs(r1.q_tot - r0.q_tot) / r0.q_tot < 1e-8
    assert abs(r1.q_ext - r0.q_ext) / r0.q_ext < 1e-8


# --- Lorentzian dip -----------------------------------------------------------

def test_lorentzian_dip_round_trip():
    mode = ResonatorMode(7.061e9, 35000, 480)
    lw = 7.061e9 / mode.q_tot
    grid = np.linspace(7.061e9 - 1.2 * lw, 7.061e9 + 1.2 * lw, 6001)
    hits = 0
    for seed in range(10):
        tr = synth_trace(mode, LineCalibration(), grid, noise_std=1e-3,
                         seed=seed)
        r = fit_lorentzian_dip(tr)
        hits += abs(r.q_int - 35000) / 35000 < 0.05
        assert abs(r.q_tot_equivalent - mode.q_tot) / mode.q_tot < 0.02
    assert hits >= 9


def test_lorentzian_dip_flat_trace_raises():
    f = np.linspace(5e9, 5.1e9, 200)
    rng = np.random.default_rng(0)
    z = 1.0 + 1e-4 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    with pytest.raises(NoDipError):
        fit_lorentzian_dip(ComplexTrace(f, z))


def test_full_s21_flags_trace_without_resonance():
    f = np.linspace(7.0e9, 7.1e9, 801)
    rng = np.random.default_rng(0)
    z = 1.0 + 1e-3 * (rng.standard_normal(801) + 1j * rng.standard_normal(801))
    assert "no_resonance" in fit_full_s21(ComplexTrace(f, z)).fit.flags
    # a resolved dip at the same noise level carries no such flag
    tr = synth_trace(MODE, LINE, GRID, noise_std=1e-3, seed=4)
    assert "no_resonance" not in fit_full_s21(tr).fit.flags


def test_lorentzian_vs_full_on_asymmetric_traces():
    # the two Q_int estimators stay within 20% of each other
    lw = 7.061e9 / MODE.q_tot
    grid = np.linspace(7.061e9 - 1.5 * lw, 7.061e9 + 1.5 * lw, 4001)
    for phi in (0.2, 0.35, 0.5):
        mode = ResonatorMode.from_asymmetry_angle(7.061e9, 34477, 480, phi)
        tr = synth_trace(mode, LineCalibration(), grid, noise_std=5e-4, seed=2)
        q_l = fit_lorentzian_dip(tr).q_int
        q_f = fit_full_s21(tr).q_int
        assert abs(q_l - q_f) / q_f < 0.20


# --- power series ---------------------------------------------------------------

def test_power_linear_exact():
    p = np.linspace(0, 200e-9, 12)
    series = synth_power_series(p, gamma=1e-6 / 1e-9, inv_q0=2.9e-5)
    fit = fit_power_inverse_q(series, model="linear")
    assert abs(fit["gamma"] - 1e3) / 1e3 < 1e-10
    assert abs(fit["inv_q0"] - 2.9e-5) / 2.9e-5 < 1e-10


def test_power_saturating_degenerate_flags():
    p = np.linspace(0, 200e-9, 12)
    series = synth_power_series(p, gamma=1e3, inv_q0=2.9e-5)
    fit = fit_power_inverse_q(series, model="linear_plus_saturation")
    assert "gamma3_unidentifiable" in fit.flags
    assert abs(fit["gamma1"] - 1e3) / 1e3 < 1e-3


def test_power_saturating_round_trip():
    p = np.linspace(0, 300e-9, 16)
    true = dict(gamma=8e2, inv_q0=3e-5)
    y = true["gamma"] * p + 2e-5 * (1 - np.exp(-3e7 * p)) + true["inv_q0"]
    rng = np.random.default_rng(3)
    y = y + 0.002 * np.ptp(y) * rng.standard_normal(p.size)
    series = PowerSeries(p_opt=p, inv_q=y, dfrac=np.zeros_like(p))
    # unweighted: no uncertainty columns attached
    fit = fit_power_inverse_q(series, model="linear_plus_saturation")
    assert abs(fit["gamma1"] - 8e2) / 8e2 < 0.1
    assert abs(fit["gamma2"] - 2e-5) / 2e-5 < 0.1


def test_power_frequency_pure_linear_pins_delta2():
    p = np.linspace(0, 200e-9, 12)
    series = synth_power_series(p, delta1=5.9e-7 / 1e-9)
    fit = fit_power_frequency(series)
    assert "delta2_pinned" in fit.flags
    assert abs(fit["delta1"] - 590.0) / 590.0 < 1e-6


def test_power_frequency_pure_saturating():
    p = np.linspace(0, 200e-9, 20)
    series = synth_power_series(p, delta2=2e-5, delta3=0.05e9, noise_rel=0.02,
                                seed=5)
    fit = fit_power_frequency(series)
    assert abs(fit["delta2"] - 2e-5) / 2e-5 < 0.05
    assert abs(fit["delta3"] - 0.05e9) / 0.05e9 < 0.05


def test_power_frequency_mixed_shape_round_trip():
    # blue-linear plus red-saturating: dip then rise through zero
    p = np.linspace(0, 300e-9, 25)
    true = dict(delta1=5.9e-7 / 1e-9, delta2=2e-5, delta3=0.05 / 1e-9)
    series = synth_power_series(p, delta1=true["delta1"],
                                delta2=true["delta2"], delta3=true["delta3"],
                                noise_rel=0.05, seed=7)
    clean = (true["delta1"] * p
             - true["delta2"] * (1 - np.exp(-true["delta3"] * p)))
    assert clean[1] < 0 and clean[-1] > 0  # red dip, then blue recovery
    i_min = np.argmin(clean)
    assert 0 < i_min < p.size - 1
    fit = fit_power_frequency(series)
    assert abs(fit["delta1"] - true["delta1"]) / true["delta1"] < 0.1
    assert abs(fit["delta2"] - true["delta2"]) / true["delta2"] < 0.1


def test_power_fit_preconditions():
    p = np.linspace(0, 1e-7, 3)
    series = synth_power_series(p, gamma=1.0)
    with pytest.raises(ValueError):
        fit_power_inverse_q(series, model="linear_plus_saturation")
    with pytest.raises(ValueError):
        fit_power_frequency(series)
    two = synth_power_series(np.array([0.0, 1e-9]), gamma=1.0)
    with pytest.raises(ValueError):
        fit_power_inverse_q(two, model="linear")


# --- TLS saturation -------------------------------------------------------------

def test_tls_saturation_round_trip():
    n = np.logspace(2, 5, 81)
    y_n, y, sig = synth_tls_saturation(n, f_delta=2e-5, n_c=3e3, beta=1.0,
                                       floor=1e-5, noise_rel=0.03, seed=2)
    fit = fit_tls_saturation(y_n, y, sigma=sig)
    assert abs(fit["n_c"] - 3e3) / 3e3 < 0.15
    assert abs(fit["beta"] - 1.0) < 0.15
    assert "insufficient_span" not in fit.flags


def test_tls_saturation_plateau_and_tail():
    fit_params = dict(f_delta=2e-5, n_c=3e3, beta=1.0, floor=1e-5)
    n = np.logspace(1, 7, 25)
    _, y, _ = synth_tls_saturation(n, **fit_params)
    # low-drive plateau
    assert_allclose(y[0], fit_params["f_delta"] + fit_params["floor"],
                    rtol=2e-3)
    # high-drive log-log tail slope of the TLS part approaches -beta/2
    tail = (y - fit_params["floor"])[-6:]
    slope = np.polyfit(np.log(n[-6:]), np.log(tail), 1)[0]
    assert abs(slope + fit_params["beta"] / 2) < 0.02


def test_tls_saturation_span_warning():
    n = np.linspace(100, 900, 8)
    _, y, _ = synth_tls_saturation(n, f_delta=2e-5, n_c=3e3, beta=1.0,
                                   floor=1e-5)
    fit = fit_tls_saturation(n, y)
    assert "insufficient_span" in fit.flags
    with pytest.raises(ValueError):
        fit_tls_saturation(n[:4], y[:4])


# --- synth -----------------------------------------------------------------------

def test_synth_trace_deterministic_and_exact():
    mode = ResonatorMode(5e9, 1e4, 1e3)
    grid = np.linspace(4.99e9, 5.01e9, 101)
    clean = synth_trace(mode, LineCalibration(), grid, noise_std=0.0)
    assert_allclose(clean.values,
                    notch(grid, mode.f_r, mode.q_tot, mode.q_ext), rtol=1e-14)
    a = synth_trace(mode, LineCalibration(), grid, noise_std=1e-3, seed=9)
    b = synth_trace(mode, LineCalibration(), grid, noise_std=1e-3, seed=9)
    assert np.array_equal(a.values, b.values)


def test_synth_trace_noise_statistics():
    mode = ResonatorMode(5e9, 1e4, 1e3)
    grid = np.linspace(4.9e9, 5.1e9, 20000)
    tr = synth_trace(mode, LineCalibration(), grid, noise_std=2e-3, seed=0)
    resid = tr.values - notch(grid, mode.f_r, mode.q_tot, mode.q_ext)
    assert abs(np.std(resid.real) / 2e-3 - 1.0) < 0.1
    assert abs(np.std(resid.imag) / 2e-3 - 1.0) < 0.1



@pytest.mark.parametrize("noise", [-1e-3, np.nan, np.inf])
def test_synth_refuses_negative_or_nan_noise(noise):
    mode = ResonatorMode(5e9, 1e4, 1e3)
    grid = np.linspace(4.99e9, 5.01e9, 11)
    with pytest.raises(ValueError, match=r"noise_std must lie in \[0, 1\]"):
        synth_trace(mode, LineCalibration(), grid, noise_std=noise)
    with pytest.raises(ValueError, match=r"noise_rel must lie in \[0, 1\]"):
        synth_power_series(np.linspace(0, 1, 5), noise_rel=noise)
    with pytest.raises(ValueError, match=r"noise_rel must lie in \[0, 1\]"):
        synth_tls_saturation(np.logspace(0, 3, 6), 1.0, 10.0, 1.0, 0.0,
                             noise_rel=noise)
