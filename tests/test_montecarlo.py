import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from optoresp import montecarlo
from optoresp.constants import HBAR, TWO_PI
from optoresp.montecarlo import (McConfig, TlsBath, _fit_slopes,
                                 generate_ensemble, kernel, response_curves,
                                 run)
from optoresp.tls import (TlsUnit, longitudinal_complex_shift,
                          transverse_complex_shift)

MHZ = TWO_PI * 1e6


def small_config(**kw):
    """Cheap bath for unit tests: narrow window, short wire."""
    base = dict(seed=123, trials=3, omega_max=TWO_PI * 50e9,
                half_length=50e-6, p_grid=np.linspace(0, 100e-9, 6))
    base.update(kw)
    return McConfig(**base)


def test_kernel_values():
    assert kernel(0.0, 0.0, xi=50.0, l_edge=10e-6) == 0.0
    assert kernel(3e-5, 0.0, xi=50.0, l_edge=10e-6) == 0.0
    # x = 0, xi P = 2 l_edge -> tanh(1)
    val = kernel(0.0, 2 * 10e-6 / 50.0, xi=50.0, l_edge=10e-6)
    assert_allclose(val, np.tanh(1.0), rtol=1e-12)
    assert kernel(0.0, 100e-6 / 50.0 * 100, xi=50.0, l_edge=10e-6) > 1 - 1e-12
    with pytest.raises(ValueError):
        kernel(0.0, 1e-9, xi=50.0, l_edge=0.0)


def tanh_kernel(x, p_opt, xi, l_edge):
    half = xi * p_opt / 2.0
    return 0.5 * (np.tanh((x + half) / l_edge) - np.tanh((x - half) / l_edge))


def test_kernel_identity_matches_tanh_form():
    l_edge, xi = 10e-6, 50.0
    x = l_edge * np.concatenate([-np.logspace(-3, np.log10(500), 120)[::-1],
                                 [0.0], np.logspace(-3, np.log10(500), 120)])
    p = l_edge / xi * np.concatenate([[0.0], np.logspace(-3, 3, 121)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the whole grid falls back to the tanh form; the part inside the
        # cosh range takes the cosh-ratio form
        full = kernel(x, p[:, None], xi, l_edge)
        direct = (np.abs(x) / l_edge <= 350)[None, :] & (p * xi / l_edge <= 700)[:, None]
        inner = kernel(x[np.abs(x) / l_edge <= 350],
                       p[p * xi / l_edge <= 700][:, None], xi, l_edge)
    ref = tanh_kernel(x[None, :], p[:, None], xi, l_edge)
    assert np.max(np.abs(full - ref)) < 1e-13
    assert np.max(np.abs(inner.ravel() - ref[direct])) < 1e-13


# about half the examples stay inside the cosh range, half fall back
@settings(max_examples=300, deadline=None)
@given(u=st.floats(-500.0, 500.0), v=st.floats(0.0, 600.0), dv=st.floats(0.0, 600.0))
def test_kernel_bounded_even_monotone(u, v, dv):
    l_edge, xi = 10e-6, 50.0
    x = np.array([u, -u])[:, None] * l_edge
    p = np.array([v, v + dv]) * l_edge / xi
    k = kernel(x, p, xi, l_edge)
    assert np.all((k >= 0.0) & (k <= 1.0))
    assert np.array_equal(k[0], k[1])
    assert k[0, 1] >= k[0, 0]


def test_kernel_monotone_near_saturation():
    # the sum form sinh 2v / (cosh 2u + cosh 2v) rounds above 1 and down
    # with P by an ulp on this grid; the evaluated form must not
    l_edge, xi = 10e-6, 50.0
    x = np.linspace(0.0, 30.0, 61) * l_edge
    p = np.linspace(0.0, 300.0, 30001) * l_edge / xi
    k = kernel(x, p[:, None], xi, l_edge)
    assert np.all(k <= 1.0)
    assert np.all(np.diff(k, axis=0) >= 0.0)


def test_expected_count_formula():
    cfg = McConfig(freq_window=(-TWO_PI * 1e12, TWO_PI * 1e12))
    width = 2 * TWO_PI * 1e12 - 2 * cfg.exclusion
    assert_allclose(cfg.expected_count,
                    cfg.rho_tls * HBAR * width * cfg.area * 2 * cfg.half_length,
                    rtol=1e-14)
    # symmetric +-1000 GHz window over a 1000 nm^2 x 500 um bath: ~6.6e5
    assert_allclose(cfg.expected_count, 6.625e5, rtol=5e-3)


def test_default_window_covers_tls_band():
    cfg = McConfig()
    lo, hi = cfg.freq_window
    assert_allclose(hi, cfg.omega_r, rtol=1e-14)
    assert_allclose(hi - lo, cfg.omega_max, rtol=1e-14)
    # default count: rho hbar omega_max A 2L
    assert_allclose(cfg.expected_count, 3.312e5, rtol=5e-3)


def test_poisson_mean_statistics():
    cfg = small_config()
    rng = np.random.default_rng(9)
    counts = [len(generate_ensemble(cfg, rng)) for _ in range(40)]
    assert abs(np.mean(counts) / cfg.expected_count - 1.0) < 0.05


def test_empty_ensemble_warns():
    cfg = small_config(rho_tls=0.0)
    with pytest.warns(UserWarning):
        bath = generate_ensemble(cfg)
    assert len(bath) == 0
    res = response_curves(cfg, bath)
    assert np.all(res.dinv_q == 0.0) and np.all(res.dfrac == 0.0)


def test_ensemble_determinism():
    cfg = small_config()
    b1 = generate_ensemble(cfg)
    b2 = generate_ensemble(cfg)
    for name in ("detuning", "g_perp", "g_par", "gamma1", "gamma2", "s",
                 "ds", "x"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))


def test_ensemble_draw_properties():
    cfg = small_config(half_length=100e-6)
    bath = generate_ensemble(cfg, np.random.default_rng(4))
    lo, hi = cfg.freq_window
    assert np.all(bath.detuning >= lo) and np.all(bath.detuning <= hi)
    assert np.all(np.abs(bath.detuning) >= cfg.exclusion)
    assert np.all(np.abs(bath.x) <= cfg.half_length)
    assert np.all(bath.g_perp == bath.g_par)
    assert np.all(bath.gamma1 == bath.gamma2)
    assert np.all(bath.g_perp >= 0) and np.all(bath.gamma1 >= 0)
    assert np.all((bath.s >= -1.0) & (bath.s <= 0.0))
    assert np.all(bath.ds == cfg.ds_value)
    # moment normalization holds to sampling accuracy on a large bath
    assert abs((bath.g_perp**2).mean() / cfg.g_mean**2 - 1.0) < 0.02
    assert abs(bath.gamma1.mean() / cfg.gamma1_mean - 1.0) < 0.02


def test_thinned_draw(monkeypatch):
    drawn = []

    def recording(config, rng):
        bath = generate_ensemble(config, rng)
        drawn.append((config, bath))
        return bath

    monkeypatch.setattr(montecarlo, "generate_ensemble", recording)
    cfg = McConfig(trials=1)
    assert cfg.reach < cfg.half_length
    run(cfg)
    (thin, bath), = drawn
    assert thin.half_length == cfg.reach
    assert_allclose(thin.expected_count,
                    cfg.expected_count * cfg.reach / cfg.half_length, rtol=1e-14)
    assert np.max(np.abs(bath.x)) <= cfg.reach

    # a wire shorter than the reach is drawn whole, bit for bit
    drawn.clear()
    small = small_config(trials=1)
    assert small.reach >= small.half_length
    run(small)
    (_, bath), = drawn
    child, = np.random.SeedSequence(small.seed).spawn(1)
    full = generate_ensemble(small, np.random.default_rng(child))
    for f in dataclasses.fields(TlsBath):
        assert np.array_equal(getattr(bath, f.name), getattr(full, f.name))


def test_empty_trials_warn():
    # about 0.1 TLS per trial: the draw's warning reaches run()'s caller
    cfg = small_config(trials=2, rho_tls=3e40)
    with pytest.warns(UserWarning, match="empty TLS ensemble"):
        run(cfg)


def test_fit_slopes_match_polyfit():
    rng = np.random.default_rng(2)
    for cfg in (McConfig(), small_config(fit_p_min=20e-9),
                small_config(p_grid=np.linspace(0, 50e-9, 4))):
        p = cfg.p_grid
        m = p >= (cfg.fit_p_min or 0.0)
        for _ in range(300):
            dq = (rng.normal() * 10 ** rng.uniform(-3, 6) * p
                  + rng.normal() * 1e-5 + rng.normal(size=p.size) * 1e-6)
            df = (rng.normal() * 1e2 * p + rng.normal() * 1e-6
                  + rng.normal(size=p.size) * 1e-7)
            want = np.polyfit(p[m], dq[m], 1)[0], np.polyfit(p[m], df[m], 1)[0]
            assert_allclose(_fit_slopes(cfg, dq, df), want, rtol=1e-12, atol=0)


def test_bath_indexing_roundtrip():
    cfg = small_config()
    bath = generate_ensemble(cfg)
    unit = bath[0]
    assert isinstance(unit, TlsUnit)
    rebuilt = TlsBath.from_units([bath[i] for i in range(5)])
    assert np.array_equal(rebuilt.detuning, bath.detuning[:5])


def test_single_tls_matches_closed_forms():
    # one TLS at the laser spot with a saturated kernel: the curves are the
    # single-TLS rates divided by omega_r
    cfg = McConfig(l_edge=1e-7, xi=50.0, p_grid=np.array([0.0, 100e-9]),
                   omega_r=TWO_PI * 7e9)
    t = TlsUnit(detuning=-TWO_PI * 3e9, g_perp=5 * MHZ, g_par=5 * MHZ,
                gamma1=16 * MHZ, gamma2=16 * MHZ, s=-0.25,
                ds=1.0 / (TWO_PI * 400e6), x=0.0)
    res = response_curves(cfg, [t])
    long_loss, long_shift = longitudinal_complex_shift(t, cfg.omega_r)
    assert_allclose(res.dinv_q[0, 1], long_loss / cfg.omega_r, rtol=1e-9)
    # transverse term is the change from the ground-state dispersive pull
    ground = transverse_complex_shift(t.with_population(s=-1.0))[1]
    now = transverse_complex_shift(t)[1]
    expected_f = (now - ground + long_shift) / cfg.omega_r
    assert_allclose(res.dfrac[0, 1], expected_f, rtol=1e-9)
    assert res.dinv_q[0, 0] == 0.0


def test_tls_beyond_reach_are_dropped():
    cfg = small_config(l_edge=1e-6)
    bath = generate_ensemble(cfg)
    assert np.max(np.abs(bath.x)) > cfg.reach
    res = response_curves(cfg, bath)
    # every TLS through the tanh form: the dropped ones add below 1e-12
    k = tanh_kernel(bath.x[None, :], cfg.p_grid[:, None], cfg.xi, cfg.l_edge)
    lorentz = bath.gamma1 / (bath.gamma1**2 + cfg.omega_r**2)
    w_q = bath.ds * 2.0 * lorentz * cfg.omega_r * bath.g_par**2
    assert_allclose(res.dinv_q[0], k @ w_q / cfg.omega_r, rtol=1e-12, atol=0)


def test_ground_state_bath_is_silent():
    cfg = small_config(s_std=1e-12, s_mean=-1.0, ds_value=0.0)
    bath = generate_ensemble(cfg)
    bath = TlsBath(detuning=bath.detuning, g_perp=bath.g_perp,
                   g_par=bath.g_par, gamma1=bath.gamma1, gamma2=bath.gamma2,
                   s=np.full(len(bath), -1.0), ds=np.zeros(len(bath)),
                   x=bath.x)
    res = response_curves(cfg, bath)
    assert np.all(res.dinv_q == 0.0)
    assert np.all(res.dfrac == 0.0)


def test_run_determinism_and_trials():
    cfg = small_config(trials=2, seed=77)
    r1, r2 = run(cfg), run(cfg)
    assert np.array_equal(r1.dinv_q, r2.dinv_q)
    assert np.array_equal(r1.dfrac, r2.dfrac)
    single = small_config(trials=1, seed=77)
    rs = run(single)
    assert np.array_equal(rs.dinv_q[0], r1.dinv_q[0])  # same sub-seed stream


def test_parallel_equals_sequential():
    cfg_seq = small_config(trials=4, seed=5, workers=1)
    cfg_par = small_config(trials=4, seed=5, workers=3)
    r_seq, r_par = run(cfg_seq), run(cfg_par)
    assert np.array_equal(r_seq.dinv_q, r_par.dinv_q)
    assert np.array_equal(r_seq.dfrac, r_par.dfrac)


def test_loss_curve_monotone_nondecreasing():
    cfg = small_config(trials=4, seed=31)
    res = run(cfg)
    assert np.all(np.diff(res.dinv_q, axis=1) >= -1e-30)
    assert np.all(res.dinv_q >= 0.0)


def test_loss_channel_detuning_independent():
    cfg = small_config(seed=10)
    bath = generate_ensemble(cfg)
    rng = np.random.default_rng(0)
    permuted = TlsBath(detuning=rng.permutation(bath.detuning),
                       g_perp=bath.g_perp, g_par=bath.g_par,
                       gamma1=bath.gamma1, gamma2=bath.gamma2, s=bath.s,
                       ds=bath.ds, x=bath.x)
    r0 = response_curves(cfg, bath)
    r1 = response_curves(cfg, permuted)
    assert_allclose(r1.dinv_q, r0.dinv_q, rtol=1e-12)
    assert not np.allclose(r1.dfrac, r0.dfrac, rtol=1e-3)


def test_mean_slope_tracks_analytic_smoke():
    # cheap version of the acceptance check: 20 trials, wide tolerance
    from optoresp.ensemble import EnsembleParams, slope_inverse_q
    cfg = McConfig(seed=0, trials=20)
    res = run(cfg)
    (mq, sq), (mf, sf) = res.slope_stats()
    analytic = slope_inverse_q(EnsembleParams())
    assert abs(mq / analytic - 1.0) < 0.05
    assert (sf / abs(mf)) > (sq / mq)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(p_grid=np.array([1e-9]))
    with pytest.raises(ValueError):
        small_config(p_grid=np.array([2e-9, 1e-9]))
    with pytest.raises(ValueError):
        small_config(freq_window=(1.0, -1.0))
    with pytest.raises(ValueError):
        small_config(workers=0)
