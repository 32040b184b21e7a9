import dataclasses
import hashlib
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from optoresp import montecarlo
from optoresp.constants import HBAR, TWO_PI
from optoresp import tls
from optoresp.montecarlo import (McConfig, _fit_slopes, generate_ensemble,
                                 kernel, response_curves, run)
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
    # the count is on the drawn wire, 2 min(L, reach) = 2 x 145 um
    assert cfg.draw_half_length == cfg.reach < cfg.half_length
    assert_allclose(cfg.expected_count,
                    cfg.rho_tls * HBAR * width * cfg.area * 2 * cfg.reach,
                    rtol=1e-14)
    # symmetric +-1000 GHz window over a 1000 nm^2 x 290 um bath: ~3.8e5
    assert_allclose(cfg.expected_count, 3.843e5, rtol=5e-3)


def test_default_window_covers_tls_band():
    cfg = McConfig()
    lo, hi = cfg.freq_window
    assert_allclose(hi, cfg.omega_r, rtol=1e-14)
    assert_allclose(hi - lo, cfg.omega_max, rtol=1e-14)
    # default count: rho hbar omega_max A 2 min(L, reach), 2 x 145 um drawn
    assert_allclose(cfg.expected_count, 1.921e5, rtol=5e-3)


def test_poisson_mean_statistics():
    cfg = small_config()
    rng = np.random.default_rng(9)
    counts = [len(generate_ensemble(cfg, rng)) for _ in range(40)]
    assert abs(np.mean(counts) / cfg.expected_count - 1.0) < 0.05


def test_empty_ensemble_warns(caplog):
    # the draw itself is silent; run() reports its empty trials once
    cfg = small_config(rho_tls=0.0)
    with caplog.at_level(logging.WARNING, logger="optoresp.montecarlo"):
        bath = generate_ensemble(cfg)
        assert caplog.records == []
        res = run(cfg)
    assert len(bath) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "3 of 3 trials drew an empty TLS bath (expected count 0)"]
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
    assert bath.ds == cfg.ds_value  # one scalar, broadcast by the tls forms
    # moment normalization holds to sampling accuracy on a large bath
    assert abs((bath.g_perp**2).mean() / cfg.g_mean**2 - 1.0) < 0.02
    assert abs(bath.gamma1.mean() / cfg.gamma1_mean - 1.0) < 0.02


def test_thinned_draw(monkeypatch):
    # run() draws each trial's bath as a direct draw on the trial's
    # sub-stream does, bit for bit, on the wire cut to the reach
    drawn = []

    def recording(config, rng):
        bath = generate_ensemble(config, rng)
        drawn.append((config, bath))
        return bath

    monkeypatch.setattr(montecarlo, "generate_ensemble", recording)
    long = McConfig(trials=1)
    endless = dataclasses.replace(long, half_length=np.inf)
    short = small_config(trials=1)
    assert long.draw_half_length == long.reach < long.half_length
    assert endless.draw_half_length == long.reach
    assert short.draw_half_length == short.half_length <= short.reach
    for cfg in (long, endless, short):
        drawn.clear()
        run(cfg)
        (seen, bath), = drawn
        assert seen is cfg
        assert np.max(np.abs(bath.x)) <= cfg.draw_half_length
        child, = np.random.SeedSequence(cfg.seed).spawn(1)
        direct = generate_ensemble(cfg, np.random.default_rng(child))
        for f in dataclasses.fields(TlsUnit):
            assert np.array_equal(getattr(bath, f.name), getattr(direct, f.name))


def test_empty_trials_warn(caplog):
    # about 0.1 TLS per trial: most trials are empty, and run() logs one
    # line that counts them
    cfg = small_config(trials=20, rho_tls=3e40)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    empty = sum(len(generate_ensemble(cfg, np.random.default_rng(c))) == 0
                for c in children)
    assert 0 < empty < cfg.trials
    with caplog.at_level(logging.WARNING, logger="optoresp.montecarlo"):
        run(cfg)
    assert [r.getMessage() for r in caplog.records] == [
        f"{empty} of 20 trials drew an empty TLS bath (expected count 0.099)"]


def test_fit_slopes_match_polyfit():
    rng = np.random.default_rng(2)
    for p in (McConfig().p_grid, np.linspace(20e-9, 100e-9, 5),
              np.linspace(0, 50e-9, 4)):
        for _ in range(300):
            dq = (rng.normal() * 10 ** rng.uniform(-3, 6) * p
                  + rng.normal() * 1e-5 + rng.normal(size=p.size) * 1e-6)
            df = (rng.normal() * 1e2 * p + rng.normal() * 1e-6
                  + rng.normal(size=p.size) * 1e-7)
            want = np.polyfit(p, dq, 1)[0], np.polyfit(p, df, 1)[0]
            assert_allclose(_fit_slopes(p, dq, df), want, rtol=1e-12, atol=0)


def test_single_tls_matches_closed_forms():
    # one TLS at the laser spot with a saturated kernel: the curves are the
    # single-TLS rates divided by omega_r
    cfg = McConfig(l_edge=1e-7, xi=50.0, p_grid=np.array([0.0, 100e-9]),
                   omega_r=TWO_PI * 7e9)
    bath = TlsUnit(detuning=np.array([-TWO_PI * 3e9]),
                   g_perp=np.array([5 * MHZ]), g_par=np.array([5 * MHZ]),
                   gamma1=np.array([16 * MHZ]), gamma2=np.array([16 * MHZ]),
                   s=np.array([-0.25]), ds=1.0 / (TWO_PI * 400e6),
                   x=np.zeros(1))
    t = bath.select(0)
    res = response_curves(cfg, bath)
    long_loss, long_shift = longitudinal_complex_shift(t, cfg.omega_r)
    assert_allclose(res.dinv_q[0, 1], long_loss / cfg.omega_r, rtol=1e-9)
    # transverse term is the change from the ground-state dispersive pull
    ground = transverse_complex_shift(dataclasses.replace(t, s=-1.0))[1]
    now = transverse_complex_shift(t)[1]
    expected_f = (now - ground + long_shift) / cfg.omega_r
    assert_allclose(res.dfrac[0, 1], expected_f, rtol=1e-9)
    assert res.dinv_q[0, 0] == 0.0


def test_reach_formula_is_pinned():
    # perfbench/workloads.py (McReference.patches) repeats this formula to
    # count kept TLSs and kernel evaluations; change both copies together
    for cfg in (McConfig(), small_config(xi=20.0, l_edge=3e-6)):
        assert cfg.reach == cfg.xi * cfg.p_grid[-1] / 2 + 14 * cfg.l_edge


def test_tls_beyond_reach_are_summed():
    # a hand-built bath over the whole 50 um wire, most of it beyond the
    # 16.5 um reach: response_curves sums every TLS it is given
    cfg = small_config(l_edge=1e-6)
    rng = np.random.default_rng(6)
    n = 3000
    g = cfg.g_mean * rng.uniform(0.5, 1.5, n)
    gamma1 = cfg.gamma1_mean * rng.uniform(0.5, 1.5, n)
    bath = TlsUnit(detuning=rng.choice([-1.0, 1.0], n)
                   * rng.uniform(cfg.exclusion, cfg.omega_max, n),
                   g_perp=g, g_par=g, gamma1=gamma1, gamma2=gamma1,
                   s=rng.uniform(-1.0, 0.0, n), ds=cfg.ds_value,
                   x=rng.uniform(-cfg.half_length, cfg.half_length, n))
    assert np.mean(np.abs(bath.x) > cfg.reach) > 0.5
    res = response_curves(cfg, bath)
    # every TLS through the tanh form: those beyond the reach add below 1e-12
    want_q, want_f = dense_reference(cfg, bath)
    assert_allclose(res.dinv_q[0], want_q, rtol=1e-12, atol=0)
    assert_allclose(res.dfrac[0], want_f, rtol=1e-12, atol=0)


def test_multi_tls_bath_matches_closed_forms():
    # the tls forms on the bath's columns, with the transverse pull taken as
    # the change from the ground-state bath, through the tanh-form kernel
    cfg = small_config()
    bath = generate_ensemble(cfg)
    assert len(bath) > 1000
    res = response_curves(cfg, bath)
    want_q, want_f = dense_reference(cfg, bath)
    assert_allclose(res.dinv_q[0], want_q, rtol=1e-12, atol=0)
    assert_allclose(res.dfrac[0], want_f, rtol=1e-12, atol=0)


def dense_reference(cfg, bath):
    """(dinv_q, dfrac) from one bath-wide tanh-form kernel matrix."""
    k = tanh_kernel(bath.x[None, :], cfg.p_grid[:, None], cfg.xi, cfg.l_edge)
    loss_par, shift_par = longitudinal_complex_shift(bath, cfg.omega_r)
    now = transverse_complex_shift(bath)[1]
    ground = transverse_complex_shift(dataclasses.replace(bath, s=-1.0))[1]
    return (k @ loss_par / cfg.omega_r,
            k @ (now - ground + shift_par) / cfg.omega_r)


@pytest.mark.parametrize("n", [2 * montecarlo._BLOCK + 1234, 5000, 0])
def test_response_curves_across_blocks(n):
    # more than two blocks with a ragged last one, less than one block, and
    # no TLS at all: each the dense tanh-form sums
    cfg = small_config(omega_max=TWO_PI * 200e9, half_length=140e-6)
    bath = generate_ensemble(cfg).select(slice(n))
    assert len(bath) == n
    res = response_curves(cfg, bath)
    want_q, want_f = dense_reference(cfg, bath)
    assert_allclose(res.dinv_q[0], want_q, rtol=1e-12, atol=0)
    assert_allclose(res.dfrac[0], want_f, rtol=1e-12, atol=0)
    if n == 0:
        assert np.all(res.dinv_q == 0.0) and np.all(res.dfrac == 0.0)


def test_bath_validated_once_per_draw(monkeypatch):
    # response_curves neither re-validates its blocks nor builds a TlsUnit:
    # the draw's one validation covers the whole trial
    cfg = small_config(omega_max=TWO_PI * 200e9, half_length=140e-6)
    bath = generate_ensemble(cfg)
    assert len(bath) > 2 * montecarlo._BLOCK and np.ndim(bath.ds) == 0
    calls = []
    real = tls.TlsUnit.__post_init__
    monkeypatch.setattr(tls.TlsUnit, "__post_init__",
                        lambda self: calls.append(1) or real(self))
    res = response_curves(cfg, bath)
    # a narrow window whose reach the bath runs past
    narrow = dataclasses.replace(cfg, l_edge=1e-6)
    assert narrow.reach < np.max(np.abs(bath.x))
    res_narrow = response_curves(narrow, bath)
    assert calls == []
    want_q, _ = dense_reference(cfg, bath)
    assert_allclose(res.dinv_q[0], want_q, rtol=1e-12, atol=0)
    assert np.all(np.isfinite(res_narrow.dinv_q))


def test_tanh_fallback_chosen_per_block():
    # 2|x|/l_edge passes _COSH_ARG_MAX only for |x| > 350 um, inside the
    # reach of 354 um; with the bath ordered by |x| only the last block
    # holds such TLSs and takes the tanh form
    l_edge = 1e-6
    cfg = small_config(l_edge=l_edge, half_length=354e-6,
                       p_grid=np.linspace(0.0, 340e-6 * 2 / 50.0, 11))
    assert cfg.reach >= cfg.half_length
    bath = generate_ensemble(cfg)
    bath = bath.select(np.argsort(np.abs(bath.x)))
    far = [2.0 * np.max(np.abs(bath.x[i:i + montecarlo._BLOCK])) / l_edge
           > montecarlo._COSH_ARG_MAX
           for i in range(0, len(bath), montecarlo._BLOCK)]
    assert any(far) and not all(far)
    assert 2.0 * 50.0 * cfg.p_grid[-1] / (2.0 * l_edge) < montecarlo._COSH_ARG_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = response_curves(cfg, bath)
    want_q, want_f = dense_reference(cfg, bath)
    assert_allclose(res.dinv_q[0], want_q, rtol=1e-12, atol=0)
    assert_allclose(res.dfrac[0], want_f, rtol=1e-12, atol=0)


def test_workers_bitwise_on_multi_block_baths():
    cfg = small_config(trials=4, seed=8, omega_max=TWO_PI * 200e9,
                       half_length=250e-6)
    # each trial draws on the reach, about 37k TLSs: three blocks
    assert cfg.expected_count > 2 * montecarlo._BLOCK
    r_seq = run(cfg)
    r_par = run(dataclasses.replace(cfg, workers=3))
    for name in ("dinv_q", "dfrac", "slopes_inv_q", "slopes_dfrac"):
        assert getattr(r_seq, name).tobytes() == getattr(r_par, name).tobytes()


def test_bath_draw_bitwise_like_rng_normal():
    # the in-place draws reproduce rng.normal's, bit for bit, and leave the
    # stream where rng.normal leaves it
    from optoresp.montecarlo import FWHM_REL_STD, _clamp_moments
    for seed in (0, 1, 17, 2024):
        cfg = small_config(seed=seed)
        bath = generate_ensemble(cfg)
        rng = np.random.default_rng(seed)
        n = int(rng.poisson(cfg.expected_count))
        segs = cfg.window_segments
        detuning = segs[0][0] + rng.random(n) * sum(b - a for a, b in segs)
        for (_, end), (start, _) in zip(segs, segs[1:]):
            detuning[detuning >= end] += start - end
        x = rng.uniform(-cfg.half_length, cfg.half_length, n)
        g = cfg.g_mean * np.maximum(rng.normal(1.0, FWHM_REL_STD, n), 0.0)
        gamma1 = cfg.gamma1_mean * np.maximum(
            rng.normal(1.0, FWHM_REL_STD, n), 0.0)
        m1, m2 = _clamp_moments(FWHM_REL_STD)
        g /= np.sqrt(m2)
        gamma1 /= m1
        s = np.clip(rng.normal(0.0, cfg.s_std, n), -1.0, 0.0)
        want = dict(detuning=detuning, g_perp=g, g_par=g, gamma1=gamma1,
                    gamma2=gamma1, s=s, x=x)
        for name, column in want.items():
            assert getattr(bath, name).tobytes() == column.tobytes(), name
        assert bath.ds == cfg.ds_value
        # the next variate of both streams agrees too
        follow = np.random.default_rng(seed)
        generate_ensemble(cfg, follow)
        assert follow.random() == rng.random()


def test_ground_state_bath_is_silent():
    cfg = small_config(s_std=1e-12, ds_value=0.0)
    bath = dataclasses.replace(generate_ensemble(cfg), s=-1.0, ds=0.0)
    res = response_curves(cfg, bath)
    assert np.all(res.dinv_q == 0.0)
    assert np.all(res.dfrac == 0.0)


# sha256 (first 32 hex digits) of the bytes of run()'s dinv_q, dfrac,
# slopes_inv_q and slopes_dfrac, two trials each; recorded before the draw
# window was derived in one place.  The endless wire is drawn on the reach,
# so it matches the reference wire at the same seed.
PINNED_RUNS = {
    "reference": (dict(seed=5),
                  ["78755a77557022085fb90f7931be2164",
                   "668a8e7240893296e070af73d282ad8b",
                   "0925506bdd716807f1c75f64acbc49ee",
                   "c0127c1bd5780b5162602a51b17f6f91"]),
    "short_wire": (None,
                   ["7443826db6bd8ea594b67dba44c8d4da",
                    "4608579dd864e484ef4a9d1185929833",
                    "9f21988860961153035d545f8b7801de",
                    "b1f246d3f1fbf11b69d1d52289b5a392"]),
    "endless": (dict(seed=5, half_length=np.inf),
                ["78755a77557022085fb90f7931be2164",
                 "668a8e7240893296e070af73d282ad8b",
                 "0925506bdd716807f1c75f64acbc49ee",
                 "c0127c1bd5780b5162602a51b17f6f91"]),
}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_run_outputs_pinned(case):
    kw, digests = PINNED_RUNS[case]
    cfg = small_config(trials=2) if kw is None else McConfig(trials=2, **kw)
    assert (cfg.reach < cfg.half_length) == (kw is not None)
    res = run(cfg)
    got = [hashlib.sha256(getattr(res, name).tobytes()).hexdigest()[:32]
           for name in ("dinv_q", "dfrac", "slopes_inv_q", "slopes_dfrac")]
    assert got == digests


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
    permuted = dataclasses.replace(bath,
                                   detuning=rng.permutation(bath.detuning))
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
    # omega_r = 0 would put TLSs with Gamma_1 = 0 at 0/0 in the Debye terms
    with pytest.raises(ValueError, match="omega_r"):
        small_config(omega_r=0.0)
    for s_std in (-0.1, np.nan):
        with pytest.raises(ValueError, match="s_std"):
            small_config(s_std=s_std)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        small_config(seed=-1)


def test_direct_draw_of_a_long_wire_is_on_the_reach():
    # a 2 x 1e10 m wire holds about 1.3e19 TLSs; a direct draw, as run()'s,
    # takes only those on the reach
    cfg = McConfig(half_length=1e10)
    assert cfg.draw_half_length == cfg.reach
    assert cfg.expected_count < montecarlo._BATH_TLS_MAX
    bath = generate_ensemble(cfg)
    assert abs(len(bath) / cfg.expected_count - 1.0) < 0.01
    assert np.max(np.abs(bath.x)) <= cfg.reach


def test_bath_bound_counts_the_drawn_length():
    # construction only: none of these configs draws a bath
    cfg = McConfig()
    assert cfg.reach < cfg.half_length
    drawn = dataclasses.replace(cfg, half_length=cfg.reach).expected_count
    # the draw cuts an infinite wire to the reach, so only the reach counts
    McConfig(half_length=np.inf)
    scale = montecarlo._BATH_TLS_MAX / drawn
    McConfig(rho_tls=0.99 * scale * cfg.rho_tls)
    with pytest.raises(ValueError, match="^omega_max times rho_tls .* too large"):
        McConfig(rho_tls=1.01 * scale * cfg.rho_tls)
