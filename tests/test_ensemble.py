from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from optoresp.constants import HBAR, TWO_PI
from optoresp.ensemble import (EnsembleParams, k_parallel, k_perp,
                               parameter_sweep, slope_fractional_frequency,
                               slope_inverse_q)

# reference bath: 7 GHz mode, g/2pi = 5 MHz, xi = 50 m/W
P_REF = EnsembleParams()

SLOPE_Q_REF = 1352.2521486296073      # 1/W  (1.352e-6 per nW)
SLOPE_F_REF = 585.5533883334645       # 1/W  (5.856e-7 per nW)


def test_defaults_match_reference_slopes():
    assert_allclose(slope_inverse_q(P_REF), SLOPE_Q_REF, rtol=1e-12)
    assert_allclose(slope_fractional_frequency(P_REF), SLOPE_F_REF, rtol=1e-12)


def test_debye_term_equals_slope_times_power():
    # the Debye loss of the bath in V = A xi P at P = 1 nW, its flat band
    # integrated by quad, reproduces omega_r * Delta(1/Q)
    p_opt = 1e-9
    rho_v = HBAR * P_REF.rho_tls * P_REF.area * P_REF.xi * p_opt
    flat = quad(lambda w: 1.0, 0.0, P_REF.omega_max)[0]
    debye = (2.0 * rho_v * P_REF.g_par_t**2 * P_REF.gamma1_t * P_REF.omega_r
             / (P_REF.gamma1_t**2 + P_REF.omega_r**2) * flat * P_REF.ds_tilde)
    assert_allclose(debye, slope_inverse_q(P_REF) * p_opt * P_REF.omega_r,
                    rtol=1e-4)
    # Delta(1/Q) at 1 nW is ~1.35e-6
    assert_allclose(debye / P_REF.omega_r, 1.35e-6, rtol=2e-3)


def test_log_window_quadrature_oracle():
    p = P_REF
    num, _ = quad(lambda d: d / (p.gamma2_t**2 + d**2), p.delta_min,
                  p.delta_max, limit=200)
    assert_allclose(num, np.log(p.delta_max / p.delta_min), rtol=1e-6)


def test_closed_forms_against_quadrature():
    # resonant Lorentzian -> pi and flat band, to 1e-4
    p = EnsembleParams(s_tilde=-0.4, ds_tilde=1.0 / (TWO_PI * 400e6))
    v = 1e-22
    rho_v = HBAR * p.rho_tls * v
    # the closed form is the full-line Lorentzian integral (pi); cover the
    # line far beyond the physical cutoffs so truncation is negligible
    lor = sum(quad(lambda d: p.gamma2_t / (p.gamma2_t**2 + d**2), a, b,
                   limit=400)[0]
              for a, b in [(-1e4 * p.omega_r, -100 * p.gamma2_t),
                           (-100 * p.gamma2_t, 100 * p.gamma2_t),
                           (100 * p.gamma2_t, 1e2 * p.omega_max)])
    flat = quad(lambda w: 1.0, 0.0, p.omega_max)[0]
    loss_quad = (-2.0 * rho_v * p.g_perp_t**2 * p.s_tilde * lor
                 + 2.0 * rho_v * p.g_par_t**2 * p.gamma1_t * p.omega_r
                 / (p.gamma1_t**2 + p.omega_r**2) * flat * p.ds_tilde)
    # module docstring: -2 pi hbar rho V g_perp^2 S + 2 hbar rho V g_par^2
    # K1 omega_max dS, where K1 omega_max dS = omega_r K_par
    loss_closed = (-2.0 * np.pi * rho_v * p.g_perp_t**2 * p.s_tilde
                   + 2.0 * rho_v * p.g_par_t**2 * p.omega_r * k_parallel(p))
    assert_allclose(loss_quad, loss_closed, rtol=1e-4)


def test_slopes_quadratic_in_coupling():
    g = 2 * P_REF.g_perp_t
    p2 = replace(P_REF, g_perp_t=g, g_par_t=g)
    assert slope_inverse_q(p2) / slope_inverse_q(P_REF) == 4.0
    assert (slope_fractional_frequency(p2)
            / slope_fractional_frequency(P_REF) == 4.0)


def test_slopes_linear_in_xi_and_rho():
    import dataclasses
    for field, scale in (("xi", 3.0), ("rho_tls", 7.0)):
        p2 = dataclasses.replace(P_REF, **{field: getattr(P_REF, field) * scale})
        assert_allclose(slope_inverse_q(p2) / slope_inverse_q(P_REF), scale,
                        rtol=1e-14)
        assert_allclose(slope_fractional_frequency(p2)
                        / slope_fractional_frequency(P_REF), scale, rtol=1e-14)


def test_ds_zero_kills_loss_slope():
    p = EnsembleParams(ds_tilde=0.0)
    assert slope_inverse_q(p) == 0.0
    assert slope_inverse_q(P_REF) > 0.0


def test_no_blue_shift_from_frozen_ground_state():
    p = EnsembleParams(s_tilde=-1.0, ds_tilde=0.0)
    assert slope_fractional_frequency(p) == 0.0


def test_frequency_slope_sign_flip_at_crossover():
    # solve K_perp = Gamma_1 K_par for dS by bisection on the closed form
    import dataclasses

    def slope_at(ds):
        return slope_fractional_frequency(dataclasses.replace(P_REF,
                                                              ds_tilde=ds))

    lo, hi = 1e-12, 1e-4
    assert slope_at(lo) > 0 and slope_at(hi) < 0
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if slope_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    ds_star = 0.5 * (lo + hi)
    assert slope_at(ds_star * 0.9) > 0
    assert slope_at(ds_star * 1.1) < 0
    # analytic crossover for comparison
    expected = (k_perp(P_REF) * (P_REF.gamma1_t**2 + P_REF.omega_r**2)
                / (P_REF.gamma1_t**2 * P_REF.omega_max))
    assert_allclose(ds_star, expected, rtol=1e-3)


def test_sweep_omega_r_scaling():
    grid = TWO_PI * np.linspace(1e9, 20e9, 25)
    out = parameter_sweep(P_REF, "omega_r", grid)
    exponent = np.polyfit(np.log(grid), np.log(out["slope_inverse_q"]), 1)[0]
    assert abs(exponent + 1.0) < 0.05


def test_sweep_omega_max_scaling():
    grid = TWO_PI * np.logspace(np.log10(100e9), np.log10(3000e9), 20)
    out = parameter_sweep(P_REF, "omega_max", grid)
    exponent = np.polyfit(np.log(grid), np.log(out["slope_inverse_q"]), 1)[0]
    assert abs(exponent - 1.0) < 0.01
    corr = np.corrcoef(np.log(grid), out["slope_fractional_frequency"])[0, 1]
    assert corr >= 0.999


def test_sweep_single_point_matches_direct():
    out = parameter_sweep(P_REF, "omega_max", [P_REF.omega_max])
    assert_allclose(out["slope_inverse_q"][0], slope_inverse_q(P_REF),
                    rtol=1e-14)
    assert_allclose(out["slope_fractional_frequency"][0],
                    slope_fractional_frequency(P_REF), rtol=1e-14)


def scalar_sweep_point(p, axis, v):
    """One sweep point through scalar fields, as a per-point loop would."""
    if axis == "omega_r":
        scale = np.sqrt(v / (TWO_PI * 7e9))
        q = replace(p, omega_r=v, delta_min=v, g_perp_t=p.g_perp_t * scale,
                    g_par_t=p.g_par_t * scale)
    else:
        q = replace(p, omega_max=v, delta_max=v)
    return slope_inverse_q(q), slope_fractional_frequency(q)


@pytest.mark.parametrize("axis, grid", [
    ("omega_r", TWO_PI * np.linspace(1e9, 20e9, 25)),
    ("omega_max", TWO_PI * np.logspace(11, np.log10(3e12), 20)),
])
def test_sweep_bitwise_equals_scalar_calls(axis, grid):
    out = parameter_sweep(P_REF, axis, grid)
    want = np.array([scalar_sweep_point(P_REF, axis, v) for v in grid])
    assert np.array_equal(out["slope_inverse_q"], want[:, 0])
    assert np.array_equal(out["slope_fractional_frequency"], want[:, 1])


def test_array_fields_broadcast():
    g = TWO_PI * np.array([2e6, 5e6, 8e6])
    xi = np.array([[20.0], [50.0]])
    p = EnsembleParams(g_perp_t=g, g_par_t=g, xi=xi)
    sq = slope_inverse_q(p)
    assert sq.shape == (2, 3)
    assert sq[1, 1] == slope_inverse_q(P_REF)


@pytest.mark.parametrize("field, values, message", [
    pytest.param(*case, id=case[0]) for case in (
        ("xi", [50.0, 0.0, 20.0], "xi must be positive"),
        ("gamma1_t", [TWO_PI * 16e6, np.nan], "gamma1_t must be positive"),
        ("rho_tls", [1e45, np.inf], "rho_tls must be positive and finite"),
        ("g_par_t", [TWO_PI * 5e6, -1.0],
         "g_par_t must be nonnegative and finite"),
        ("s_tilde", [-0.5, 0.0, 0.1], "s_tilde"),
        ("ds_tilde", [1e-9, -1e-9], "ds_tilde"),
        ("delta_min", [TWO_PI * 7e9, TWO_PI * 1e3], "delta_min >= gamma2_t"),
    )
])
def test_params_reject_one_bad_array_element(field, values, message):
    with pytest.raises(ValueError, match=message):
        EnsembleParams(**{field: np.array(values)})


def test_sweep_validation():
    with pytest.raises(ValueError):
        parameter_sweep(P_REF, "omega_r", [])
    with pytest.raises(ValueError):
        parameter_sweep(P_REF, "nonsense", [1.0])


def test_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(s_tilde=0.2)
    with pytest.raises(ValueError):
        EnsembleParams(delta_min=TWO_PI * 1e3)  # below gamma2
    with pytest.raises(ValueError):
        EnsembleParams(rho_tls=-1.0)
