"""Synthetic data generators for fit round-trip tests and the CLI."""

import numpy as np

from ..checks import check_range
from ..resonator import LineCalibration, ResonatorMode, s21_full
from .models import ComplexTrace, PowerSeries


def synth_trace(mode: ResonatorMode, line: LineCalibration, grid,
                noise_std=0.0, seed=0) -> ComplexTrace:
    """Full-model trace plus independent Gaussian noise on Re and Im.

    Deterministic for a given seed; noise_std is the per-quadrature standard
    deviation in absolute transmission units.
    """
    check_range("noise_std", noise_std, "nonnegative and finite")
    grid = np.asarray(grid, dtype=float)
    check_range("grid", grid, "finite")  # ComplexTrace checks its order
    z = s21_full(mode, line, grid)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        z = z + noise_std * (rng.standard_normal(grid.size)
                             + 1j * rng.standard_normal(grid.size))
    ns = np.full(grid.size, float(noise_std)) if noise_std > 0 else None
    return ComplexTrace(frequencies=grid, values=z, noise_std=ns)


def synth_power_series(p_grid, gamma=0.0, inv_q0=0.0, delta1=0.0, delta2=0.0,
                       delta3=0.0, noise_rel=0.0, seed=0) -> PowerSeries:
    """Power series from the linear-loss and linear-plus-red-shift models:

        1/Q(P)  = gamma*P + 1/Q0
        Df/f(P) = delta1*P - delta2*(1 - exp(-delta3*P))

    noise_rel applies per-point multiplicative Gaussian noise, the natural
    model for spectroscopy-extracted points.
    """
    check_range("noise_rel", noise_rel, "nonnegative and finite")
    for name, value in zip(("gamma", "inv_q0", "delta1", "delta2", "delta3"),
                           (gamma, inv_q0, delta1, delta2, delta3)):
        check_range(name, value, "finite")
    p = np.asarray(p_grid, dtype=float)
    inv_q = gamma * p + inv_q0
    dfrac = delta1 * p - delta2 * (1.0 - np.exp(-delta3 * p))
    if noise_rel > 0:
        rng = np.random.default_rng(seed)
        sig_q = noise_rel * np.abs(inv_q)
        sig_f = noise_rel * np.abs(dfrac)
        inv_q = inv_q + sig_q * rng.standard_normal(p.size)
        dfrac = dfrac + sig_f * rng.standard_normal(p.size)
        return PowerSeries(p_opt=p, inv_q=inv_q, dfrac=dfrac,
                           sigma_inv_q=sig_q, sigma_dfrac=sig_f)
    return PowerSeries(p_opt=p, inv_q=inv_q, dfrac=dfrac)


def synth_tls_saturation(n_grid, f_delta, n_c, beta, floor, noise_rel=0.0,
                         seed=0):
    """(n_cav, 1/Q_int) points from the saturable TLS loss law."""
    check_range("noise_rel", noise_rel, "nonnegative and finite")
    n = np.asarray(n_grid, dtype=float)
    y = f_delta / np.sqrt(1.0 + (n / n_c) ** beta) + floor
    sigma = None
    if noise_rel > 0:
        rng = np.random.default_rng(seed)
        sigma = noise_rel * np.abs(y)
        y = y + sigma * rng.standard_normal(n.size)
    return n, y, sigma
