"""Synthetic data generators for fit round-trip tests and the CLI."""

import numpy as np

from ..checks import check_range
from ..constants import TWO_PI
from ..resonator import LineCalibration, ResonatorMode, s21_full
from .models import ComplexTrace, PowerSeries


def synth_trace(mode: ResonatorMode, line: LineCalibration, grid,
                noise_std=0.0, seed=0) -> ComplexTrace:
    """Full-model trace plus independent Gaussian noise on Re and Im.

    Deterministic for a given seed; noise_std is the per-quadrature standard
    deviation in absolute transmission units.  Finite arguments whose trace
    overflows are refused by the field that overflows it.
    """
    check_range("noise_std", noise_std, "nonnegative and finite")
    grid = np.asarray(grid, dtype=float)
    check_range("grid", grid, "finite")  # ComplexTrace checks its order
    with np.errstate(over="ignore", invalid="ignore"):
        # the two products of the model that overflow first
        check_range("f_r is too small for the frequency grid: (f - f_r)/f_r",
                    (grid - mode.f_r) / mode.f_r, "finite")
        check_range("delay is too large for the frequency grid: 2 pi f tau",
                    TWO_PI * grid * line.delay, "finite")
        z = s21_full(mode, line, grid)
        if noise_std > 0:
            rng = np.random.default_rng(seed)
            z = z + noise_std * (rng.standard_normal(grid.size)
                                 + 1j * rng.standard_normal(grid.size))
            check_range("noise_std is too large: the noisy S21",
                        (z.real, z.imag), "finite")
    ns = np.full(grid.size, float(noise_std)) if noise_std > 0 else None
    return ComplexTrace(frequencies=grid, values=z, noise_std=ns)


def synth_power_series(p_grid, gamma=0.0, inv_q0=0.0, delta1=0.0, delta2=0.0,
                       delta3=0.0, noise_rel=0.0, seed=0) -> PowerSeries:
    """Power series from the linear-loss and linear-plus-red-shift models:

        1/Q(P)  = gamma*P + 1/Q0
        Df/f(P) = delta1*P - delta2*(1 - exp(-delta3*P))

    noise_rel applies per-point multiplicative Gaussian noise, the natural
    model for spectroscopy-extracted points.  Finite arguments whose series
    overflows are refused by the fields that overflow it.
    """
    check_range("noise_rel", noise_rel, "nonnegative and finite")
    for name, value in zip(("gamma", "inv_q0", "delta1", "delta2", "delta3"),
                           (gamma, inv_q0, delta1, delta2, delta3)):
        check_range(name, value, "finite")
    p = np.asarray(p_grid, dtype=float)
    sig_q = sig_f = None
    with np.errstate(over="ignore", invalid="ignore"):
        inv_q = gamma * p + inv_q0
        decay = np.exp(-delta3 * p)
        dfrac = delta1 * p - delta2 * (1.0 - decay)
        check_range("gamma or inv_q0 is too large for the power grid: 1/Q",
                    inv_q, "finite")
        check_range("delta3 is too negative for the power grid: "
                    "exp(-delta3 P)", decay, "finite")
        check_range("delta1 or delta2 is too large for the power grid: "
                    "df/f", dfrac, "finite")
        if noise_rel > 0:
            rng = np.random.default_rng(seed)
            sig_q = noise_rel * np.abs(inv_q)
            sig_f = noise_rel * np.abs(dfrac)
            inv_q = inv_q + sig_q * rng.standard_normal(p.size)
            dfrac = dfrac + sig_f * rng.standard_normal(p.size)
            check_range("noise_rel is too large: the noisy series",
                        (sig_q, sig_f, inv_q, dfrac), "finite")
    return PowerSeries(p_opt=p, inv_q=inv_q, dfrac=dfrac, sigma_inv_q=sig_q,
                       sigma_dfrac=sig_f)


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
