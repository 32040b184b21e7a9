"""Synthetic data generators for fit round-trip tests and the CLI."""

import numpy as np

from ..checks import check_range
from ..resonator import LineCalibration, ResonatorMode, s21_full
from .models import (ComplexTrace, PowerSeries, _dfrac, _linear,
                     _tls_saturation)


# the closed domain of each number the two generators below take, SI
# units; in it no trace or series overflows
DOMAINS = {
    "grid": (0.0, 1e16),        # Hz: 0 to 10 PHz, past every mode
    "noise_std": (0.0, 1.0),    # up to a matched line's unit transmission
    "p_grid": (0.0, 1.0),       # W: laser powers up to 1 W
    "gamma": (-1e12, 1e12),     # 1/W: 1/Q moving by 1 per pW
    "inv_q0": (0.0, 1.0),       # a Q of at least 1
    "delta1": (-1e12, 1e12),    # 1/W: df/f moving by 1 per pW
    "delta2": (-1.0, 1.0),      # a saturating shift below f_r itself
    "delta3": (0.0, 1e12),      # 1/W: saturating above 1 pW
    "noise_rel": (0.0, 1.0),    # relative noise up to 100 %
}


def synth_trace(mode: ResonatorMode, line: LineCalibration, grid,
                noise_std=0.0, seed=0) -> ComplexTrace:
    """Full-model trace plus independent Gaussian noise on Re and Im.

    Deterministic for a given seed; noise_std is the per-quadrature standard
    deviation in absolute transmission units.  grid and noise_std take
    their DOMAINS.
    """
    check_range("noise_std", noise_std, DOMAINS["noise_std"])
    grid = np.asarray(grid, dtype=float)
    check_range("grid", grid, DOMAINS["grid"])  # ComplexTrace checks its order
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
    model for spectroscopy-extracted points.  Every number but the seed
    takes its DOMAINS.
    """
    p = np.asarray(p_grid, dtype=float)
    for name, value in zip(("p_grid", "gamma", "inv_q0", "delta1", "delta2",
                            "delta3", "noise_rel"),
                           (p, gamma, inv_q0, delta1, delta2, delta3,
                            noise_rel)):
        check_range(name, value, DOMAINS[name])
    inv_q = _linear((gamma, inv_q0), p)
    dfrac = _dfrac((delta1, delta2, delta3), p)
    sig_q = sig_f = None
    if noise_rel > 0:
        rng = np.random.default_rng(seed)
        sig_q = noise_rel * np.abs(inv_q)
        sig_f = noise_rel * np.abs(dfrac)
        inv_q = inv_q + sig_q * rng.standard_normal(p.size)
        dfrac = dfrac + sig_f * rng.standard_normal(p.size)
    return PowerSeries(p_opt=p, inv_q=inv_q, dfrac=dfrac, sigma_inv_q=sig_q,
                       sigma_dfrac=sig_f)


def synth_tls_saturation(n_grid, f_delta, n_c, beta, floor, noise_rel=0.0,
                         seed=0):
    """(n_cav, 1/Q_int) points from the saturable TLS loss law; noise_rel
    takes its DOMAINS."""
    check_range("noise_rel", noise_rel, DOMAINS["noise_rel"])
    n = np.asarray(n_grid, dtype=float)
    y = _tls_saturation((f_delta, n_c, beta, floor), n)
    sigma = None
    if noise_rel > 0:
        rng = np.random.default_rng(seed)
        sigma = noise_rel * np.abs(y)
        y = y + sigma * rng.standard_normal(n.size)
    return n, y, sigma
