"""Mean-field steady-state oracle for the coupled TLS-resonator equations.

Integrates the factorized cavity/TLS equations of motion (<sigma_z c> ~
<sigma_z><c>) from a small coherent seed and reads the extra decay rate and
frequency pull off the decaying cavity field, by linear fits to
log-amplitude and unwrapped phase.  This is the brute-force cross-check for
the closed forms in :mod:`optoresp.tls`; it never uses them.

Transverse mode (exchange coupling), in the frame rotating at omega_r:

    d<s>/dt  = (i Delta - Gamma_2) <s> + i g_perp <sigma_z><c>
    d<c>/dt  = -kappa/2 <c> - i g_perp <s>
    d<sz>/dt = 2 i g_perp (<s><c>* - <s>*<c>) - Gamma_1 (<sz> - S)

Longitudinal mode (sigma_z coupling), in the lab frame:

    d<c>/dt  = -(i omega_r + kappa/2) <c> - i g_par <sigma_z>
    d<sz>/dt = -Gamma_1 (<sz> - [S - dS g_par (<c> + <c>*)])

The transverse equations, nonlinear in <sigma_z>, run on DOP853.  The linear
longitudinal ones are propagated exactly by expm(M dt) on a uniform grid, and
their fixed point (the static displacement sourced by S) is removed before
demodulating at omega_r.  Validity of the closed forms requires weak coupling
(g <~ Gamma_2/4) and kappa well below the TLS rates; the rotating-wave step
behind the longitudinal closed form costs O(kappa/omega_r), so keep
kappa/omega_r small when using this as a tight oracle.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .constants import TWO_PI
from .tls import TlsUnit


class OdeConvergenceError(RuntimeError):
    """Cavity decay did not settle into a clean exponential within the window."""


@dataclass(frozen=True)
class SteadyStateResult:
    extra_loss: float        # added energy decay rate [rad/s]
    shift: float             # resonator frequency pull [rad/s]
    fit_residual: float      # max |residual| of the log-amplitude fit
    t: np.ndarray            # sample times [s]
    cavity_field: np.ndarray  # demodulated <c>(t)
    sigma_z: np.ndarray      # <sigma_z>(t)


def steady_state_by_integration(tls: TlsUnit, omega_r, kappa_tot, mode,
                                seed_amplitude=1e-4, horizon=14.0,
                                n_samples=400, residual_tol=1e-3,
                                rtol=1e-10, sz0=None):
    """Extra loss and shift of the cavity mode, extracted by integration.

    Parameters
    ----------
    tls : TlsUnit
    omega_r : float
        Resonator angular frequency [rad/s] (enters the longitudinal
        dynamics; the transverse equations are written in its frame).
    kappa_tot : float
        Bare cavity energy decay rate [rad/s].
    mode : {"transverse", "longitudinal"}
    seed_amplitude : float
        Initial coherent amplitude; keep small so the TLS stays unsaturated.
    horizon : float
        Integration time in units of 1/kappa_tot.
    residual_tol : float
        Maximum tolerated residual of the exponential-decay fit.
    rtol : float
        Transverse DOP853 tolerance; the longitudinal propagation is exact.
    sz0 : float, optional
        Initial population; defaults to the TLS's own s, so the population
        starts relaxed.

    Returns
    -------
    SteadyStateResult
    """
    if mode not in ("transverse", "longitudinal"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (kappa_tot > 0):
        raise ValueError("kappa_tot must be positive")
    sz_init = tls.s if sz0 is None else float(sz0)

    t_end = horizon / kappa_tot
    if mode == "transverse":
        t, c, sz = _integrate_transverse(tls, kappa_tot, t_end, seed_amplitude,
                                         n_samples, rtol, sz_init)
    else:
        t, c, sz = _integrate_longitudinal(tls, omega_r, kappa_tot, t_end,
                                           seed_amplitude, sz_init)

    # fit over the final 80% of the window
    m = t >= t[0] + 0.2 * (t[-1] - t[0])
    design = np.column_stack([t[m], np.ones(m.sum())])
    log_amp = np.log(np.abs(c[m]))
    coef_amp, *_ = np.linalg.lstsq(design, log_amp, rcond=None)
    coef_ph, *_ = np.linalg.lstsq(design, np.unwrap(np.angle(c[m])), rcond=None)
    resid = np.max(np.abs(log_amp - design @ coef_amp))
    if resid > residual_tol:
        raise OdeConvergenceError(
            f"decay fit residual {resid:.2e} exceeds {residual_tol:.2e}; "
            "mode structure not settled within the horizon")

    extra_loss = -2.0 * coef_amp[0] - kappa_tot
    shift = -coef_ph[0]
    return SteadyStateResult(extra_loss=float(extra_loss), shift=float(shift),
                             fit_residual=float(resid), t=t, cavity_field=c,
                             sigma_z=sz)


def _integrate_transverse(tls, kappa_tot, t_end, seed, n_samples, rtol,
                          sz_init):
    g, g1, g2 = tls.g_perp, tls.gamma1, tls.gamma2
    delta, s0 = tls.detuning, tls.s

    def rhs(_t, y):
        s = y[0] + 1j * y[1]
        c = y[2] + 1j * y[3]
        sz = y[4]
        ds = (1j * delta - g2) * s + 1j * g * sz * c
        dc = -0.5 * kappa_tot * c - 1j * g * s
        dsz = -4.0 * g * np.imag(s * np.conj(c)) - g1 * (sz - s0)
        return [ds.real, ds.imag, dc.real, dc.imag, dsz]

    t_eval = np.linspace(0.0, t_end, n_samples)
    sol = solve_ivp(rhs, (0.0, t_end), [0.0, 0.0, seed, 0.0, sz_init],
                    t_eval=t_eval, method="DOP853", rtol=rtol,
                    atol=1e-12 * seed)
    c = sol.y[2] + 1j * sol.y[3]
    return sol.t, c, sol.y[4]


def _integrate_longitudinal(tls, omega_r, kappa_tot, t_end, seed, sz_init):
    g, g1, s0 = tls.g_par, tls.gamma1, tls.s
    # y = (Re c, Im c, sz) obeys dy/dt = mat y + (0, 0, Gamma_1 S); its fixed
    # point is the static displacement sourced by S
    mat = np.array([[-0.5 * kappa_tot, omega_r, 0.0],
                    [-omega_r, -0.5 * kappa_tot, -g],
                    [-2.0 * g1 * tls.ds * g, 0.0, -g1]])
    fp = np.linalg.solve(mat, [0.0, 0.0, -g1 * s0])

    # resolve the carrier: >= 8 samples per 2pi/omega_r, capped for memory
    n = int(np.clip(t_end * omega_r / TWO_PI * 8.0, 200, 20000))
    t = np.linspace(0.0, t_end, n)
    # deviation from the fixed point: row k is expm(mat dt)^k d_0, filled by
    # doubling (rows m.. are rows 0.. times (E^m)^T); no eigendecomposition,
    # so a defective mat is fine
    dev = np.empty((n, 3))
    dev[0] = [seed, 0.0, sz_init - s0]
    step, m = expm(mat * t[1]), 1
    while m < n:
        k = min(m, n - m)
        dev[m:m + k] = dev[:k] @ step.T
        step, m = step @ step, m + k
    c = (dev[:, 0] + 1j * dev[:, 1]) * np.exp(1j * omega_r * t)
    return t, c, fp[2] + dev[:, 2]
