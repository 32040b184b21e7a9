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

The transverse equations, nonlinear in <sigma_z>, are stiff: the TLS decays at
Gamma_2 over a window of 14/kappa (2100/Gamma_2 at kappa = Gamma_2/150).  They
run on one call of LSODA (``scipy.integrate.odeint``), whose implicit steps
take about two right-hand-side calls to DOP853's twelve.  The bare decay
e^(-kappa t/2) is exact, so LSODA integrates s~ = e^(kappa t/2) <s> and
c~ = e^(kappa t/2) <c> (an integrating factor, Lawson 1967):

    d s~/dt  = (i Delta - Gamma_2 + kappa/2) s~ + i g_perp <sigma_z> c~
    d c~/dt  = -i g_perp s~
    d<sz>/dt = 2 i g_perp e^(-kappa t) (s~ c~* - s~* c~) - Gamma_1 (<sz> - S)

and returns <c> = e^(-kappa t/2) c~.  Late in the window the field is the
cavity-branch mode, which decays at (kappa + loss)/2; in this frame it decays
at loss/2, so wherever the TLS loss is below kappa LSODA's steps grow.  RTOL
is the relative error on c~ and on <c> alike; ATOL bounds the error on c~,
so on <c> it is ATOL e^(-kappa t/2), at most ATOL.  A sample with |c~| below
C_TILDE_FLOOR ATOL carries integrator error, not physics, and raises rather
than enter the fit on log |c|.

The linear longitudinal equations are propagated exactly by expm(M dt) on a
uniform grid, and their fixed point (the static displacement sourced by S)
is removed before demodulating at omega_r.  Validity of the closed forms
requires weak coupling (g <~ Gamma_2/4) and kappa well below the TLS rates;
the rotating-wave step behind the longitudinal closed form costs
O(kappa/omega_r), so keep kappa/omega_r small for a tight oracle.

scipy loads on first use: ``odeint`` inside the transverse solve and ``expm``
inside the longitudinal one, so importing this module loads numpy only.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .checks import NumericalError
from .constants import TWO_PI
from .tls import TlsUnit, _one_tls


class OdeConvergenceError(NumericalError):
    """LSODA stopped, the cavity field fell to LSODA's absolute tolerance, or
    the decay did not settle within the window."""


HORIZON = 14.0          # integration window, in units of 1/kappa_tot
N_SAMPLES = 400         # transverse sample times over the window
RESIDUAL_TOL = 1e-3     # max |residual| of the log-amplitude decay fit
SEED_AMPLITUDE = 1e-4   # initial <c>, small so the TLS stays unsaturated
RTOL, ATOL = 1e-12, 1e-22 * SEED_AMPLITUDE  # transverse LSODA tolerances
MAX_STEPS = 20000       # LSODA steps allowed per sample interval
C_TILDE_FLOOR = 1e6     # least e^(kappa t/2) |c| fitted, in units of ATOL


@dataclass(frozen=True)
class SteadyStateResult:
    extra_loss: float        # added energy decay rate [rad/s]
    shift: float             # resonator frequency pull [rad/s]
    fit_residual: float      # max |residual| of the log-amplitude fit
    t: np.ndarray            # sample times [s]
    cavity_field: np.ndarray  # demodulated <c>(t)
    sigma_z: np.ndarray      # <sigma_z>(t)


def steady_state_by_integration(tls: TlsUnit, omega_r, kappa_tot, mode):
    """Extra loss and shift of the cavity mode, extracted by integration
    from a coherent amplitude SEED_AMPLITUDE and the relaxed population
    tls.s over HORIZON/kappa_tot: the transverse solve at N_SAMPLES times by
    LSODA to RTOL and ATOL, the longitudinal one exactly.  A stopped solve,
    a transverse field e^(kappa_tot t/2) |c| below C_TILDE_FLOOR ATOL at any
    sample, or a decay fit residual above RESIDUAL_TOL raises
    OdeConvergenceError.

    Parameters
    ----------
    tls : TlsUnit
        One TLS, with gamma1 > 0.
    omega_r : float
        Resonator angular frequency [rad/s] (enters the longitudinal
        dynamics; the transverse equations are written in its frame).
    kappa_tot : float
        Bare cavity energy decay rate [rad/s].
    mode : {"transverse", "longitudinal"}

    Returns
    -------
    SteadyStateResult
    """
    _one_tls(tls)
    if mode not in ("transverse", "longitudinal"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (kappa_tot > 0):
        raise ValueError("kappa_tot must be positive")
    t_end = HORIZON / kappa_tot
    if mode == "transverse":
        t, c, sz = _integrate_transverse(tls, kappa_tot, t_end, tls.s)
    else:
        t, c, sz = _integrate_longitudinal(tls, omega_r, kappa_tot, t_end)

    # fit over the final 80% of the window
    m = t >= t[0] + 0.2 * (t[-1] - t[0])
    design = np.column_stack([t[m], np.ones(m.sum())])
    log_amp = np.log(np.abs(c[m]))
    coef_amp, *_ = np.linalg.lstsq(design, log_amp, rcond=None)
    coef_ph, *_ = np.linalg.lstsq(design, np.unwrap(np.angle(c[m])), rcond=None)
    resid = np.max(np.abs(log_amp - design @ coef_amp))
    if resid > RESIDUAL_TOL:
        del t, c, sz, m, design, log_amp  # a kept error holds no trajectory
        raise OdeConvergenceError(
            f"decay fit residual {resid:.2e} exceeds {RESIDUAL_TOL:.2e}; "
            "mode structure not settled within the horizon")

    return SteadyStateResult(extra_loss=float(-2.0 * coef_amp[0] - kappa_tot),
                             shift=float(-coef_ph[0]), t=t, cavity_field=c,
                             fit_residual=float(resid), sigma_z=sz)


def _integrate_transverse(tls, kappa_tot, t_end, sz_init):
    from scipy.integrate import ODEintWarning, odeint

    # Python floats: numpy scalars' IEEE results, several times cheaper
    g, g1, g2 = float(tls.g_perp), float(tls.gamma1), float(tls.gamma2)
    delta, s0 = float(tls.detuning), float(tls.s)
    kappa = float(kappa_tot)
    half_kappa, neg_kappa = 0.5 * kappa, -kappa
    rate, exp = half_kappa - g2, math.exp

    # y = (Re s~, Im s~, Re c~, Im c~, sz), (s~, c~) = e^(kappa t/2) (s, c):
    # the bare cavity decay is factored out, so LSODA resolves only what the
    # TLS adds to it
    def rhs(t, y):
        sr, si, cr, ci, sz = y.tolist()
        return [rate * sr - delta * si - g * sz * ci,
                delta * sr + rate * si + g * sz * cr,
                g * si, -g * sr,
                -4.0 * g * exp(neg_kappa * t) * (si * cr - sr * ci)
                - g1 * (sz - s0)]

    t = np.linspace(0.0, t_end, N_SAMPLES)
    with warnings.catch_warnings():  # the message below reports failure
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(rhs, [0.0, 0.0, SEED_AMPLITUDE, 0.0, sz_init], t,
                         rtol=RTOL, atol=ATOL, mxstep=MAX_STEPS,
                         full_output=True, tfirst=True)
    if info["message"] != "Integration successful.":
        # tcur[k]: time reached towards t[k + 1]; unset past the failure
        tcur = info["tcur"][np.argmax(info["tcur"] < t[1:])]
        reason = info["message"].replace(" (perhaps wrong Dfun type)", "")
        raise OdeConvergenceError(f"LSODA stopped at t = {tcur:.3e} s of "
                                  f"{t_end:.3e} s: {reason}")
    c_tilde = y[:, 2] + 1j * y[:, 3]
    # ATOL bounds the error on c~; a fit through samples near it reads noise
    low = np.abs(c_tilde) < C_TILDE_FLOOR * ATOL
    if low.any():
        t_low = t[np.argmax(low)]
        del t, y, info, c_tilde, low  # a kept error holds no trajectory
        raise OdeConvergenceError(
            f"cavity field e^(kappa t/2) |c| fell below {C_TILDE_FLOOR:.0e} "
            f"ATOL at t = {t_low:.3e} s of {t_end:.3e} s")
    return t, np.exp(-half_kappa * t) * c_tilde, y[:, 4]


def _integrate_longitudinal(tls, omega_r, kappa_tot, t_end):
    from scipy.linalg import expm

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
    dev[0] = [SEED_AMPLITUDE, 0.0, 0.0]  # the population starts relaxed
    step, m = expm(mat * t[1]), 1
    while m < n:
        k = min(m, n - m)
        dev[m:m + k] = dev[:k] @ step.T
        step, m = step @ step, m + k
    c = (dev[:, 0] + 1j * dev[:, 1]) * np.exp(1j * omega_r * t)
    return t, c, fp[2] + dev[:, 2]
