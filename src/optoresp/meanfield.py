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
take about two right-hand-side calls to DOP853's twelve.  Linearised at
<sigma_z> = S, (s, c) obeys the 2x2 matrix

    [[i Delta - Gamma_2, i g_perp S], [-i g_perp, -kappa/2]],

and its eigenvalue mu of largest real part is the slowest linear mode (the
cavity branch wherever kappa/2 < Gamma_2).  LSODA integrates
s~ = e^(-mu t) <s> and c~ = e^(-mu t) <c> (an integrating factor, Lawson
1967):

    d s~/dt  = (i Delta - Gamma_2 - mu) s~ + i g_perp <sigma_z> c~
    d c~/dt  = (-kappa/2 - mu) c~ - i g_perp s~
    d<sz>/dt = -4 g_perp e^(2 Re(mu) t) Im(s~ c~*) - Gamma_1 (<sz> - S)

and returns <c> = e^(mu t) c~.  The change of variables is exact for any mu,
so mu shapes LSODA's steps only, never the trajectory or the fit.  Every
other linear mode decays relative to mu, so no component of (s~, c~) grows;
with S in [-1, 0] the system is passive, Re(mu) < 0, and the factor on the
sigma_z row only falls.  After the TLS transient the field is the slowest
mode, which in this frame is constant, so LSODA's steps follow only the
transient and the small pull of <sigma_z> off S.  mu comes from numpy's
eigvals; no closed form of :mod:`optoresp.tls` enters it.

RTOL is the relative error on c~ and on <c> alike; ATOL bounds the error on
c~, so on <c> it is ATOL e^(Re(mu) t), at most ATOL.  A sample with |c~|
below C_TILDE_FLOOR ATOL carries integrator error, not physics, and raises
rather than enter the fit on log |c|.  |c~| settles at the seed's share of
the slowest mode: within 1 % of the seed on criterion 5's draws (kappa =
Gamma_2/150), 16 decades above that floor.  It falls toward ATOL only where
a mode faster than mu carries the field, as the cavity does when
kappa/2 > Gamma_2.

The linear longitudinal equations are propagated exactly by expm(M dt) on a
uniform grid, and their fixed point (the static displacement sourced by S)
is removed before demodulating at omega_r.  sigma_z couples to c + c*, so
the lab-frame field also carries a small counter-rotating part, which beats
with the demodulated carrier at 2 omega (omega = omega_r minus the fitted
phase slope) and ripples log |c| at a fixed relative size, up to 2e-3 where
omega_r is near Gamma_1.  The longitudinal fit therefore takes cos 2 omega t
and sin 2 omega t as two more columns beside t and 1, for both the log
amplitude and the phase; the transverse fit, in the rotating frame, has no
such ripple and takes t and 1 only.  Validity of the closed forms
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

from .checks import NumericalError, check_range, domain
from .constants import TWO_PI
from .ensemble import EnsembleParams
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
C_TILDE_FLOOR = 1e6     # least e^(-mu t) |c| fitted, in units of ATOL

# rad/s: a linewidth of 1 Hz to TlsUnit's top rate (omega_r takes
# EnsembleParams' domain)
DOMAINS = {"kappa_tot": (TWO_PI, TWO_PI * 1e13)}


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
    a transverse field e^(-mu t) |c| (mu the slowest linear mode) below
    C_TILDE_FLOOR ATOL at any sample, or a decay fit residual above
    RESIDUAL_TOL raises OdeConvergenceError.

    Parameters
    ----------
    tls : TlsUnit
        One TLS, with gamma1 > 0.
    omega_r : float
        Resonator angular frequency [rad/s] (enters the longitudinal
        dynamics; the transverse equations are written in its frame).
    kappa_tot : float
        Bare cavity energy decay rate [rad/s], in DOMAINS.
    mode : {"transverse", "longitudinal"}

    Returns
    -------
    SteadyStateResult
    """
    _one_tls(tls)
    if mode not in ("transverse", "longitudinal"):
        raise ValueError(f"unknown mode {mode!r}")
    check_range("omega_r", omega_r, domain(EnsembleParams, "omega_r"))
    check_range("kappa_tot", kappa_tot, DOMAINS["kappa_tot"])
    t_end = HORIZON / kappa_tot
    if mode == "transverse":
        t, c, sz = _integrate_transverse(tls, kappa_tot, t_end, tls.s)
    else:
        t, c, sz = _integrate_longitudinal(tls, omega_r, kappa_tot, t_end)

    # fit over the final 80% of the window
    m = t >= t[0] + 0.2 * (t[-1] - t[0])
    design = np.column_stack([t[m], np.ones(m.sum())])
    log_amp = np.abs(c[m])
    if not log_amp.min() > 0.0:
        del t, c, sz, m, log_amp  # a kept error holds no trajectory
        raise OdeConvergenceError("cavity field underflowed within the "
                                  "horizon: the TLS loss far exceeds kappa_tot")
    np.log(log_amp, out=log_amp)
    phase = np.unwrap(np.angle(c[m]))
    coef_ph, *_ = np.linalg.lstsq(design, phase, rcond=None)
    if mode == "transverse":
        coef_amp, *_ = np.linalg.lstsq(design, log_amp, rcond=None)
    else:
        # the counter-rotating ripple, at twice the carrier omega_r - (phase
        # slope)
        beat = 2.0 * (omega_r - coef_ph[0])
        design = np.column_stack([design, np.cos(beat * t[m]),
                                  np.sin(beat * t[m])])
        coef_amp, coef_ph = np.linalg.lstsq(
            design, np.column_stack([log_amp, phase]), rcond=None)[0].T
    resid = np.max(np.abs(log_amp - design @ coef_amp))
    if resid > RESIDUAL_TOL:
        # a kept error holds neither the trajectory nor the fit
        del t, c, sz, m, design, phase, log_amp, coef_ph, coef_amp
        raise OdeConvergenceError(
            f"decay fit residual {resid:.2e} exceeds {RESIDUAL_TOL:.2e}; "
            "mode structure not settled within the horizon")

    return SteadyStateResult(extra_loss=float(-2.0 * coef_amp[0] - kappa_tot),
                             shift=float(-coef_ph[0]), t=t, cavity_field=c,
                             fit_residual=float(resid), sigma_z=sz)


def _frame(tls, kappa):
    """mu: the eigenvalue with the largest real part of the (s, c) equations
    linearised at <sigma_z> = S, the slowest linear mode."""
    g, delta, s0 = float(tls.g_perp), float(tls.detuning), float(tls.s)
    lam = np.linalg.eigvals([[1j * delta - float(tls.gamma2), 1j * g * s0],
                             [-1j * g, -0.5 * kappa]])
    return complex(lam[np.argmax(lam.real)])


def _integrate_transverse(tls, kappa_tot, t_end, sz_init):
    from scipy.integrate import ODEintWarning, odeint

    # Python floats: numpy scalars' IEEE results, several times cheaper
    g, g1, g2 = float(tls.g_perp), float(tls.gamma1), float(tls.gamma2)
    delta, s0 = float(tls.detuning), float(tls.s)
    kappa = float(kappa_tot)
    mu = _frame(tls, kappa)
    # (s~, c~) = e^(-mu t) (s, c): s~ turns at delta - Im mu and decays at
    # Gamma_2 + Re mu, c~ turns at -Im mu and decays at kappa/2 + Re mu
    s_rate, s_turn = -g2 - mu.real, delta - mu.imag
    c_rate, c_turn = -0.5 * kappa - mu.real, -mu.imag
    two_re_mu, exp = 2.0 * mu.real, math.exp

    # y = (Re s~, Im s~, Re c~, Im c~, sz): the slowest linear mode is
    # factored out, so LSODA resolves only the TLS transient and what the
    # nonlinearity adds to that mode
    def rhs(t, y):
        sr, si, cr, ci, sz = y.tolist()
        return [s_rate * sr - s_turn * si - g * sz * ci,
                s_turn * sr + s_rate * si + g * sz * cr,
                c_rate * cr - c_turn * ci + g * si,
                c_turn * cr + c_rate * ci - g * sr,
                -4.0 * g * exp(two_re_mu * t) * (si * cr - sr * ci)
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
            f"cavity field e^(-mu t) |c| fell below {C_TILDE_FLOOR:.0e} "
            f"ATOL at t = {t_low:.3e} s of {t_end:.3e} s")
    return t, np.exp(mu * t) * c_tilde, y[:, 4]


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
