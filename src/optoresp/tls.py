"""Two-level-system (TLS) microphysics, for one TLS or a bath of them.

A TLS at detuning Delta = omega_r - omega_TLS couples to the resonator
transversely (exchange, g_perp) and longitudinally (sigma_z, g_par).  Its
state enters through the population imbalance S = <sigma_z> in [-1, 0] and
the population slope dS (seconds), the frequency derivative of the imbalance
that drives the Debye-type longitudinal response.  Both are stored per TLS so
that nonequilibrium (phonon-driven) values decouple from the thermodynamic
temperature.  TlsUnit holds one TLS or a bath (the Monte Carlo's draw): the
closed forms take either, the quadrature and mean-field oracles one TLS only.
The two forms the Monte Carlo sums, longitudinal_complex_shift and
dispersive_pull, evaluate in place, into rows the caller may own (out), in
the operation order of their formulas; the Monte Carlo reuses its rows from
block to block.

Also here: the temperature dependence of the TLS permittivity (a closed
form in scipy's complex digamma, which broadcasts over mode frequencies and
temperatures), the Kramers-Kronig quadrature oracle for that closed form
on a host of given loss tangent (a Cauchy-weight principal value plus a
plain tail, two to four QUADPACK calls), and the Gaussian spectral-diffusion
loss integral with its saturated closed form (QUADPACK's 21-point
Gauss-Kronrod rule and bisection over the detuning, batched in numpy, and a
fixed Gauss-Legendre rule over the Gaussian).

scipy loads on first use: ``quad`` inside the Kramers-Kronig oracle, and
``scipy.special.digamma`` inside :func:`digamma`.  Importing this module,
using the closed forms the Monte Carlo runs on, or the spectral-diffusion
oracle loads numpy only.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .checks import (NumericalError, check_fields, check_range, domain,
                     ranged)
from .constants import HBAR, K_B, PLANCK, TWO_PI
from .resonator import ResonatorMode


def digamma(z):
    """scipy's digamma psi(z), complex z included, elementwise."""
    from scipy.special import digamma
    return digamma(z)


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class ThermalEnvironment:
    """Phonon bath at temperature [K].

    temperature may be a numpy array of temperatures; validation rejects
    the whole array if any element lies outside its domain.
    """

    # K: a dilution refrigerator's floor, with margin, to far above any T_c
    temperature: float = ranged(1e-6, 1e4)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TlsHostMaterial:
    """Dielectric host holding the TLS bath.

    intrinsic_loss : loss tangent delta_TLS of the bath
    """

    intrinsic_loss: float = ranged(0.0, 1.0)  # a loss tangent is at most 1

    def __post_init__(self):
        check_fields(self)

    @property
    def delta_tls(self) -> float:
        return self.intrinsic_loss


@dataclass(frozen=True)
class SaturationDrive:
    """Microwave drive state for TLS saturation.

    n_cav : mean intracavity photon number
    """

    # far past a superconducting resonator's breakdown (about 1e9 photons);
    # it bounds spectral_diffusion_loss's outer cut-off
    n_cav: float = ranged(0.0, 1e15, 0.0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TlsUnit:
    """One TLS, or a bath of them in columns (a scalar field is shared by
    every TLS): detuning, couplings, rates, populations, position.

    detuning = omega_r - omega_TLS [rad/s], signed.  gamma1 >= 0 and
    gamma2 >= gamma1/2 (Gamma_2 = Gamma_1/2 + gamma_phi); gamma2 > 0 or
    detuning != 0 keeps every Lorentzian finite when a rate is zero.
    s is <sigma_z> in [-1, 0]; ds [s] is the population-slope parameter of
    the longitudinal response (equal to hbar*(1 - tanh^2(hbar w/2 k T))/(k T)
    at equilibrium).
    """

    # each field's closed domain [lo, hi] holds every bath drawn from a
    # valid McConfig: ten times its window and its largest g_mean and
    # gamma1_mean, which a draw exceeds at most 6.8-fold (see McConfig)
    detuning: float = ranged(-TWO_PI * 1e16, TWO_PI * 1e16)  # rad/s
    g_perp: float = ranged(0.0, TWO_PI * 1e13)  # rad/s
    g_par: float = ranged(0.0, TWO_PI * 1e13)
    gamma1: float = ranged(0.0, TWO_PI * 1e13)
    gamma2: float = ranged(0.0, TWO_PI * 1e13)
    s: float = ranged(-1.0, 0.0)
    ds: float = ranged(0.0, 1e-3, 0.0)  # s
    x: float = ranged(-1e5, 1e5, 0.0)  # m: McConfig's reach is below 51 km

    def __post_init__(self):
        # a column shared by two fields of one domain (the Monte Carlo's
        # g_perp = g_par and gamma1 = gamma2) is checked once, under the
        # first field's name
        first = {}
        for f in fields(self):
            first.setdefault((id(getattr(self, f.name)), f.metadata["domain"]),
                             f.name)
        check_fields(self, first.values())
        # x >= x/2 for every nonnegative finite x: a shared column passes
        if (self.gamma2 is not self.gamma1
                and not np.all(self.gamma2 >= 0.5 * self.gamma1)):
            raise ValueError("gamma2 must be >= gamma1/2")
        if not np.all((self.gamma2 > 0) | (self.detuning != 0)):
            raise ValueError("gamma2 and detuning must not both vanish")
        len(self)  # the columns must broadcast together

    def __len__(self):
        """Number of TLSs: the broadcast length of the columns, 1 for one TLS."""
        return int(np.prod(np.broadcast_shapes(*map(np.shape, vars(self).values()))))

    def select(self, index):
        """The TLSs at index (a slice, a boolean mask or an index array) of
        each column, not validated again: TLSs of a valid bath are valid."""
        sub = object.__new__(TlsUnit)
        vars(sub).update((k, v[index] if np.ndim(v) else v)
                         for k, v in vars(self).items())
        return sub

    @property
    def saturation_photon_number(self):
        """n_s = Gamma_1 Gamma_2 / (4 g_perp^2); inf for a decoupled TLS."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.g_perp == 0.0, np.inf,
                            np.divide(self.gamma1 * self.gamma2,
                                      4.0 * self.g_perp**2))[()]


def transverse_complex_shift(tls: TlsUnit):
    """Loss and frequency pull of the resonator from the exchange coupling.

    Returns (delta_kappa, delta_omega) in rad/s, one value per TLS of tls:

        delta_kappa = -2 g_perp^2 Gamma_2 S / (Gamma_2^2 + Delta^2)
        delta_omega = -  g_perp^2 Delta  S / (Gamma_2^2 + Delta^2)

    For S < 0 the loss is positive and the pull has the sign of -Delta*S:
    a TLS below the resonator (Delta > 0) pushes the frequency up.
    """
    loss = (-2.0 * tls.g_perp**2 * tls.gamma2 * tls.s
            / (tls.gamma2**2 + tls.detuning**2))
    return loss, dispersive_pull(tls, tls.s)


def _rows(out, k, *columns):
    """The k rows a closed form writes: out's, or those of a fresh (k, ...)
    array shaped like the broadcast of columns.  Each row is a view, 0-d
    for one TLS."""
    if out is None:
        out = np.empty((k, *np.broadcast_shapes(*map(np.shape, columns))))
    return [out[i, ...] for i in range(k)]


def dispersive_pull(tls: TlsUnit, s, out=None):
    """-g_perp^2 Delta s / (Gamma_2^2 + Delta^2) [rad/s], the pull of tls at
    population s: S in transverse_complex_shift, 1 + S in the Monte Carlo.

    out, a float array of two rows owned by the caller, takes the pull in
    out[0] and the denominator in out[1]; s must not lie in it.  Without
    it the rows are fresh.  Either way the steps are the same in-place ones,
    in the order of the formula, and the pull is returned.
    """
    pull, denom = _rows(out, 2, tls.g_perp, tls.detuning, s, tls.gamma2)
    np.square(tls.detuning, out=pull)
    np.square(tls.gamma2, out=denom)
    denom += pull
    np.square(tls.g_perp, out=pull)
    np.negative(pull, out=pull)
    pull *= tls.detuning
    pull *= s
    pull /= denom
    return pull[()]


def _drive_ratio(tls: TlsUnit, drive: SaturationDrive):
    """n_cav/n_s; a coupled TLS with gamma1 = 0 has n_s = 0 and no ratio."""
    n_s = tls.saturation_photon_number
    if not np.min(n_s, initial=np.inf) > 0:
        raise ValueError("gamma1 must be positive for a coupled TLS (n_s = 0)")
    return drive.n_cav / n_s


def longitudinal_complex_shift(tls: TlsUnit, omega_r, out=None):
    """Debye loss and down-shift from the sigma_z coupling.

    Returns (loss, shift) in rad/s, one value per TLS of tls:

        loss  = +2 g_par^2 dS Gamma_1 omega_r / (Gamma_1^2 + omega_r^2)
        shift = -  g_par^2 dS Gamma_1^2     / (Gamma_1^2 + omega_r^2)

    Both vanish for a frozen population (dS = 0); the loss is
    detuning-independent, which is the experimental fingerprint of this
    channel.

    out, a float array of three rows owned by the caller, takes the loss in
    out[0], the shift in out[1] and the denominator in out[2].  Without it
    the rows are fresh.  Either way the steps are the same in-place ones, in
    the order of the formulas: ((((2 g_par^2) dS) Gamma_1) omega_r)/denom.
    """
    loss, shift, denom = _rows(out, 3, tls.g_par, tls.ds, tls.gamma1, omega_r)
    np.square(tls.g_par, out=loss)
    np.negative(loss, out=shift)
    loss *= 2.0
    loss *= tls.ds
    loss *= tls.gamma1
    loss *= omega_r
    shift *= tls.ds
    np.square(tls.gamma1, out=denom)
    shift *= denom
    denom += omega_r**2
    loss /= denom
    shift /= denom
    return loss[()], shift[()]


def permittivity_bracket(f_r, env: ThermalEnvironment):
    """Re psi(1/2 - h f/(2 i pi k T)) - ln(h f/(2 pi k T)); the temperature
    dependence of the TLS permittivity up to the -delta/pi prefactor.

    f_r broadcasts against env.temperature: f_r[:, None] with an array of
    temperatures gives one row per mode.  f_r takes ResonatorMode's domain:
    with the temperature's, h f/(2 pi k T) lies in [7e-13, 8e9].
    """
    f_r = np.asarray(f_r)
    check_range("f_r", f_r, domain(ResonatorMode, "f_r"))
    x = PLANCK * f_r / (TWO_PI * K_B * env.temperature)
    return digamma(0.5 + 1j * x).real - np.log(x)


# inner spectral-diffusion window, in Gaussians: the tail past 12 is ~1.8e-33
# per side (spectral_diffusion_loss bounds the share it drops below 1e-23)
SD_N_SIGMA = 12.0
# widest spectral diffusion the oracle takes, in Gamma_2: the range its
# tests cover.  At 3e3 and 1e5 the inner rule meets its estimate and no
# warning is raised; the result is 3.5e-6 and 1.1e-7 below the closed form
# without drive, and 1.6e-4 below (the outer cut-off's share) at n/n_s = 1e8
SD_SIGMA_MAX = 1e3
# fixed inner knots, in Gaussians: no segment of the Gaussian's bulk spans
# more than 3 standard deviations; past 9 it is below 3e-18 of its peak
SD_GAUSS_KNOTS = (-9.0, -6.0, -3.0, 3.0, 6.0, 9.0)
# largest relative gap between the 20- and 16-node inner sums
SD_INNER_RTOL = 1e-10

# the closed domain of each oracle argument that no field declares
DOMAINS = {
    "f_cutoff": (2e3, 1e18),  # Hz: past 2 f, to 400 f (the default) at f's top
    # rad/s: any positive width, to SD_SIGMA_MAX times TlsUnit's top gamma2
    "sigma_sd": (math.ulp(0.0), SD_SIGMA_MAX * domain(TlsUnit, "gamma2")[1]),
    "rho_v": (0.0, 1e55),  # J^-1: McConfig's top rho_tls in a cubic metre
    # rad/s: a relaxing TLS, from McConfig's least gamma1_mean (1 Hz) up
    "gamma1": (TWO_PI, domain(TlsUnit, "gamma1")[1]),
}


def kramers_kronig_real_part(f, env: ThermalEnvironment, host: TlsHostMaterial,
                             f_cutoff=None):
    """Dispersive counterpart of the tanh dielectric loss, by quadrature.

    Evaluates (delta_TLS/pi) PV int_0^cutoff f' tanh(h f'/2 k T)/(f'^2 - f^2) df'
    in QUADPACK calls split at 2 f.  Near the pole the integrand is
    w(f')/(f' - f) with the smooth w(f') = f' tanh(h f'/2 k T)/(f' + f), and
    the principal value comes from the Cauchy-weight rule (QAWC, scipy's
    ``quad(weight="cauchy")``), which integrates across the pole without
    excising it.  QAWC takes [0, 2 f] whole when the thermal knee 2 k T/h
    of the tanh lies at or above f.  A knee below f is a bend that QAWC
    cannot be given as a breakpoint: at 1e11 Hz and 1 mK, where it sits in
    the first 0.02 % of [0, 2 f], the whole-interval rule left the result
    1.2e-8 off.  So there QAWC takes [f/2, 3 f/2] only, and plain ``quad``
    calls take [3 f/2, 2 f] and [0, f/2], the latter with breakpoints at
    the knee and each power of ten times it below f/2 (with the knee alone
    it still stopped 5e-8 off).  On [2 f, cutoff] the integrand has no
    pole and a plain ``quad`` takes it, with breakpoints at 2 f times each
    power of ten and at the knee when it lies inside; without the knee,
    the adaptive rule can stop about 2e-6 off where the knee sits far
    above 2 f.  Either way the pole sits in the middle of its Cauchy piece;
    the split at 2 f is why the cut-off must lie above 2 f.  Each piece
    must reach an error estimate of 1e-6 max(1, |value|), or
    QuadratureError is raised.

    The transform carries coefficient 1/pi rather than the textbook one-sided
    2/pi: the tanh loss already folds the anti-resonant TLS response into the
    positive-frequency axis, so the standard form would double-count it.  With
    this normalization, differences of the returned value between two
    temperatures reproduce the digamma closed form of
    :func:`permittivity_bracket` (up to the overall sign of the
    permittivity-vs-frequency conventions):

        kk(T2) - kk(T1) = -(delta_TLS/pi) [bracket(T2) - bracket(T1)]

    The absolute value depends on the high-frequency cutoff (the tail is
    logarithmically divergent) and is therefore only meaningful in
    temperature differences.  Verification oracle only, for one frequency
    and one temperature; the closed form is the production path.
    """
    from scipy.integrate import quad

    f = float(f)
    check_range("f", f, domain(ResonatorMode, "f_r"))
    if f_cutoff is None:
        f_thermal = 2.0 * K_B * env.temperature / PLANCK
        f_cutoff = 400.0 * max(f, f_thermal)
    check_range("f_cutoff", f_cutoff, DOMAINS["f_cutoff"])
    if not 2.0 * f < f_cutoff:
        raise ValueError("f_cutoff must be finite and lie well above the "
                         "probe frequency (above 2 f)")

    a = PLANCK / (2.0 * K_B * env.temperature)

    # quad calls these ~400 times: Python floats and math, not numpy scalars
    def w(fp):
        return fp * math.tanh(a * fp) / (fp + f)

    def integrand(fp):
        return fp * math.tanh(a * fp) / (fp**2 - f**2)

    def piece(fun, lo, hi, points=(), **opts):
        val, err = quad(fun, lo, hi, limit=300 + len(points),
                        points=sorted(points) or None, **opts)
        if err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureError(
                f"principal-value segment [{lo:g}, {hi:g}] error {err:g}")
        return val

    def decades(start, stop):
        """start times each power of ten below stop."""
        points = []
        while start < stop:
            points.append(start)
            start *= 10.0
        return points

    knee = 1.0 / a
    if knee < f:
        near = (piece(integrand, 0.0, 0.5 * f, decades(knee, 0.5 * f))
                + piece(w, 0.5 * f, 1.5 * f, weight="cauchy", wvar=f)
                + piece(integrand, 1.5 * f, 2.0 * f))
    else:
        near = piece(w, 0.0, 2.0 * f, weight="cauchy", wvar=f)
    far_points = decades(20.0 * f, f_cutoff)
    if 2.0 * f < knee < f_cutoff:
        far_points.append(knee)
    pv = near + piece(integrand, 2.0 * f, f_cutoff, far_points)
    return host.delta_tls * pv / np.pi


def spectral_diffusion_loss_closed_form(tls: TlsUnit, drive: SaturationDrive,
                                        rho_v):
    """-2 pi hbar rho V g_perp^2 S / sqrt(1 + n_cav/n_s)  [rad/s]."""
    return (-TWO_PI * HBAR * rho_v * tls.g_perp**2 * tls.s
            / np.sqrt(1.0 + _drive_ratio(tls, drive)))


def spectral_diffusion_loss(tls: TlsUnit, drive: SaturationDrive, sigma_sd,
                            rho_v):
    """Bath loss with Gaussian spectral diffusion, by double quadrature.

    Integrates the saturated Lorentzian response, convolved in detuning with
    a Gaussian of width sigma_sd, over all TLS center detunings:

        -hbar rho V  int dDelta  int dmu  [2 g^2 Gamma_2/(Gamma_2^2 + mu^2)]
            * S / (1 + (n/n_s) Gamma_2^2/(Gamma_2^2 + mu^2))
            * N(mu; Delta, sigma_sd)

    The inner window spans SD_N_SIGMA = 12 Gaussians around each center.
    The dropped Gaussian tail beyond |u| = 12 is about 1.8e-33 per side, and
    over the window the saturated Lorentzian 2/(1 + n/n_s + m^2) (m = mu /
    Gamma_2) varies by at most (1 + n/n_s + (1.2 b_far)^2)/(1 + n/n_s), as
    |m| <= b_far + 12 sigma_sd/Gamma_2 <= 1.2 b_far for any center up to the
    outer cut-off b_far.  That factor is at most about 5e7 on criterion 4's
    grid, so each inner integral loses a share below 1e-23 of its value.
    The outer cut-off b_far >= 60 sigma_sd/Gamma_2 does not depend on
    SD_N_SIGMA.  The outer integrand is even in Delta (the saturated
    Lorentzian is even in mu, the Gaussian is symmetric, and the inner knots
    mirror), so only Delta >= 0 is integrated and the sum doubled.  The
    result coincides with :func:`spectral_diffusion_loss_closed_form`
    (within about 1e-4 relative on criterion 4's TLS): Gaussian wandering
    alone does not lift the loss above the saturated-Lorentzian value.

    The outer integral over Delta has three pieces: [0, w] and [w, b_core]
    in Delta, with b_core = 10 max(s, w), and the tail [b_core, b_far] in
    t = 1/Delta, where the integrand falls off like the Lorentzian.  Each is
    integrated as scipy's ``quad`` would, by QUADPACK's 21-point
    Gauss-Kronrod rule qk21 with its error estimate and qags's bisection of
    the worst segment to quad's default tolerance, at most SD_OUTER_LIMITS
    segments (quad's limit), but without qags's extrapolation; each piece's
    error must stay within 1e-5 max(1, |value|), or QuadratureError names
    the piece.  Every round of bisection is one numpy pass over the new
    segments of all three pieces: on criterion 4's grid the first round
    (63 outer nodes) and one bisection (42) settle it.  The values match
    ``quad``'s to 1e-13 relative or better.

    The inner integral, over the Gaussian variable u at an outer node
    Delta, is a fixed 20-node Gauss-Legendre sum on each segment of a knot
    set, evaluated for every node of a round at once: each node's knot set
    is padded with a window edge to the round's largest count, so the pads
    add zero-length segments.  In u the saturated Lorentzian has its poles at
    u_c +- i h, with u_c = -Delta/s, h = w/s, s = sigma_sd/Gamma_2 and
    w = sqrt(1 + n/n_s).  The knots follow from one requirement: every
    segment lies at least a third of its length away from the nearest pole.
    The core segment [u_c - h, u_c + h] and geometric steps u_c +- 4^k h
    (k = 1, 2, ...) on either side meet it (the core at a half, each step at
    a third), and so does any piece of them that the window edges
    +-SD_N_SIGMA and the Gaussian's fixed knots SD_GAUSS_KNOTS cut off.
    On such a segment the poles lie outside the Bernstein ellipse of
    parameter rho = 1.87, so an n-node sum converges like rho^(-2n) (like
    (1 + sqrt 2)^(-2n) on the core segment).  The Gaussian is entire, and
    its fixed knots keep every segment of its bulk within 3 standard
    deviations.  A 16-node sum on the same segments is the error estimate:
    the two must agree to SD_INNER_RTOL = 1e-10 relative at every node, or
    QuadratureError names the first that fails, in qk21's order (the
    centre of a segment first).  On criterion 4's grid and at the
    corners of the accepted range they agree to 3e-12 or better.

    sigma_sd [rad/s] and the rho_TLS * V_eff prefactor rho_v [J^-1] take
    their DOMAINS; sigma_sd must also be at most SD_SIGMA_MAX Gamma_2, the
    widest diffusion the tests cover, and with it n_cav's domain keeps b_far
    squared finite.  A width far below Gamma_2 is the sigma -> 0 limit.
    Returns rad/s.
    """
    _one_tls(tls)
    check_range("sigma_sd", sigma_sd, DOMAINS["sigma_sd"])
    check_range("rho_v", rho_v, DOMAINS["rho_v"])
    n_ratio = float(_drive_ratio(tls, drive))
    s_dimless = float(sigma_sd / tls.gamma2)  # below in units of Gamma_2
    if not sigma_sd <= SD_SIGMA_MAX * tls.gamma2:
        raise ValueError(f"sigma_sd must be at most {SD_SIGMA_MAX:g} gamma2: "
                         "wider diffusion is past the range the tests cover")
    if tls.s == 0.0 or tls.g_perp == 0.0:
        return 0.0
    outer, pieces = _sd_outer(n_ratio, s_dimless)
    labels = [f"segment [{a:g}, {b:g}]" for a, b in pieces[:2]]
    labels.append("spectral-diffusion tail")
    body_lo, body_hi, tail = map(
        _check_quad, _adaptive_qk21(outer, pieces, SD_OUTER_LIMITS), labels)
    # 2 (half + tail) is the double integral in units of Gamma_2 for both
    # axes, i.e. the dimensionless 2*pi/sqrt(1 + n/n_s) when converged
    half = body_lo + body_hi
    return -HBAR * rho_v * tls.g_perp**2 * tls.s * (2.0 * (half + tail))


def _sd_outer(n_ratio, s):
    """spectral_diffusion_loss's outer integrand and its three pieces, in
    units of Gamma_2 at drive ratio n_ratio and width s: [0, w] and
    [w, b_core] in Delta, and the tail [1/b_far, 1/b_core] in t = 1/Delta,
    where the integrand is smeared(1/t)/t^2.  The integrand takes an array
    of outer nodes, one row per segment, and each row's piece index."""
    w = math.sqrt(1.0 + n_ratio)         # saturated half-width
    b_core = 10.0 * max(s, w)
    b_far = max(4000.0 * w, 60.0 * s, 4.0 * b_core)
    nodes, weights = _inner_rule()
    fixed = (*SD_GAUSS_KNOTS, -SD_N_SIGMA, SD_N_SIGMA)
    norm, one_plus_n = math.sqrt(TWO_PI), 1.0 + n_ratio

    def smeared(d):
        """The inner integral at each outer node of the 1-d array d >= 0."""
        # in m = d + s u the poles sit at +-i w, and the core and step knots
        # at m = +-4^k w, until the next step passes both window edges
        # (|m| <= |d| + SD_N_SIGMA s there).  Only the knots strictly
        # inside the window are kept: one off it (+-inf where s is tiny or
        # underflows to 0)
        # becomes a window edge, and so do the pads that give every node
        # the batch's largest count.  A repeated knot adds a zero length
        far = np.abs(d) + SD_N_SIGMA * s
        steps = [w]
        while 4.0 * steps[-1] < far.max():
            steps.append(4.0 * steps[-1])
        steps = np.array(steps)
        reached = steps < far[:, None]
        reached[:, 0] = True
        with np.errstate(over="ignore", divide="ignore"):
            poles = np.concatenate(((-steps - d[:, None]) / s,
                                    (steps - d[:, None]) / s), axis=1)
        inside = np.tile(reached, 2) & (np.abs(poles) < SD_N_SIGMA)
        knots = np.concatenate(
            (np.broadcast_to(fixed, (d.size, len(fixed))),
             np.where(inside, poles, SD_N_SIGMA)), axis=1)
        knots.sort(axis=1)
        knots = knots[:, :len(fixed) + inside.sum(axis=1).max()]
        lo = knots[:, :-1]
        length = knots[:, 1:] - lo
        # (node, segment, Gauss node) arrays, each step in place: m becomes
        # the denominator 1 + n/n_s + m^2 of the saturated Lorentzian
        # 2/(1 + n/n_s + m^2), and u the Lorentzian times the Gaussian
        u = length[..., None] * nodes
        u += lo[..., None]
        m = u * s
        m += d[:, None, None]
        np.square(m, out=m)
        m += one_plus_n
        np.square(u, out=u)
        u *= -0.5
        np.exp(u, out=u)
        u *= 2.0
        u /= m
        fine, coarse = (length[:, None, :] @ (u @ weights))[:, 0].T
        bad = ~(np.abs(fine - coarse) <= SD_INNER_RTOL * np.abs(fine))
        if bad.any():
            i = np.argmax(bad)
            raise QuadratureError(
                f"quadrature failed on the spectral-diffusion inner integral "
                f"at Delta = {d[i]:g} Gamma_2: 20 nodes {fine[i]:.16g}, 16 "
                f"nodes {coarse[i]:.16g}")
        return fine / norm

    def outer(x, piece):
        tail = piece == 2               # in t = 1/Delta: smeared(1/t)/t^2
        d = x.copy()
        d[tail] = 1.0 / x[tail]
        val = smeared(d.ravel()).reshape(x.shape)
        val[tail] /= x[tail] ** 2
        return val

    return outer, [(0.0, w), (w, b_core), (1.0 / b_far, 1.0 / b_core)]


@functools.cache
def _inner_rule():
    """The inner spectral-diffusion rule: Gauss-Legendre nodes on [0, 1], 20
    then 16, and a (36, 2) weight matrix whose columns sum each rule."""
    (x20, w20), (x16, w16) = map(np.polynomial.legendre.leggauss, (20, 16))
    nodes = 0.5 * (np.concatenate((x20, x16)) + 1.0)
    weights = np.zeros((36, 2))
    weights[:20, 0], weights[20:, 1] = 0.5 * w20, 0.5 * w16
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# QUADPACK's 21-point Gauss-Kronrod rule qk21 (Piessens et al., QUADPACK,
# Springer 1983, routine dqk21), its 33 digits rounded to 21 decimals, which
# give the same doubles: the nodes xgk on [0, 1] with the centre last, their
# Kronrod weights wgk, and the weights wg of the embedded 10-point Gauss
# rule, whose nodes are xgk[1::2]
QK21_XGK = (0.995657163025808080736, 0.973906528517171720078,
            0.930157491355708226001, 0.865063366688984510732,
            0.780817726586416897064, 0.679409568299024406234,
            0.562757134668604683339, 0.433395394129247190799,
            0.294392862701460198131, 0.148874338981631210885,
            0.0)
QK21_WGK = (0.011694638867371874278, 0.032558162307964727479,
            0.054755896574351996031, 0.075039674810919952767,
            0.093125454583697605535, 0.109387158802297641899,
            0.123491976262065851077, 0.134709217311473325928,
            0.142775938577060080797, 0.147739104901338491375,
            0.149445554002916905665)
QK21_WG = (0.066671344308688137594, 0.149451349150580593146,
           0.219086362515982043996, 0.269266719309996355091,
           0.295524224714752870174)
# most segments each outer spectral-diffusion piece is cut into, as quad's
# limit: [0, w], [w, b_core], the tail
SD_OUTER_LIMITS = (100, 100, 80)


@functools.cache
def _qk21_rule():
    """qk21's 21 nodes on [-1, 1] in the order it samples them: the centre,
    then each Gauss node and then each Kronrod node, minus before plus; and
    a (21, 2) weight matrix, the Kronrod weights then the Gauss ones."""
    order = [10, *(i for i in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
                   for _ in (0, 1))]
    x = np.array(QK21_XGK)[order]
    x[1::2] *= -1.0
    weights = np.zeros((21, 2))
    weights[:, 0] = np.array(QK21_WGK)[order]
    weights[1:11, 1] = np.repeat(QK21_WG, 2)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def _qk21(f, a, b):
    """QUADPACK's qk21 on each segment [a[i], b[i]], a < b: the Kronrod sums
    and their error estimates.  f is called once, on the (len(a), 21) array of
    every segment's nodes, each row in qk21's order; the array it returns
    is overwritten."""
    x, weights = _qk21_rule()
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fv = f(centre[:, None] + half[:, None] * x)
    resk, resg = (fv @ weights).T
    resabs = np.abs(fv) @ weights[:, 0]
    fv -= 0.5 * resk[:, None]
    np.abs(fv, out=fv)
    resasc = fv @ weights[:, 0]
    resabs *= half
    resasc *= half
    err = np.abs(resk - resg) * half
    # qk21's scaling of the Gauss-Kronrod gap, and its rounding floor
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    err = np.where(resabs > tiny / (50.0 * eps),
                   np.maximum(50.0 * eps * resabs, err), err)
    return resk * half, err


def _adaptive_qk21(f, pieces, limits):
    """(value, error) of f over each piece (a, b), a < b, by the bisection
    of QUADPACK's qags without its extrapolation, to scipy quad's default
    tolerance.  While a piece's error sum exceeds max(1.49e-8, 1.49e-8
    |value|) and it has fewer segments than its limit, its worst segment is
    halved: the half with the larger error takes its place in the list and
    the other is appended, as in qags.  Each round calls _qk21 once, on the
    new segments of every piece: f(x, piece) takes their nodes x and each
    row's piece index."""
    segs = [[] for _ in pieces]      # each piece's (a, b, value, error)
    slot = [None] * len(pieces)      # the segment a piece's halves replace
    new = [(i, a, b) for i, (a, b) in enumerate(pieces)]
    while new:
        piece, a, b = map(np.array, zip(*new))
        val, err = _qk21(lambda x: f(x, piece), a, b)
        rows = zip(piece, zip(a, b, val, err))
        for i, seg in rows:
            if slot[i] is None:
                segs[i].append(seg)
                continue
            other = next(rows)[1]
            if other[3] > seg[3]:
                seg, other = other, seg
            segs[i][slot[i]] = seg
            segs[i].append(other)
        new = []
        for i, (seg, limit) in enumerate(zip(segs, limits)):
            value, error = sum(s[2] for s in seg), sum(s[3] for s in seg)
            slot[i] = None
            if (error > max(1.49e-8, 1.49e-8 * abs(value))
                    and len(seg) < limit):
                slot[i] = max(range(len(seg)), key=lambda k: seg[k][3])
                lo, hi = seg[slot[i]][:2]
                mid = 0.5 * (lo + hi)
                new += [(i, lo, mid), (i, mid, hi)]
    return [(sum(s[2] for s in seg), sum(s[3] for s in seg)) for seg in segs]


def _check_quad(result, label):
    """The value of a (value, error) pair whose error is at most 1e-5
    max(1, |value|)."""
    val, err = result
    if not math.isfinite(val) or err > 1e-5 * max(1.0, abs(val)):
        raise QuadratureError(f"quadrature failed on {label}: value {val:g}, error {err:g}")
    return val


def _one_tls(tls: TlsUnit):
    """Entry check of the oracles here and in meanfield: one relaxing TLS,
    gamma1 in its DOMAINS."""
    for name, value in vars(tls).items():
        if np.ndim(value):
            raise ValueError(f"{name} must be a scalar: the oracles take one TLS")
    check_range("gamma1", tls.gamma1, DOMAINS["gamma1"])
