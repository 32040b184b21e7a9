"""Fit models: Lorentzian dip, full asymmetric S21, optical power series,
and TLS microwave-saturation curves.

Each fit declares an unweighted model and its analytic Jacobian, rows by
parameter, and :func:`_fit` hands the engine their weighted residual pair.
Complex traces are fitted with stacked real/imaginary residuals so that the
line phase (tau, alpha) and the asymmetry rotation stay separable;
magnitude-only fitting is reserved for the Lorentzian dip estimator.  The
full-S21 model is :func:`optoresp.resonator.notch`, the notch formula's one
implementation.  Bounds are smooth transforms, never clips.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..checks import check_finite, check_range
from ..constants import TWO_PI
from ..resonator import notch
from .engine import FitResult, Identity, Log, Scaled, levenberg_marquardt


_NONNEGATIVE = (0.0, np.inf)  # a power or a deviation, past check_finite


class NoDipError(ValueError):
    """Trace has no usable resonance dip."""


@dataclass(frozen=True)
class ComplexTrace:
    """(frequency, complex S21) samples, frequencies strictly ascending."""

    frequencies: np.ndarray
    values: np.ndarray
    noise_std: np.ndarray | None = None

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)
        if f.ndim != 1 or f.size != v.size:
            raise ValueError("frequencies/values must be 1-D of equal length")
        for part in (f, v.real, v.imag):
            check_finite("frequencies/values", part)
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if self.noise_std is not None:
            ns = np.asarray(self.noise_std, dtype=float)
            if ns.size != f.size:
                raise ValueError("noise_std length mismatch")
            check_finite("noise_std", ns)
            check_range("noise_std", ns, _NONNEGATIVE)
            object.__setattr__(self, "noise_std", ns)


@dataclass(frozen=True)
class PowerSeries:
    """(P_opt, 1/Q, Delta f_r/f_r) series; powers ascending and nonnegative.

    Optional per-point standard deviations weight the fits; points with
    (near-)zero uncertainty are taken as exact.
    """

    p_opt: np.ndarray
    inv_q: np.ndarray
    dfrac: np.ndarray
    sigma_inv_q: np.ndarray | None = None
    sigma_dfrac: np.ndarray | None = None

    def __post_init__(self):
        for name in ("p_opt", "inv_q", "dfrac", "sigma_inv_q", "sigma_dfrac"):
            val = getattr(self, name)
            if val is not None:
                val = np.asarray(val, dtype=float)
                check_finite(name, val)
                if name not in ("inv_q", "dfrac"):
                    check_range(name, val, _NONNEGATIVE)
                object.__setattr__(self, name, val)
        p = self.p_opt
        if not (p.size == self.inv_q.size == self.dfrac.size):
            raise ValueError("series length mismatch")
        if np.any(np.diff(p) <= 0):
            raise ValueError("p_opt must be ascending")
        for name in ("sigma_inv_q", "sigma_dfrac"):
            val = getattr(self, name)
            if val is not None and val.size != p.size:
                raise ValueError(f"{name} length mismatch")


def _fit(model, jac, y, weight, start, names, transforms=None):
    """Fit the unweighted model(x), with the (n, m) Jacobian jac(x), one row
    per parameter, to the data y: the engine sees (model(x) - y) * weight and
    jac(x) * weight, complex ones with the real part before the imaginary
    part along the last axis.  weight None fits unweighted."""
    def stack(v):
        v = v if weight is None else v * weight
        return (np.concatenate([v.real, v.imag], axis=-1)
                if np.iscomplexobj(v) else v)

    return levenberg_marquardt(
        lambda x: stack(model(x) - y), start, jac=lambda x: stack(jac(x)),
        names=names, transforms=transforms)


def _weights_from_sigma(sigma):
    """1/sigma weights, floored so exact points do not blow up, or None."""
    if sigma is None:
        return None
    sigma = np.asarray(sigma, dtype=float)
    floor = 1e-3 * max(sigma.max(), 1e-300)
    return 1.0 / np.maximum(sigma, floor)


# --- Lorentzian dip in |S21|^2 ---------------------------------------------

def _lorentzian(x, f):
    c0, c1, f0, w = x
    return c0 - c1 / (1.0 + 4.0 * (f - f0) ** 2 / w**2)


def _lorentzian_jac(x, f):
    c0, c1, f0, w = x
    delta = f - f0
    den = 1.0 + 4.0 * delta**2 / w**2
    jac = np.empty((4, f.size))
    jac[0] = 1.0
    jac[1] = -1.0 / den
    jac[2] = -8.0 * c1 * delta / (w**2 * den**2)
    jac[3] = -8.0 * c1 * delta**2 / (w**3 * den**2)
    return jac


@dataclass(frozen=True)
class LorentzianDipResult:
    f_r: float
    width: float       # fitted FWHM of the |S21|^2 dip (total-Q scale)
    depth: float
    baseline: float
    q_tot_equivalent: float
    q_int: float       # from-the-bottom 3 dB reading; nan if dip too shallow
    fit: FitResult


def fit_lorentzian_dip(trace: ComplexTrace) -> LorentzianDipResult:
    """Magnitude-only dip fit, the quick-look Q_int estimator.

    Fits |S21|^2 near the minimum to c0 - c1/(1 + 4(f-f0)^2/w^2) over the
    points within three estimated half-widths of the dip; the fitted FWHM w
    is the total-Q scale (q_tot_equivalent = f0/w).  Q_int comes from the
    half-power width measured from the *bottom* of the dip (the overcoupled
    reading): the doubling points sit far inside the dip, so they are read
    off a local parabola through the near-bottom points rather than off the
    global Lorentzian parameters, which keeps the estimate finite-noise
    stable and insensitive to circle-asymmetry skew.
    """
    f = trace.frequencies
    power = np.abs(trace.values) ** 2
    i_min = int(np.argmin(power))
    if i_min in (0, power.size - 1):
        raise NoDipError("minimum of |S21| sits at the trace edge")

    dip = _read_dip(f, power, i_min)
    if not dip.resolved:
        raise NoDipError("no dip resolved above the baseline scatter")
    if dip.width is None:
        raise NoDipError("half-depth crossings not found")
    window = np.abs(f - f[i_min]) <= 1.5 * dip.width
    if window.sum() < 5:
        raise NoDipError("fewer than 5 points inside the fit window")
    fw, pw = f[window], power[window]

    fit = _fit(lambda x: _lorentzian(x, fw), lambda x: _lorentzian_jac(x, fw),
               pw, None,
               [dip.baseline, dip.depth, f[i_min], dip.width],
               ("baseline", "depth", "f_r", "width"),
               (Identity(), Log(), Log(), Log()))
    c0, c1, f0, w = fit.values

    sigma = None
    if trace.noise_std is not None:
        sigma = float(np.median(trace.noise_std))
    q_int, flag = _from_bottom_q_int(f, power, sigma)
    if flag:
        fit.flags.append(flag)
    return LorentzianDipResult(f_r=float(f0), width=float(w), depth=float(c1),
                               baseline=float(c0),
                               q_tot_equivalent=float(f0 / w),
                               q_int=float(q_int), fit=fit)


def _from_bottom_q_int(f, power, noise_std=None):
    """Q_int = f_min / (from-the-bottom 3 dB width of |S21|^2).

    The doubling points sit a factor Q_tot/Q_int inside the dip, so the
    bottom is resolved on the points with power <= 9x the running minimum
    and modeled by a noise-weighted parabola there; within that region the
    Lorentzian's deviation from a parabola is O(bottom) ~ (Q_tot/Q_int)^2.
    Known additive noise is removed from |S21|^2 (it biases the floor up).
    """
    p = power.astype(float).copy()
    if noise_std is not None:
        p -= 2.0 * noise_std**2   # E|n|^2 for independent quadratures
    smooth = np.convolve(p, np.ones(5) / 5.0, mode="same")
    bottom0 = float(smooth.min())
    if bottom0 <= 0:
        bottom0 = max(float(p.min()), 1e-300)
    local = None
    for k in (9.0, 16.0, 36.0):
        cand = smooth <= k * bottom0
        if cand.sum() >= 9:
            local = cand
            break
    if local is None:
        return np.nan, "bottom_region_unresolved"
    center = f[np.argmin(smooth)]
    d = f[local] - center
    if noise_std is not None and noise_std > 0:
        sig = 2.0 * np.sqrt(np.maximum(p[local], noise_std**2)) * noise_std
        weights = 1.0 / sig
    else:
        weights = None
    c2, c1, b = np.polyfit(d, p[local], 2, w=weights)
    if c2 <= 0:
        return np.nan, "bottom_not_convex"
    b_vertex = b - c1**2 / (4.0 * c2)
    if b_vertex <= 0:
        return np.nan, "bottom_below_zero"
    width_bottom = 2.0 * np.sqrt(b_vertex / c2)
    f_min = center - c1 / (2.0 * c2)
    return f_min / width_bottom, None


class _Dip(NamedTuple):
    baseline: float       # median power of the outer points
    depth: float          # baseline - power[i_min]
    resolved: bool        # depth >= 8x the outer points' MAD scatter
    width: float | None   # between the half-depth crossings, if both exist
    outer: np.ndarray     # mask of the outer points


def _read_dip(f, power, i_min):
    """(baseline, depth, resolved, width) of the |S21|^2 dip at i_min, with
    the mask of the outer points they are read against: the 20% farthest
    from f[i_min], or the farther half when that is under 3 points."""
    dist = np.abs(f - f[i_min])
    outer = dist >= np.quantile(dist, 0.8)
    if outer.sum() < 3:
        outer = dist >= np.median(dist)
    outer_power = power[outer]
    baseline = float(np.median(outer_power))
    depth = baseline - power[i_min]
    noise_scale = 1.4826 * float(np.median(np.abs(outer_power - baseline)))
    resolved = bool(depth > 0 and depth >= 8.0 * noise_scale)
    width = None
    if depth > 0:
        half_level = baseline - 0.5 * depth
        lo = np.flatnonzero(power[:i_min] >= half_level)
        hi = np.flatnonzero(power[i_min:] >= half_level)
        if lo.size and hi.size:
            width = f[i_min + hi[0]] - f[lo[-1]]
    return _Dip(baseline, depth, resolved, width, outer)


# --- full asymmetric S21 ----------------------------------------------------

_S21_PARAMS = ("f_r", "q_tot", "q_ext_re", "q_ext_im", "amplitude", "delay",
               "phase_offset")


def s21_model(x, f):
    """The notch model at the fit parameters x (in _S21_PARAMS order)."""
    f_r, q_tot, qer, qei, amp, tau, alpha = x
    return notch(f, f_r, q_tot, qer + 1j * qei, amp, tau, alpha)


def _s21_jacobian(x, f):
    """d s21_model / dx: the seven complex rows, one per parameter.

    With the line factor L = amp e^{-i(2 pi f tau + alpha)},
    D = 1 + 2i Q (f - f_r)/f_r and K = L Q/(Q_e D), the model is L - K and
    dK/dQ = K/(Q D), dK/dQ_e = -K/Q_e, dK/df_r = 2i Q f K/(f_r^2 D).
    """
    f_r, q_tot, qer, qei, amp, tau, alpha = x
    qe = qer + 1j * qei
    d = 1.0 + 2j * q_tot * (f - f_r) / f_r
    line = amp * np.exp(-1j * (TWO_PI * f * tau + alpha))
    k = line * q_tot / (qe * d)
    s = line - k
    return np.stack([
        -2j * q_tot * f / (f_r**2 * d) * k,   # f_r
        -k / (q_tot * d),                     # q_tot
        k / qe,                               # q_ext_re
        1j * k / qe,                          # q_ext_im
        s / amp,                              # amplitude
        -1j * TWO_PI * f * s,                 # delay
        -1j * s,                              # phase_offset
    ])


def _s21_initial_guess(f, z, power, i_min, dip):
    """Documented policy: f_r at min |S21|; width from the half-depth
    crossings of |S21|^2; amplitude from the off-resonant median; delay from
    the local phase slope on each band edge (averaged), phase offset from
    the delay-corrected off-resonant phase."""
    amp = float(np.sqrt(dip.baseline))

    # phase slope per contiguous edge block; a single unwrap across the
    # resonance gap cannot bridge multi-2pi delay jumps
    n_edge = max(f.size // 10, 3)
    slopes = []
    for sl in (slice(0, n_edge), slice(f.size - n_edge, f.size)):
        if np.ptp(f[sl]) > 0:
            slopes.append(np.polyfit(f[sl], np.unwrap(np.angle(z[sl])), 1)[0])
    slope = float(np.mean(slopes)) if slopes else 0.0
    tau = -slope / TWO_PI
    outer = dip.outer
    line_phase = np.angle(z[outer] * np.exp(1j * TWO_PI * f[outer] * tau))
    alpha = -float(np.angle(np.mean(np.exp(1j * line_phase))))

    width = dip.width if dip.width is not None else (f[-1] - f[0]) / 10.0
    q_tot = f[i_min] / width
    dip_rel = np.sqrt(power[i_min]) / amp
    q_int = q_tot / max(dip_rel, 1e-3)
    inv_qe = max(1.0 / q_tot - 1.0 / q_int, 0.1 / q_tot)
    return [f[i_min], q_tot, 1.0 / inv_qe, 0.0, amp, tau, alpha]


@dataclass(frozen=True)
class FullS21Result:
    f_r: float
    q_tot: float
    q_ext: float      # reported convention 1/Re(1/(Q_e,r + i Q_e,i))
    q_int: float      # 1/Q_int = 1/Q_tot - Re(1/Q_e)
    q_ext_complex: complex
    amplitude: float
    delay: float
    phase_offset: float
    fit: FitResult


def fit_full_s21(trace: ComplexTrace) -> FullS21Result:
    """Fit the asymmetric notch model to a complex trace.

    Reports the diameter-corrected external Q and the internal Q via
    1/Q_int = 1/Q_tot - Re(1/(Q_e,r + i Q_e,i)).  An ill-conditioned
    delay/phase pair over a narrow span is flagged, not raised; so is a
    trace whose |S21|^2 minimum does not stand out of the baseline scatter
    by the Lorentzian-dip significance test (flag "no_resonance").
    """
    f, z = trace.frequencies, trace.values
    power = np.abs(z) ** 2
    i_min = int(np.argmin(power))
    dip = _read_dip(f, power, i_min)

    fit = _fit(lambda x: s21_model(x, f), lambda x: _s21_jacobian(x, f), z,
               _weights_from_sigma(trace.noise_std),
               _s21_initial_guess(f, z, power, i_min, dip), _S21_PARAMS,
               (Log(), Log(), Log(), Identity(), Log(), Scaled(1e-9),
                Identity()))

    span = f[-1] - f[0]
    if TWO_PI * span * abs(fit["delay"]) < 0.05:
        fit.flags.append("delay_phase_degenerate")
    if not dip.resolved:
        fit.flags.append("no_resonance")

    qe = complex(fit["q_ext_re"], fit["q_ext_im"])
    inv_qe = (1.0 / qe).real
    q_int = 1.0 / (1.0 / fit["q_tot"] - inv_qe)
    return FullS21Result(f_r=fit["f_r"], q_tot=fit["q_tot"],
                         q_ext=1.0 / inv_qe, q_int=q_int, q_ext_complex=qe,
                         amplitude=fit["amplitude"], delay=fit["delay"],
                         phase_offset=fit["phase_offset"], fit=fit)


# --- optical power series ---------------------------------------------------

def _inverse_q_sat(x, p):
    g1, g2, g3, c = x
    return g1 * p + g2 * (1.0 - np.exp(-g3 * p)) + c


def _inverse_q_sat_jac(x, p):
    g1, g2, g3, c = x
    e = np.exp(-g3 * p)
    return np.stack([p, 1.0 - e, g2 * p * e, np.ones_like(p)])


def _linear(x, p):
    gamma, inv_q0 = x
    return gamma * p + inv_q0


def _dfrac(x, p):
    d1, d2, d3 = x
    return d1 * p - d2 * (1.0 - np.exp(-d3 * p))


def _dfrac_jac(x, p):
    d1, d2, d3 = x
    e = np.exp(-d3 * p)
    return np.stack([p, -(1.0 - e), -d2 * p * e])


def fit_power_inverse_q(series: PowerSeries, model="linear") -> FitResult:
    """Fit 1/Q(P): gamma*P + 1/Q0, or the linear-plus-saturation form
    gamma1*P + gamma2*(1 - exp(-gamma3*P)) + 1/Q0."""
    p, y = series.p_opt, series.inv_q
    wts = _weights_from_sigma(series.sigma_inv_q)
    if model == "linear":
        if p.size < 3:
            raise ValueError("linear fit needs at least 3 points")
        return _fit(lambda x: _linear(x, p),
                    lambda x: np.stack([p, np.ones_like(p)]), y, wts,
                    np.polyfit(p, y, 1), ("gamma", "inv_q0"))

    if model != "linear_plus_saturation":
        raise ValueError(f"unknown model {model!r}")
    if p.size < 5:
        raise ValueError("saturating fit needs at least 5 points")

    tail = max(2, p.size // 3)
    g1_0 = max(np.polyfit(p[-tail:], y[-tail:], 1)[0], 0.0)
    scale = max(y.max() - y.min(), 1e-12)
    start = [g1_0, 0.1 * scale, 2.0 / max(np.median(p[p > 0]), 1e-30), y[0]]
    fit = _fit(lambda x: _inverse_q_sat(x, p),
               lambda x: _inverse_q_sat_jac(x, p), y, wts, start,
               ("gamma1", "gamma2", "gamma3", "inv_q0"),
               (Identity(), Log(), Log(), Identity()))
    if fit["gamma2"] < 1e-6 * scale:
        fit.flags.append("gamma3_unidentifiable")
    return fit


def fit_power_frequency(series: PowerSeries) -> FitResult:
    """Fit Df/f(P) = delta1*P - delta2*(1 - exp(-delta3*P)), delta2/3 >= 0.

    The saturating term is the red-shift channel; delta2 pinned at zero is
    reported as a boundary flag.
    """
    p, y = series.p_opt, series.dfrac
    if p.size < 5:
        raise ValueError("frequency-shift fit needs at least 5 points")
    wts = _weights_from_sigma(series.sigma_dfrac)

    scale = max(np.max(np.abs(y)), 1e-15)
    d1_0 = np.polyfit(p, y, 1)[0]
    start = [d1_0, 0.5 * scale, 2.0 / max(np.median(p[p > 0]), 1e-30)]
    fit = _fit(lambda x: _dfrac(x, p), lambda x: _dfrac_jac(x, p), y, wts,
               start, ("delta1", "delta2", "delta3"),
               (Identity(), Log(), Log()))
    if fit["delta2"] < 1e-5 * scale:
        fit.flags.append("delta2_pinned")
    return fit


def _tls_saturation(x, n):
    fdelta, n_c, beta, floor = x
    return fdelta / np.sqrt(1.0 + (n / n_c) ** beta) + floor


def _tls_saturation_jac(x, n):
    fdelta, n_c, beta, floor = x
    q = (n / n_c) ** beta
    s = 1.0 / np.sqrt(1.0 + q)
    dsdq = -0.5 * fdelta * s**3
    with np.errstate(divide="ignore", invalid="ignore"):
        logterm = np.where(n > 0, np.log(n / n_c), 0.0)
    return np.stack([s, dsdq * (-beta * q / n_c), dsdq * q * logterm,
                     np.ones_like(n)])


def fit_tls_saturation(n_cav, inv_q_int, sigma=None) -> FitResult:
    """Fit 1/Q(n) = F*delta_TLS / sqrt(1 + (n/n_c)^beta) + 1/Q_other.

    Needs >= 6 points; less than two decades of photon-number span leaves
    n_c poorly constrained and is flagged as insufficient_span.  Optional
    per-point standard deviations weight the residuals.
    """
    n = np.asarray(n_cav, dtype=float)
    y = np.asarray(inv_q_int, dtype=float)
    if n.size < 6:
        raise ValueError("saturation fit needs at least 6 points")
    pos = n[n > 0]
    narrow = pos.size == 0 or pos.max() / pos.min() < 100.0
    wts = _weights_from_sigma(sigma)

    floor0 = float(np.min(y))
    fdelta0 = max(float(y[np.argmin(n)] - floor0), 1e-12)
    n_c0 = float(np.median(pos)) if pos.size else 1.0
    start = [fdelta0, n_c0, 1.0, floor0 - 1e-3 * fdelta0]
    fit = _fit(lambda x: _tls_saturation(x, n),
               lambda x: _tls_saturation_jac(x, n), y, wts, start,
               ("f_delta", "n_c", "beta", "floor"),
               (Log(), Log(), Log(), Identity()))
    if narrow:
        fit.flags.append("insufficient_span")
    return fit
