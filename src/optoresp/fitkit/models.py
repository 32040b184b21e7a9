"""Fit models: Lorentzian dip, full asymmetric S21, optical power series,
and TLS microwave-saturation curves.

Complex traces are fitted with stacked real/imaginary residuals so that the
line phase (tau, alpha) and the asymmetry rotation stay separable;
magnitude-only fitting is reserved for the Lorentzian dip estimator.  Each
model carries its documented initial-guess policy; bounds are smooth
transforms, never clips.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..constants import TWO_PI
from ..resonator import LineCalibration, ResonatorMode
from .engine import FitResult, Identity, Log, Scaled, levenberg_marquardt


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
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(v))):
            raise ValueError("frequencies/values must be finite")
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if self.noise_std is not None:
            ns = np.asarray(self.noise_std, dtype=float)
            if ns.size != f.size:
                raise ValueError("noise_std length mismatch")
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
        p = np.asarray(self.p_opt, dtype=float)
        object.__setattr__(self, "p_opt", p)
        object.__setattr__(self, "inv_q", np.asarray(self.inv_q, dtype=float))
        object.__setattr__(self, "dfrac", np.asarray(self.dfrac, dtype=float))
        if not (p.size == self.inv_q.size == self.dfrac.size):
            raise ValueError("series length mismatch")
        if np.any(p < 0) or np.any(np.diff(p) <= 0):
            raise ValueError("p_opt must be nonnegative and ascending")
        for name in ("sigma_inv_q", "sigma_dfrac"):
            val = getattr(self, name)
            if val is not None:
                val = np.asarray(val, dtype=float)
                if val.size != p.size:
                    raise ValueError(f"{name} length mismatch")
                object.__setattr__(self, name, val)


def _weights_from_sigma(sigma, n):
    """1/sigma weights with a floor so exact points do not blow up."""
    if sigma is None:
        return np.ones(n)
    sigma = np.asarray(sigma, dtype=float)
    floor = 1e-3 * max(sigma.max(), 1e-300)
    return 1.0 / np.maximum(sigma, floor)


@dataclass(frozen=True)
class FitModelSpec:
    """A named residual model: parameters, transforms, initial-guess policy."""

    name: str
    param_names: tuple
    residual: Callable
    jacobian: Callable | None = None
    transforms: tuple | None = None
    initial_guess: Callable | None = None


def solve_least_squares(model: FitModelSpec, data, initial=None,
                        **solver_kw) -> FitResult:
    """Run the damped Gauss-Newton engine on a model/data pair."""
    if initial is None:
        if model.initial_guess is None:
            raise ValueError(f"model {model.name} has no initial-guess policy")
        initial = model.initial_guess(data)
    jac = None if model.jacobian is None else (lambda x: model.jacobian(x, data))
    return levenberg_marquardt(lambda x: model.residual(x, data),
                               np.asarray(initial, dtype=float),
                               jac=jac, names=list(model.param_names),
                               transforms=model.transforms, **solver_kw)


# --- Lorentzian dip in |S21|^2 ---------------------------------------------

def _lorentzian(x, f):
    c0, c1, f0, w = x
    return c0 - c1 / (1.0 + 4.0 * (f - f0) ** 2 / w**2)


def _lorentzian_jac(x, f):
    c0, c1, f0, w = x
    delta = f - f0
    den = 1.0 + 4.0 * delta**2 / w**2
    jac = np.empty((f.size, 4))
    jac[:, 0] = 1.0
    jac[:, 1] = -1.0 / den
    jac[:, 2] = -8.0 * c1 * delta / (w**2 * den**2)
    jac[:, 3] = -8.0 * c1 * delta**2 / (w**3 * den**2)
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

    outer_power = power[_outer_mask(f, f[i_min])]
    baseline = float(np.median(outer_power))
    depth = baseline - power[i_min]
    noise_scale = 1.4826 * float(np.median(np.abs(outer_power - baseline)))
    if depth <= 0 or depth < 8.0 * noise_scale:
        raise NoDipError("no dip resolved above the baseline scatter")
    half_level = baseline - 0.5 * depth
    lo = np.where(power[:i_min] >= half_level)[0]
    hi = np.where(power[i_min:] >= half_level)[0]
    if lo.size == 0 or hi.size == 0:
        raise NoDipError("half-depth crossings not found")
    f_lo, f_hi = f[lo[-1]], f[i_min + hi[0]]
    half_width = 0.5 * (f_hi - f_lo)
    if half_width <= 0:
        raise NoDipError("degenerate dip width")

    window = np.abs(f - f[i_min]) <= 3.0 * half_width
    if window.sum() < 5:
        raise NoDipError("fewer than 5 points inside the fit window")
    fw, pw = f[window], power[window]

    model = FitModelSpec(
        name="lorentzian_dip",
        param_names=("baseline", "depth", "f_r", "width"),
        residual=lambda x, d: _lorentzian(x, d[0]) - d[1],
        jacobian=lambda x, d: _lorentzian_jac(x, d[0]),
        transforms=(Identity(), Log(), Log(), Log()),
    )
    start = [baseline, depth, f[i_min], 2.0 * half_width]
    fit = solve_least_squares(model, (fw, pw), initial=start)
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


def _outer_mask(f, f_center):
    """Outer 20% of points by distance from the dip, for baseline estimates."""
    dist = np.abs(f - f_center)
    cut = np.quantile(dist, 0.8)
    mask = dist >= cut
    if mask.sum() < 3:
        mask = dist >= np.median(dist)
    return mask


# --- full asymmetric S21 ----------------------------------------------------

_S21_PARAMS = ("f_r", "q_tot", "q_ext_re", "q_ext_im", "amplitude", "delay",
               "phase_offset")


def _s21_model(x, f):
    f_r, q_tot, qer, qei, amp, tau, alpha = x
    dip = 1.0 - (q_tot / (qer + 1j * qei)) / (1.0 + 2j * q_tot * (f - f_r) / f_r)
    return amp * np.exp(-1j * (TWO_PI * f * tau + alpha)) * dip


def _s21_residual(x, data):
    f, z, weight = data
    r = (_s21_model(x, f) - z) * weight
    return np.concatenate([r.real, r.imag])


def _s21_initial_guess(data):
    """Documented policy: f_r at min |S21|; width from the half-depth
    crossings of |S21|^2; amplitude from the off-resonant median; delay from
    the local phase slope on each band edge (averaged), phase offset from
    the delay-corrected off-resonant phase."""
    f, z, _ = data
    mag2 = np.abs(z) ** 2
    i_min = int(np.argmin(mag2))
    outer = _outer_mask(f, f[i_min])
    amp = float(np.sqrt(np.median(mag2[outer])))

    # phase slope per contiguous edge block; a single unwrap across the
    # resonance gap cannot bridge multi-2pi delay jumps
    n_edge = max(f.size // 10, 3)
    slopes = []
    for sl in (slice(0, n_edge), slice(f.size - n_edge, f.size)):
        if np.ptp(f[sl]) > 0:
            slopes.append(np.polyfit(f[sl], np.unwrap(np.angle(z[sl])), 1)[0])
    slope = float(np.mean(slopes)) if slopes else 0.0
    tau = -slope / TWO_PI
    line_phase = np.angle(z[outer] * np.exp(1j * TWO_PI * f[outer] * tau))
    alpha = -float(np.angle(np.mean(np.exp(1j * line_phase))))

    depth = np.median(mag2[outer]) - mag2[i_min]
    half_level = np.median(mag2[outer]) - 0.5 * max(depth, 1e-12)
    lo = np.where(mag2[:i_min] >= half_level)[0]
    hi = np.where(mag2[i_min:] >= half_level)[0]
    if lo.size and hi.size and f[i_min + hi[0]] > f[lo[-1]]:
        width = f[i_min + hi[0]] - f[lo[-1]]
    else:
        width = (f[-1] - f[0]) / 10.0
    q_tot = f[i_min] / width
    dip_rel = np.sqrt(mag2[i_min]) / amp
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

    @property
    def mode(self) -> ResonatorMode:
        return ResonatorMode(self.f_r, self.q_int, self.q_ext_complex.real,
                             self.q_ext_complex.imag)

    @property
    def line(self) -> LineCalibration:
        return LineCalibration(self.amplitude, self.delay, self.phase_offset)


def fit_full_s21(trace: ComplexTrace, initial=None) -> FullS21Result:
    """Fit the asymmetric notch model to a complex trace.

    Reports the diameter-corrected external Q and the internal Q via
    1/Q_int = 1/Q_tot - Re(1/(Q_e,r + i Q_e,i)).  An ill-conditioned
    delay/phase pair over a narrow span is flagged, not raised.
    """
    f, z = trace.frequencies, trace.values
    weight = np.ones_like(f)
    if trace.noise_std is not None:
        weight = 1.0 / np.maximum(trace.noise_std, 1e-300)
    data = (f, z, weight)

    model = FitModelSpec(
        name="s21_full",
        param_names=_S21_PARAMS,
        residual=_s21_residual,
        transforms=(Log(), Log(), Log(), Identity(), Log(), Scaled(1e-9),
                    Identity()),
        initial_guess=_s21_initial_guess,
    )
    fit = solve_least_squares(model, data, initial=initial)

    span = f[-1] - f[0]
    if TWO_PI * span * abs(fit["delay"]) < 0.05:
        fit.flags.append("delay_phase_degenerate")

    qe = complex(fit["q_ext_re"], fit["q_ext_im"])
    inv_qe = (1.0 / qe).real
    q_int = 1.0 / (1.0 / fit["q_tot"] - inv_qe)
    return FullS21Result(f_r=fit["f_r"], q_tot=fit["q_tot"],
                         q_ext=1.0 / inv_qe, q_int=q_int, q_ext_complex=qe,
                         amplitude=fit["amplitude"], delay=fit["delay"],
                         phase_offset=fit["phase_offset"], fit=fit)


# --- optical power series ---------------------------------------------------

def fit_power_inverse_q(series: PowerSeries, model="linear") -> FitResult:
    """Fit 1/Q(P): gamma*P + 1/Q0, or the linear-plus-saturation form
    gamma1*P + gamma2*(1 - exp(-gamma3*P)) + 1/Q0."""
    p, y = series.p_opt, series.inv_q
    wts = _weights_from_sigma(series.sigma_inv_q, p.size)
    if model == "linear":
        if p.size < 3:
            raise ValueError("linear fit needs at least 3 points")
        spec = FitModelSpec(
            name="inv_q_linear", param_names=("gamma", "inv_q0"),
            residual=lambda x, d: (x[0] * d[0] + x[1] - d[1]) * d[2],
            jacobian=lambda x, d: np.column_stack([d[0] * d[2], d[2]]),
        )
        g0, c0 = np.polyfit(p, y, 1)
        return solve_least_squares(spec, (p, y, wts), initial=[g0, c0])

    if model != "linear_plus_saturation":
        raise ValueError(f"unknown model {model!r}")
    if p.size < 5:
        raise ValueError("saturating fit needs at least 5 points")

    def resid(x, d):
        g1, g2, g3, c = x
        return (g1 * d[0] + g2 * (1.0 - np.exp(-g3 * d[0])) + c - d[1]) * d[2]

    def jac(x, d):
        g1, g2, g3, c = x
        e = np.exp(-g3 * d[0])
        return np.column_stack([d[0], 1.0 - e, g2 * d[0] * e,
                                np.ones_like(d[0])]) * d[2][:, None]

    spec = FitModelSpec(name="inv_q_linear_saturation",
                        param_names=("gamma1", "gamma2", "gamma3", "inv_q0"),
                        residual=resid, jacobian=jac,
                        transforms=(Identity(), Log(), Log(), Identity()))
    tail = max(2, p.size // 3)
    g1_0 = max(np.polyfit(p[-tail:], y[-tail:], 1)[0], 0.0)
    scale = max(y.max() - y.min(), 1e-12)
    start = [g1_0, 0.1 * scale, 2.0 / max(np.median(p[p > 0]), 1e-30), y[0]]
    fit = solve_least_squares(spec, (p, y, wts), initial=start)
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
    wts = _weights_from_sigma(series.sigma_dfrac, p.size)

    def resid(x, d):
        d1, d2, d3 = x
        return (d1 * d[0] - d2 * (1.0 - np.exp(-d3 * d[0])) - d[1]) * d[2]

    def jac(x, d):
        d1, d2, d3 = x
        e = np.exp(-d3 * d[0])
        return np.column_stack([d[0], -(1.0 - e),
                                -d2 * d[0] * e]) * d[2][:, None]

    spec = FitModelSpec(name="dfrac_linear_red",
                        param_names=("delta1", "delta2", "delta3"),
                        residual=resid, jacobian=jac,
                        transforms=(Identity(), Log(), Log()))
    scale = max(np.max(np.abs(y)), 1e-15)
    d1_0 = np.polyfit(p, y, 1)[0]
    start = [d1_0, 0.5 * scale, 2.0 / max(np.median(p[p > 0]), 1e-30)]
    fit = solve_least_squares(spec, (p, y, wts), initial=start)
    if fit["delta2"] < 1e-5 * scale:
        fit.flags.append("delta2_pinned")
    return fit


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
    wts = _weights_from_sigma(sigma, n.size)

    def resid(x, d):
        fdelta, n_c, beta, floor = x
        return (fdelta / np.sqrt(1.0 + (d[0] / n_c) ** beta) + floor
                - d[1]) * d[2]

    def jac(x, d):
        fdelta, n_c, beta, floor = x
        q = (d[0] / n_c) ** beta
        s = 1.0 / np.sqrt(1.0 + q)
        dsdq = -0.5 * fdelta * s**3
        with np.errstate(divide="ignore", invalid="ignore"):
            logterm = np.where(d[0] > 0, np.log(d[0] / n_c), 0.0)
        return np.column_stack([s, dsdq * (-beta * q / n_c),
                                dsdq * q * logterm,
                                np.ones_like(d[0])]) * d[2][:, None]

    spec = FitModelSpec(name="tls_saturation",
                        param_names=("f_delta", "n_c", "beta", "floor"),
                        residual=resid, jacobian=jac,
                        transforms=(Log(), Log(), Log(), Identity()))
    floor0 = float(np.min(y))
    fdelta0 = max(float(y[np.argmin(n)] - floor0), 1e-12)
    n_c0 = float(np.median(pos)) if pos.size else 1.0
    fit = solve_least_squares(spec, (n, y, wts),
                              initial=[fdelta0, n_c0, 1.0, floor0 - 1e-3 * fdelta0])
    if narrow:
        fit.flags.append("insufficient_span")
    return fit
