"""Stochastic TLS-ensemble simulation of the optical response curves.

Each trial draws a random bath of TLSs (Poisson count, uniform frequencies
and positions, Gaussian couplings/rates/populations) and accumulates the
power-dependent response

    Delta(1/Q)(P) = (1/w_r) sum_i K(x_i, P) * loss_par_i
    Df/f(P)       = (1/w_r) sum_i K(x_i, P) * [pull_i(1 + S_i) + shift_par_i]

where loss_par, shift_par are tls.longitudinal_complex_shift and pull_i(s)
is tls.dispersive_pull, evaluated on the bath, a tls.TlsUnit of columns
(dS one scalar) validated once when drawn.  K is the phonon-window kernel
around the laser spot (see kernel).  Both sums are the illumination-induced
*change*: the transverse term carries the sign of omega_TLS - omega_r, so
exciting the (more numerous) high-frequency TLSs cancels part of the
downward dispersive baseline and shows up as a blue shift, exactly as in
the analytic K_perp coefficient.

TLSs beyond McConfig.reach see a kernel below exp(-28) ~ 7e-13 at every
power, so a bath is drawn on |x| <= McConfig.draw_half_length =
min(half_length, reach) only.  This is exact Poisson thinning of the bath
on [-L, L]: the Poisson mean scales with the window and positions are
uniform on it, so the drawn bath has the distribution of the full bath's
TLSs inside the reach.  response_curves sums every TLS it is given.

response_curves walks the bath in blocks of _BLOCK TLSs.  For each block
it evaluates the tls forms on TlsUnit.select's column views (not validated
again) and the (powers x block) kernel, and adds the product of the two
weight rows with the kernel into one (2, powers) accumulator, so no
bath-length kernel matrix or weight temporaries are built.  kernel picks
its tanh fallback per call, so per block: a block holding a TLS with
2|x|/l_edge > _COSH_ARG_MAX takes the tanh form while the other blocks keep
the cosh ratio.  The sums run block by block, so the curves can differ from
one bath-wide matrix-vector product by about 1e-15 relative (summation
order); the bath draws themselves are bit for bit those of rng.normal.

Determinism: (seed, config) -> result is a pure function.  Trials get
independent sub-streams spawned from the master seed, so parallel and
sequential execution agree bit for bit.  run logs the trials that drew an
empty bath as one warning per run.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .checks import check_range
from .constants import HBAR, TWO_PI
from .tls import TlsUnit, dispersive_pull, longitudinal_complex_shift

_log = logging.getLogger(__name__)

# relative spread of the coupling/rate draws: FWHM equal to the mean
FWHM_REL_STD = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# the largest expected TLS count of a trial's bath: about 50 times the
# reference bath's 1.9e5, or 0.4 GB of float64 columns, and far below the
# largest mean numpy's Generator.poisson takes (about 9.2e18)
_BATH_TLS_MAX = 1e7


def _default_p_grid():
    return np.linspace(0.0, 200e-9, 11)


@dataclass(frozen=True)
class McConfig:
    """Ensemble and sweep configuration; defaults reproduce the reference bath.

    freq_window is the detuning window (low, high) in the omega_r - omega_TLS
    convention; the default (omega_r - omega_max, omega_r) populates TLS
    frequencies over (0, omega_max], the same band the analytic integrals
    count.  exclusion removes |detuning| below the given value to keep
    nearly resonant TLSs (huge dispersive weights) out of the draw.

    g and Gamma_1 are drawn around g_mean and gamma1_mean with a relative
    spread of FWHM_REL_STD (FWHM equal to the mean), clamped at zero; S is
    drawn from N(0, s_std) clamped into [-1, 0]; dS is ds_value for every
    TLS.  The slopes are fitted over the whole p_grid.

    The clamped Gaussian draws of g and Gamma_1 are rescaled so that the
    bath satisfies <g_i^2> = g_mean^2 and <Gamma_i> = gamma1_mean exactly:
    these are the moments the averaged-bath (tilde) parameters stand for.
    The raw clamped draw has <g^2> = 1.18 g_mean^2, which would put the loss
    slope about 18 % above the analytic value.
    """

    seed: int = 0
    trials: int = 100
    omega_r: float = TWO_PI * 7e9
    omega_max: float = TWO_PI * 1e12
    freq_window: tuple[float, float] | None = None
    exclusion: float = TWO_PI * 100e6
    half_length: float = 250e-6
    l_edge: float = 10e-6
    xi: float = 50.0
    rho_tls: float = 1e45
    area: float = 1000e-18
    g_mean: float = TWO_PI * 5e6
    gamma1_mean: float = TWO_PI * 16e6
    s_std: float = 0.35
    ds_value: float = 1.0 / (TWO_PI * 400e6)
    p_grid: np.ndarray = field(default_factory=_default_p_grid)
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p_grid", np.asarray(self.p_grid, dtype=float))
        # the field that sets the window, named by its checks below
        window = "omega_max" if self.freq_window is None else "freq_window"
        if self.freq_window is None:
            object.__setattr__(self, "freq_window",
                               (self.omega_r - self.omega_max, self.omega_r))
        for name, least in (("seed", 0), ("trials", 1), ("workers", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        for name in ("omega_r", "omega_max", "l_edge", "xi", "area",
                     "g_mean", "gamma1_mean"):
            check_range(name, getattr(self, name))
        for name in ("exclusion", "rho_tls", "s_std", "ds_value", "p_grid"):
            check_range(name, getattr(self, name), "nonnegative and finite")
        # an infinite wire is fine: the bath is drawn on the reach
        check_range("half_length", self.half_length, "positive")
        check_range("freq_window", self.freq_window, "finite")
        lo, hi = self.freq_window
        if not (hi > lo):
            raise ValueError(
                "freq_window must be an increasing pair" if window == "freq_window"
                else "omega_max is below the float spacing of omega_r and "
                     "leaves the default window empty")
        if self.exclusion >= max(abs(lo), abs(hi)):
            raise ValueError("exclusion must lie inside the window")
        if self.p_grid.ndim != 1 or self.p_grid.size < 2:
            raise ValueError("p_grid needs at least two points")
        if np.any(np.diff(self.p_grid) <= 0):
            raise ValueError("p_grid must be strictly increasing")
        count = self.expected_count
        if not count <= _BATH_TLS_MAX:
            raise ValueError(
                f"{window} times rho_tls times area times half_length is "
                f"too large: {count:.3g} TLSs expected in a trial's bath, "
                f"above the {_BATH_TLS_MAX:.3g} a trial holds")

    @property
    def window_segments(self):
        """Detuning segments of the draw window with the exclusion band removed."""
        lo, hi = self.freq_window
        segs = ((lo, min(hi, -self.exclusion)), (max(lo, self.exclusion), hi))
        return [(a, b) for a, b in segs if b > a]

    @property
    def reach(self) -> float:
        """|x| beyond which the kernel is below exp(-28) at every grid power."""
        return self.xi * self.p_grid[-1] / 2.0 + 14.0 * self.l_edge

    @property
    def draw_half_length(self) -> float:
        """L', the half-length a bath is drawn on: min(half_length, reach)."""
        return min(self.half_length, self.reach)

    @property
    def expected_count(self) -> float:
        """Poisson mean: rho hbar * (window width minus exclusion) * A * 2L'."""
        width = sum(b - a for a, b in self.window_segments)
        return (self.rho_tls * HBAR * width * self.area * 2.0
                * self.draw_half_length)


@dataclass(frozen=True)
class McResult:
    p_grid: np.ndarray
    dinv_q: np.ndarray        # (trials, n_p)
    dfrac: np.ndarray         # (trials, n_p)
    slopes_inv_q: np.ndarray  # per-trial fitted slope [1/W]
    slopes_dfrac: np.ndarray

    @property
    def mean_dinv_q(self):
        return self.dinv_q.mean(axis=0)

    @property
    def std_dinv_q(self):  # one trial has no spread: ddof 0 gives zeros
        return self.dinv_q.std(axis=0, ddof=min(1, len(self.dinv_q) - 1))

    @property
    def mean_dfrac(self):
        return self.dfrac.mean(axis=0)

    @property
    def std_dfrac(self):
        return self.dfrac.std(axis=0, ddof=min(1, len(self.dfrac) - 1))

    def slope_stats(self):
        """((mean, std) of the 1/Q slope, (mean, std) of the df/f slope)."""
        ddof = min(1, self.slopes_inv_q.size - 1)
        return tuple((float(a.mean()), float(a.std(ddof=ddof)))
                     for a in (self.slopes_inv_q, self.slopes_dfrac))


# TLSs per block of response_curves: a block's columns, weights and
# (powers x TLS) kernel stay cache-sized (16k TLS x 11 powers: 1.4 MB)
_BLOCK = 16384

# cosh overflows past 710; beyond this argument use the tanh form
_COSH_ARG_MAX = 700.0


def kernel(x, p_opt, xi, l_edge):
    """Phonon window around the laser spot, in [0, 1]; x and p_opt broadcast.

    K(x, P) = [tanh((x + xi P/2)/l_edge) - tanh((x - xi P/2)/l_edge)] / 2
            = sinh 2v / (cosh 2u + cosh 2v) = tanh 2v / (1 + cosh 2u / cosh 2v)

    with u = x/l_edge, v = xi P/(2 l_edge).  The last form costs one cosh per
    x and a tanh and a cosh per power, so an outer (powers x TLS) matrix from
    x of shape (n,) and p_opt of shape (m, 1) needs n + 2m transcendentals
    instead of 2mn tanh.  Every step of it rounds monotonically, so K stays
    in [0, 1] and does not decrease with P, as with the tanh form.  When 2|u|
    or 2|v| exceeds _COSH_ARG_MAX the whole call uses the tanh form.
    """
    check_range("l_edge", l_edge)
    u = np.abs(np.asarray(x, dtype=float)) / l_edge
    v = np.asarray(p_opt, dtype=float) * (xi / (2.0 * l_edge))
    if 2.0 * max(np.max(u, initial=0.0),
                 np.max(np.abs(v), initial=0.0)) > _COSH_ARG_MAX:
        return 0.5 * (np.tanh(u + v) - np.tanh(u - v))
    # in place, with out given so that 0-d inputs stay arrays; [()] unwraps
    # those to a scalar
    k = np.multiply(1.0 / np.cosh(2.0 * v), np.cosh(2.0 * u),
                    out=np.empty(np.broadcast_shapes(u.shape, v.shape)))
    k += 1.0
    return np.divide(np.tanh(2.0 * v), k, out=k)[()]


def _normal(rng, n, loc, scale):
    """rng.normal(loc, scale, n) bit for bit, in one buffer: normal computes
    loc + scale * z on the same standard-normal stream."""
    z = rng.standard_normal(n)
    z *= scale
    z += loc
    return z


def _clamped_normal(rng, n, mean):
    """mean * max(N(1, FWHM_REL_STD), 0) draws."""
    z = _normal(rng, n, 1.0, FWHM_REL_STD)
    np.maximum(z, 0.0, out=z)
    z *= mean
    return z


def _clamp_moments(rel_std):
    """(E[z], E[z^2]) for z = max(N(1, rel_std), 0)."""
    zq = 1.0 / rel_std
    pdf = np.exp(-0.5 * zq * zq) / np.sqrt(TWO_PI)
    cdf = 0.5 * (1.0 + math.erf(zq / np.sqrt(2.0)))
    m1 = cdf + rel_std * pdf
    m2 = (1.0 + rel_std**2) * cdf + rel_std * pdf
    return m1, m2


def generate_ensemble(config: McConfig, rng=None) -> TlsUnit:
    """Draw one random bath.

    Count ~ Poisson(rho hbar dW A 2L) with L = McConfig.draw_half_length;
    detunings uniform on the window minus the exclusion band, from one
    uniform variate over the total width mapped across the band; positions
    uniform on [-L, L]; g, Gamma_1 and S as McConfig states, with Gamma_2 =
    Gamma_1 and g_perp = g_par sharing one array each and dS one scalar.
    About 1 % of the TLSs get Gamma_1 = 0.  An empty bath is not logged
    here: run() reports its empty trials once per run.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = int(rng.poisson(config.expected_count))

    segs = config.window_segments
    detuning = segs[0][0] + rng.random(n) * sum(b - a for a, b in segs)
    for (_, end), (start, _) in zip(segs, segs[1:]):
        detuning[detuning >= end] += start - end

    x = rng.uniform(-config.draw_half_length, config.draw_half_length, n)

    g = _clamped_normal(rng, n, config.g_mean)
    gamma1 = _clamped_normal(rng, n, config.gamma1_mean)
    m1, m2 = _clamp_moments(FWHM_REL_STD)
    g /= np.sqrt(m2)
    gamma1 /= m1

    s = _normal(rng, n, 0.0, config.s_std)
    np.clip(s, -1.0, 0.0, out=s)

    return TlsUnit(detuning=detuning, g_perp=g, g_par=g, gamma1=gamma1,
                   gamma2=gamma1, s=s, ds=config.ds_value, x=x)


def response_curves(config: McConfig, bath: TlsUnit) -> McResult:
    """Single-trial response of a given bath over the configured power grid."""
    p = config.p_grid
    w_r = config.omega_r

    # (dinv_q, dfrac) * w_r at each power, summed block by block
    acc = np.zeros((2, p.size))
    for start in range(0, len(bath), _BLOCK):
        blk = bath.select(slice(start, start + _BLOCK))
        loss_par, shift_par = longitudinal_complex_shift(blk, w_r)
        # optical convention: illumination is measured against the
        # ground-state bath, so the dispersive pull enters as the change
        # S - (-1) = 1 + S
        shift_perp = dispersive_pull(blk, 1.0 + blk.s)
        shift_perp += shift_par
        acc += np.stack((loss_par, shift_perp)) @ kernel(
            blk.x, p[:, None], config.xi, config.l_edge).T
    dq, df = acc / w_r
    sq, sf = _fit_slopes(p, dq, df)
    return McResult(p_grid=p, dinv_q=dq[None, :], dfrac=df[None, :],
                    slopes_inv_q=np.array([sq]), slopes_dfrac=np.array([sf]))


def _fit_slopes(p, dq, df):
    """Least-squares slopes of dq and df against the power grid p."""
    # straight line through both curves at once; columns scaled as polyfit does
    design = np.vander(p, 2)
    scale = np.sqrt((design * design).sum(axis=0))
    coef = np.linalg.lstsq(design / scale, np.column_stack((dq, df)),
                           rcond=None)[0]
    sq, sf = coef[0] / scale[0]
    return float(sq), float(sf)


def run(config: McConfig) -> McResult:
    """Full Monte Carlo: `trials` independent baths, aggregated.

    Per-trial sub-seeds are spawned deterministically from the master seed;
    workers > 1 evaluates trials in a thread pool with results written by
    trial index, so the output is independent of scheduling.  Trials whose
    bath came out empty are logged as one warning per run.
    """
    def trial(child):
        bath = generate_ensemble(config, np.random.default_rng(child))
        return len(bath), response_curves(config, bath)

    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    if config.workers == 1:
        done = [trial(child) for child in children]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            done = list(pool.map(trial, children))
    sizes, trials = zip(*done)
    if 0 in sizes:
        _log.warning("%d of %d trials drew an empty TLS bath (expected count "
                     "%.3g)", sizes.count(0), config.trials, config.expected_count)

    def stack(name):
        return np.concatenate([getattr(t, name) for t in trials])

    return McResult(p_grid=config.p_grid, dinv_q=stack("dinv_q"),
                    dfrac=stack("dfrac"), slopes_inv_q=stack("slopes_inv_q"),
                    slopes_dfrac=stack("slopes_dfrac"))
