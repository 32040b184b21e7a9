"""Stochastic TLS-ensemble simulation of the optical response curves.

Each trial draws a random bath of TLSs (Poisson count, uniform frequencies
and positions, Gaussian couplings/rates/populations) and accumulates the
power-dependent response

    Delta(1/Q)(P) = (1/w_r) sum_i K(x_i, P) * dS_i * 2 G1_i w_r/(G1_i^2 + w_r^2) * g_i^2
    Df/f(P)       = (1/w_r) sum_i K(x_i, P) * [ (1 + S_i) (w_i - w_r)/(G2_i^2 + D_i^2) g_i^2
                                                - dS_i G1_i^2/(G1_i^2 + w_r^2) g_i^2 ]

where K(x, P) = [tanh((x + xi P/2)/l_edge) - tanh((x - xi P/2)/l_edge)]/2 is
the phonon-window kernel around the laser spot, evaluated as
tanh 2v / (1 + cosh 2u / cosh 2v) with u = x/l_edge, v = xi P/(2 l_edge): one
cosh per TLS and a few per power.  Both sums are the
illumination-induced *change*: the transverse term carries the sign of
omega_TLS - omega_r, so exciting the (more numerous) high-frequency TLSs
cancels part of the downward dispersive baseline and shows up as a blue
shift, exactly as in the analytic K_perp coefficient.

TLSs beyond McConfig.reach see a kernel below exp(-28) ~ 7e-13 at every
power, so a trial draws its bath on |x| <= reach only.  This is
exact Poisson thinning of the bath on [-L, L]: the Poisson mean scales with
the window and positions are uniform on it, so the drawn bath has the
distribution of the full bath's TLSs inside the reach.

Determinism: (seed, config) -> result is a pure function.  Trials get
independent sub-streams spawned from the master seed, so parallel and
sequential execution agree bit for bit.
"""

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .constants import HBAR, TWO_PI
from .tls import TlsUnit

# relative spread of the coupling/rate draws: FWHM equal to the mean
FWHM_REL_STD = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


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

    normalize_moments rescales the clamped Gaussian draws so that the bath
    satisfies <g_i^2> = g_mean^2 and <Gamma_i> = gamma1_mean exactly; these
    are the moments the averaged-bath (tilde) parameters stand for, and
    without the correction the loss slope would sit ~18% above the analytic
    value (the raw clamped draw has <g^2> = 1.18 g_mean^2).  Set it False for
    literally mean-centered draws.
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
    g_rel_std: float = FWHM_REL_STD
    gamma1_rel_std: float = FWHM_REL_STD
    s_mean: float = 0.0
    s_std: float = 0.35
    s_clamp: bool = True
    ds_value: float = 1.0 / (TWO_PI * 400e6)
    p_grid: np.ndarray = field(default_factory=_default_p_grid)
    fit_p_min: float | None = None
    fit_p_max: float | None = None
    normalize_moments: bool = True
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p_grid", np.asarray(self.p_grid, dtype=float))
        if self.freq_window is None:
            object.__setattr__(self, "freq_window",
                               (self.omega_r - self.omega_max, self.omega_r))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        lo, hi = self.freq_window
        if not (hi > lo):
            raise ValueError("freq_window must be an increasing pair")
        if self.exclusion < 0 or self.exclusion >= max(abs(lo), abs(hi)):
            raise ValueError("exclusion must be >= 0 and inside the window")
        if self.p_grid.ndim != 1 or self.p_grid.size < 2:
            raise ValueError("p_grid needs at least two points")
        if np.any(np.diff(self.p_grid) <= 0) or self.p_grid[0] < 0:
            raise ValueError("p_grid must be strictly increasing and nonnegative")
        for name in ("half_length", "l_edge", "xi", "area", "g_mean", "gamma1_mean"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        if self.rho_tls < 0:
            raise ValueError("rho_tls must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def window_segments(self):
        """Detuning segments of the draw window with the exclusion band removed."""
        lo, hi = self.freq_window
        segs = []
        for a, b in ((lo, min(hi, -self.exclusion)), (max(lo, self.exclusion), hi)):
            if b > a:
                segs.append((a, b))
        return segs

    @property
    def expected_count(self) -> float:
        """Poisson mean: rho hbar * (window width minus exclusion) * A * 2L."""
        width = sum(b - a for a, b in self.window_segments)
        return self.rho_tls * HBAR * width * self.area * 2.0 * self.half_length

    @property
    def reach(self) -> float:
        """|x| beyond which the kernel is below exp(-28) at every grid power."""
        return self.xi * self.p_grid[-1] / 2.0 + 14.0 * self.l_edge


@dataclass(frozen=True)
class TlsBath:
    """Column store of TLS draws; indexable into single TlsUnit views."""

    detuning: np.ndarray
    g_perp: np.ndarray
    g_par: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    s: np.ndarray
    ds: np.ndarray
    x: np.ndarray

    def __len__(self):
        return self.detuning.size

    def __getitem__(self, i) -> TlsUnit:
        return TlsUnit(detuning=float(self.detuning[i]),
                       g_perp=float(self.g_perp[i]), g_par=float(self.g_par[i]),
                       gamma1=float(self.gamma1[i]), gamma2=float(self.gamma2[i]),
                       s=float(self.s[i]), ds=float(self.ds[i]),
                       x=float(self.x[i]))

    @classmethod
    def from_units(cls, units):
        units = list(units)
        cols = {name: np.array([getattr(u, name) for u in units], dtype=float)
                for name in ("detuning", "g_perp", "g_par", "gamma1",
                             "gamma2", "s", "ds", "x")}
        return cls(**cols)


@dataclass(frozen=True)
class McResult:
    p_grid: np.ndarray
    dinv_q: np.ndarray        # (trials, n_p)
    dfrac: np.ndarray         # (trials, n_p)
    slopes_inv_q: np.ndarray  # per-trial fitted slope [1/W]
    slopes_dfrac: np.ndarray
    seed: int

    @property
    def mean_dinv_q(self):
        return self.dinv_q.mean(axis=0)

    @property
    def std_dinv_q(self):
        return self.dinv_q.std(axis=0, ddof=1) if self.dinv_q.shape[0] > 1 \
            else np.zeros(self.p_grid.size)

    @property
    def mean_dfrac(self):
        return self.dfrac.mean(axis=0)

    @property
    def std_dfrac(self):
        return self.dfrac.std(axis=0, ddof=1) if self.dfrac.shape[0] > 1 \
            else np.zeros(self.p_grid.size)

    def slope_stats(self):
        """((mean, std) of the 1/Q slope, (mean, std) of the df/f slope)."""
        n = self.slopes_inv_q.size
        ddof = 1 if n > 1 else 0
        return ((float(self.slopes_inv_q.mean()), float(self.slopes_inv_q.std(ddof=ddof))),
                (float(self.slopes_dfrac.mean()), float(self.slopes_dfrac.std(ddof=ddof))))


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
    if not (l_edge > 0):
        raise ValueError("l_edge must be positive")
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


def _clamped_normal(rng, n, rel_std, mean):
    """mean * max(N(1, rel_std), 0) draws."""
    return mean * np.maximum(rng.normal(1.0, rel_std, n), 0.0)


def _clamp_moments(rel_std):
    """(E[z], E[z^2]) for z = max(N(1, rel_std), 0)."""
    zq = 1.0 / rel_std
    pdf = np.exp(-0.5 * zq * zq) / np.sqrt(TWO_PI)
    cdf = 0.5 * (1.0 + math.erf(zq / np.sqrt(2.0)))
    m1 = cdf + rel_std * pdf
    m2 = (1.0 + rel_std**2) * cdf + rel_std * pdf
    return m1, m2


def generate_ensemble(config: McConfig, rng=None) -> TlsBath:
    """Draw one random bath.

    Count ~ Poisson(rho hbar dW A 2L); detunings uniform on the window minus
    the exclusion band, from one uniform variate over the total width mapped
    across the band; positions uniform on [-L, L]; g and Gamma_1 Gaussian
    around their means with FWHM-rule spread, clamped at zero (Gamma_2 =
    Gamma_1, g_perp = g_par); S Gaussian(s_mean, s_std) clamped into [-1, 0]
    unless s_clamp is off; dS shared.

    run() calls this with half_length cut to config.reach, which draws the
    full bath's TLSs inside the reach (Poisson thinning) and no others.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = int(rng.poisson(config.expected_count))
    if n == 0:
        warnings.warn("empty TLS ensemble (expected count "
                      f"{config.expected_count:.3g})", stacklevel=2)
        empty = np.empty(0)
        return TlsBath(*(empty.copy() for _ in range(8)))

    segs = config.window_segments
    detuning = segs[0][0] + rng.random(n) * sum(b - a for a, b in segs)
    for (_, end), (start, _) in zip(segs, segs[1:]):
        detuning[detuning >= end] += start - end

    x = rng.uniform(-config.half_length, config.half_length, n)

    g = _clamped_normal(rng, n, config.g_rel_std, config.g_mean)
    gamma1 = _clamped_normal(rng, n, config.gamma1_rel_std, config.gamma1_mean)
    if config.normalize_moments:
        m1_g, m2_g = _clamp_moments(config.g_rel_std)
        m1_gam, _ = _clamp_moments(config.gamma1_rel_std)
        g /= np.sqrt(m2_g)
        gamma1 /= m1_gam

    s = rng.normal(config.s_mean, config.s_std, n)
    if config.s_clamp:
        s = np.clip(s, -1.0, 0.0)
    ds = np.full(n, config.ds_value)

    return TlsBath(detuning=detuning, g_perp=g, g_par=g.copy(),
                   gamma1=gamma1, gamma2=gamma1.copy(), s=s, ds=ds, x=x)


def response_curves(config: McConfig, bath: TlsBath) -> McResult:
    """Single-trial response of a given bath over the configured power grid."""
    if not isinstance(bath, TlsBath):
        bath = TlsBath.from_units(bath)
    p = config.p_grid
    w_r = config.omega_r

    if len(bath) == 0:
        zeros = np.zeros((1, p.size))
        sq, sf = _fit_slopes(config, zeros[0], zeros[0])
        return McResult(p_grid=p, dinv_q=zeros, dfrac=zeros.copy(),
                        slopes_inv_q=np.array([sq]), slopes_dfrac=np.array([sf]),
                        seed=config.seed)

    # TLSs far outside the largest phonon window never contribute; a bath
    # drawn by run() lies inside the reach already
    reach = config.reach
    if bath.x.min() < -reach or bath.x.max() > reach:
        keep = np.abs(bath.x) <= reach
        bath = TlsBath(**{f.name: getattr(bath, f.name)[keep]
                          for f in fields(bath)})
    det = bath.detuning
    g2sq = bath.g_perp ** 2
    gpar_sq = bath.g_par ** 2
    gam1 = bath.gamma1
    gam2 = bath.gamma2
    s = bath.s
    ds = bath.ds

    lorentz_par = gam1 / (gam1**2 + w_r**2)
    w_q = ds * 2.0 * lorentz_par * w_r * gpar_sq
    # illumination-induced change of the dispersive pull: sign of omega_TLS - omega_r
    w_f_transverse = (1.0 + s) * (-det) / (gam2**2 + det**2) * g2sq
    w_f_long = ds * gam1 * lorentz_par * gpar_sq
    w_f = w_f_transverse - w_f_long

    k_mat = kernel(bath.x, p[:, None], config.xi, config.l_edge)
    dq = (k_mat @ w_q) / w_r
    df = (k_mat @ w_f) / w_r
    sq, sf = _fit_slopes(config, dq, df)
    return McResult(p_grid=p, dinv_q=dq[None, :], dfrac=df[None, :],
                    slopes_inv_q=np.array([sq]), slopes_dfrac=np.array([sf]),
                    seed=config.seed)


def _fit_slopes(config: McConfig, dq, df):
    p = config.p_grid
    m = np.ones(p.size, dtype=bool)
    if config.fit_p_min is not None:
        m &= p >= config.fit_p_min
    if config.fit_p_max is not None:
        m &= p <= config.fit_p_max
    if m.sum() < 2:
        raise ValueError("fit window keeps fewer than two power points")
    # straight line through both curves at once; columns scaled as polyfit does
    design = np.vander(p[m], 2)
    scale = np.sqrt((design * design).sum(axis=0))
    coef = np.linalg.lstsq(design / scale, np.column_stack((dq[m], df[m])),
                           rcond=None)[0]
    sq, sf = coef[0] / scale[0]
    return float(sq), float(sf)


def _run_trial(config: McConfig, seed_seq) -> McResult:
    rng = np.random.default_rng(seed_seq)
    draw = replace(config, half_length=min(config.half_length, config.reach))
    return response_curves(config, generate_ensemble(draw, rng))


def run(config: McConfig) -> McResult:
    """Full Monte Carlo: `trials` independent baths, aggregated.

    Per-trial sub-seeds are spawned deterministically from the master seed;
    workers > 1 evaluates trials in a thread pool with results written by
    trial index, so the output is independent of scheduling.
    """
    if config.rho_tls == 0.0:
        warnings.warn("rho_tls = 0: every trial is an empty ensemble",
                      stacklevel=2)
    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    if config.workers == 1:
        trials = [_run_trial(config, child) for child in children]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            trials = list(pool.map(lambda c: _run_trial(config, c), children))

    def stack(name):
        return np.concatenate([getattr(t, name) for t in trials])

    return McResult(p_grid=config.p_grid, dinv_q=stack("dinv_q"),
                    dfrac=stack("dfrac"), slopes_inv_q=stack("slopes_inv_q"),
                    slopes_dfrac=stack("slopes_dfrac"), seed=config.seed)
