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
the tls forms, on TlsUnit.select's column views (not validated again), write
the two weight rows (loss, shift) and their scratch rows in place into one
(5, block) workspace, and kernel writes the (powers x block) kernel into a
second buffer.  One matrix product per block of the two weight rows with
the kernel adds into a (2, powers) accumulator.  Both buffers are made once
per call and serve every block of the bath, so a block allocates nothing of
its length but kernel's row of |x|/l_edge, and no bath-length kernel matrix
is built.  They are freed when the call returns rather than kept in run's
column store: kept there, they would sit above the columns that a later,
larger bath regrows, and a run's peak RSS would rise by their 2 MB.

kernel picks its tanh fallback per call, so per block: a block holding a
TLS with 2|x|/l_edge > _COSH_ARG_MAX takes the tanh form while the other
blocks keep the cosh ratio.  The sums run block by block, so the curves can differ from
one bath-wide matrix-vector product by about 1e-15 relative (summation
order); the bath draws themselves are bit for bit those of rng.normal.

generate_ensemble can draw into a column store: a dict, owned by the
caller, of one float buffer per column.  Each column is then drawn in place
into its buffer and the bath's columns are [:n] views of the buffers, so a
bath drawn into a store is valid until the next draw into that store.  run
keeps one store per worker thread for the length of the call, so a thread's
trials after its first reuse the pages of its last bath instead of faulting
fresh ones in; the stores are freed when run returns.  The draws are the
same with or without a store.

Determinism: (seed, config) -> result is a pure function.  Trials get
independent sub-streams spawned from the master seed, so parallel and
sequential execution agree bit for bit.  With workers > 1 each trial runs
in a copy of the caller's contextvars context, so numpy's error state
(np.errstate) holds in the pool threads as in the caller.  run logs the
trials that drew an empty bath as one warning per run.
"""

import contextvars
import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

from .checks import check_fields, check_range, domain, ranged
from .constants import HBAR, TWO_PI
from .tls import TlsUnit, dispersive_pull, longitudinal_complex_shift

_log = logging.getLogger(__name__)

# relative spread of the coupling/rate draws: FWHM equal to the mean
FWHM_REL_STD = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# the largest expected TLS count of a trial's bath: about 50 times the
# reference bath's 1.9e5, or 0.4 GB of float64 columns, and far below the
# largest mean numpy's Generator.poisson takes (about 9.2e18)
_BATH_TLS_MAX = 1e7

# W: the least top power of a sweep, 1 fW, the low end of the command
# line's --p-max-nw.  Far below it the slope fit's power-column norm
# underflows
_P_TOP_MIN = 1e-15

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

    # each field's closed domain [lo, hi] and its reason; in it no product
    # a trial forms overflows or underflows
    seed: int = ranged(0, 2**64 - 1, 0)     # any 64-bit seed
    trials: int = ranged(1, 100_000, 100)   # a thousand README runs
    # rad/s: 1 kHz to 1 PHz, audio to optical; the window, a detuning, and
    # the exclusion within 1 PHz
    omega_r: float = ranged(TWO_PI * 1e3, TWO_PI * 1e15, TWO_PI * 7e9)
    omega_max: float = ranged(TWO_PI * 1e3, TWO_PI * 1e15, TWO_PI * 1e12)
    freq_window: tuple[float, float] | None = ranged(
        -TWO_PI * 1e15, TWO_PI * 1e15, None)
    exclusion: float = ranged(0.0, TWO_PI * 1e15, TWO_PI * 100e6)
    # m: from 1 nm to an endless wire, which is drawn on the reach
    half_length: float = ranged(1e-9, math.inf, 250e-6)
    l_edge: float = ranged(1e-9, 1.0, 10e-6)  # m: a phonon window's edge
    xi: float = ranged(1e-3, 1e5, 50.0)  # m/W: 1 nm to 10 cm of wire per uW
    rho_tls: float = ranged(0.0, 1e55, 1e45)  # amorphous hosts: 1e44-1e46
    area: float = ranged(1e-22, 1e-2, 1000e-18)  # m^2: (10 pm)^2 to (10 cm)^2
    # rad/s: 1 Hz to 1 THz.  The clamped draw reaches 6.3 g_mean and 6.8
    # gamma1_mean: numpy's normal draw z lies within r + 53 ln 2 / r =
    # 13.71 of 0 (its ziggurat tail, r = 3.654), so a draw is at most
    # 1 + 13.71 FWHM_REL_STD = 6.82 times the mean before the moment
    # rescaling divides g by sqrt(1.180) and Gamma_1 by 1.001.  TlsUnit's
    # domains reach ten times these bounds
    g_mean: float = ranged(TWO_PI, TWO_PI * 1e12, TWO_PI * 5e6)
    gamma1_mean: float = ranged(TWO_PI, TWO_PI * 1e12, TWO_PI * 16e6)
    s_std: float = ranged(0.0, 1e3, 0.35)  # 3 decades past the [-1, 0] clip
    # s: hbar/kT at 8 nK is 1 ms
    ds_value: float = ranged(0.0, 1e-3, 1.0 / (TWO_PI * 400e6))
    # W: laser powers up to 1 W
    p_grid: np.ndarray = ranged(0.0, 1.0, default_factory=_default_p_grid)
    workers: int = ranged(1, 1024, 1)       # a thread per core of a large host

    def __post_init__(self):
        object.__setattr__(self, "p_grid", np.asarray(self.p_grid, dtype=float))
        # the field that sets the window, named by the bath-size check below
        window = "omega_max" if self.freq_window is None else "freq_window"
        if self.freq_window is None:
            object.__setattr__(self, "freq_window",
                               (self.omega_r - self.omega_max, self.omega_r))
        check_fields(self)
        lo, hi = self.freq_window
        if not hi > lo:
            raise ValueError("freq_window must be an increasing pair")
        if self.exclusion >= max(abs(lo), abs(hi)):
            raise ValueError("exclusion must lie inside the window")
        if self.p_grid.ndim != 1 or self.p_grid.size < 2:
            raise ValueError("p_grid needs at least two points")
        if np.any(np.diff(self.p_grid) <= 0):
            raise ValueError("p_grid must be strictly increasing")
        if not self.p_grid[-1] >= _P_TOP_MIN:
            raise ValueError(f"p_grid's largest power must be at least "
                             f"{_P_TOP_MIN:g} W")
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
        """|x| beyond which the kernel is below exp(-28) at every power."""
        return self.xi * self.p_grid[-1] / 2.0 + 14.0 * self.l_edge

    @property
    def draw_half_length(self) -> float:
        """L', the half-length a bath is drawn on: min(half_length, reach)."""
        return min(self.half_length, self.reach)

    @property
    def expected_count(self) -> float:
        """Poisson mean: rho hbar (window width minus exclusion) A 2L'."""
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
_L_EDGE = domain(McConfig, "l_edge")  # kernel's l_edge, read once


def kernel(x, p_opt, xi, l_edge, out=None):
    """Phonon window around the laser spot, in [0, 1]; x and p_opt broadcast.

    K(x, P) = [tanh((x + xi P/2)/l_edge) - tanh((x - xi P/2)/l_edge)] / 2
            = sinh 2v / (cosh 2u + cosh 2v) = tanh 2v / (1 + cosh 2u / cosh 2v)

    with u = x/l_edge, v = xi P/(2 l_edge).  The last form costs one cosh per
    x and a tanh and a cosh per power, so an outer (powers x TLS) matrix from
    x of shape (n,) and p_opt of shape (m, 1) needs n + 2m transcendentals
    instead of 2mn tanh.  Every step of it rounds monotonically, so K stays
    in [0, 1] and does not decrease with P, as with the tanh form.  When 2|u|
    or 2|v| exceeds _COSH_ARG_MAX the whole call uses the tanh form.

    out, a float array of the broadcast shape owned by the caller, takes K
    and is returned; without it K goes to a fresh array, unwrapped to a
    scalar for scalar inputs.  Both forms write K in place into it.
    """
    check_range("l_edge", l_edge, _L_EDGE)
    # one fresh row for u, a 0-d array for a scalar x; then in place
    u = np.array(x, dtype=float)
    np.abs(u, out=u)
    u /= l_edge
    v = np.asarray(p_opt, dtype=float) * (xi / (2.0 * l_edge))
    k = np.empty(np.broadcast_shapes(u.shape, v.shape)) if out is None else out
    if 2.0 * max(np.max(u, initial=0.0),
                 np.max(np.abs(v), initial=0.0)) > _COSH_ARG_MAX:
        np.tanh(np.add(u, v, out=k), out=k)
        k -= np.tanh(u - v)
        k *= 0.5
    else:
        u *= 2.0
        np.multiply(1.0 / np.cosh(2.0 * v), np.cosh(u, out=u), out=k)
        k += 1.0
        np.divide(np.tanh(2.0 * v), k, out=k)
    return k if out is not None else k[()]


def _column(store, name, n):
    """An n-long float column: without a store a fresh array, with one the
    [:n] view of the store's buffer for name.  A buffer grows only when n
    exceeds it, and the old one is dropped before the new one is allocated,
    so a store holds one buffer of about one column per name."""
    if store is None:
        return np.empty(n)
    if name not in store or store[name].size < n:
        store.pop(name, None)
        store[name] = np.empty(n)
    return store[name][:n]


def _normal(rng, out, loc, scale):
    """rng.normal(loc, scale, out.size) bit for bit, drawn into out: normal
    computes loc + scale * z on the same standard-normal stream."""
    rng.standard_normal(out=out)
    out *= scale
    out += loc
    return out


def _clamped_normal(rng, out, mean):
    """mean * max(N(1, FWHM_REL_STD), 0) draws, into out."""
    _normal(rng, out, 1.0, FWHM_REL_STD)
    np.maximum(out, 0.0, out=out)
    out *= mean
    return out


def _clamp_moments(rel_std):
    """(E[z], E[z^2]) for z = max(N(1, rel_std), 0)."""
    zq = 1.0 / rel_std
    pdf = np.exp(-0.5 * zq * zq) / np.sqrt(TWO_PI)
    cdf = 0.5 * (1.0 + math.erf(zq / np.sqrt(2.0)))
    m1 = cdf + rel_std * pdf
    m2 = (1.0 + rel_std**2) * cdf + rel_std * pdf
    return m1, m2


def generate_ensemble(config: McConfig, rng=None, store=None) -> TlsUnit:
    """Draw one random bath.

    Count ~ Poisson(rho hbar dW A 2L) with L = McConfig.draw_half_length;
    detunings uniform on the window minus the exclusion band, from one
    uniform variate over the total width mapped across the band; positions
    uniform on [-L, L]; g, Gamma_1 and S as McConfig states, with Gamma_2 =
    Gamma_1 and g_perp = g_par sharing one array each and dS one scalar.
    About 1 % of the TLSs get Gamma_1 = 0.  An empty bath is not logged
    here: run() reports its empty trials once per run.

    store, a dict the caller owns, holds one buffer per column.  With a
    store each column is drawn in place into its buffer (grown when the
    count exceeds it) and the bath's columns are [:n] views of the buffers,
    so the bath is valid until the next draw into the same store.  Without
    one the columns are fresh arrays.  The draws are the same either way.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = int(rng.poisson(config.expected_count))

    # lo + width * u, as lo + rng.random(n) * width computes it
    segs = config.window_segments
    detuning = rng.random(out=_column(store, "detuning", n))
    detuning *= sum(b - a for a, b in segs)
    detuning += segs[0][0]
    for (_, end), (start, _) in zip(segs, segs[1:]):
        np.add(detuning, start - end, out=detuning, where=detuning >= end)

    # low + (high - low) * u, as rng.uniform(low, high, n) computes it
    half = config.draw_half_length
    x = rng.random(out=_column(store, "x", n))
    x *= half - (-half)
    x += -half

    g = _clamped_normal(rng, _column(store, "g", n), config.g_mean)
    gamma1 = _clamped_normal(rng, _column(store, "gamma1", n),
                             config.gamma1_mean)
    m1, m2 = _clamp_moments(FWHM_REL_STD)
    g /= np.sqrt(m2)
    gamma1 /= m1

    s = _normal(rng, _column(store, "s", n), 0.0, config.s_std)
    np.clip(s, -1.0, 0.0, out=s)

    return TlsUnit(detuning=detuning, g_perp=g, g_par=g, gamma1=gamma1,
                   gamma2=gamma1, s=s, ds=config.ds_value, x=x)


def response_curves(config: McConfig, bath: TlsUnit) -> McResult:
    """Single-trial response of a given bath over the configured power grid."""
    p = config.p_grid
    w_r = config.omega_r
    n = len(bath)
    # one workspace for every block: the weight rows (loss, shift), then
    # the tls forms' scratch rows; and the kernel
    work = np.empty((5, min(n, _BLOCK)))
    k = np.empty((p.size, min(n, _BLOCK)))

    # (dinv_q, dfrac) * w_r at each power, summed block by block
    acc = np.zeros((2, p.size))
    for start in range(0, n, _BLOCK):
        blk = bath.select(slice(start, start + _BLOCK))
        m = min(_BLOCK, n - start)
        w = work[:, :m]
        longitudinal_complex_shift(blk, w_r, out=w[:3])
        # optical convention: illumination is measured against the
        # ground-state bath, so the dispersive pull enters as the change
        # S - (-1) = 1 + S
        np.add(blk.s, 1.0, out=w[2])
        dispersive_pull(blk, w[2], out=w[3:])
        w[1] += w[3]
        acc += w[:2] @ kernel(blk.x, p[:, None], config.xi, config.l_edge,
                              out=k[:, :m]).T
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
    trial index, so the output is independent of scheduling, each trial in
    a copy of the caller's context.  Each worker thread draws its trials
    into one column store (see generate_ensemble), so a trial reuses the
    pages of the thread's last bath; the stores are freed when run
    returns.  Trials whose bath came out empty are logged as one warning
    per run.
    """
    stores = threading.local()
    # numpy keeps its error state in a context variable, which pool threads
    # do not inherit: each trial runs in a copy of the caller's context
    context = contextvars.copy_context()

    def trial(child):
        store = vars(stores).setdefault("columns", {})
        bath = generate_ensemble(config, np.random.default_rng(child),
                                 store=store)
        return len(bath), response_curves(config, bath)

    def in_context(child):
        return context.copy().run(trial, child)

    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    if config.workers == 1:
        done = [trial(child) for child in children]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            done = list(pool.map(in_context, children))
    sizes, trials = zip(*done)
    if 0 in sizes:
        _log.warning("%d of %d trials drew an empty TLS bath (expected count "
                     "%.3g)", sizes.count(0), config.trials, config.expected_count)

    def stack(name):
        return np.concatenate([getattr(t, name) for t in trials])

    return McResult(p_grid=config.p_grid, dinv_q=stack("dinv_q"),
                    dfrac=stack("dfrac"), slopes_inv_q=stack("slopes_inv_q"),
                    slopes_dfrac=stack("slopes_dfrac"))
