"""Closed-form TLS-bath integrals and the optical-response slopes.

A bath of TLSs with density of states rho_tls (per joule per m^3), averaged
couplings g_perp_t/g_par_t and rates gamma1_t/gamma2_t, and nonequilibrium
population parameters S_tilde/dS_tilde, contributes

    loss  = -2 pi hbar rho V g_perp^2 S                 (resonant, transverse)
            + 2 hbar rho V g_par^2 K1 omega_max dS      (Debye, longitudinal)
    shift =  hbar rho V g_perp^2 ln(dmax/dmin) S        (dispersive)
            - hbar rho V g_par^2 K2 omega_max dS        (longitudinal)

with K1 = Gamma_1 omega_r/(Gamma_1^2 + omega_r^2), K2 = Gamma_1^2/(...).

Illumination sweeps the affected volume as V_eff = A xi P_opt, which turns
the bath response into the power slopes

    d(1/Q)/dP      = 2 C K_par omega_r g^2
    d(df/f)/dP     = C (K_perp - Gamma_1 K_par) g^2

with C = hbar rho A xi / omega_r, K_par = Gamma_1 omega_max dS /
(Gamma_1^2 + omega_r^2) and K_perp = (1 + S) ln(dmax/dmin).  The (1 + S)
factor is the optical-response convention: illumination is measured against
the ground-state bath, so the dispersive baseline enters as the change
S - (-1).
"""

from dataclasses import dataclass, replace

import numpy as np

from .checks import check_range
from .constants import HBAR, TWO_PI


@dataclass(frozen=True)
class EnsembleParams:
    """Averaged TLS-bath parameters.

    All rates angular [rad/s]; rho_tls in J^-1 m^-3; thickness/width in m
    (cross-section A = thickness * width); xi in m/W; dS_tilde in s.
    delta_max/delta_min are the detuning cutoffs of the dispersive log
    window; they default to omega_max and omega_r.

    Any field may be a numpy array: the closed forms below broadcast over
    the fields and return arrays of the broadcast shape, and validation
    rejects the whole set if any element is out of range.
    """

    omega_r: float = TWO_PI * 7e9
    rho_tls: float = 1e45
    thickness: float = 2e-9
    width: float = 500e-9
    xi: float = 50.0
    omega_max: float = TWO_PI * 1e12
    delta_max: float | None = None
    delta_min: float | None = None
    s_tilde: float = 0.0
    ds_tilde: float = 1.0 / (TWO_PI * 400e6)
    gamma1_t: float = TWO_PI * 16e6
    gamma2_t: float | None = None
    g_perp_t: float = TWO_PI * 5e6
    g_par_t: float = TWO_PI * 5e6

    def __post_init__(self):
        if self.delta_max is None:
            object.__setattr__(self, "delta_max", self.omega_max)
        if self.delta_min is None:
            object.__setattr__(self, "delta_min", self.omega_r)
        if self.gamma2_t is None:
            object.__setattr__(self, "gamma2_t", self.gamma1_t)
        for name in ("omega_r", "rho_tls", "thickness", "width", "xi",
                     "omega_max", "delta_max", "delta_min", "gamma1_t",
                     "gamma2_t"):
            check_range(name, getattr(self, name))
        for name in ("g_perp_t", "g_par_t", "ds_tilde"):
            check_range(name, getattr(self, name), "nonnegative and finite")
        check_range("s_tilde", self.s_tilde, (-1.0, 0.0))
        if not np.all((self.delta_max >= self.delta_min)
                      & (self.delta_min >= self.gamma2_t)):
            raise ValueError("delta_max must be >= delta_min >= gamma2_t")
        # every field is finite, but the slopes are products of them and of
        # their squares, which Python floats raise OverflowError on
        with np.errstate(over="ignore", invalid="ignore"):
            for name in ("omega_r", "gamma1_t", "g_perp_t", "g_par_t"):
                check_range(f"{name} squared",
                            np.square(getattr(self, name), dtype=float),
                            "finite")
            for slope in slope_inverse_q(self), slope_fractional_frequency(self):
                check_range("ds_tilde times omega_max times rho_tls times "
                            "thickness times width times xi times couplings "
                            "squared", slope, "finite")

    @property
    def area(self) -> float:
        return self.thickness * self.width


def coupling_prefactor(p: EnsembleParams) -> float:
    """C = hbar rho_tls A xi / omega_r  [s^2/W]."""
    return HBAR * p.rho_tls * p.area * p.xi / p.omega_r


def k_parallel(p: EnsembleParams) -> float:
    """K_par = Gamma_1 omega_max dS / (Gamma_1^2 + omega_r^2)  [s]."""
    return (p.gamma1_t * p.omega_max * p.ds_tilde
            / (p.gamma1_t**2 + p.omega_r**2))


def k_perp(p: EnsembleParams) -> float:
    """K_perp = (1 + S) ln(delta_max/delta_min)  [dimensionless]."""
    return (1.0 + p.s_tilde) * np.log(p.delta_max / p.delta_min)


def slope_inverse_q(p: EnsembleParams) -> float:
    """d Delta(1/Q) / dP_opt  [1/W]: 2 C K_par omega_r g_par^2."""
    return 2.0 * coupling_prefactor(p) * k_parallel(p) * p.omega_r * p.g_par_t**2


def slope_fractional_frequency(p: EnsembleParams) -> float:
    """d (Delta f_r/f_r) / dP_opt  [1/W]: C (K_perp g_perp^2 - Gamma_1 K_par g_par^2)."""
    c = coupling_prefactor(p)
    return c * (k_perp(p) * p.g_perp_t**2
                - p.gamma1_t * k_parallel(p) * p.g_par_t**2)


_SWEEP_AXES = ("omega_r", "omega_max")
_G_REFERENCE_FR = 7e9  # Hz; coupling normalization pivot for omega_r sweeps


def parameter_sweep(p: EnsembleParams, axis, grid):
    """Sweep one axis; returns dict of arrays (axis value + both slopes).

    axis "omega_r" rescales the couplings as g(omega_r) = g0 *
    sqrt(f_r / 7 GHz) (single-photon coupling grows with the mode frequency)
    and keeps delta_min pinned to omega_r.  axis "omega_max" moves delta_max
    with it.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("grid must be nonempty and positive")
    if axis not in _SWEEP_AXES:
        raise ValueError(f"axis must be one of {_SWEEP_AXES}")

    if axis == "omega_r":
        scale = np.sqrt(grid / (TWO_PI * _G_REFERENCE_FR))
        q = replace(p, omega_r=grid, delta_min=grid,
                    g_perp_t=p.g_perp_t * scale, g_par_t=p.g_par_t * scale)
    else:
        q = replace(p, omega_max=grid, delta_max=grid)
    return {"axis": axis, "grid": grid,
            "slope_inverse_q": slope_inverse_q(q),
            "slope_fractional_frequency": slope_fractional_frequency(q)}
