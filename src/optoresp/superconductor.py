"""Thin-film superconductor kinetics: penetration depth, kinetic inductance,
quasiparticle and cavity-perturbation frequency shifts, and the
current-density -> local-potential map.

Field and current maps come from external electromagnetic solvers as CSV
files (see :func:`load_current_density_map` / :func:`load_field_energy_maps`
for the schemas); this module only consumes them, through the table reader
of :mod:`optoresp.io`, which names a malformed or non-finite cell by
``path:lineno``.
"""

from dataclasses import dataclass

import numpy as np

from . import io
from .constants import MU_0


@dataclass(frozen=True)
class FilmGeometry:
    """Nanowire film: thickness d, width w, length l, all in meters."""

    thickness: float
    width: float
    length: float

    def __post_init__(self):
        for name in ("thickness", "width", "length"):
            _check_positive(self, name)


@dataclass(frozen=True)
class SuperconductorParams:
    """Material parameters of the superconducting film.

    lambda0 : zero-temperature magnetic penetration depth [m]
    t_c : critical temperature [K]
    l_total_per_length : total inductance per unit length [H/m]; when the
        kinetic fraction is ~1 use :meth:`with_kinetic_total` to set it from
        the kinetic inductance itself.
    """

    lambda0: float
    t_c: float
    l_total_per_length: float | None = None

    def __post_init__(self):
        for name in ("lambda0", "t_c"):
            _check_positive(self, name)
        if self.l_total_per_length is not None:
            _check_positive(self, "l_total_per_length")

    @classmethod
    def with_kinetic_total(cls, lambda0, t_c, geom: FilmGeometry, t_ref=0.0):
        """L_t,l set to L_k,l(t_ref): the kinetic-inductance-dominated limit."""
        sc = cls(lambda0, t_c)
        return cls(lambda0, t_c, kinetic_inductance_per_length(sc, geom, t_ref))


def _check_positive(obj, name):
    if not 0 < getattr(obj, name) < np.inf:
        raise ValueError(f"{name} must be positive and finite")


def penetration_depth(sc: SuperconductorParams, temperature):
    """lambda(T) = lambda(0)/sqrt(1 - (T/T_c)^4); defined for 0 <= T < T_c."""
    t = np.asarray(temperature, dtype=float)
    if np.any(t < 0) or np.any(t >= sc.t_c):
        raise ValueError(f"temperature must lie in [0, T_c = {sc.t_c} K)")
    return sc.lambda0 / np.sqrt(1.0 - (t / sc.t_c) ** 4)


def kinetic_inductance_per_length(sc: SuperconductorParams,
                                  geom: FilmGeometry, temperature):
    """L_k,l = mu_0 lambda(T)^2 / (d w)  [H/m], uniform-current nanowire."""
    lam = penetration_depth(sc, temperature)
    return MU_0 * lam**2 / (geom.thickness * geom.width)


def freq_shift_from_temperature(sc: SuperconductorParams, geom: FilmGeometry,
                                temperature, t_ref):
    """Fractional frequency shift from the penetration-depth change.

    -(1/L_t,l) * (mu_0/(d w)) * lambda(T_ref) * (lambda(T) - lambda(T_ref)),
    the linearized form of -(L_k,l(T) - L_k,l(T_ref)) / (2 L_t,l).
    Negative for T > T_ref (the resonance softens as the film warms).
    temperature may be an array; the result has its shape.
    """
    if sc.l_total_per_length is None:
        raise ValueError("l_total_per_length not set; use with_kinetic_total "
                         "or supply it directly")
    lam_ref = penetration_depth(sc, t_ref)
    lam = penetration_depth(sc, temperature)
    return (-(MU_0 / (geom.thickness * geom.width)) * lam_ref
            * (lam - lam_ref) / sc.l_total_per_length)


def freq_shift_from_quasiparticles(delta_n_qp, n_s_pair):
    """Delta f_r/f_r = -Delta n_qp / (2 n_s): pair breaking red-shifts."""
    if not (n_s_pair > 0):
        raise ValueError("pair density must be positive")
    delta_n_qp = np.asarray(delta_n_qp, dtype=float)
    if np.any(np.abs(delta_n_qp) >= n_s_pair):
        raise ValueError("|delta_n_qp| must stay below the pair density")
    return -delta_n_qp / (2.0 * n_s_pair)


@dataclass(frozen=True)
class CurrentDensityMap:
    """Normalized current density J(x, y) in [0, 1] on scattered sample points."""

    x: np.ndarray
    y: np.ndarray
    j_norm: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j_norm, dtype=float)
        if np.any(j < 0) or np.any(j > 1):
            raise ValueError("j_norm must lie in [0, 1]")


def local_potential(current_map: CurrentDensityMap):
    """|V_local| = |cos(arcsin J)| = sqrt(1 - J^2), pointwise.

    1 at a voltage antinode (J = 0), 0 at a current antinode (J = 1); TLS
    coupling strength scales with this local electric-field amplitude.
    """
    return np.sqrt(1.0 - np.asarray(current_map.j_norm, dtype=float) ** 2)


@dataclass(frozen=True)
class FieldEnergyMaps:
    """Sampled |E0|^2 / |H0|^2 with region mask and per-cell volumes.

    e2, h2 : field energy densities on the sample grid
    eps_re, mu_re : real permittivity/permeability weights per sample
    in_local : bool mask of the region whose permittivity changes
    cell_vol : integration volume per sample [m^3]
    """

    e2: np.ndarray
    h2: np.ndarray
    eps_re: np.ndarray
    mu_re: np.ndarray
    in_local: np.ndarray
    cell_vol: np.ndarray

    def __post_init__(self):
        if np.asarray(self.cell_vol).size == 0:
            raise ValueError("field map is empty")
        if np.any(np.asarray(self.cell_vol) <= 0):
            raise ValueError("cell volumes must be positive")


def participation_ratio(fields: FieldEnergyMaps):
    """Electric-field filling factor of the local region.

    p = sum_local |E0|^2 dV / sum_all (Re eps |E0|^2 + Re mu |H0|^2) dV
    """
    mask = np.asarray(fields.in_local, dtype=bool)
    if not mask.any():
        return 0.0
    num = float(np.sum(fields.e2[mask] * fields.cell_vol[mask]))
    den = float(np.sum((fields.eps_re * fields.e2 + fields.mu_re * fields.h2)
                       * fields.cell_vol))
    if den <= 0:
        raise ValueError("total field energy must be positive")
    return num / den


def perturbation_frequency_shift(participation, d_eps_real):
    """Cavity perturbation: Delta f/f = -p * Re(Delta eps)."""
    if not (0.0 <= participation <= 1.0):
        raise ValueError("participation must lie in [0, 1]")
    return -participation * d_eps_real


# --- file ingestion -------------------------------------------------------

def load_current_density_map(path) -> CurrentDensityMap:
    """CSV schema: header ``x_m,y_m,j_norm``; ``#`` comment lines allowed.

    Values are expected pre-conditioned by the EM-solver export (in
    particular, corner cells averaged over a small neighborhood so that
    current crowding does not leak into the normalization).
    """
    cols = io.read_columns(path, ["x_m", "y_m", "j_norm"])
    return CurrentDensityMap(x=cols["x_m"], y=cols["y_m"], j_norm=cols["j_norm"])


def load_field_energy_maps(path) -> FieldEnergyMaps:
    """CSV schema: ``x_m,y_m,z_m,e2,h2,eps_re,mu_re,in_local,cell_vol_m3``.

    in_local holds 0/1 flags; a ``(0|1)`` suffix on the header token is
    tolerated.
    """
    cols = io.read_columns(path, ["x_m", "y_m", "z_m", "e2", "h2", "eps_re",
                                  "mu_re", "in_local", "cell_vol_m3"])
    return FieldEnergyMaps(e2=cols["e2"], h2=cols["h2"], eps_re=cols["eps_re"],
                           mu_re=cols["mu_re"],
                           in_local=cols["in_local"] > 0.5,
                           cell_vol=cols["cell_vol_m3"])
