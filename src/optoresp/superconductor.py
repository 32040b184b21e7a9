"""Thin-film superconductor kinetics: penetration depth, kinetic inductance,
the frequency shift of a warming film, and the current-density ->
local-potential map.

Current maps come from external electromagnetic solvers as CSV files (see
:func:`load_current_density_map` for the schema); this module only consumes
them, through the table reader of :mod:`optoresp.io`, which names a
malformed or non-finite cell by ``path:lineno``.
"""

from dataclasses import dataclass

import numpy as np

from . import io
from .checks import check_range
from .constants import MU_0


@dataclass(frozen=True)
class FilmGeometry:
    """Nanowire film: thickness d, width w, length l, all in meters."""

    thickness: float
    width: float
    length: float

    def __post_init__(self):
        for name in ("thickness", "width", "length"):
            check_range(name, getattr(self, name))
        # the cross-section divides L_k,l and the frequency shift
        check_range("thickness times width", self.thickness * self.width)


@dataclass(frozen=True)
class SuperconductorParams:
    """Material parameters of the superconducting film.

    lambda0 : zero-temperature magnetic penetration depth [m]
    t_c : critical temperature [K]
    l_total_per_length : total inductance per unit length [H/m]; None is
        the kinetic-inductance-dominated limit, L_k,l at the reference
        temperature of :func:`freq_shift_from_temperature`.
    """

    lambda0: float
    t_c: float
    l_total_per_length: float | None = None

    def __post_init__(self):
        for name in ("lambda0", "t_c"):
            check_range(name, getattr(self, name))
        if self.l_total_per_length is not None:
            check_range("l_total_per_length", self.l_total_per_length)


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
    temperature may be an array; the result has its shape.  Without
    sc.l_total_per_length, L_t,l is L_k,l(T_ref) (kinetic-dominated).
    """
    l_total = sc.l_total_per_length
    if l_total is None:
        with np.errstate(over="ignore"):
            l_total = kinetic_inductance_per_length(sc, geom, t_ref)
        check_range("lambda0 squared over thickness times width", l_total)
    lam_ref = penetration_depth(sc, t_ref)
    lam = penetration_depth(sc, temperature)
    return (-(MU_0 / (geom.thickness * geom.width)) * lam_ref
            * (lam - lam_ref) / l_total)


@dataclass(frozen=True)
class CurrentDensityMap:
    """Normalized current density J(x, y) in [0, 1] on scattered sample points."""

    x: np.ndarray
    y: np.ndarray
    j_norm: np.ndarray

    def __post_init__(self):
        for name in ("x", "y"):
            check_range(name, getattr(self, name), "finite")
        check_range("j_norm", self.j_norm, (0.0, 1.0))


def local_potential(current_map: CurrentDensityMap):
    """|V_local| = |cos(arcsin J)| = sqrt(1 - J^2), pointwise.

    1 at a voltage antinode (J = 0), 0 at a current antinode (J = 1); TLS
    coupling strength scales with this local electric-field amplitude.
    """
    return np.sqrt(1.0 - np.asarray(current_map.j_norm, dtype=float) ** 2)


# --- file ingestion -------------------------------------------------------

def load_current_density_map(path) -> CurrentDensityMap:
    """CSV schema: header ``x_m,y_m,j_norm``; ``#`` comment lines allowed.

    Values are expected pre-conditioned by the EM-solver export (in
    particular, corner cells averaged over a small neighborhood so that
    current crowding does not leak into the normalization).
    """
    cols = io.read_columns(path, ["x_m", "y_m", "j_norm"])
    return CurrentDensityMap(x=cols["x_m"], y=cols["y_m"], j_norm=cols["j_norm"])
