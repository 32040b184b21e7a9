"""Thin-film superconductor kinetics: penetration depth, kinetic inductance
and the frequency shift of a warming film."""

from dataclasses import dataclass

import numpy as np

from .checks import check_fields, ranged
from .constants import MU_0


@dataclass(frozen=True)
class FilmGeometry:
    """Nanowire film cross-section: thickness d and width w, in meters.  The
    frequency shift of a warming film depends on the cross-section only."""

    # m: a partial monolayer (as an average) to a chip
    thickness: float = ranged(1e-11, 0.1)
    width: float = ranged(1e-11, 0.1)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SuperconductorParams:
    """Material parameters of the superconducting film.

    lambda0 : zero-temperature magnetic penetration depth [m]
    t_c : critical temperature [K]
    l_total_per_length : total inductance per unit length [H/m]; None is
        the kinetic-inductance-dominated limit, L_k,l at the reference
        temperature of :func:`freq_shift_from_temperature`.
    """

    lambda0: float = ranged(1e-9, 1e-3)  # m: 1 nm to 1 mm
    t_c: float = ranged(1e-3, 1e3)  # K: every superconductor, with margin
    # H/m: 1 nH/m to 1 kH/m, around a nanowire's 1e-4
    l_total_per_length: float | None = ranged(1e-9, 1e3, None)

    def __post_init__(self):
        check_fields(self)


def penetration_depth(sc: SuperconductorParams, temperature):
    """lambda(T) = lambda(0)/sqrt(1 - (T/T_c)^4); defined for 0 <= T < T_c."""
    t = np.asarray(temperature, dtype=float)
    # one min and one max decide it, so a NaN fails
    if not (0.0 <= np.min(t, initial=np.inf)
            and np.max(t, initial=-np.inf) < sc.t_c):
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
        l_total = kinetic_inductance_per_length(sc, geom, t_ref)
    lam_ref = penetration_depth(sc, t_ref)
    lam = penetration_depth(sc, temperature)
    return (-(MU_0 / (geom.thickness * geom.width)) * lam_ref
            * (lam - lam_ref) / l_total)
