import numpy as np
import pytest
from numpy.testing import assert_allclose

from optoresp.constants import MU_0
from optoresp.superconductor import (FilmGeometry, SuperconductorParams,
                                     freq_shift_from_temperature,
                                     kinetic_inductance_per_length,
                                     penetration_depth)

GEOM = FilmGeometry(thickness=10e-9, width=150e-9)
SC = SuperconductorParams(lambda0=0.72e-6, t_c=14.0)


def test_penetration_depth_limits():
    assert penetration_depth(SC, 0.0) == SC.lambda0
    t_half = SC.t_c * 0.5 ** 0.25
    assert_allclose(penetration_depth(SC, t_half), np.sqrt(2) * SC.lambda0,
                    rtol=1e-12)
    assert penetration_depth(SC, 0.999 * SC.t_c) > 10 * SC.lambda0
    with pytest.raises(ValueError):
        penetration_depth(SC, SC.t_c)
    with pytest.raises(ValueError):
        penetration_depth(SC, 1.5 * SC.t_c)
    # a NaN temperature fails the range check, whether it is the temperature
    # or the reference temperature of the frequency shift
    message = r"^temperature must lie in \[0, T_c = 14.0 K\)$"
    for temperature in (np.nan, [0.1, np.nan], [np.nan, 0.1]):
        with pytest.raises(ValueError, match=message):
            penetration_depth(SC, temperature)
    with pytest.raises(ValueError, match=message):
        freq_shift_from_temperature(SC, GEOM, [0.1, np.nan], 0.1)
    with pytest.raises(ValueError, match=message):
        freq_shift_from_temperature(SC, GEOM, [0.1, 0.2], np.nan)


def test_penetration_depth_monotone():
    temps = np.linspace(0.0, 0.95 * SC.t_c, 50)
    lam = penetration_depth(SC, temps)
    assert np.all(np.diff(lam) > 0)


def test_kinetic_inductance_scalings():
    lk = kinetic_inductance_per_length(SC, GEOM, 0.0)
    wider = FilmGeometry(GEOM.thickness, 2 * GEOM.width)
    assert_allclose(kinetic_inductance_per_length(SC, wider, 0.0), lk / 2,
                    rtol=1e-12)
    sc2 = SuperconductorParams(2 * SC.lambda0, SC.t_c)
    assert_allclose(kinetic_inductance_per_length(sc2, GEOM, 0.0), 4 * lk,
                    rtol=1e-12)


@pytest.mark.parametrize("side", [1e-300, 1e300])
def test_film_refuses_cross_section_out_of_range(side):
    """Each side is finite and positive, but d*w underflows to 0 or
    overflows to inf, and L_k,l and the frequency shift divide by it."""
    with pytest.raises(ValueError,
                       match="^thickness times width must be positive"):
        FilmGeometry(side, side)


def test_total_kinetic_inductance_anchor():
    # lambda(0) that reproduces a 0.65 uH total on the 10 nm x 150 nm x 1.5 mm wire
    l_k_total, length = 0.65e-6, 1.5e-3
    lam0 = np.sqrt(l_k_total * GEOM.thickness * GEOM.width / (MU_0 * length))
    assert_allclose(lam0, 7.192034237731906e-7, rtol=1e-12)  # ~0.72 um
    sc = SuperconductorParams(lam0, 14.0)
    forward = kinetic_inductance_per_length(sc, GEOM, 0.0) * length
    assert_allclose(forward, l_k_total, rtol=1e-12)


def test_freq_shift_from_temperature():
    # SC sets no l_total_per_length: the kinetic-dominated L_k,l(t_ref)
    assert freq_shift_from_temperature(SC, GEOM, 0.1, 0.1) == 0.0
    temps = np.linspace(0.2, 5.0, 30)
    shifts = np.array([freq_shift_from_temperature(SC, GEOM, t, 0.1)
                       for t in temps])
    assert np.all(shifts < 0)
    assert np.all(np.diff(shifts) < 0)
    given = SuperconductorParams(SC.lambda0, SC.t_c,
                                 kinetic_inductance_per_length(SC, GEOM, 0.1))
    assert np.array_equal(freq_shift_from_temperature(given, GEOM, temps, 0.1),
                          shifts)


def test_freq_shift_linearized_vs_exact():
    l_total = kinetic_inductance_per_length(SC, GEOM, 0.1)
    # pick T where the depth change is still small (< 0.5%)
    t = 3.5
    lam0, lam = penetration_depth(SC, 0.1), penetration_depth(SC, t)
    assert (lam - lam0) / lam0 < 5e-3
    exact = (-(lam**2 - lam0**2) * MU_0
             / (2 * l_total * GEOM.thickness * GEOM.width))
    approx = freq_shift_from_temperature(SC, GEOM, t, 0.1)
    assert abs(approx - exact) < 0.01 * abs(exact)

