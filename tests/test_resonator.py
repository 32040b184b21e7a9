import numpy as np
import pytest
from numpy.testing import assert_allclose

from optoresp.constants import TWO_PI, dbm_to_watts
from optoresp.resonator import (DriveCondition, LineCalibration, ResonatorMode,
                                notch, photon_number, s21_full)

MODE1 = ResonatorMode(f_r=2.418e9, q_int=70134, q_ext=3226)

# (f_r [Hz], Q_int, Q_ext, P_in [dBm], published n_cav)
PUBLISHED_MODES = [
    (2.418e9, 70134, 3226, -77, 4.83e6),
    (4.884e9, 76771, 499, -72, 6.25e5),
    (7.061e9, 34477, 480, -72, 2.84e5),
    (11.63e9, 37364, 2743, -72, 5.33e5),
]


def test_s21_on_resonance_equal_qs():
    mode = ResonatorMode(5e9, 1e4, 1e4)
    assert_allclose(notch(5e9, mode.f_r, mode.q_tot, mode.q_ext), 0.5 + 0j,
                    rtol=1e-12)


def test_s21_decoupled_is_unity():
    mode = ResonatorMode(5e9, 1e4, 1e15)
    for f in (4.9e9, 5e9, 5.1e9):
        assert abs(notch(f, mode.f_r, mode.q_tot, mode.q_ext) - 1.0) < 1e-10


def test_s21_half_linewidth_point():
    mode = ResonatorMode(5e9, 2e4, 2e4)
    f = 5e9 + 5e9 / (2 * mode.q_tot)
    assert_allclose(notch(f, mode.f_r, mode.q_tot, mode.q_ext), 0.75 + 0.25j,
                    rtol=1e-12)


def test_s21_full_reduces_to_ideal():
    rng = np.random.default_rng(11)
    mode = ResonatorMode(7.061e9, 34477, 480)
    line = LineCalibration(amplitude=1.0, delay=0.0, phase_offset=0.0)
    f = 7.061e9 + rng.uniform(-5e7, 5e7, 100)
    assert_allclose(s21_full(mode, line, f),
                    notch(f, mode.f_r, mode.q_tot, mode.q_ext), rtol=1e-12)


def test_s21_full_line_phase_only():
    mode = ResonatorMode(5e9, 1e4, 1e3)
    line = LineCalibration(amplitude=0.7, delay=0.0, phase_offset=np.pi)
    f_far = 5e9 + 2000 * 5e9 / mode.q_tot
    assert abs(s21_full(mode, line, f_far) - (-0.7)) < 1e-3


def test_s21_on_resonance_first_mode_depth():
    # Q_tot = 3084.14, 1 - Q_tot/Q_ext = 0.043975
    val = abs(s21_full(MODE1, LineCalibration(), 2.418e9))
    assert_allclose(val, 0.04397491821155941, rtol=1e-10)
    assert_allclose(val, 0.0440, atol=3e-5)


@pytest.mark.parametrize("f_r,q_int,q_ext,p_dbm,n_pub", PUBLISHED_MODES)
def test_photon_number_published_values(f_r, q_int, q_ext, p_dbm, n_pub):
    mode = ResonatorMode(f_r, q_int, q_ext)
    drive = DriveCondition(dbm_to_watts(p_dbm), f_r)
    assert abs(photon_number(mode, drive) - n_pub) / n_pub < 0.02


def test_photon_number_monotone_and_peaked():
    mode = ResonatorMode(5e9, 1e4, 1e3)
    n1 = photon_number(mode, DriveCondition(1e-12, 5e9))
    n2 = photon_number(mode, DriveCondition(1e-11, 5e9))
    assert_allclose(n2 / n1, 10.0, rtol=1e-12)
    for df in (1e5, 1e6, 1e7):
        assert photon_number(mode, DriveCondition(1e-12, 5e9 + df)) < n1
    # detuned by 10 linewidths: reduced by ~1/(1 + 4*10^2)
    df10 = 10 * mode.kappa_tot / TWO_PI
    ratio = photon_number(mode, DriveCondition(1e-12, 5e9 + df10)) / n1
    assert_allclose(ratio, 1.0 / 401.0, rtol=1e-3)


def test_kappa_rad_per_s_reading_of_published_table():
    # published "kappa/2pi (MHz)" numerals are omega_r/Q in 1e6 rad/s
    assert round(MODE1.kappa_int / 1e6, 3) == 0.217
    assert round(MODE1.kappa_ext / 1e6, 2) == 4.71


def test_mode_validation():
    with pytest.raises(ValueError):
        ResonatorMode(-1e9, 1e4, 1e3)
    with pytest.raises(ValueError):
        ResonatorMode(1e9, 0, 1e3)
    with pytest.raises(ValueError):
        LineCalibration(amplitude=0.0)
    with pytest.raises(ValueError):
        DriveCondition(input_power=0.0, probe_frequency=1e9)


def test_q_ext_reported_convention():
    mode = ResonatorMode.from_asymmetry_angle(5e9, 1e5, 480, 0.3)
    assert_allclose(mode.q_ext_reported, 480 / np.cos(0.3), rtol=1e-12)
    assert mode.q_tot < min(mode.q_int, mode.q_ext_reported)
