"""Hanger-type (notch) resonator transmission models and photon-number budget.

A resonator side-coupled to a feedline produces a dip in S21:

    S21(f) = 1 - (Q_tot/Q_ext) / (1 + 2i Q_tot (f - f_r)/f_r)

with 1/Q_tot = 1/Q_int + 1/Q_ext.  The full line model multiplies this by an
amplitude/delay/phase prefactor and allows a complex external Q that encodes
the circuit-asymmetry rotation of the resonance circle (Khalil et al.,
J. Appl. Phys. 111, 054510 (2012)).  :func:`notch` is this model's one
implementation; the synthetic traces, through :func:`s21_full`, and the
full-S21 fit evaluate it.

Decay rates are angular throughout: kappa_x = omega_r / Q_x in rad/s.  Note
that device tables are often labeled "kappa/2pi (MHz)" while carrying values
that are numerically omega_r/Q in units of 1e6 rad/s; the photon-number
formula below only closes on the tabulated cavity photon numbers under the
rad/s reading, which is the one used here.
"""

from dataclasses import dataclass

import numpy as np

from .checks import check_range
from .constants import HBAR, TWO_PI


@dataclass(frozen=True)
class ResonatorMode:
    """A single resonance: frequency plus internal/external quality factors.

    Parameters
    ----------
    f_r : float
        Resonance frequency [Hz].
    q_int : float
        Internal quality factor.
    q_ext : float
        Real part of the external quality factor.
    q_ext_imag : float, optional
        Imaginary part of the external quality factor; encodes the
        asymmetry rotation exp(i*phi) of the resonance circle.  The
        conventional reported external Q is ``q_ext_reported``.
    """

    f_r: float
    q_int: float
    q_ext: float
    q_ext_imag: float = 0.0

    def __post_init__(self):
        for name in ("f_r", "q_int", "q_ext"):
            check_range(name, getattr(self, name))
        check_range("q_ext_imag", self.q_ext_imag, "finite")

    @classmethod
    def from_asymmetry_angle(cls, f_r, q_int, q_ext_mag, phi):
        """Build a mode from |Q_ext| and the asymmetry angle phi.

        The complex external Q is Q_ext_mag * exp(-i*phi), so phi = 0
        recovers the symmetric dip.
        """
        check_range("q_ext_mag", q_ext_mag)
        check_range("phi", phi, "finite")
        if not (np.cos(phi) > 0):
            raise ValueError(f"phi must lie within pi/2 of 0 (mod 2 pi), got {phi}")
        return cls(f_r, q_int, q_ext_mag * np.cos(phi), -q_ext_mag * np.sin(phi))

    @property
    def q_ext_complex(self) -> complex:
        return complex(self.q_ext, self.q_ext_imag)

    @property
    def inv_q_ext_effective(self) -> float:
        """Re(1/(Q_ext,real + i Q_ext,imag)) — the loss-bearing part of the coupling."""
        return (1.0 / self.q_ext_complex).real

    @property
    def q_ext_reported(self) -> float:
        """External Q in the diameter-corrected convention, 1/Re(1/Q_ext_complex)."""
        return 1.0 / self.inv_q_ext_effective

    @property
    def q_tot(self) -> float:
        """Total quality factor, 1/Q_tot = 1/Q_int + Re(1/Q_ext_complex)."""
        return 1.0 / (1.0 / self.q_int + self.inv_q_ext_effective)

    @property
    def omega_r(self) -> float:
        """Angular resonance frequency [rad/s]."""
        return TWO_PI * self.f_r

    @property
    def kappa_int(self) -> float:
        """Internal energy decay rate [rad/s]."""
        return self.omega_r / self.q_int

    @property
    def kappa_ext(self) -> float:
        """External energy decay rate [rad/s]."""
        return self.omega_r * self.inv_q_ext_effective

    @property
    def kappa_tot(self) -> float:
        return self.kappa_int + self.kappa_ext


@dataclass(frozen=True)
class LineCalibration:
    """Feedline amplitude/delay/phase prefactor A * exp(-i(2 pi f tau + alpha)).

    amplitude is dimensionless (> 0), delay in seconds, phase_offset in rad.
    """

    amplitude: float = 1.0
    delay: float = 0.0
    phase_offset: float = 0.0

    def __post_init__(self):
        check_range("amplitude", self.amplitude)
        for name in ("delay", "phase_offset"):
            check_range(name, getattr(self, name), "finite")


@dataclass(frozen=True)
class DriveCondition:
    """Microwave drive: input power [W] at the feedline and probe frequency [Hz]."""

    input_power: float
    probe_frequency: float

    def __post_init__(self):
        check_range("input_power", self.input_power)
        check_range("probe_frequency", self.probe_frequency, "finite")


def notch(f, f_r, q_tot, q_ext, amplitude=1.0, delay=0.0, phase_offset=0.0):
    """S21 at f [Hz]: the dip above behind the line prefactor
    A exp(-i(2 pi f tau + alpha)), with amplitude A, delay tau [s] and phase
    offset alpha [rad].  q_ext may be real or complex (Q_e,r + i Q_e,i)."""
    f = np.asarray(f, dtype=float)
    dip = 1.0 - (q_tot / q_ext) / (1.0 + 2j * q_tot * ((f - f_r) / f_r))
    return amplitude * np.exp(-1j * (TWO_PI * f * delay + phase_offset)) * dip


def s21_full(mode: ResonatorMode, line: LineCalibration, f):
    """The mode's dip, complex Q_ext included, behind the line's prefactor."""
    return notch(f, mode.f_r, mode.q_tot, mode.q_ext_complex, line.amplitude,
                 line.delay, line.phase_offset)


def photon_number(mode: ResonatorMode, drive: DriveCondition):
    """Mean intracavity photon number for a hanger-type resonator.

    n_cav = [2 kappa_ext / (kappa_tot^2 + 4 (omega - omega_r)^2)] * P_in/(hbar omega_r)

    Raises ValueError when a decay rate overflows, and ZeroDivisionError
    when that denominator underflows to 0, as it does on resonance for
    kappa_tot below about 1e-162 rad/s, or when the photon energy
    hbar omega_r does, for f_r below about 1e-290 Hz.
    """
    for name, kappa in (("q_int", mode.kappa_int), ("q_ext", mode.kappa_ext)):
        if not kappa < np.inf:
            raise ValueError(f"{name} is too small: f_r / {name} overflows")
    w = TWO_PI * drive.probe_frequency
    det = w - mode.omega_r
    denominator = mode.kappa_tot**2 + 4.0 * det**2
    if denominator == 0.0:
        raise ZeroDivisionError("f_r is too small for q_int and q_ext to "
                                "give a linewidth whose square is nonzero")
    energy = HBAR * mode.omega_r
    if energy == 0.0:
        raise ZeroDivisionError("f_r is too small: the photon energy "
                                "hbar omega_r underflows to zero")
    lorentz = 2.0 * mode.kappa_ext / denominator
    return lorentz * drive.input_power / energy
